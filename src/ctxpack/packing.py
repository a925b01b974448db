"""Apply packing schedules to latent histories.

Frames are grouped under each entry's kernel and mean-pooled into tokens.
Mean pooling stands in for a learned input projection: it preserves the
geometry, token counts, and linearity that the rest of the toolkit checks.

Entries bind frames through the planner's one iteration rule,
``planner._iteration``, and the spans it binds are packed in segment
order. Token order is deterministic: temporal first, then row-major
within each kernel grid. Time spans are given on a packed timeline that
runs tail, entries, and generated section in segment order, with gaps
counted as zero-width at packing time. A token's phase is the centre of
the windows it pools in time, rows and columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .budget import TAIL_KERNEL, tokens_for_schedule
from .errors import (
    ExcessHistory,
    IndivisibleDims,
    InvalidSchedule,
    ShortHistory,
    UnsupportedKernel,
)
from .planner import Iteration, Span, _iteration
from .schedule import (
    BASE_KERNEL,
    Frames,
    Generate,
    KernelSpec,
    PackingSchedule,
    Tail,
    TailMode,
)

# Bytes of a new snapshot that are filled and checked in one step.
_CHECK_BYTES = 1 << 18
# Bytes of history in one run of a ta or tc tail.
_RUN_BYTES = 1 << 22

LEARNED_KERNELS = (
    KernelSpec(1, 2, 2),
    KernelSpec(2, 4, 4),
    KernelSpec(4, 8, 8),
    KernelSpec(8, 16, 16),
)


def _check_shape(shape: tuple[int, ...]) -> None:
    """Raise ``ValueError`` unless ``shape`` is a latent video's (T, H, W, C)."""
    if len(shape) != 4:
        raise ValueError(f"latent video must be 4D (T,H,W,C), got shape {shape}")
    if min(shape[1:]) < 1:
        raise ValueError(f"H, W, C must all be >= 1, got shape {shape}")


def _fill_checked(
    shape: tuple[int, ...], dtype: np.dtype | type, fill: Callable[[np.ndarray, slice], None]
) -> np.ndarray:
    """A new read-only (T, H, W, C) array filled by ``fill(piece, frames)``.

    ``piece`` is the writable run of frames ``frames`` of the new array,
    about ``_CHECK_BYTES`` long, and is checked for finiteness as soon as
    it is filled, while it is still in cache.
    """
    _check_shape(shape)
    arr = np.empty(shape, dtype)
    step = max(1, _CHECK_BYTES // (arr.itemsize * math.prod(shape[1:])))
    for t in range(0, shape[0], step):
        frames = slice(t, t + step)
        fill(arr[frames], frames)
        if not np.isfinite(arr[frames]).all():
            raise ValueError("latent video must contain only finite values")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class LatentVideo:
    """A (T, H, W, C) block of latent frames with finite values.

    ``array`` is a read-only snapshot of the input: float32 input stays
    float32, anything else becomes float64. It is a copy, so writing to
    the caller's array later cannot reach a validated history; the videos
    ``read_video``, ``dequantize`` and ``reorder_frames`` return are built
    over the one snapshot they fill, with no second copy. ``data`` is the
    same values as float64, built on first use and cached; consumers that
    reduce frames cast only the frames they read.
    """

    array: np.ndarray

    def __post_init__(self) -> None:
        shape, read = _held(np.asarray(self.array))
        object.__setattr__(self, "array", read(0, shape[0]))

    @classmethod
    def _over(cls, array: np.ndarray) -> LatentVideo:
        """A video kept over ``array``, a new ``_fill_checked`` snapshot, uncopied."""
        video = object.__new__(cls)
        object.__setattr__(video, "array", array)
        return video

    @cached_property
    def data(self) -> np.ndarray:
        """The frames as a read-only float64 array."""
        if self.array.dtype == np.float64:
            return self.array
        data = self.array.astype(np.float64)
        data.setflags(write=False)
        return data

    @property
    def frame_count(self) -> int:
        return self.array.shape[0]

    @property
    def height(self) -> int:
        return self.array.shape[1]

    @property
    def width(self) -> int:
        return self.array.shape[2]

    @property
    def channels(self) -> int:
        return self.array.shape[3]


def _held(history: LatentVideo | np.ndarray) -> tuple[tuple[int, ...], Callable]:
    """A history in memory as its (T, H, W, C) and ``read(start, stop)``: a
    slice of a ``LatentVideo``'s snapshot, or, for a raw array, whose shape
    is checked at once, a ``_fill_checked`` copy of frames ``start .. stop``
    alone (float32 stays float32, anything else becomes float64)."""
    if isinstance(history, LatentVideo):
        arr = history.array
        return arr.shape, lambda start, stop: arr[start:stop]
    x = np.asarray(history)
    _check_shape(x.shape)
    width = np.float32 if x.dtype == np.float32 else np.float64

    def read(start: int, stop: int) -> np.ndarray:
        def copy(piece: np.ndarray, frames: slice) -> None:
            piece[...] = x[start:stop][frames]

        return _fill_checked((stop - start, *x.shape[1:]), width, copy)

    return x.shape, read


@dataclass(frozen=True, eq=False)
class PackedToken:
    """One context token with full provenance.

    ``phase`` holds the mean (time, row, column) latent position of the
    pooled window, the positions a rotary embedding would be generated at.
    """

    time_span: tuple[int, int]
    cell: tuple[int, int]
    kernel: KernelSpec
    feature: np.ndarray
    phase: tuple[float, float, float]


@dataclass(frozen=True, eq=False)
class PackedBlock:
    """One pooled grid: the tokens that share a time span and a kernel.

    ``grid`` is the read-only (rows, cols, C) feature grid. The token in
    cell (r, c) has phase ``(time_phase, row_phases[r], col_phases[c])``.
    """

    time_span: tuple[int, int]
    kernel: KernelSpec
    time_phase: float
    row_phases: tuple[float, ...]
    col_phases: tuple[float, ...]
    grid: np.ndarray

    @property
    def size(self) -> int:
        return len(self.row_phases) * len(self.col_phases)


@dataclass(frozen=True, eq=False)
class PackedContext:
    """The pooled grids a schedule produces, including the section slots.

    ``blocks`` run in token order. ``features`` and ``tokens`` are views
    derived from them on first use and cached.
    """

    blocks: tuple[PackedBlock, ...]
    schedule: PackingSchedule
    budget: int
    generate_span: tuple[int, int]
    tail_span: tuple[int, int] | None = None

    @cached_property
    def features(self) -> np.ndarray:
        """The (budget, C) token features in token order."""
        grids = [b.grid.reshape(b.size, -1) for b in self.blocks]
        features = np.concatenate(grids)
        features.setflags(write=False)
        return features

    @cached_property
    def tokens(self) -> tuple[PackedToken, ...]:
        return tuple(
            PackedToken(b.time_span, (r, c), b.kernel, b.grid[r, c], (b.time_phase, rp, cp))
            for b in self.blocks
            for r, rp in enumerate(b.row_phases)
            for c, cp in enumerate(b.col_phases)
        )

    @property
    def tail_frame_count(self) -> int:
        if self.tail_span is None:
            return 0
        return self.tail_span[1] - self.tail_span[0]


@dataclass(frozen=True)
class KernelResolution:
    """A requested kernel split into pre-pooling and a physical kernel."""

    downsample: tuple[int, int, int]
    physical: KernelSpec


def resolve_kernel(requested: KernelSpec) -> KernelResolution:
    """Map a kernel onto the largest learned kernel plus a downsample.

    The physical kernel is the highest-rate learned kernel that fits the
    request element-wise and divides it evenly on every axis.
    """
    for physical in sorted(LEARNED_KERNELS, key=lambda k: k.rate, reverse=True):
        if (
            requested.p_f % physical.p_f == 0
            and requested.p_h % physical.p_h == 0
            and requested.p_w % physical.p_w == 0
        ):
            ds = (
                requested.p_f // physical.p_f,
                requested.p_h // physical.p_h,
                requested.p_w // physical.p_w,
            )
            return KernelResolution(ds, physical)
    raise UnsupportedKernel(
        f"kernel {requested.dims} is not a multiple of any learned kernel"
    )


def _pool_block(block: np.ndarray, kernel: KernelSpec, clipped: bool = False) -> np.ndarray:
    """Mean-pool (T, H, W, C) frames ``p_f`` at a time, or all T if fewer,
    into a read-only (T // p_f, H', W', C) float64 stack of grids.

    Any H and W pool (``_packed`` checks the dims first where padding is
    not allowed): a window's float64 sum is divided by a whole window's
    pixel count (the zero-padded mean), or, if ``clipped``, by the pixels
    it holds. For every C the sum adds the window's pixels one at a time in
    memory order (frame, row, column), from +0.0; ``_window_sums`` is that
    sum. Zero padding would add only +0.0 to it, so no block is padded.
    """
    t, h, w, c = block.shape
    p_f, p_h, p_w = min(kernel.p_f, t), kernel.p_h, kernel.p_w
    grids = np.empty((t // p_f, -(-h // p_h), -(-w // p_w), c))
    for r0, r1, dh in _runs(h, p_h):
        for c0, c1, dw in _runs(w, p_w):
            out = grids[:, r0 // p_h : -(-r1 // p_h), c0 // p_w : -(-c1 // p_w)]
            part = block[:, r0:r1, c0:c1].reshape(-1, p_f, out.shape[1], dh, out.shape[2], dw, c)
            _window_sums(part, out)
            if clipped:
                out /= p_f * dh * dw
    if not clipped:
        grids /= p_f * p_h * p_w
    grids.setflags(write=False)
    return grids


def _window_sums(part: np.ndarray, out: np.ndarray) -> None:
    """Write the float64 sum of each window of ``part``, a (G, p_f, R, dh,
    Cc, dw, C) view, into ``out`` (G, R, Cc, C).

    Each sum adds its window's pixels one at a time in memory order,
    starting from +0.0. A band of windows is copied into one float64 buffer
    of at most ``_CHECK_BYTES``, one row per window pixel, and the rows are
    summed in order: numpy adds a table's rows one at a time when a row
    holds two or more values, so each row ends in spare zero columns. A
    window too large for the buffer is a band of its own, copied a run of
    its frames, rows or columns at a time, and each run after the first is
    summed after a row of the running sums.
    """
    groups, p_f, rows, dh, cols, dw, c = part.shape
    pixels = (p_f, dh, dw)
    room = _CHECK_BYTES // 8
    # windows per band: as many as the buffer holds whole, and at least
    # enough for rows of 512 values, as numpy's cost per row shows below that
    fit = max(room // (math.prod(pixels) * c), -(-512 // c))
    n_c = min(cols, fit)
    n_r = min(rows, fit // n_c)
    n_g = min(groups, fit // (n_c * n_r))
    # a table row is whole groups of four values with at least one spare
    # zero: numpy sums a lone column pairwise, not row by row, and rows
    # that start mid-group slow its row adds
    width = n_g * n_r * n_c * c // 4 * 4 + 4
    # runs along the outermost pixel axis whose inner axes fit: whole
    # windows if they fit, else after one row of running sums
    head = int(math.prod(pixels) * width > room)
    axis = next((a for a in range(3) if (math.prod(pixels[a + 1 :]) + head) * width <= room), 2)
    inner = math.prod(pixels[axis + 1 :])
    step = max(1, (room - head * width) // (inner * width))
    buffer = np.empty((head + min(step, pixels[axis]) * inner) * width)
    sums = np.empty(width)
    for g0 in range(0, groups, n_g):
        for r0 in range(0, rows, n_r):
            for c0 in range(0, cols, n_c):
                g, r, cc = slice(g0, g0 + n_g), slice(r0, r0 + n_r), slice(c0, c0 + n_c)
                band = part[g, :, r, :, cc].transpose(1, 3, 5, 0, 2, 4, 6)
                w = math.prod(band.shape[3:])
                span = w // 4 * 4 + 4  # as width
                tables = buffer[: buffer.size // span * span].reshape(-1, span)
                tables[:, w:] = 0.0
                total = sums[:span]
                lead = 0
                for index in np.ndindex(*pixels[:axis]):
                    for s in range(0, pixels[axis], step):
                        run = band[(*index, slice(s, s + step))]
                        table = tables[: lead + run.size // w]
                        table[:lead] = total
                        np.copyto(table[lead:, :w].reshape(run.shape), run)
                        table.sum(axis=0, out=total)
                        lead = 1
                out[g, r, cc] = total[:w].reshape(band.shape[3:])


def _runs(size: int, step: int) -> list[tuple[int, int, int]]:
    """``(start, stop, window)`` runs over ``size`` positions: the whole
    windows of ``step``, then the clipped last window, if any."""
    whole = size - size % step
    return [r for r in ((0, whole, step), (whole, size, size - whole)) if r[0] < r[1]]


def _windows(size: int, step: int) -> list[tuple[int, int]]:
    """The windows of ``step`` positions over ``size``: each ends where the
    next starts, and the last is clipped at ``size``."""
    starts = range(0, size, step)
    return list(zip(starts, [*starts[1:], size]))


def _centre(window: tuple[int, int]) -> float:
    """The mean of the positions ``lo .. hi - 1`` a window pools."""
    lo, hi = window
    return (lo + hi - 1) / 2


def _block(
    grid: np.ndarray,
    kernel: KernelSpec,
    time_span: tuple[int, int],
    extent: tuple[int, int] | None = None,
) -> PackedBlock:
    """Wrap a pooled grid with the phases of the windows it pools.

    Every phase is a window's centre: the time span's, and those of the
    kernel's row and column windows over ``extent`` (H, W) pixels. The
    extent defaults to the padded grid, whose windows are all whole.
    """
    h, w = extent or (grid.shape[0] * kernel.p_h, grid.shape[1] * kernel.p_w)
    rows = tuple(map(_centre, _windows(h, kernel.p_h)))
    cols = tuple(map(_centre, _windows(w, kernel.p_w)))
    return PackedBlock(time_span, kernel, _centre(time_span), rows, cols, grid)


def _bind(schedule: PackingSchedule, total: int) -> tuple[Iteration, int, tuple[int, int]]:
    """The planner's iteration for a ``total``-frame history, with both
    sides bound outward from the frame ``middle`` where they meet, and the
    bound range ``(lo, hi)`` of its ``INPUTS``."""
    if schedule.tail_at_start:
        middle = max(0, total - sum(e.count for e in schedule.entries_after_generate))
    else:
        middle = min(sum(e.count for e in schedule.entries_before_generate), total)
    iteration = _iteration(schedule, (), middle, Span(middle, total), Span(middle, middle))
    spans = [b.span for b in iteration.inputs] or [Span(middle, middle)]
    return iteration, middle, (spans[0].start, spans[-1].stop)


def apply_schedule(
    history: LatentVideo | np.ndarray,
    schedule: PackingSchedule,
    *,
    pad_history: bool = False,
    pad_spatial: bool = False,
) -> PackedContext:
    """Pack a concrete history under a schedule.

    Entries bind frames by the planner's one iteration rule,
    ``planner._iteration``: the entries before the generated section end
    where those after it begin, and each side fills from that point
    outward. Frames outside the bound range form the tail. With
    ``pad_history`` a short entry replicates its side's oldest (before) or
    newest (after) bound frame. The emitted budget always equals
    ``tokens_for_schedule`` for the same dims and tail count; the
    generated section contributes one zero-feature block per frame at the
    base kernel, all sharing one grid. A schedule whose tail sits at the
    end needs an entry after the generated section, and a ``+D`` schedule
    must be quantized first; either raises ``InvalidSchedule``.

    ``history`` is a ``LatentVideo`` or a raw (T, H, W, C) array; a raw
    array is checked for finiteness (``ValueError``) only in the frames the
    pack reads, as ``ctxpack pack`` checks a file.
    """
    return _packed(*_held(history), schedule, pad_history, pad_spatial)


def _packed(
    shape: tuple[int, ...],
    read: Callable[[int, int], np.ndarray],
    schedule: PackingSchedule,
    pad_history: bool,
    pad_spatial: bool,
) -> PackedContext:
    """Pack a history of ``shape`` (T, H, W, C) whose frames ``start ..
    stop`` ``read(start, stop)`` returns, as ``apply_schedule`` describes.

    Every check that needs no frame runs before any frame is read: the
    schedule's own, the history's length against its entries, each entry's
    count against its kernel step, then H and W against each kernel it
    pools. The bound and tail ranges come once from ``_bind``.
    """
    total, h, w = shape[:3]
    pre = schedule.entries_before_generate
    post = schedule.entries_after_generate
    if schedule.discretize_history:
        raise InvalidSchedule(
            f"schedule {schedule.name!r} packs a discretized history; run "
            f"`ctxpack quantize` first, then pack {schedule.name[:-2]!r}"
        )
    if schedule.tail_at_end and not post:
        # the planner feeds such a schedule's entries the newest frames,
        # which the tail at the end would take
        raise InvalidSchedule(
            f"schedule {schedule.name!r} has its tail at the end but no entry "
            "after the generated section"
        )
    for entry in (*pre, *post):
        resolve_kernel(entry.kernel)

    iteration, middle, (lo, hi) = _bind(schedule, total)
    # the bound range starts at frame 0 unless the tail comes first
    tail = (0, lo) if schedule.tail_at_start else (hi, total)
    n_tail = tail[1] - tail[0]
    capacity = sum(e.count for e in (*pre, *post))
    if n_tail and schedule.tail is None:
        raise ExcessHistory(
            f"history of {total} frames exceeds schedule capacity "
            f"{capacity} and there is no tail marker"
        )
    if hi - lo < capacity and not pad_history:
        raise ShortHistory(
            f"history of {total} frames cannot fill entries needing "
            f"{capacity} frames"
        )
    if (pre and lo == middle) or (post and hi == middle):
        raise ShortHistory("cannot pad from an empty history")
    for entry in (*pre, *post):
        if entry.count % entry.kernel.p_f and not pad_history:
            raise IndivisibleDims(
                f"entry of {entry.count} frames is not divisible by kernel step {entry.kernel.p_f}"
            )
    for seg in () if pad_spatial else schedule.segments:
        # the kernels _pack pools: a td tail reads nothing, a ta tail clips
        kernel = BASE_KERNEL if isinstance(seg, Generate) else getattr(seg, "kernel", None)
        if seg == Tail(TailMode.COMPRESS) and n_tail:
            kernel = schedule.coarsest_kernel
        if kernel and (h % kernel.p_h or w % kernel.p_w):
            raise IndivisibleDims(f"latent dims {h}x{w} are not divisible by kernel {kernel.dims}")
    context = _pack(read, schedule, iteration, (lo, hi), tail)
    expected = tokens_for_schedule(schedule, h, w, n_tail, pad=pad_history or pad_spatial)
    if context.budget != expected:
        raise RuntimeError(f"packed {context.budget} tokens but accounting expected {expected}")
    return context


def _pack(
    read: Callable[[int, int], np.ndarray],
    schedule: PackingSchedule,
    iteration: Iteration,
    bound: tuple[int, int],
    tail: tuple[int, int],
) -> PackedContext:
    """Pack the segments of ``schedule`` in order, unchecked: the entries
    pool the spans of ``iteration.inputs``, which lie in the frames
    ``bound``, and the tail takes the frames ``tail``. ``read(start,
    stop)`` returns frames ``start .. stop`` of the whole history; ``bound``
    is read once, a ``ta`` or ``tc`` tail in runs of about ``_RUN_BYTES``.
    A ``Skip`` adds no width to the timeline."""
    lo, hi = bound
    data = read(lo, hi)
    h, w, channels = data.shape[1:]
    blocks: list[PackedBlock] = []
    cursor = 0
    spans = (b.span for b in iteration.inputs)
    generate_span = tail_span = None
    for seg in schedule.segments:
        if isinstance(seg, Tail):
            start, stop = tail
            tail_span = (cursor, cursor + stop - start)
            # a td tail keeps its place on the timeline but is never read
            if start < stop and seg.mode is not TailMode.DELETE:
                step = max(1, _RUN_BYTES // (data.itemsize * h * w * channels))
                runs = (read(t, min(t + step, stop)) for t in range(start, stop, step))
                # each run is freed (del) before the next one is read
                if seg.mode is TailMode.APPEND:
                    # one grid per frame, pooled by the tail kernel's clipped windows
                    t = cursor
                    for run in runs:
                        grids = _pool_block(run, TAIL_KERNEL, clipped=True)
                        del run
                        for grid in grids:
                            blocks.append(_block(grid, TAIL_KERNEL, (t, t + 1), (h, w)))
                            t += 1
                else:
                    # the tail's mean frame, pooled by the coarsest kernel, spans the
                    # tail; its float64 sum adds the frames one at a time, in order,
                    # from +0.0
                    mean = np.zeros((h, w, channels))
                    for run in runs:
                        for i in range(len(run)):
                            mean += run[i]
                        del run
                    mean /= stop - start
                    kernel = schedule.coarsest_kernel
                    (grid,) = _pool_block(mean[None], kernel)
                    blocks.append(_block(grid, kernel, tail_span))
            cursor = tail_span[1]
        elif isinstance(seg, Generate):
            generate_span = (cursor, cursor + seg.count)
            zero_frame = np.zeros((1, h, w, channels), np.float32)
            (zero_grid,) = _pool_block(zero_frame, BASE_KERNEL)
            blocks += [_block(zero_grid, BASE_KERNEL, (t, t + 1)) for t in range(*generate_span)]
            cursor += seg.count
        elif isinstance(seg, Frames):
            span = next(spans)
            p_f = seg.kernel.p_f
            start, stop = span.start - lo, span.stop - lo
            frames = data[start:stop]
            short = seg.count - span.length
            if short or seg.count % p_f:
                # a short entry fills with its side's outermost bound frame,
                # then rounds up to whole kernel steps with its newest
                idx = list(range(start, stop))
                if generate_span:
                    idx += [stop - 1] * short
                else:
                    idx = [start] * short + idx
                idx += idx[-1:] * (-seg.count % p_f)
                frames = data[idx]
            for grid in _pool_block(frames, seg.kernel):
                blocks.append(_block(grid, seg.kernel, (cursor, cursor + p_f)))
                cursor += p_f

    budget = sum(b.size for b in blocks)
    return PackedContext(tuple(blocks), schedule, budget, generate_span, tail_span)
