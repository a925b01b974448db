"""Apply packing schedules to latent histories.

Frames are grouped under each entry's kernel and mean-pooled into tokens.
Mean pooling stands in for a learned input projection: it preserves the
geometry, token counts, and linearity that the rest of the toolkit checks.

Token order is deterministic: temporal first, then row-major within each
kernel grid. Time spans are given on a packed timeline that runs tail,
entries, and generated section in segment order, with gaps counted as
zero-width at packing time.
A token's phase is the centre of the windows it pools in time, rows and
columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .budget import TAIL_POOL, tokens_for_schedule
from .errors import (
    ExcessHistory,
    IndivisibleDims,
    InvalidSchedule,
    ShortHistory,
    UnsupportedKernel,
)
from .planner import bind_backward, bind_forward
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

LEARNED_KERNELS = (
    KernelSpec(1, 2, 2),
    KernelSpec(2, 4, 4),
    KernelSpec(4, 8, 8),
    KernelSpec(8, 16, 16),
)


def _fill_checked(
    shape: tuple[int, ...], dtype: np.dtype | type, fill: Callable[[np.ndarray, slice], None]
) -> np.ndarray:
    """A new read-only (T, H, W, C) array filled by ``fill(piece, frames)``.

    ``piece`` is the writable run of frames ``frames`` of the new array,
    about ``_CHECK_BYTES`` long, and is checked for finiteness as soon as
    it is filled, while it is still in cache.
    """
    if len(shape) != 4:
        raise ValueError(f"latent video must be 4D (T,H,W,C), got shape {shape}")
    if min(shape[1:]) < 1:
        raise ValueError(f"H, W, C must all be >= 1, got shape {shape}")
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
    the caller's array later cannot reach a validated history. ``data``
    is the same values as float64, built on first use and cached;
    consumers that reduce frames cast only the frames they read.
    """

    array: np.ndarray

    def __post_init__(self) -> None:
        source = np.asarray(self.array)

        def copy(piece: np.ndarray, frames: slice) -> None:
            piece[...] = source[frames]

        width = np.float32 if source.dtype == np.float32 else np.float64
        object.__setattr__(self, "array", _fill_checked(source.shape, width, copy))

    @classmethod
    def _filled(
        cls, shape: tuple[int, ...], dtype: np.dtype | type, fill: Callable[[np.ndarray, slice], None]
    ) -> LatentVideo:
        """A video over a new array that ``fill`` writes, as ``_fill_checked``
        describes. Nothing else can reach that array, so it is kept as the
        snapshot without the copy ``LatentVideo(x)`` makes."""
        video = object.__new__(cls)
        object.__setattr__(video, "array", _fill_checked(shape, dtype, fill))
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


def _pool_block(block: np.ndarray, kernel: KernelSpec, pad_spatial: bool) -> np.ndarray:
    """Mean-pool a (T, H, W, C) block into an (H', W', C) float64 grid.

    Each window's float64 sum over the block itself is divided by the
    pixel count of a whole window, T·p_h·p_w, so a window clipped at the
    bottom or right edge reads as zero-padded. Only a one-channel block
    is copied: cast to float64, and zero-padded if H or W is not a whole
    number of kernel windows.
    """
    t, h, w, c = block.shape
    p_h, p_w = kernel.p_h, kernel.p_w
    if (h % p_h or w % p_w) and not pad_spatial:
        raise IndivisibleDims(f"latent dims {h}x{w} are not divisible by kernel {kernel.dims}")
    if c == 1:
        # numpy sums one channel's contiguous runs pairwise, and the zeros
        # of the padding decide the pairs, as would a cast split at its
        # buffer size; with more channels each output sums in memory order
        block = block.astype(np.float64, copy=False)
        if h % p_h or w % p_w:
            block = np.pad(block, ((0, 0), (0, -h % p_h), (0, -w % p_w), (0, 0)))
            h, w = block.shape[1:3]
    grid = np.empty((-(-h // p_h), -(-w // p_w), c))
    for r0, r1, dh in _runs(h, p_h):
        for c0, c1, dw in _runs(w, p_w):
            # numpy starts every sum at +0.0, so a clipped window of -0.0
            # sums to +0.0, as its zero-padded form does
            part = block[:, r0:r1, c0:c1].reshape(t, (r1 - r0) // dh, dh, (c1 - c0) // dw, dw, c)
            grid[r0 // p_h : -(-r1 // p_h), c0 // p_w : -(-c1 // p_w)] = part.sum(
                axis=(0, 2, 4), dtype=np.float64
            )
    grid /= t * p_h * p_w
    grid.setflags(write=False)
    return grid


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


def _tail_blocks(
    block: np.ndarray,
    mode: TailMode,
    coarsest: KernelSpec,
    t_offset: int,
    pad_spatial: bool,
) -> list[PackedBlock]:
    """Pack leftover frames per the tail mode, from time ``t_offset`` on.

    Delete drops them. Append pools each frame spatially by (1, 32, 32)
    with clipped edge windows, one coarse pixel grid per frame. Compress
    averages all tail frames into a single frame and pools it with the
    schedule's coarsest kernel; its block spans the whole tail.
    """
    n, h, w = block.shape[:3]
    if mode is TailMode.DELETE or n == 0:
        return []

    if mode is TailMode.APPEND:
        kernel = KernelSpec(*TAIL_POOL)
        rows = _windows(h, kernel.p_h)
        cols = _windows(w, kernel.p_w)
        # one mean per window over every tail frame at once; each frame's
        # sum runs in the same order as a per-frame mean would
        grids = np.empty((n, len(rows), len(cols), block.shape[3]))
        for r, (r0, r1) in enumerate(rows):
            for c, (c0, c1) in enumerate(cols):
                grids[:, r, c] = block[:, r0:r1, c0:c1].mean(axis=(1, 2), dtype=np.float64)
        grids.setflags(write=False)
        return [
            _block(grids[t], kernel, (t_offset + t, t_offset + t + 1), (h, w))
            for t in range(n)
        ]

    # compress
    grid = _pool_block(block.mean(axis=0, keepdims=True, dtype=np.float64), coarsest, pad_spatial)
    return [_block(grid, coarsest, (t_offset, t_offset + n))]


def apply_schedule(
    history: LatentVideo,
    schedule: PackingSchedule,
    *,
    pad_history: bool = False,
    pad_spatial: bool = False,
) -> PackedContext:
    """Pack a concrete history under a schedule.

    Entries bind frames exactly as the planner's ``INPUTS`` do: the
    entries before the generated section end where those after it begin,
    and each side fills from that point outward. Frames outside the bound
    range form the tail. With ``pad_history`` a short entry replicates
    its side's oldest (before) or newest (after) bound frame. The emitted
    budget always equals ``tokens_for_schedule`` for the same dims and
    tail count; the generated section contributes one zero-feature block
    per frame at the base kernel, all sharing one grid. A schedule whose
    tail sits at the end needs an entry after the generated section, and
    a ``+D`` schedule must be quantized first; either raises
    ``InvalidSchedule``.
    """
    h, w, channels = history.height, history.width, history.channels
    data = history.array
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
    cap_pre = sum(e.count for e in pre)
    cap_post = sum(e.count for e in post)
    total = history.frame_count

    if schedule.tail_at_start:
        middle = max(0, total - cap_post)
    else:
        middle = min(cap_pre, total)
    pre_spans = [b.span for b in bind_backward(pre, middle)]
    post_spans = [b.span for b in bind_forward(post, middle, total)]
    lo = pre_spans[0].start if pre_spans else middle
    hi = post_spans[-1].stop if post_spans else middle

    # the bound range starts at frame 0 unless the tail comes first
    tail_block = data[:lo] if schedule.tail_at_start else data[hi:]
    n_tail = tail_block.shape[0]
    if n_tail and schedule.tail is None:
        raise ExcessHistory(
            f"history of {total} frames exceeds schedule capacity "
            f"{cap_pre + cap_post} and there is no tail marker"
        )

    if hi - lo < cap_pre + cap_post and not pad_history:
        raise ShortHistory(
            f"history of {total} frames cannot fill entries needing "
            f"{cap_pre + cap_post} frames"
        )
    if (cap_pre and lo == middle) or (cap_post and hi == middle):
        raise ShortHistory("cannot pad from an empty history")

    blocks: list[PackedBlock] = []
    cursor = 0
    spans = iter(pre_spans + post_spans)
    generate_span = tail_span = None
    for seg in schedule.segments:
        if isinstance(seg, Tail):
            tail_span = (cursor, cursor + n_tail)
            blocks += _tail_blocks(
                tail_block, seg.mode, schedule.coarsest_kernel, cursor, pad_spatial
            )
            cursor += n_tail
        elif isinstance(seg, Generate):
            generate_span = (cursor, cursor + seg.count)
            zero_frame = np.zeros((1, h, w, channels), np.float32)
            zero_grid = _pool_block(zero_frame, BASE_KERNEL, pad_spatial)
            blocks += [_block(zero_grid, BASE_KERNEL, (t, t + 1)) for t in range(*generate_span)]
            cursor += seg.count
        elif isinstance(seg, Frames):
            span = next(spans)
            frames = data[span.start : span.stop]
            deficit = seg.count - span.length
            if deficit:
                # a short entry pads with its side's outermost bound frame
                edge = hi - 1 if generate_span else lo
                pad = np.repeat(data[edge : edge + 1], deficit, axis=0)
                frames = np.concatenate([frames, pad] if generate_span else [pad, frames])
            p_f = seg.kernel.p_f
            if seg.count % p_f:
                if not pad_history:
                    raise IndivisibleDims(
                        f"entry of {seg.count} frames is not divisible by kernel step {p_f}"
                    )
                # round up to whole kernel steps with the entry's newest frame
                frames = np.concatenate([frames, np.repeat(frames[-1:], -seg.count % p_f, axis=0)])
            for t in range(0, len(frames), p_f):
                grid = _pool_block(frames[t : t + p_f], seg.kernel, pad_spatial)
                blocks.append(_block(grid, seg.kernel, (cursor, cursor + p_f)))
                cursor += p_f

    budget = sum(b.size for b in blocks)
    expected = tokens_for_schedule(
        schedule, h, w, n_tail, pad=pad_history or pad_spatial
    )
    if budget != expected:
        raise RuntimeError(
            f"packed {budget} tokens but accounting expected {expected}"
        )
    return PackedContext(tuple(blocks), schedule, budget, generate_span, tail_span)


def build_symmetric_schedule(
    entries: Sequence[Frames],
    generate_count: int,
    *,
    discretize_history: bool = False,
) -> PackingSchedule:
    """Mirror a half-progression around the generated section.

    The finest entries sit at both temporal ends and the coarsest meet in
    the middle, so both ends of the history carry equal weight. The
    mirrored halves' token budgets add to twice the half's budget.
    """
    if not entries or not all(isinstance(e, Frames) for e in entries):
        raise InvalidSchedule("symmetric schedule needs at least one frames entry")
    segments = (*entries, Generate(generate_count), *reversed(entries))
    return PackingSchedule(segments, discretize_history)
