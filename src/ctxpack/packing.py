"""Apply packing schedules to latent histories.

Frames are grouped under each entry's kernel and mean-pooled into tokens.
Mean pooling stands in for a learned input projection: it preserves the
geometry, token counts, and linearity that the rest of the toolkit checks.

Token order is deterministic: temporal first, then row-major within each
kernel grid. Time spans are given on a packed timeline that runs tail,
entries, and generated section in segment order, with gaps counted as
zero-width at packing time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .budget import TAIL_POOL, tokens_for_schedule
from .errors import (
    ExcessHistory,
    IndivisibleDims,
    InvalidSchedule,
    ShortHistory,
    UnsupportedKernel,
)
from .planner import Span, bind_backward, bind_forward
from .schedule import (
    BASE_KERNEL,
    Frames,
    Generate,
    KernelSpec,
    PackingSchedule,
    TailMode,
)

LEARNED_KERNELS = (
    KernelSpec(1, 2, 2),
    KernelSpec(2, 4, 4),
    KernelSpec(4, 8, 8),
    KernelSpec(8, 16, 16),
)


@dataclass(frozen=True, eq=False)
class LatentVideo:
    """A (T, H, W, C) block of latent frames with finite values."""

    data: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.data, dtype=np.float64)
        if arr.ndim != 4:
            raise ValueError(f"latent video must be 4D (T,H,W,C), got shape {arr.shape}")
        if min(arr.shape[1:]) < 1:
            raise ValueError(f"H, W, C must all be >= 1, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("latent video must contain only finite values")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def frame_count(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]

    @property
    def channels(self) -> int:
        return self.data.shape[3]


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

    def tokens(self) -> list[PackedToken]:
        """The grid's tokens, row-major."""
        return [
            PackedToken(
                self.time_span, (r, c), self.kernel, self.grid[r, c], (self.time_phase, rp, cp)
            )
            for r, rp in enumerate(self.row_phases)
            for c, cp in enumerate(self.col_phases)
        ]


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
        return tuple(token for block in self.blocks for token in block.tokens())

    @property
    def generate_tokens(self) -> tuple[PackedToken, ...]:
        a, b = self.generate_span
        return tuple(t for t in self.tokens if a <= t.time_span[0] and t.time_span[1] <= b)

    @property
    def history_tokens(self) -> tuple[PackedToken, ...]:
        a, b = self.generate_span
        return tuple(t for t in self.tokens if t.time_span[1] <= a or t.time_span[0] >= b)

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


def _pad_spatial(block: np.ndarray, p_h: int, p_w: int) -> np.ndarray:
    h, w = block.shape[1:3]
    pad_h = (-h) % p_h
    pad_w = (-w) % p_w
    if pad_h or pad_w:
        block = np.pad(block, ((0, 0), (0, pad_h), (0, pad_w), (0, 0)))
    return block


def _pool_block(block: np.ndarray, kernel: KernelSpec, pad_spatial: bool) -> np.ndarray:
    """Mean-pool a (p_f, H, W, C) block into an (H', W', C) feature grid."""
    h, w = block.shape[1:3]
    if (h % kernel.p_h or w % kernel.p_w) and not pad_spatial:
        raise IndivisibleDims(
            f"latent dims {h}x{w} are not divisible by kernel {kernel.dims}"
        )
    block = _pad_spatial(block, kernel.p_h, kernel.p_w)
    h, w = block.shape[1:3]
    grid = block.reshape(
        block.shape[0],
        h // kernel.p_h,
        kernel.p_h,
        w // kernel.p_w,
        kernel.p_w,
        block.shape[3],
    ).mean(axis=(0, 2, 4))
    grid.setflags(write=False)
    return grid


def _grid_block(
    grid: np.ndarray,
    kernel: KernelSpec,
    time_span: tuple[int, int],
    time_phase: float,
) -> PackedBlock:
    rows = tuple(r * kernel.p_h + (kernel.p_h - 1) / 2 for r in range(grid.shape[0]))
    cols = tuple(c * kernel.p_w + (kernel.p_w - 1) / 2 for c in range(grid.shape[1]))
    return PackedBlock(time_span, kernel, time_phase, rows, cols, grid)


def _pooled_block(
    block: np.ndarray,
    kernel: KernelSpec,
    t_offset: int,
    pad_spatial: bool,
) -> PackedBlock:
    grid = _pool_block(block, kernel, pad_spatial)
    span = (t_offset, t_offset + kernel.p_f)
    return _grid_block(grid, kernel, span, t_offset + (kernel.p_f - 1) / 2)


def patchify(
    frames: LatentVideo,
    kernel: KernelSpec,
    *,
    t_offset: int = 0,
    pad_spatial: bool = False,
) -> list[PackedToken]:
    """Turn one kernel-sized slice of frames into its token grid."""
    if frames.frame_count != kernel.p_f:
        raise ValueError(
            f"slice has {frames.frame_count} frames, kernel wants {kernel.p_f}"
        )
    return _pooled_block(frames.data, kernel, t_offset, pad_spatial).tokens()


def _clipped_windows(size: int, step: int) -> list[tuple[int, int]]:
    return [(lo, min(lo + step, size)) for lo in range(0, size, step)]


def _tail_blocks(
    block: np.ndarray,
    mode: TailMode,
    coarsest: KernelSpec | None,
    t_offset: int,
    pad_spatial: bool,
) -> list[PackedBlock]:
    if mode is TailMode.DELETE or block.shape[0] == 0:
        return []

    if mode is TailMode.APPEND:
        kernel = KernelSpec(*TAIL_POOL)
        rows = _clipped_windows(block.shape[1], TAIL_POOL[1])
        cols = _clipped_windows(block.shape[2], TAIL_POOL[2])
        # one mean per window over every tail frame at once; each frame's
        # sum runs in the same order as a per-frame mean would
        grids = np.empty((block.shape[0], len(rows), len(cols), block.shape[3]))
        for r, (r0, r1) in enumerate(rows):
            for c, (c0, c1) in enumerate(cols):
                grids[:, r, c] = block[:, r0:r1, c0:c1].mean(axis=(1, 2))
        grids.setflags(write=False)
        row_phases = tuple((r0 + r1 - 1) / 2 for r0, r1 in rows)
        col_phases = tuple((c0 + c1 - 1) / 2 for c0, c1 in cols)
        return [
            PackedBlock(
                (t_offset + t, t_offset + t + 1),
                kernel,
                float(t_offset + t),
                row_phases,
                col_phases,
                grids[t],
            )
            for t in range(block.shape[0])
        ]

    # compress
    kernel = coarsest if coarsest is not None else BASE_KERNEL
    averaged = block.mean(axis=0, keepdims=True)
    grid = _pool_block(averaged, kernel, pad_spatial)
    span = (t_offset, t_offset + block.shape[0])
    return [_grid_block(grid, kernel, span, t_offset + (block.shape[0] - 1) / 2)]


def handle_tail(
    tail: LatentVideo,
    mode: TailMode,
    coarsest: KernelSpec | None = None,
    *,
    t_offset: int = 0,
    pad_spatial: bool = False,
) -> list[PackedToken]:
    """Pack leftover oldest (or newest) frames per the tail mode.

    Delete drops them. Append pools each frame spatially by (1, 32, 32)
    with clipped edge windows, one coarse pixel grid per frame. Compress
    averages all tail frames into a single frame and patchifies it with
    the schedule's coarsest kernel; its tokens span the whole tail.
    """
    blocks = _tail_blocks(tail.data, mode, coarsest, t_offset, pad_spatial)
    return [token for block in blocks for token in block.tokens()]


def _entry_groups(
    frames: np.ndarray, entry: Frames, pad_history: bool
) -> list[np.ndarray]:
    """Split an entry's frames into kernel-sized groups, oldest first."""
    p_f = entry.kernel.p_f
    if frames.shape[0] % p_f:
        if not pad_history:
            raise IndivisibleDims(
                f"entry of {entry.count} frames is not divisible by kernel step {p_f}"
            )
        deficit = (-frames.shape[0]) % p_f
        frames = np.concatenate([frames, np.repeat(frames[-1:], deficit, axis=0)])
    return [frames[i : i + p_f] for i in range(0, frames.shape[0], p_f)]


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
    tail sits at the end needs an entry after the generated section, or
    it raises ``InvalidSchedule``.
    """
    h, w, channels = history.height, history.width, history.channels
    data = history.data
    pre = schedule.entries_before_generate
    post = schedule.entries_after_generate
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

    if schedule.tail_at_start:
        tail_block = data[:lo]
    elif schedule.tail_at_end:
        tail_block = data[hi:]
    elif hi < total:
        raise ExcessHistory(
            f"history of {total} frames exceeds schedule capacity "
            f"{cap_pre + cap_post} and there is no tail marker"
        )
    else:
        tail_block = data[:0]
    n_tail = tail_block.shape[0]

    if hi - lo < cap_pre + cap_post and not pad_history:
        raise ShortHistory(
            f"history of {total} frames cannot fill entries needing "
            f"{cap_pre + cap_post} frames"
        )
    if (cap_pre and lo == middle) or (cap_post and hi == middle):
        raise ShortHistory("cannot pad from an empty history")

    blocks: list[PackedBlock] = []
    cursor = 0
    tail_span: tuple[int, int] | None = None

    def emit_tail() -> None:
        nonlocal cursor, tail_span
        tail_span = (cursor, cursor + n_tail)
        blocks.extend(
            _tail_blocks(
                tail_block, schedule.tail.mode, schedule.coarsest_kernel, cursor, pad_spatial
            )
        )
        cursor += n_tail

    def emit_entries(
        entries: Sequence[Frames], spans: list[Span], edge: np.ndarray, at_start: bool
    ) -> None:
        nonlocal cursor
        for entry, span in zip(entries, spans):
            frames = data[span.start : span.stop]
            deficit = entry.count - span.length
            if deficit:
                pad = np.repeat(edge, deficit, axis=0)
                frames = np.concatenate([pad, frames] if at_start else [frames, pad])
            for group in _entry_groups(frames, entry, pad_history):
                blocks.append(_pooled_block(group, entry.kernel, cursor, pad_spatial))
                cursor += entry.kernel.p_f

    if schedule.tail_at_start:
        emit_tail()
    emit_entries(pre, pre_spans, data[lo:middle][:1], at_start=True)

    generate_span = (cursor, cursor + schedule.generate.count)
    zero_grid = _pool_block(np.zeros((1, h, w, channels)), BASE_KERNEL, pad_spatial)
    for t in range(*generate_span):
        blocks.append(_grid_block(zero_grid, BASE_KERNEL, (t, t + 1), float(t)))
    cursor = generate_span[1]

    emit_entries(post, post_spans, data[middle:hi][-1:], at_start=False)
    if schedule.tail_at_end:
        emit_tail()

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
