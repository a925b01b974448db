"""Token-budget arithmetic for packed frame contexts.

Per-frame lengths follow a geometric progression: the frame at compression
level ``i`` costs ``tokens_per_frame / ratio**i`` tokens, so the history
cost of an unbounded video converges to ``ratio / (ratio - 1)`` frames'
worth of tokens. Everything here is computed with ``fractions.Fraction``
so monotonicity and reconstruction checks hold exactly; callers can wrap
results in ``float()`` for display.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import ExcessHistory, IndivisibleDims, NonDyadicBudget
from .schedule import (
    BASE_KERNEL,
    Frames,
    Generate,
    KernelSpec,
    PackingSchedule,
    Segment,
    TailMode,
)

Numeric = Union[int, float, Fraction]

TAIL_KERNEL = KernelSpec(1, 32, 32)
TAIL_POOL = TAIL_KERNEL.dims


def _fraction(value: Numeric, what: str) -> Fraction:
    try:
        return Fraction(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise TypeError(f"{what} must be a rational number, got {value!r}") from exc


@dataclass(frozen=True)
class BudgetParams:
    """Inputs of the context-length formulas, and their one input rule.

    tokens_per_frame: cost of one frame at the base kernel (often written
    L_f); ratio: per-level compression factor, must exceed 1;
    section_frames: size of the generated section; history_frames: number
    of conditioning frames. ``per_frame_length`` and ``length_bound``
    check their arguments by building one.
    """

    tokens_per_frame: int
    ratio: Fraction
    section_frames: int
    history_frames: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "ratio", _fraction(self.ratio, "ratio"))
        if self.tokens_per_frame < 1:
            raise ValueError("tokens_per_frame must be >= 1")
        if self.ratio <= 1:
            raise ValueError("ratio must be > 1")
        if self.section_frames < 1:
            raise ValueError("section_frames must be >= 1")
        if self.history_frames < 0:
            raise ValueError("history_frames must be >= 0")


def per_frame_length(tokens_per_frame: int, ratio: Numeric, level: int) -> Fraction:
    """Token cost of the history frame at compression level ``level``."""
    if level < 0:
        raise ValueError("level must be >= 0")
    params = BudgetParams(tokens_per_frame, ratio, 1, level)
    return Fraction(params.tokens_per_frame) / params.ratio**level


def total_length(params: BudgetParams) -> Fraction:
    """Exact context length of a section plus geometrically packed history."""
    lf = Fraction(params.tokens_per_frame)
    inv = 1 / params.ratio
    return params.section_frames * lf + lf * (1 - inv**params.history_frames) / (1 - inv)


def length_bound(tokens_per_frame: int, ratio: Numeric, section_frames: int) -> Fraction:
    """Limit of ``total_length`` as the history grows without bound."""
    params = BudgetParams(tokens_per_frame, ratio, section_frames, 0)
    r = params.ratio
    return (params.section_frames + r / (r - 1)) * Fraction(params.tokens_per_frame)


@dataclass(frozen=True)
class RateDecomposition:
    """A budget written as the full halving series plus bit-level edits.

    The base series sums to exactly 2 frames' worth of tokens. Each
    duplicated level ``i`` adds an extra ``1/2**i``; each dropped level
    removes the series' single ``1/2**i`` term.
    """

    duplicated_levels: tuple[int, ...]
    dropped_levels: tuple[int, ...]

    def value(self) -> Fraction:
        total = Fraction(2)
        total += sum((Fraction(1, 2**i) for i in self.duplicated_levels), Fraction(0))
        total -= sum((Fraction(1, 2**i) for i in self.dropped_levels), Fraction(0))
        return total


def _fraction_bits(frac: Fraction, first_level: int) -> list[int]:
    """Levels of the set bits of ``frac`` in (0, 1), starting at first_level."""
    bits = []
    level = first_level
    while frac:
        frac *= 2
        if frac >= 1:
            bits.append(level)
            frac -= 1
        level += 1
    return bits


def decompose_rate(budget: Numeric) -> RateDecomposition:
    """Express a dyadic budget (in base-frame units) as series edits.

    The gap ``|budget - 2|`` is edited into the base series: its whole
    part as level-0 edits, each set bit of its fraction as the level of
    that bit (the first bit after the point is level 1). Budgets of at
    least 2 duplicate those levels; smaller budgets drop them, and as the
    gap is then under 2, no level is dropped twice. Non-dyadic budgets
    are rejected rather than rounded.
    """
    b = _fraction(budget, "budget")
    if b <= 0:
        raise ValueError(f"budget must be positive, got {budget!r}")
    if b.denominator & (b.denominator - 1):
        raise NonDyadicBudget(f"budget {b} has no terminating binary expansion")

    gap = abs(b - 2)
    whole = int(gap)
    levels = (0,) * whole + tuple(_fraction_bits(gap - whole, 1))
    if b >= 2:
        return RateDecomposition(levels, ())
    return RateDecomposition((), levels)


def _grid(size: int, step: int, axis: str, pad: bool) -> int:
    if size % step and not pad:
        raise IndivisibleDims(f"{axis}={size} is not divisible by kernel step {step}")
    return math.ceil(size / step) if pad else size // step


def _check_sizes(height: int, width: int, tail_frames: int = 0) -> None:
    if height < 1 or width < 1:
        raise ValueError(f"height and width must be >= 1, got {height}x{width}")
    if tail_frames < 0:
        raise ValueError(f"tail frame count must be >= 0, got {tail_frames}")


def tokens_for_entry(
    count: int, kernel: KernelSpec, height: int, width: int, *, pad: bool = False
) -> int:
    """Tokens emitted by one schedule entry over the given latent dims."""
    _check_sizes(height, width)
    if count < 0:
        raise ValueError(f"entry frame count must be >= 0, got {count}")
    groups = _grid(count, kernel.p_f, "count", pad)
    rows = _grid(height, kernel.p_h, "height", pad)
    cols = _grid(width, kernel.p_w, "width", pad)
    return groups * rows * cols


def tokens_per_frame_for(height: int, width: int, *, pad: bool = False) -> int:
    """Base-kernel cost of one frame, derived from the latent resolution."""
    return tokens_for_entry(1, BASE_KERNEL, height, width, pad=pad)


def tail_tokens(
    mode: TailMode,
    tail_frames: int,
    coarsest: KernelSpec,
    height: int,
    width: int,
    *,
    pad: bool = False,
) -> int:
    """Token count contributed by the tail under the given mode."""
    _check_sizes(height, width, tail_frames)
    if tail_frames <= 0 or mode is TailMode.DELETE:
        return 0
    if mode is TailMode.APPEND:
        # one (1, 32, 32) group per frame, edge windows clipped
        return tokens_for_entry(tail_frames, TAIL_KERNEL, height, width, pad=True)
    # compress: all tail frames averaged into one coarsest-kernel group
    return tokens_for_entry(coarsest.p_f, coarsest, height, width, pad=pad)


def segment_tokens(
    schedule: PackingSchedule,
    height: int,
    width: int,
    tail_frames: int = 0,
    *,
    pad: bool = False,
) -> list[tuple[Segment, int]]:
    """Tokens per segment: the entries and the generated section in
    schedule order, then the tail if the schedule has one."""
    _check_sizes(height, width, tail_frames)
    table: list[tuple[Segment, int]] = []
    for seg in schedule.segments:
        if isinstance(seg, Frames):
            table.append((seg, tokens_for_entry(seg.count, seg.kernel, height, width, pad=pad)))
        elif isinstance(seg, Generate):
            table.append((seg, seg.count * tokens_per_frame_for(height, width, pad=pad)))

    tail = schedule.tail
    if tail is not None:
        tokens = tail_tokens(
            tail.mode, tail_frames, schedule.coarsest_kernel, height, width, pad=pad
        )
        table.append((tail, tokens))
    elif tail_frames:
        raise ExcessHistory(
            f"{tail_frames} leftover frames but the schedule has no tail marker"
        )
    return table


def tokens_for_schedule(
    schedule: PackingSchedule,
    height: int,
    width: int,
    tail_frames: int = 0,
    *,
    pad: bool = False,
) -> int:
    """Total context tokens: entries, generated section, and tail."""
    table = segment_tokens(schedule, height, width, tail_frames, pad=pad)
    return sum(tokens for _, tokens in table)
