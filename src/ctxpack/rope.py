"""3D rotary-embedding phases with pooling and random time access.

Channels split evenly across the time, height, and width axes. Each axis
phase is linear in position, ``phase(p, c) = p * base**(-2c / d_axis)``,
so mean-pooling a window of phases equals the phase at the window's mean
position. Time positions may be non-contiguous: absolute indices are kept
and blank positions are simply skipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import IndivisibleDims, NonMonotonicIndices
from .schedule import KernelSpec

DEFAULT_BASE = 10000.0


@dataclass(frozen=True, eq=False)
class AxisPhases:
    positions: np.ndarray  # (n,)
    frequencies: np.ndarray  # (d,) strictly decreasing
    phases: np.ndarray  # (n, d)


@dataclass(frozen=True, eq=False)
class PhaseGrid:
    time: AxisPhases
    height: AxisPhases
    width: AxisPhases

    @property
    def shape(self) -> tuple[int, int, int]:
        return (
            len(self.time.positions),
            len(self.height.positions),
            len(self.width.positions),
        )


def axial_frequencies(dim: int, base: float = DEFAULT_BASE) -> np.ndarray:
    """Per-channel angular frequencies for one axis."""
    if dim < 1:
        raise ValueError("axis needs at least one channel")
    if not (math.isfinite(base) and base > 1):
        raise ValueError(f"base must be finite and > 1, got {base!r}")
    return np.asarray(base, dtype=np.float64) ** (-2.0 * np.arange(dim) / dim)


def phases_for_positions(positions: Sequence[float], frequencies: np.ndarray) -> np.ndarray:
    """Phase matrix for arbitrary (possibly fractional) positions."""
    return np.outer(np.asarray(positions, dtype=np.float64), frequencies)


def _axis(positions: Sequence[float], dim: int, base: float) -> AxisPhases:
    pos = np.asarray(positions, dtype=np.float64)
    freqs = axial_frequencies(dim, base)
    return AxisPhases(pos, freqs, phases_for_positions(pos, freqs))


def generate_phases(
    time_indices: Sequence[int],
    height_cells: int,
    width_cells: int,
    channels: int,
    *,
    base: float = DEFAULT_BASE,
) -> PhaseGrid:
    """Build axial phases over given time indices and dense spatial cells."""
    ti = list(time_indices)
    try:
        finite = all(math.isfinite(t) for t in ti)
    except OverflowError:  # an integer beyond float64's range
        finite = False
    if not finite:
        raise ValueError(f"time indices must be finite: {ti}")
    if height_cells < 1 or width_cells < 1:
        raise ValueError(f"cell counts must be >= 1, got {height_cells}x{width_cells}")
    if any(b <= a for a, b in zip(ti, ti[1:])):
        raise NonMonotonicIndices(f"time indices must be strictly increasing: {ti}")
    if channels % 3:
        raise ValueError(f"channels must split evenly across 3 axes, got {channels}")
    d = channels // 3
    return PhaseGrid(
        time=_axis(ti, d, base),
        height=_axis(range(height_cells), d, base),
        width=_axis(range(width_cells), d, base),
    )


def _pool_axis(axis: AxisPhases, step: int, name: str) -> AxisPhases:
    if step == 1:
        return axis
    n = len(axis.positions)
    if n % step:
        raise IndivisibleDims(f"{name} axis of {n} positions is not divisible by {step}")
    d = axis.phases.shape[1]
    pooled_pos = axis.positions.reshape(n // step, step).mean(axis=1)
    pooled = axis.phases.reshape(n // step, step, d).mean(axis=1)
    return AxisPhases(pooled_pos, axis.frequencies, pooled)


def pool_phases(grid: PhaseGrid, kernel: KernelSpec) -> PhaseGrid:
    """Mean-pool phases in windows of the kernel's steps per axis.

    Kernel steps apply directly to the grid's axes; callers pooling a
    base-token grid should pass the per-axis cell factors as the kernel.
    """
    return PhaseGrid(
        time=_pool_axis(grid.time, kernel.p_f, "time"),
        height=_pool_axis(grid.height, kernel.p_h, "height"),
        width=_pool_axis(grid.width, kernel.p_w, "width"),
    )
