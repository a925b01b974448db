"""Frame importance ranking by feature similarity, recency, or both.

The hybrid score of a history frame against a target estimate is

    score = sim_cos(frame, target) + time_weight * sim_time(t_frame, t_target)

and sorting descending by it yields a permutation whose position maps to
the compression level each frame receives. With a large time weight the
order degenerates to pure recency; with zero it is pure feature match.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ZeroVectorPixel
from .packing import LatentVideo


@dataclass(frozen=True)
class ImportanceScore:
    frame_index: int
    score: float
    components: tuple[float, float]  # (cosine term, time term)


def _frame_array(frame: np.ndarray) -> np.ndarray:
    arr = np.asarray(frame, dtype=np.float64)
    if arr.ndim != 3:
        raise ValueError(f"expected an (H, W, C) frame, got shape {arr.shape}")
    return arr


def sim_cos(
    frame: np.ndarray,
    target: np.ndarray,
    *,
    zero_substitute: bool = False,
) -> float:
    """Sum of per-pixel cosine similarities; range [-H*W, H*W].

    A pixel vector with zero norm raises unless ``zero_substitute`` is
    set, in which case that pixel contributes 0.
    """
    f = _frame_array(frame)
    x = _frame_array(target)
    if f.shape != x.shape:
        raise ValueError(f"frame shape {f.shape} != target shape {x.shape}")
    dots = (f * x).sum(axis=-1)
    nf = np.linalg.norm(f, axis=-1)
    nx = np.linalg.norm(x, axis=-1)
    zero = (nf == 0) | (nx == 0)
    if zero.any() and not zero_substitute:
        raise ZeroVectorPixel(f"{int(zero.sum())} pixel vectors have zero norm")
    denom = np.where(zero, 1.0, nf * nx)
    return float(np.where(zero, 0.0, dots / denom).sum())


def sim_time(frame_time: float, target_time: float) -> float:
    """Gaussian recency score exp(-(dt)^2) for times in seconds; range (0, 1]."""
    delta = float(frame_time) - float(target_time)
    if not math.isfinite(delta):
        raise ValueError("times must be finite")
    return math.exp(-(delta * delta))


def sim_hybrid(
    frame: np.ndarray,
    target: np.ndarray,
    frame_time: float,
    target_time: float,
    time_weight: float,
    *,
    zero_substitute: bool = False,
) -> float:
    cos = sim_cos(frame, target, zero_substitute=zero_substitute)
    return cos + time_weight * sim_time(frame_time, target_time)


def importance_scores(
    history: LatentVideo | np.ndarray,
    times: Sequence[float],
    target_estimate: np.ndarray,
    target_time: float,
    time_weight: float,
    *,
    zero_substitute: bool = False,
) -> list[ImportanceScore]:
    frames = (history if isinstance(history, LatentVideo) else LatentVideo(history)).data
    if frames.shape[0] != len(times):
        raise ValueError(f"{frames.shape[0]} frames but {len(times)} timestamps")
    if not np.isfinite(_frame_array(target_estimate)).all():
        raise ValueError("target estimate must contain only finite values")
    scores = []
    for i in range(frames.shape[0]):
        cos = sim_cos(frames[i], target_estimate, zero_substitute=zero_substitute)
        t = sim_time(times[i], target_time)
        scores.append(ImportanceScore(i, cos + time_weight * t, (cos, t)))
    return scores


def sort_by_importance(
    history: LatentVideo | np.ndarray,
    times: Sequence[float],
    target_estimate: np.ndarray,
    target_time: float,
    time_weight: float,
    *,
    zero_substitute: bool = False,
) -> list[int]:
    """Frame indices, most important first.

    Ties break by recency (larger timestamp first), then by lower index.
    """
    scores = importance_scores(
        history, times, target_estimate, target_time, time_weight,
        zero_substitute=zero_substitute,
    )
    order = sorted(
        scores, key=lambda s: (-s.score, -float(times[s.frame_index]), s.frame_index)
    )
    return [s.frame_index for s in order]


def reorder_frames(history: LatentVideo, permutation: Sequence[int]) -> LatentVideo:
    """History re-ordered by a permutation, most important frame first."""
    if sorted(permutation) != list(range(history.frame_count)):
        raise ValueError("not a permutation of the history frames")
    return LatentVideo(history.data[list(permutation)])
