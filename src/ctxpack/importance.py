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


def _frame_array(frame: np.ndarray, name: str) -> np.ndarray:
    """A finite (H, W, C) frame as float64."""
    arr = np.asarray(frame, dtype=np.float64)
    if arr.ndim != 3:
        raise ValueError(f"expected an (H, W, C) frame, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must contain only finite values")
    return arr


def _check_shapes(frame_shape: tuple[int, ...], target_shape: tuple[int, ...]) -> None:
    if frame_shape != target_shape:
        raise ValueError(f"frame shape {frame_shape} != target shape {target_shape}")


def sim_cos(
    frame: np.ndarray,
    target: np.ndarray,
    *,
    zero_substitute: bool = False,
) -> float:
    """Sum of per-pixel cosine similarities; range [-H*W, H*W].

    Both frames must be finite (H, W, C) arrays of one shape, or
    ``ValueError`` is raised. A pixel vector with zero norm raises unless
    ``zero_substitute`` is set, in which case that pixel contributes 0.
    """
    f = _frame_array(frame, "frame")
    x = _frame_array(target, "target")
    _check_shapes(f.shape, x.shape)
    return _cosine_sum(f, _target_terms(x), zero_substitute)


def _pixel_norms(a: np.ndarray) -> np.ndarray:
    """Per-pixel float64 norms: the same bits as ``np.linalg.norm(a, axis=-1)``,
    which sums ``a.conj() * a``, without that function's copy of ``a``."""
    return np.sqrt(np.square(a, dtype=np.float64).sum(axis=-1))


def _target_terms(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A checked float64 target with its per-pixel norms and zero-norm mask,
    computed once however many frames are scored against it."""
    nx = _pixel_norms(x)
    return x, nx, nx == 0


def _cosine_sum(
    f: np.ndarray, target: tuple[np.ndarray, np.ndarray, np.ndarray], zero_substitute: bool
) -> float:
    """``sim_cos`` of a float32 or float64 frame already checked for shape
    and finiteness against ``_target_terms`` of the target. Products are
    taken in float64, so a float32 frame scores as its float64 copy."""
    x, nx, zero_x = target
    dots = np.multiply(f, x, dtype=np.float64).sum(axis=-1)
    nf = _pixel_norms(f)
    zero = (nf == 0) | zero_x
    if not zero.any():
        # the same elements the masked form below selects, so the same bits
        return float((dots / (nf * nx)).sum())
    if not zero_substitute:
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
    frames = (history if isinstance(history, LatentVideo) else LatentVideo(history)).array
    if frames.shape[0] != len(times):
        raise ValueError(f"{frames.shape[0]} frames but {len(times)} timestamps")
    # LatentVideo checked every frame, so only the target needs checking
    target = _frame_array(target_estimate, "target estimate")
    _check_shapes(frames.shape[1:], target.shape)
    terms = _target_terms(target)
    scores = []
    for i in range(frames.shape[0]):
        cos = _cosine_sum(frames[i], terms, zero_substitute)
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
    """History re-ordered by a permutation, most important frame first,
    written straight into the returned video's snapshot."""
    if sorted(permutation) != list(range(history.frame_count)):
        raise ValueError("not a permutation of the history frames")
    order = np.asarray(permutation, dtype=np.intp)

    def frames_in_order(piece: np.ndarray, frames: slice) -> None:
        piece[...] = history.array[order[frames]]

    return LatentVideo._filled(history.array.shape, history.array.dtype, frames_in_order)
