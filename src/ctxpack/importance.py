"""Frame importance ranking by feature similarity, recency, or both.

The hybrid score of a history frame against a target estimate is

    score = sim_cos(frame, target) + time_weight * sim_time(t_frame, t_target)

and sorting descending by it yields a permutation, most important frame
first. With a large time weight the order degenerates to pure recency;
with zero it is pure feature match.

The packer binds frames by time, and its finest entry, next to the
generated section, binds the newest frame. A ranking is therefore packed
reversed, ``reorder_frames(history, order[::-1])``, so that the most
important frames get the finest entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ZeroVectorPixel
from .packing import LatentVideo, _fill_checked

# Bytes of the float64 copy of frames one fast-scoring chunk may hold.
_CHUNK_BYTES = 1 << 20
# Pixel norms the fast cosine term's error bound holds for: no square, dot
# product or norm product overflows, and underflow costs no relative
# precision. A frame with a pixel outside this range is scored exactly.
_NORM_RANGE = (2.0**-480, 2.0**480)


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

    Both frames must be finite (H, W, C) arrays of one shape whose pixel
    norms multiply within float64, or ``ValueError`` is raised. A pixel
    vector with zero norm raises unless ``zero_substitute`` is set, in
    which case that pixel contributes 0.
    """
    f = _frame_array(frame, "frame")
    x = _frame_array(target, "target")
    _check_shapes(f.shape, x.shape)
    return _cosine_sum(f, _target_terms(x), zero_substitute)


def _pixel_norms(a: np.ndarray) -> np.ndarray:
    """Per-pixel float64 norms: the same bits as ``np.linalg.norm(a, axis=-1)``,
    which sums ``a.conj() * a``, without that function's copy of ``a``. A
    norm that overflows is inf, without a warning; the scorer rejects it."""
    with np.errstate(over="ignore"):
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
    taken in float64, so a float32 frame scores as its float64 copy. A
    pixel whose two norms multiply past float64 raises ``ValueError``."""
    x, nx, zero_x = target
    nf = _pixel_norms(f)
    with np.errstate(over="ignore"):
        norms = nf * nx
    if not np.isfinite(norms).all():
        raise ValueError("pixel norms overflow float64; rescale the frames and target")
    dots = np.multiply(f, x, dtype=np.float64).sum(axis=-1)
    zero = (nf == 0) | zero_x
    if zero.any() and not zero_substitute:
        raise ZeroVectorPixel(f"{int(zero.sum())} pixel vectors have zero norm")
    # a masked pixel is never divided and contributes 0
    return float(np.divide(dots, norms, out=np.zeros_like(dots), where=~zero).sum())


def sim_time(frame_time: float, target_time: float) -> float:
    """Gaussian recency score exp(-(dt)^2) for times in seconds; range (0, 1]."""
    delta = float(frame_time) - float(target_time)
    if not math.isfinite(delta):
        raise ValueError("times must be finite")
    return math.exp(-(delta * delta))


def _check_weight(time_weight: float) -> None:
    if not math.isfinite(time_weight):
        raise ValueError("time_weight must be finite")


def sim_hybrid(
    frame: np.ndarray,
    target: np.ndarray,
    frame_time: float,
    target_time: float,
    time_weight: float,
    *,
    zero_substitute: bool = False,
) -> float:
    _check_weight(time_weight)
    cos = sim_cos(frame, target, zero_substitute=zero_substitute)
    return cos + time_weight * sim_time(frame_time, target_time)


def _inputs(
    history: LatentVideo | np.ndarray,
    times: Sequence[float],
    target_estimate: np.ndarray,
    target_time: float,
    time_weight: float,
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray], list[float]]:
    """Checked frames, the target's terms and each frame's time term."""
    _check_weight(time_weight)
    frames = (history if isinstance(history, LatentVideo) else LatentVideo(history)).array
    if frames.shape[0] != len(times):
        raise ValueError(f"{frames.shape[0]} frames but {len(times)} timestamps")
    # LatentVideo checked every frame, so only the target needs checking
    target = _frame_array(target_estimate, "target estimate")
    _check_shapes(frames.shape[1:], target.shape)
    return frames, _target_terms(target), [sim_time(t, target_time) for t in times]


def _exact_score(
    frames: np.ndarray,
    i: int,
    terms: tuple[np.ndarray, np.ndarray, np.ndarray],
    time_terms: Sequence[float],
    time_weight: float,
    zero_substitute: bool,
) -> ImportanceScore:
    """Frame ``i``'s hybrid score by the per-frame formula: the one exact score."""
    cos = _cosine_sum(frames[i], terms, zero_substitute)
    t = time_terms[i]
    return ImportanceScore(i, cos + time_weight * t, (cos, t))


def importance_scores(
    history: LatentVideo | np.ndarray,
    times: Sequence[float],
    target_estimate: np.ndarray,
    target_time: float,
    time_weight: float,
    *,
    zero_substitute: bool = False,
) -> list[ImportanceScore]:
    frames, terms, time_terms = _inputs(history, times, target_estimate, target_time, time_weight)
    return [
        _exact_score(frames, i, terms, time_terms, time_weight, zero_substitute)
        for i in range(frames.shape[0])
    ]


def _fast_cosines(
    frames: np.ndarray, terms: tuple[np.ndarray, np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Each frame's cosine term by a chunked einsum, and which frames must
    be scored exactly instead: those with a pixel whose norm, or the
    target's, lies outside ``_NORM_RANGE``. A zero norm lies outside it,
    so the exact scorer masks or raises for every zero-norm pixel."""
    x, nx, _ = terms
    lo, hi = _NORM_RANGE
    target_bad = not ((nx >= lo) & (nx <= hi)).all()
    t = frames.shape[0]
    step = max(1, _CHUNK_BYTES // (8 * x.size))
    buffer = np.empty((min(step, t), *x.shape))  # refilled, so one chunk is ever held
    cos = np.empty(t)
    rescore = np.empty(t, dtype=bool)
    for start in range(0, t, step):
        k = min(step, t - start)
        f = buffer[:k]
        f[...] = frames[start : start + k]
        dots = np.einsum("thwc,hwc->thw", f, x)
        nf = np.sqrt(np.einsum("thwc,thwc->thw", f, f))
        # a zero norm makes nan, a tiny one inf and a huge one may
        # overflow; all such frames are rescored
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            cos[start : start + k] = (dots / (nf * nx)).reshape(k, -1).sum(-1)
        nf = nf.reshape(k, -1)
        rescore[start : start + k] = target_bad | (nf.min(-1) < lo) | (nf.max(-1) > hi)
    return cos, rescore


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
    Frames are ranked by a fast cosine term, and every run of frames whose
    scores lie within that term's float-error bound of each other is
    re-ranked by the exact per-frame scores, so the order is the one the
    scores of ``importance_scores`` give.
    """
    frames, terms, time_terms = _inputs(history, times, target_estimate, target_time, time_weight)

    def exact(i: int) -> float:
        return _exact_score(frames, i, terms, time_terms, time_weight, zero_substitute).score

    def ranked(indices: Sequence[int], scores: Sequence[float]) -> list[int]:
        return sorted(indices, key=lambda i: (-scores[i], -float(times[i]), i))

    t = frames.shape[0]
    cos, rescore = _fast_cosines(frames, terms)
    scores = cos + time_weight * np.asarray(time_terms, dtype=np.float64)
    for i in np.flatnonzero(rescore).tolist():  # index order: the first bad frame raises
        scores[i] = exact(i)
    # The fast and exact terms of one pixel each lie within (C + 2)·eps of
    # the true cosine when its norms are in _NORM_RANGE, and numpy's
    # pairwise sum of P = H·W such terms adds at most
    # (ceil(log2 P) + 19)·eps/2 per term, so the two cosine sums differ by
    # at most (2C + ceil(log2 P) + 23)·eps·P. Adding the time term rounds
    # each score by eps·|score| more. The bound covers both with margin.
    h, w, c = terms[0].shape
    p = h * w
    eps = np.finfo(np.float64).eps
    bound = 8 * (c + math.ceil(math.log2(p)) + 4) * eps * p + 4 * eps * np.abs(scores)
    order = np.argsort(-scores, kind="stable")
    s, b = scores[order], bound[order]
    # Neighbours whose intervals [s - b, s + b] overlap chain into one
    # group. Every frame of a group ranks above every frame of the next,
    # so only groups of two or more need the exact scores.
    ends = (np.flatnonzero(s[:-1] - s[1:] > b[:-1] + b[1:]) + 1).tolist()
    order = order.tolist()
    for lo, hi in zip([0, *ends], [*ends, t]):
        if hi - lo > 1:
            group = order[lo:hi]
            order[lo:hi] = ranked(group, {i: exact(i) for i in group})
    return order


def reorder_frames(history: LatentVideo, permutation: Sequence[int]) -> LatentVideo:
    """History re-ordered by a permutation, most important frame first,
    written straight into the returned video's snapshot."""
    if sorted(permutation) != list(range(history.frame_count)):
        raise ValueError("not a permutation of the history frames")
    order = np.asarray(permutation, dtype=np.intp)

    def in_order(piece: np.ndarray, frames: slice) -> None:
        piece[...] = history.array[order[frames]]

    return LatentVideo._over(_fill_checked(history.array.shape, history.array.dtype, in_order))
