"""Frame importance ranking by feature similarity, recency, or both.

The hybrid score of a history frame against a target estimate is

    score = sim_cos(frame, target) + time_weight * sim_time(t_frame, t_target)

and sorting descending by it yields a permutation, most important frame
first. With a large time weight the order degenerates to pure recency;
with zero it is pure feature match. Every cosine term, of one frame or
of a whole history, comes from one chunked pass, ``_cosines``, whose
dots and norms are per-pixel einsums over float64 copies.

The packer binds frames by time, and its finest entry, next to the
generated section, binds the newest frame. A ranking is therefore packed
reversed, ``reorder_frames(history, order[::-1])``, so that the most
important frames get the finest entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ZeroVectorPixel
from .packing import LatentVideo, _fill_checked, _held

# Bytes of the float64 copy of frames one scoring chunk may hold.
_CHUNK_BYTES = 1 << 20
# A squared pixel norm below this has lost bits to underflow.
_TINY = np.finfo(np.float64).tiny


@dataclass(frozen=True)
class ImportanceScore:
    frame_index: int
    score: float
    components: tuple[float, float]  # (cosine term, time term)


def _frame_array(frame: np.ndarray, name: str) -> np.ndarray:
    """A finite (H, W, C) frame as contiguous float64."""
    arr = np.ascontiguousarray(frame, dtype=np.float64)
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
    norms multiply within float64, or ``ValueError`` is raised; so it is
    when, at a pixel where neither frame is all zero, either's squared
    norm is below float64's smallest normal, where its norm would be
    inexact. An all-zero pixel vector raises ``ZeroVectorPixel`` unless
    ``zero_substitute`` is set, in which case that pixel contributes +0.0.
    The value is the bits ``importance_scores`` gives the frame in any
    history.
    """
    f = _frame_array(frame, "frame")
    x = _frame_array(target, "target")
    _check_shapes(f.shape, x.shape)
    cos = _cosines((1, *f.shape), lambda a, b: f[None][a:b], _target_terms(x), zero_substitute)
    return float(cos[0])


def _target_terms(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """A checked float64 target with its per-pixel norms, its all-zero
    pixels and its other pixels whose squared norm is below float64's
    smallest normal, computed once however many frames are scored
    against it."""
    with np.errstate(over="ignore", under="ignore"):  # the scorer rejects both
        nx = np.einsum("hwc,hwc->hw", x, x)
    zero = ~x.any(-1)
    under = (nx < _TINY) & ~zero
    return x, np.sqrt(nx, out=nx), zero, under


def _cosines(
    shape: tuple[int, ...],
    read: Callable[[int, int], np.ndarray],
    terms: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    zero_substitute: bool,
) -> np.ndarray:
    """Each frame's ``sim_cos`` against ``_target_terms`` of the target: the
    one score of every frame of a history of ``shape``. A chunk of at most
    ``_CHUNK_BYTES`` is read, checked, into one float64 buffer in runs of a
    sixteenth of it (``read(start, stop)``, as from ``packing._held``), so a
    frame scores the same alone as in a chunk and a float32 frame as its
    float64 copy. A whole chunk is read before any of it is scored; then its frames
    fail in index order: a pixel pair whose two norms multiply past float64,
    or a pair of two pixels that are not all zero where either's squared
    norm is below float64's smallest normal, raises ``ValueError``; then a
    pair with an all-zero pixel raises ``ZeroVectorPixel`` unless
    ``zero_substitute`` is set, when it adds +0.0."""
    x, nx, zero_x, under_x = terms
    rare_x = bool(zero_x.any() or under_x.any())
    t = shape[0]
    step = max(1, _CHUNK_BYTES // max(1, 8 * x.size))
    buffer = np.empty((min(step, t), *x.shape))  # refilled, so one chunk is ever held
    run = max(1, len(buffer) // 16)  # a read's own copy is a sixteenth of the buffer
    cos = np.empty(t)
    for start in range(0, t, step):
        k = min(step, t - start)
        f = buffer[:k]
        for i in range(0, k, run):
            f[i : i + run] = read(start + i, start + min(i + run, k))
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            norms = np.einsum("thwc,thwc->thw", f, f)
            zero = under = None
            if rare_x or norms.min(initial=np.inf) < _TINY:
                small = norms < _TINY
                zero = small.copy()  # all-zero frame pixels are small ones ...
                zero[small] = ~f[small].any(-1)  # ... with no nonzero value
                under = (small & ~zero) | under_x
                zero |= zero_x
                under &= ~zero
            np.sqrt(norms, out=norms)  # the frame's pixel norms ...
            norms *= nx  # ... times the target's; inf × 0 is nan
            dots = np.einsum("thwc,hwc->thw", f, x)
        # one max per frame catches an inf or nan product
        failed = ~np.isfinite(norms.reshape(k, -1).max(-1, initial=0.0))
        if zero is not None:
            failed |= under.reshape(k, -1).any(-1)
            if not zero_substitute:
                failed |= zero.reshape(k, -1).any(-1)
        if failed.any():
            i = int(failed.argmax())
            if not np.isfinite(norms[i]).all():
                raise ValueError("pixel norms overflow float64; rescale the frames and target")
            if under[i].any():
                raise ValueError("pixel norms underflow float64; rescale the frames and target")
            raise ZeroVectorPixel(f"{int(zero[i].sum())} pixel vectors have zero norm")
        if zero is None:
            np.divide(dots, norms, out=dots)
        else:  # a masked pixel is never divided and adds +0.0
            np.copyto(dots, 0.0, where=zero)
            np.divide(dots, norms, out=dots, where=~zero)
        cos[start : start + k] = dots.reshape(k, -1).sum(-1)
    return cos


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


def importance_scores(
    history: LatentVideo | np.ndarray,
    times: Sequence[float],
    target_estimate: np.ndarray,
    target_time: float,
    time_weight: float,
    *,
    zero_substitute: bool = False,
) -> list[ImportanceScore]:
    """Each frame's hybrid score, in frame order: its ``sim_cos`` with the
    target plus ``time_weight`` times its ``sim_time``.

    ``history`` is a ``LatentVideo`` or a raw (T, H, W, C) array; a raw
    array is checked for finiteness (``ValueError``) a chunk at a time, as
    each chunk is read to be scored."""
    _check_weight(time_weight)
    shape, read = _held(history)
    if shape[0] != len(times):
        raise ValueError(f"{shape[0]} frames but {len(times)} timestamps")
    target = _frame_array(target_estimate, "target estimate")
    _check_shapes(shape[1:], target.shape)
    time_terms = [sim_time(t, target_time) for t in times]
    cosines = _cosines(shape, read, _target_terms(target), zero_substitute).tolist()
    return [
        ImportanceScore(i, cos + time_weight * t, (cos, t))
        for i, (cos, t) in enumerate(zip(cosines, time_terms))
    ]


def sort_by_importance(
    history: LatentVideo | np.ndarray,
    times: Sequence[float],
    target_estimate: np.ndarray,
    target_time: float,
    time_weight: float,
    *,
    zero_substitute: bool = False,
) -> list[int]:
    """Frame indices, most important first: the frames sorted by the
    scores of ``importance_scores``, ties by recency (larger timestamp
    first), then by lower index."""
    scores = importance_scores(
        history, times, target_estimate, target_time, time_weight, zero_substitute=zero_substitute
    )
    return sorted(range(len(scores)), key=lambda i: (-scores[i].score, -float(times[i]), i))


def reorder_frames(history: LatentVideo, permutation: Sequence[int]) -> LatentVideo:
    """History re-ordered by a permutation, most important frame first,
    written straight into the returned video's snapshot."""
    if sorted(permutation) != list(range(history.frame_count)):
        raise ValueError("not a permutation of the history frames")
    order = np.asarray(permutation, dtype=np.intp)

    def in_order(piece: np.ndarray, frames: slice) -> None:
        piece[...] = history.array[order[frames]]

    return LatentVideo._over(_fill_checked(history.array.shape, history.array.dtype, in_order))
