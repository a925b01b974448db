"""History discretization through a fitted latent-pixel codebook.

A codebook is fit with Lloyd's algorithm over every pixel vector of a
latent-video dataset, seeded deterministically with the D-squared
(k-means++) scheme. Quantization assigns each pixel its nearest centroid
by Euclidean distance (ties to the lowest index); dequantization maps
indices back to centroid rows. Discretizing history is the round trip and
is idempotent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ChannelMismatch, IndexOutOfRange, InsufficientData
from .packing import LatentVideo

# Bytes of the float32 (rows, K) score matrix one search chunk may hold;
# a float64 (rows, K, C) recheck block is held to the same budget.
_SCORE_BYTES = 4 << 20
_F32 = np.finfo(np.float32)


@dataclass(frozen=True)
class FitStats:
    inertia: float
    iterations: int
    seed: int
    inertia_trace: tuple[float, ...]


@dataclass(frozen=True, eq=False)
class Codebook:
    centroids: np.ndarray  # (K, C)
    fit_stats: FitStats | None = None

    def __post_init__(self) -> None:
        arr = np.array(self.centroids, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] < 1:
            raise ValueError(f"centroids must be a (K, C) matrix, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("centroids must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "centroids", arr)

    @property
    def size(self) -> int:
        return self.centroids.shape[0]

    @property
    def channels(self) -> int:
        return self.centroids.shape[1]


@dataclass(frozen=True, eq=False)
class IndexMap:
    """Per-pixel codebook indices over a (T, H, W) grid."""

    indices: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.indices)
        if arr.ndim != 3 or not np.issubdtype(arr.dtype, np.integer):
            raise ValueError("index map must be a 3D integer grid")
        object.__setattr__(self, "indices", arr)


def _nearest(
    pixels: np.ndarray, centroids: np.ndarray, *, distances: bool = True
) -> tuple[np.ndarray, np.ndarray | None]:
    """Nearest-centroid index and squared distance per pixel, chunked.

    Ranks centroids by the float32 score ``-2 x.c + |c|^2`` through a
    matmul (``|x|^2`` is constant per row). A row whose best-to-second
    margin is not clearly above the float32 error of that score is
    re-ranked by the direct float64 ``sum((x - c)^2)``, and so is every
    row of a chunk whose magnitudes could overflow float32. The result is
    the direct formula's argmin, ties to the lowest index. Pixels may be
    float32: only the rechecked rows, and with ``distances`` the distance
    pass, widen them to float64. Without ``distances`` the second result
    is None.
    """
    n, (k, c) = pixels.shape[0], centroids.shape
    rows = max(1, _SCORE_BYTES // (4 * k))
    exact_rows = max(1, _SCORE_BYTES // (8 * k * c))  # the (rows, K, C) recheck
    assign = np.empty(n, dtype=np.int64)
    d2 = np.empty(n, dtype=np.float64) if distances else None
    c_max = float(np.abs(centroids).max())
    c_sq = (centroids**2).sum(axis=1)
    # A score's float32 error is at most about (C + 7) * eps32/2 *
    # (|x|^2 + |c|^2): the casts of x and of c (eps32/2 * (|x|^2 + |c|^2)
    # each), a C-term dot product in any order (C times that), rounding
    # |c|^2 and the final add. A margin is the difference of two scores,
    # so twice that; ``rel`` covers it more than twice over, and ``tiny``
    # covers float32 underflow, where relative bounds fail. |x|^2 is
    # itself summed from the float32 x, so it may read low by about
    # (C + 3) * eps32/2 of itself, and the tolerance is rounded to float32:
    # both take far less than the slack in ``rel``. An |x|^2 that overflows
    # float32 makes the tolerance infinite, so its row is rechecked. The
    # float64 error of the direct distance is far below either bound.
    rel = 8 * (c + 2) * float(_F32.eps)
    floor = rel * float(c_sq.max()) + float(_F32.tiny)
    # The casts and scores stay below float32 max, with room for rounding,
    # while max|x| and C * (2 max|x| max|c| + max|c|^2) stay below a
    # quarter of it. A chunk that fails this is decided by the direct
    # distance alone, and when max|c| alone fails it, every chunk is.
    limit = float(_F32.max) / 4
    if c * c_max * c_max < limit:
        neg2ct = -2 * centroids.T.astype(np.float32)
        c_sq32 = c_sq.astype(np.float32)
    for lo in range(0, n, rows):
        chunk = pixels[lo : lo + rows]
        r = np.arange(chunk.shape[0])
        x_max = float(np.abs(chunk).max())
        if max(x_max, c * (2 * x_max * c_max + c_max * c_max)) < limit:
            x32 = chunk.astype(np.float32, copy=False)
            tol = rel * np.einsum("ij,ij->i", x32, x32) + floor
            scores = x32 @ neg2ct
            del x32  # a float64 chunk's float32 copy, not held past the matmul
            scores += c_sq32
            a = scores.argmin(axis=1)
            best = scores[r, a]
            scores[r, a] = np.inf
            margin = scores[r, scores.argmin(axis=1)] - best.astype(np.float64)
            recheck = np.flatnonzero(margin <= tol)  # an inf margin (K = 1) passes
        else:
            a = np.zeros(chunk.shape[0], dtype=np.int64)
            recheck = r
        for s in range(0, recheck.size, exact_rows):
            sub = recheck[s : s + exact_rows]
            dist = ((chunk[sub, None, :] - centroids[None, :, :]) ** 2).sum(axis=-1)
            a[sub] = dist.argmin(axis=1)
        assign[lo : lo + rows] = a
        if d2 is not None:
            d2[lo : lo + rows] = ((chunk - centroids[a]) ** 2).sum(axis=1)
    return assign, d2


def _dsquared_seed(pixels: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ initial centroids: D-squared sampling from the pixels.

    A pixel at zero distance from every seed is never drawn, so each seed
    is a new distinct pixel, and the weights run out before seed ``k``
    exactly when there are fewer than ``k`` distinct pixels, or when the
    squared distances of distinct pixels underflow float64. That underflow
    raises ``ValueError``, as do weights that overflow float64.
    """
    n, c = pixels.shape
    short = f"need at least {k} distinct pixels to fit {k} codebook entries"
    if k > n:  # before the k-row centroid array is allocated
        raise InsufficientData(short)
    centroids = np.empty((k, c), dtype=np.float64)
    centroids[0] = pixels[rng.integers(n)]
    # d2 is each pixel's squared distance to its nearest seed so far. It is
    # updated in place a chunk of rows at a time through one float64
    # (rows, C) buffer of a quarter of the score budget, small enough to
    # stay in cache; each row is the same reduction as
    # ((pixels - seed) ** 2).sum(axis=1), so the seeds do not change.
    rows = min(n, max(1, _SCORE_BYTES // (32 * c)))
    diff, dist = np.empty((rows, c)), np.empty(rows)
    d2 = np.full(n, np.inf)

    def nearer(seed: np.ndarray) -> float:
        for lo in range(0, n, rows):
            part, near = diff[: n - lo], d2[lo : lo + rows]
            np.square(np.subtract(pixels[lo : lo + rows], seed, out=part), out=part)
            np.minimum(near, part.sum(axis=1, out=dist[: len(part)]), out=near)
        return d2.sum()

    # An overflow of the first weights is raised below, by name; a later
    # one is an inf distance that np.minimum drops.
    with np.errstate(over="ignore"):
        total = nearer(centroids[0])
        # later weights only shrink, so this one check covers them
        if total == np.inf:
            raise ValueError("squared distances between pixels overflow float64")
        for j in range(1, k):
            if total == 0:
                # without underflow, zero weights mean j distinct pixels
                if np.unique(pixels, axis=0).shape[0] < k:
                    raise InsufficientData(short)
                raise ValueError("squared distances between distinct pixels underflow float64")
            centroids[j] = pixels[rng.choice(n, p=d2 / total)]
            total = nearer(centroids[j])
    return centroids


def _pixel_matrix(dataset: Sequence[LatentVideo]) -> np.ndarray:
    if not dataset:
        raise InsufficientData("dataset is empty")
    channels = dataset[0].channels
    if any(v.channels != channels for v in dataset):
        raise ChannelMismatch("dataset videos have mixed channel counts")
    return np.concatenate([v.array.reshape(-1, channels) for v in dataset], dtype=np.float64)


def fit_codebook(
    dataset: Sequence[LatentVideo],
    k: int,
    seed: int,
    max_iters: int = 100,
    tol: float = 1e-6,
) -> Codebook:
    """Fit a k-entry codebook over all latent pixels of the dataset.

    Deterministic for a fixed seed. Iterates until the relative inertia
    improvement drops below ``tol`` or ``max_iters`` assignment passes run.
    Empty clusters are re-seeded to the point farthest from its centroid.
    Raises ``InsufficientData`` when the dataset has fewer than ``k``
    distinct pixels, and ``ValueError`` when ``max_iters < 1``, when ``tol``
    is negative or not finite, or when squared pixel distances overflow
    float64 or underflow it between distinct pixels.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    if not math.isfinite(tol) or tol < 0:
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    pixels = _pixel_matrix(dataset)
    rng = np.random.default_rng(seed)
    centroids = _dsquared_seed(pixels, k, rng)

    trace: list[float] = []
    for _ in range(max_iters):
        assign, d2 = _nearest(pixels, centroids)
        counts = np.bincount(assign, minlength=k)
        for j in np.flatnonzero(counts == 0):
            far = int(d2.argmax())
            centroids[j] = pixels[far]
            counts[assign[far]] -= 1
            counts[j] += 1
            assign[far] = j
            d2[far] = 0.0
        inertia = float(d2.sum())
        trace.append(inertia)
        if len(trace) > 1:
            prev = trace[-2]
            if prev == 0 or (prev - inertia) <= tol * prev:
                break
        # bincount adds each cluster's pixels in input order, so the sums
        # do not depend on BLAS or pairwise summation order.
        sums = np.stack(
            [np.bincount(assign, weights=col, minlength=k) for col in pixels.T], axis=1
        )
        centroids = sums / counts[:, None]

    stats = FitStats(trace[-1], len(trace), seed, tuple(trace))
    return Codebook(centroids, stats)


def quantize(frames: LatentVideo, codebook: Codebook) -> IndexMap:
    """Nearest-centroid index per pixel; ties break to the lowest index."""
    if frames.channels != codebook.channels:
        raise ChannelMismatch(
            f"video has {frames.channels} channels, codebook has {codebook.channels}"
        )
    pixels = frames.array.reshape(-1, frames.channels)
    assign, _ = _nearest(pixels, codebook.centroids, distances=False)
    return IndexMap(assign.reshape(frames.array.shape[:3]))


def dequantize(index_map: IndexMap, codebook: Codebook) -> LatentVideo:
    """Replace each index with its codebook row, writing the rows straight
    into the returned video's float64 snapshot."""
    idx = index_map.indices
    if idx.size and (idx.min() < 0 or idx.max() >= codebook.size):
        raise IndexOutOfRange(
            f"index map values must lie in [0, {codebook.size - 1}]"
        )

    def rows(piece: np.ndarray, frames: slice) -> None:
        piece[...] = codebook.centroids[idx[frames]]

    return LatentVideo._filled((*idx.shape, codebook.channels), np.float64, rows)


def discretize_history(frames: LatentVideo, codebook: Codebook) -> LatentVideo:
    """Snap every pixel to its nearest codebook entry. Idempotent."""
    return dequantize(quantize(frames, codebook), codebook)
