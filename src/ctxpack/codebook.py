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

# Bytes of the float64 (rows, K) score matrix one search chunk may hold.
_SCORE_BYTES = 4 << 20


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


def _nearest(pixels: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-centroid index and squared distance per pixel, chunked.

    Ranks centroids by ``-2 x.c + |c|^2`` through a matmul (``|x|^2`` is
    constant per row). A row whose best-to-second margin is not clearly
    above the float error of that score and of the direct distance is
    re-ranked by the direct ``sum((x - c)^2)``, so the result is the
    direct formula's argmin, ties to the lowest index. Pixels may be
    float32; each chunk is cast to float64 before it is scored.
    """
    n, (k, c) = pixels.shape[0], centroids.shape
    rows = max(1, _SCORE_BYTES // (8 * k))
    exact_rows = max(1, rows // c)  # keeps the (rows, K, C) recheck in budget
    assign = np.empty(n, dtype=np.int64)
    d2 = np.empty(n, dtype=np.float64)
    neg2ct = -2.0 * centroids.T
    c_sq = (centroids**2).sum(axis=1)
    # Each of the two scores and two direct distances a comparison rests
    # on is off by at most about (C + 2) * eps * (|x|^2 + max|c|^2); the
    # ``tiny`` term covers underflow, where relative bounds fail.
    rel = 8 * (c + 2) * np.finfo(np.float64).eps
    floor = rel * c_sq.max() + np.finfo(np.float64).tiny
    for lo in range(0, n, rows):
        chunk = pixels[lo : lo + rows].astype(np.float64, copy=False)
        scores = chunk @ neg2ct
        scores += c_sq
        a = scores.argmin(axis=1)
        r = np.arange(chunk.shape[0])
        best = scores[r, a]
        scores[r, a] = np.inf
        margin = scores.min(axis=1) - best
        tol = rel * (chunk**2).sum(axis=1) + floor
        # NaN or inf margins (overflow) fail the test and are rechecked.
        recheck = np.flatnonzero(~(margin > tol))
        for s in range(0, recheck.size, exact_rows):
            sub = recheck[s : s + exact_rows]
            dist = ((chunk[sub, None, :] - centroids[None, :, :]) ** 2).sum(axis=-1)
            a[sub] = dist.argmin(axis=1)
        assign[lo : lo + rows] = a
        d2[lo : lo + rows] = ((chunk - centroids[a]) ** 2).sum(axis=1)
    return assign, d2


def _dsquared_seed(pixels: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ initial centroids: D-squared sampling from the pixels.

    A pixel at zero distance from every seed is never drawn, so each seed
    is a new distinct pixel, and the weights run out before seed ``k``
    exactly when there are fewer than ``k`` distinct pixels.
    """
    n = pixels.shape[0]
    short = f"need at least {k} distinct pixels to fit {k} codebook entries"
    if k > n:  # before the k-row centroid array is allocated
        raise InsufficientData(short)
    centroids = np.empty((k, pixels.shape[1]), dtype=np.float64)
    centroids[0] = pixels[rng.integers(n)]
    d2 = ((pixels - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total == 0:
            raise InsufficientData(short)
        idx = rng.choice(n, p=d2 / total)
        centroids[j] = pixels[idx]
        d2 = np.minimum(d2, ((pixels - centroids[j]) ** 2).sum(axis=1))
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
    distinct pixels, and ``ValueError`` when ``max_iters < 1`` or ``tol``
    is negative or not finite.
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
    assign, _ = _nearest(pixels, codebook.centroids)
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
