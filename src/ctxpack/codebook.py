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
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import ChannelMismatch, IndexOutOfRange, InsufficientData
from .packing import LatentVideo, _fill_checked

# Bytes of the float32 (K, rows) score matrix one search chunk may hold;
# a float64 (C, rows, K) recheck block is held to a quarter of it.
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
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
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


def _squared_norms(diff: np.ndarray) -> np.ndarray:
    """Squared norms of channel-major float64 differences ``(C, ...)``, C >= 1.

    ``diff`` is squared in place and summed over its channel axis by
    ``_pairwise_sum``, so each norm is bit for bit what
    ``(row ** 2).sum()`` gives for the row of its C differences.
    """
    return _pairwise_sum(np.square(diff, out=diff))


def _pairwise_sum(values: np.ndarray) -> np.ndarray:
    """Sums over the first axis of ``values`` (at least one row), added in
    place, in the pairs ``np.add.reduce`` uses for one contiguous row: under
    8 values in order; up to 128 in eight running sums, joined as
    ``((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))``, then the rest in
    order; above 128 split at ``n // 2 - (n // 2) % 8``. The reduce starts
    from +0.0, so the result does too. Each add is one vector op over every
    column; the result is a view of ``values[0]``.
    """
    n = values.shape[0]
    if n > 128:
        half = n // 2 - (n // 2) % 8
        total = _pairwise_sum(values[:half])
        total += _pairwise_sum(values[half:])
    else:
        rest = 1
        if n >= 8:
            rest = n - n % 8
            for i in range(8, rest, 8):
                values[:8] += values[i : i + 8]
            values[0:8:2] += values[1:8:2]
            values[0:8:4] += values[2:8:4]
            values[0] += values[4]
        total = values[0]
        for i in range(rest, n):
            total += values[i]
    total += 0.0  # turns a -0.0 sum into +0.0
    return total


def _nearest(
    pixels: np.ndarray, centroids: np.ndarray, *, distances: bool = True
) -> tuple[np.ndarray, np.ndarray | None]:
    """Nearest-centroid index and squared distance per pixel, chunked.

    Ranks centroids by the float32 score ``-2 x.c + |c|^2`` through one
    centroid-major matmul (``|x|^2`` is constant per pixel), with ``|c|^2``
    a term of the product. A pixel with more than one centroid scoring
    within the float32 error of its best is re-ranked by the direct
    float64 ``sum((x - c)^2)``, and so is every pixel of a chunk whose
    magnitudes could overflow float32. The result is the direct formula's
    argmin, ties to the lowest index. Pixels may be float32: only the
    rechecked rows, and with ``distances`` the distance pass, widen them to
    float64. Without ``distances`` the second result is None.
    """
    n, (k, c) = pixels.shape[0], centroids.shape
    rows = max(1, _SCORE_BYTES // (4 * k))
    exact_rows = max(1, _SCORE_BYTES // (32 * k * c))  # the (C, rows, K) recheck
    assign = np.empty(n, dtype=np.int64)
    d2 = np.empty(n, dtype=np.float64) if distances else None
    c_max = float(np.abs(centroids).max())
    ct = np.ascontiguousarray(centroids.T)
    # A score is the (C + 1)-term float32 dot product of [x, 1] with
    # [-2c, |c|^2]. Its error is at most about (C + 4) * eps32/2 *
    # (|x|^2 + 2|c|^2): the casts of x and of c (eps32/2 * (|x|^2 + |c|^2)
    # each), rounding |c|^2 to float32 (eps32/2 * |c|^2), and the products
    # and sum in any order ((C + 2) * eps32/2 of the terms' magnitudes,
    # 2|x||c| + |c|^2). A margin is the difference of two scores, so it is
    # off by less than 2 * (C + 4) * eps32 * (|x|^2 + max|c|^2); ``rel``
    # covers that at least twice over, and ``tiny`` covers float32
    # underflow, where relative bounds fail. |x|^2 is itself summed from
    # the float32 x, so it may read low by about (C + 3) * eps32/2 of
    # itself, and the tolerance is rounded to float32: both take far less
    # than the slack in ``rel``. The threshold, best score plus tolerance,
    # is rounded up by one float32 ulp, so every centroid whose margin is
    # within the tolerance is counted near. An |x|^2 that overflows float32
    # makes the threshold infinite, so with K > 1 its row is rechecked.
    # The float64 error of the direct distance is far below either bound.
    rel = 8 * (c + 2) * float(_F32.eps)
    # The casts and scores stay below float32 max, with room for rounding,
    # while max|x| and C * (2 max|x| max|c| + max|c|^2) stay below a
    # quarter of it. A chunk that fails this is decided by the direct
    # distance alone, and when max|c| alone fails it, every chunk is.
    limit = float(_F32.max) / 4
    if c * c_max * c_max < limit:
        c_sq = (centroids**2).sum(axis=1)
        floor = rel * float(c_sq.max()) + float(_F32.tiny)
        weights = np.empty((k, c + 1), dtype=np.float32)  # [-2c | |c|^2]
        weights[:, :c] = -2 * centroids.astype(np.float32)
        weights[:, c] = c_sq
        # near-tie counts and indices below K fit this unsigned type
        order = np.arange(k, dtype=np.min_scalar_type(k))[:, None]
    for lo in range(0, n, rows):
        chunk = pixels[lo : lo + rows]
        x_max = float(np.abs(chunk).max())
        if max(x_max, c * (2 * x_max * c_max + c_max * c_max)) < limit:
            x32 = chunk.astype(np.float32, copy=False)
            tol = rel * np.einsum("ij,ij->i", x32, x32) + floor
            xt = np.empty((c + 1, chunk.shape[0]), dtype=np.float32)  # [x^T ; 1]
            xt[:c], xt[c] = x32.T, 1
            del x32  # a float64 chunk's float32 copy, not held through the matmul
            scores = weights @ xt  # (K, rows)
            # best + tol, rounded up: every centroid within tol of the best is near
            thr = np.nextafter(scores.min(axis=0) + tol, np.float32(np.inf))
            near = scores <= thr
            del scores
            count = near.sum(axis=0, dtype=order.dtype)
            # the index of the one near centroid, exact where count is 1
            a = np.multiply(near, order).sum(axis=0, dtype=order.dtype).astype(np.int64)
            recheck = np.flatnonzero(count != 1)
        else:
            a = np.zeros(chunk.shape[0], dtype=np.int64)
            recheck = np.arange(chunk.shape[0])
        for s in range(0, recheck.size, exact_rows):
            sub = recheck[s : s + exact_rows]
            diff = chunk[sub].T[:, :, None] - ct[:, None, :]  # (C, rows, K)
            a[sub] = _squared_norms(diff).argmin(axis=1)
        assign[lo : lo + rows] = a
        if d2 is not None:
            diff = ct.take(a, axis=1)  # (C, rows), then x - c in place
            d2[lo : lo + rows] = _squared_norms(np.subtract(chunk.T, diff, out=diff))
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
    # One contiguous channel-major (C, n) copy of the pixels, in their own
    # dtype (float32 pixels stay float32), freed when the seeds are drawn.
    columns = np.ascontiguousarray(pixels.T)
    # d2 is each pixel's squared distance to its nearest seed so far. It is
    # updated in place a chunk of columns at a time through one float64
    # (C, rows) buffer of a quarter of the score budget, small enough to
    # stay in cache; casts of float32 to float64 are exact, and
    # _squared_norms sums each column as ((pixels - seed) ** 2).sum(axis=1)
    # sums its row, so the seeds do not change.
    rows = min(n, max(1, _SCORE_BYTES // (32 * c)))
    diff = np.empty((c, rows))
    d2 = np.full(n, np.inf)

    def nearer(seed: np.ndarray) -> float:
        for lo in range(0, n, rows):
            part, near = diff[:, : n - lo], d2[lo : lo + rows]
            np.subtract(columns[:, lo : lo + rows], seed[:, None], out=part)
            np.minimum(near, _squared_norms(part), out=near)
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
            centroids[j] = pixels[_draw(rng, d2 / total)]
            total = nearer(centroids[j])
    return centroids


def _draw(rng: np.random.Generator, p: np.ndarray) -> int:
    """The index ``rng.choice(p.size, p=p)`` draws from the same stream, by
    the same steps, without re-checking ``p`` on every draw: one uniform
    double searched, right side, in the cumulative sum of ``p`` over its
    last value."""
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def _check_same_channels(channels: Sequence[int]) -> None:
    """A fit's one check of its inputs' channel counts, which ``fit_codebook``
    runs on its videos and ``ctxpack codebook fit`` on their headers."""
    if len(set(channels)) > 1:
        raise ChannelMismatch("dataset videos have mixed channel counts")


def _pixel_matrix(dataset: Sequence[LatentVideo]) -> np.ndarray:
    if not dataset:
        raise InsufficientData("dataset is empty")
    _check_same_channels([v.channels for v in dataset])
    channels = dataset[0].channels
    # float32 pixels stay float32, as a view of a lone video's snapshot:
    # every cast to float64 in the fit is exact, so the fit is the same
    pixels = [v.array.reshape(-1, channels) for v in dataset]
    return pixels[0] if len(pixels) == 1 else np.concatenate(pixels)


def _check_fit(k: int, max_iters: int, tol: float) -> None:
    """``fit_codebook``'s argument checks, run before it reads any pixel."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    if not math.isfinite(tol) or tol < 0:
        raise ValueError(f"tol must be finite and >= 0, got {tol}")


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
    distinct pixels, and ``ValueError`` as ``_check_fit`` does or when squared
    pixel distances overflow float64 or underflow it between distinct pixels.
    """
    _check_fit(k, max_iters, tol)
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
    _check_channels(frames.channels, codebook)
    pixels = frames.array.reshape(-1, frames.channels)
    assign, _ = _nearest(pixels, codebook.centroids, distances=False)
    return IndexMap(assign.reshape(frames.array.shape[:3]))


def _check_channels(channels: int, codebook: Codebook) -> None:
    if channels != codebook.channels:
        raise ChannelMismatch(f"video has {channels} channels, codebook has {codebook.channels}")


def _quantized(
    shape: tuple[int, ...], read: Callable[[int, int], np.ndarray], codebook: Codebook
) -> Iterator[np.ndarray]:
    """Each run's float32 centroid rows for a video of ``shape`` whose frames
    ``start .. stop`` ``read(start, stop)`` returns. The channels are checked
    at the call, before any read; then each run, as many whole frames as one
    search chunk holds (at least one), is read and searched by ``_nearest``."""
    _check_channels(shape[3], codebook)
    rows = codebook.centroids.astype("<f4")
    pixels = _SCORE_BYTES // (4 * max(codebook.size, codebook.channels))
    frames, step = shape[0], max(1, pixels // (shape[1] * shape[2]))

    def snapped(run: np.ndarray) -> np.ndarray:
        assign, _ = _nearest(run.reshape(-1, shape[3]), codebook.centroids, distances=False)
        return rows.take(assign.reshape(run.shape[:3]), axis=0)

    return (snapped(read(t, min(t + step, frames))) for t in range(0, frames, step))


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

    return LatentVideo._over(_fill_checked((*idx.shape, codebook.channels), np.float64, rows))


def discretize_history(frames: LatentVideo, codebook: Codebook) -> LatentVideo:
    """Snap every pixel to its nearest codebook entry. Idempotent."""
    return dequantize(quantize(frames, codebook), codebook)
