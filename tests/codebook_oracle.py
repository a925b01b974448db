"""Row-major oracle for the codebook fit's distance sums.

``_nearest`` and ``_dsquared_seed`` as they were before the fit summed
squared distances channel-major: each distance is numpy's own row reduce,
``((x - c) ** 2).sum(...)`` over a row of C values. The tests hold the
channel-major code to these functions byte for byte.
"""

from __future__ import annotations

import numpy as np

from ctxpack.errors import InsufficientData

_SCORE_BYTES = 4 << 20
_F32 = np.finfo(np.float32)


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
    # The casts and scores stay below float32 max, with room for rounding,
    # while max|x| and C * (2 max|x| max|c| + max|c|^2) stay below a
    # quarter of it. A chunk that fails this is decided by the direct
    # distance alone, and when max|c| alone fails it, every chunk is.
    limit = float(_F32.max) / 4
    if c * c_max * c_max < limit:
        c_sq = (centroids**2).sum(axis=1)
        floor = rel * float(c_sq.max()) + float(_F32.tiny)
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
