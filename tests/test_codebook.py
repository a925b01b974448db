import re
import tracemalloc
import warnings

from unittest import mock

import codebook_oracle
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ctxpack import codebook
from ctxpack.codebook import (
    Codebook,
    IndexMap,
    dequantize,
    discretize_history,
    fit_codebook,
    quantize,
)
from ctxpack.errors import ChannelMismatch, IndexOutOfRange, InsufficientData
from ctxpack.packing import LatentVideo


def rng(seed=0):
    return np.random.default_rng(seed)


def video_from(pixels, t, h, w):
    return LatentVideo(np.asarray(pixels, dtype=float).reshape(t, h, w, -1))


def nearest_oracle(pixel, centroids):
    """Brute-force nearest centroid with lowest-index tie break."""
    best, best_d = 0, None
    for i, c in enumerate(centroids):
        d = float(((pixel - c) ** 2).sum())
        if best_d is None or d < best_d:
            best, best_d = i, d
    return best


def fit_oracle(pixels, k, seed, max_iters, tol):
    """Reference Lloyd fit written the direct way: (N, K, C) broadcast
    search, np.unique distinct-pixel check, np.add.at sums and a full
    bincount per re-seed.

    Returns the centroids, the inertia trace and the re-seed count.
    """
    if np.unique(pixels, axis=0).shape[0] < k:
        raise InsufficientData(f"need at least {k} distinct pixels to fit {k} codebook entries")
    rng = np.random.default_rng(seed)
    n = pixels.shape[0]
    centroids = np.empty((k, pixels.shape[1]))
    centroids[0] = pixels[rng.integers(n)]
    d2 = ((pixels - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total == 0:
            centroids[j] = pixels[rng.integers(n)]
            continue
        centroids[j] = pixels[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, ((pixels - centroids[j]) ** 2).sum(axis=1))
    trace, reseeds = [], 0
    for _ in range(max_iters):
        dist = ((pixels[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=-1)
        assign = dist.argmin(axis=1)
        d2 = dist[np.arange(n), assign]
        counts = np.bincount(assign, minlength=k)
        for j in np.flatnonzero(counts == 0):
            far = int(d2.argmax())
            centroids[j] = pixels[far]
            assign[far] = j
            d2[far] = 0.0
            counts = np.bincount(assign, minlength=k)
            reseeds += 1
        trace.append(float(d2.sum()))
        if len(trace) > 1 and (trace[-2] == 0 or trace[-2] - trace[-1] <= tol * trace[-2]):
            break
        sums = np.zeros_like(centroids)
        np.add.at(sums, assign, pixels)
        centroids = sums / counts[:, None]
    return centroids, tuple(trace), reseeds


@st.composite
def search_cases(draw):
    """A codebook and video rich in exact and one-ulp ties, on a common offset."""
    k, c = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    t, h, w = draw(st.integers(0, 2)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    offset = draw(st.sampled_from([0.0, 1e6, -1e6]) | st.floats(-1e6, 1e6))
    values = st.floats(-4, 4, allow_nan=False)
    centroids = draw(arrays(np.float64, (k, c), elements=values)) + offset
    for i in range(1, k):
        j = draw(st.integers(0, i - 1))
        how = draw(st.sampled_from(["keep", "duplicate", "ulp"]))
        if how == "duplicate":
            centroids[i] = centroids[j]
        elif how == "ulp":
            centroids[i] = np.nextafter(centroids[j], draw(st.sampled_from([-np.inf, np.inf])))
    pixels = draw(arrays(np.float64, (t * h * w, c), elements=values)) + offset
    for p in range(pixels.shape[0]):
        i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
        how = draw(st.sampled_from(["keep", "centroid", "midpoint"]))
        if how == "centroid":
            pixels[p] = centroids[i]
        elif how == "midpoint":
            pixels[p] = (centroids[i] + centroids[j]) / 2
    return centroids, pixels.reshape(t, h, w, c)


@st.composite
def scaled_search_cases(draw):
    """``search_cases`` at magnitudes that cross the float32 overflow guard
    of the search or reach float32 subnormals, as float32 videos, or with
    float64 pixels less than one float32 ulp from a centroid."""
    centroids, data = draw(search_cases())
    scale = draw(st.sampled_from([1e-40, 2.0**-133, 1e-20, 1.0, 1e17, 1e18, 1e19, 2.0**64, 1e20, 1e30]))
    centroids, data = centroids * scale, data * scale
    how = draw(st.sampled_from(["float64", "float32", "sub-ulp"]))
    if how == "float32":
        if draw(st.booleans()):  # keeps exact centroid ties in float32
            centroids = centroids.astype(np.float32).astype(np.float64)
        data = data.astype(np.float32)
    elif how == "sub-ulp":
        pixels = data.reshape(-1, data.shape[-1])
        for p in range(pixels.shape[0]):
            c = centroids[draw(st.integers(0, len(centroids) - 1))]
            ulp = np.spacing(np.abs(c).astype(np.float32)).astype(np.float64)
            pixels[p] = c + draw(st.floats(-0.99, 0.99)) * ulp
    return centroids, data


# 1-D data on which the seed-215 fit empties a cluster after its first update.
EMPTY_CLUSTER_PIXELS = np.array([0.0] + [2.4] * 9 + [3.0, 5.0, 5.8, 6.0])


class TestFitCodebook:
    def test_constant_video_single_entry(self):
        cb = fit_codebook([video_from(np.full((8, 2), 3.5), 2, 2, 2)], 1, seed=0)
        assert np.allclose(cb.centroids, 3.5)
        assert cb.fit_stats.inertia == 0.0

    def test_single_entry_is_global_mean(self):
        data = rng(1).normal(size=(3, 4, 4, 2))
        cb = fit_codebook([LatentVideo(data)], 1, seed=0)
        np.testing.assert_allclose(cb.centroids[0], data.reshape(-1, 2).mean(axis=0), atol=1e-12)

    def test_two_separated_clusters(self):
        r = rng(2)
        a = r.normal(scale=0.05, size=(40, 2))
        b = r.normal(scale=0.05, size=(40, 2)) + 10.0
        pixels = np.concatenate([a, b])
        pixels = pixels[r.permutation(len(pixels))]
        cb = fit_codebook([video_from(pixels, 1, 8, 10)], 2, seed=3)
        got = sorted(cb.centroids.tolist())
        np.testing.assert_allclose(got[0], a.mean(axis=0), atol=1e-6)
        np.testing.assert_allclose(got[1], b.mean(axis=0), atol=1e-6)

    def test_inertia_trace_non_increasing(self):
        for seed in range(8):
            data = rng(seed).normal(size=(2, 8, 8, 3))
            cb = fit_codebook([LatentVideo(data)], 8, seed=seed)
            trace = cb.fit_stats.inertia_trace
            assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))

    def test_deterministic_for_seed(self):
        data = [LatentVideo(rng(4).normal(size=(2, 6, 6, 3)))]
        first = fit_codebook(data, 5, seed=42)
        second = fit_codebook(data, 5, seed=42)
        np.testing.assert_array_equal(first.centroids, second.centroids)

    def test_multiple_videos_pool_pixels(self):
        a = LatentVideo(np.zeros((1, 2, 2, 2)))
        b = LatentVideo(np.full((1, 2, 2, 2), 4.0))
        cb = fit_codebook([a, b], 1, seed=0)
        np.testing.assert_allclose(cb.centroids[0], [2.0, 2.0], atol=1e-12)

    def test_insufficient_distinct_pixels(self):
        with pytest.raises(InsufficientData):
            fit_codebook([video_from(np.zeros((4, 2)), 1, 2, 2)], 2, seed=0)

    def test_empty_dataset(self):
        with pytest.raises(InsufficientData):
            fit_codebook([], 1, seed=0)

    def test_centroid_too_large_to_square_fits_and_quantizes(self):
        # 1.3e159 squared overflows float64, but no distance here does; the
        # float32 search, which would square it, cannot run
        v = LatentVideo(np.full((1, 1, 2, 1), 1.3e159))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cb = fit_codebook([v], 1, 0)
            idx = quantize(v, cb)
        assert cb.centroids.tolist() == [[1.3e159]]
        assert idx.indices.tolist() == [[[0, 0]]]

    def test_distinct_values_become_their_own_entries(self):
        values = np.array([[0.0], [1.0], [2.0], [3.0]]).repeat(6, axis=0)
        v = video_from(values, 1, 4, 6)
        cb = fit_codebook([v], 4, seed=5)
        assert sorted(np.round(cb.centroids.ravel(), 9).tolist()) == [0.0, 1.0, 2.0, 3.0]
        out = discretize_history(v, cb)
        np.testing.assert_array_equal(out.data, v.data)

    @pytest.mark.parametrize("seed", range(6))
    def test_exactly_k_distinct_heavily_duplicated(self, seed):
        values = np.array([[0.0, 1.0], [2.0, -1.0], [5.0, 5.0], [-3.0, 0.5]])
        pixels = values[rng(seed).permutation(np.arange(60) % 4)]
        cb = fit_codebook([video_from(pixels, 3, 4, 5)], 4, seed=seed)
        assert sorted(map(tuple, cb.centroids.tolist())) == sorted(map(tuple, values.tolist()))

    def test_k_beyond_any_allocation(self):
        # a k x C centroid array of 10^13 rows would need 437 TiB; the
        # check on the pixel count comes first
        v = video_from(rng(3).normal(size=(4, 6)), 1, 2, 2)
        k = 10**13
        with pytest.raises(InsufficientData, match=f"^need at least {k} distinct pixels"):
            fit_codebook([v], k, seed=0)

    @pytest.mark.parametrize("seed", range(6))
    def test_k_minus_one_distinct_message(self, seed):
        pixels = np.array([[0.0], [1.0], [2.0]]).repeat(8, axis=0)
        with pytest.raises(InsufficientData, match="^need at least 4 distinct pixels to fit 4 codebook entries$"):
            fit_codebook([video_from(pixels, 2, 3, 4)], 4, seed=seed)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize(
        "pixels,k,error,message",
        [
            ([1e200, -1e200, 0.0, 3e199], 2, ValueError,
             "squared distances between pixels overflow float64"),
            # four distinct pixels whose squared distances all underflow to 0
            ([1e-200, 2e-200, 0.0, 3e-200], 3, ValueError,
             "squared distances between distinct pixels underflow float64"),
            ([1e-200, 1e-200, 0.0, -0.0], 3, InsufficientData,
             "need at least 3 distinct pixels to fit 3 codebook entries"),
        ],
        ids=["overflow", "underflow", "too-few-tiny"],
    )
    def test_float64_extremes_name_the_cause(self, pixels, k, error, message, seed):
        v = video_from(np.array(pixels)[:, None], 1, 2, 2)
        with pytest.raises(error, match=f"^{message}$") as info:
            fit_codebook([v], k, seed=seed)
        assert type(info.value) is error


class TestFitPixelWidth:
    """The fit reads float32 pixels as they are: every cast to float64 in
    it is exact, so the centroids do not depend on the snapshot's width."""

    @pytest.mark.parametrize(
        "widths", [(np.float32,), (np.float32, np.float32), (np.float32, float)]
    )
    @pytest.mark.parametrize("seed", [0, 3])
    def test_same_fit_as_float64(self, widths, seed):
        r = rng(40 + seed)
        parts = [np.round(r.normal(size=(2, 5, 6, 3)) * 8) / 8 for _ in widths]
        got = fit_codebook([LatentVideo(p.astype(w)) for p, w in zip(parts, widths)], 6, seed)
        want = fit_codebook([LatentVideo(p) for p in parts], 6, seed)
        assert got.centroids.tobytes() == want.centroids.tobytes()
        assert got.fit_stats == want.fit_stats

    def test_paper_shaped_float32_fit_peak(self):
        # 19 frames of 60x104x16 float32 pixels are 7.2 MiB; a float64
        # (n, C) copy of them would be 14.5 MiB more
        r = rng(41)
        means = r.normal(0.0, 2.0, (32, 16)).astype(np.float32)
        noise = r.normal(0.0, 0.6, (19, 60, 104, 16)).astype(np.float32)
        video = LatentVideo(means[r.integers(32, size=(19, 60, 104))] + noise)
        del noise
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            fitted = fit_codebook([video], 128, seed=0, max_iters=7, tol=0.0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert fitted.fit_stats.iterations == 7
        assert peak < 15 * 2**20


class TestFitOracle:
    CASES = [
        ("normal", rng(20).normal(size=(300, 3)), 7),
        ("rounded", np.round(rng(21).normal(size=(200, 2)) * 2) / 2, 9),
        ("duplicates", rng(22).normal(size=(25, 4))[rng(23).integers(0, 25, size=250)], 6),
        ("offset", rng(24).normal(size=(150, 2)) + 1e6, 5),
        ("empty-cluster", EMPTY_CLUSTER_PIXELS[:, None], 3),
    ]

    @pytest.mark.parametrize("name,pixels,k", CASES, ids=[c[0] for c in CASES])
    @pytest.mark.parametrize("seed", [0, 1, 215])
    def test_matches_original_fit(self, name, pixels, k, seed):
        want, trace, _ = fit_oracle(pixels, k, seed, max_iters=30, tol=0.0)
        cb = fit_codebook([video_from(pixels, 1, 1, len(pixels))], k, seed, max_iters=30, tol=0.0)
        np.testing.assert_array_equal(cb.centroids, want)
        assert cb.fit_stats.inertia_trace == trace

    def test_oracle_case_empties_a_cluster(self):
        assert fit_oracle(EMPTY_CLUSTER_PIXELS[:, None], 3, 215, 30, 0.0)[2] > 0


class TestQuantize:
    def test_closer_centroid_wins(self):
        cb = Codebook([[0.0, 0.0], [1.0, 1.0]])
        idx = quantize(video_from([[0.2, 0.1]], 1, 1, 1), cb)
        assert idx.indices[0, 0, 0] == 0

    def test_tie_breaks_low_index(self):
        cb = Codebook([[0.0, 0.0], [1.0, 1.0]])
        idx = quantize(video_from([[0.5, 0.5]], 1, 1, 1), cb)
        assert idx.indices[0, 0, 0] == 0

    def test_exact_centroid_match(self):
        cb = Codebook([[0.0, 0.0], [1.0, 1.0]])
        idx = quantize(video_from([[1.0, 1.0]], 1, 1, 1), cb)
        assert idx.indices[0, 0, 0] == 1

    def test_matches_brute_force(self):
        cb = Codebook(rng(6).normal(size=(7, 3)))
        v = LatentVideo(rng(7).normal(size=(2, 3, 4, 3)))
        idx = quantize(v, cb)
        for t in range(2):
            for r in range(3):
                for c in range(4):
                    assert idx.indices[t, r, c] == nearest_oracle(v.data[t, r, c], cb.centroids)

    @settings(deadline=None, derandomize=True, max_examples=150)
    @given(search_cases())
    def test_matches_oracle_on_ties(self, case):
        centroids, data = case
        cb = Codebook(centroids)
        v = LatentVideo(data)
        idx = quantize(v, cb).indices.reshape(-1)
        pixels = v.data.reshape(-1, v.channels)
        assert [nearest_oracle(p, cb.centroids) for p in pixels] == idx.tolist()

    @settings(deadline=None, derandomize=True, max_examples=300)
    @given(scaled_search_cases())
    def test_matches_oracle_across_float32_range(self, case):
        # the search scores in float32; near-ties, subnormals and chunks
        # that could overflow float32 must still get the float64 answer
        centroids, data = case
        cb = Codebook(centroids)
        v = LatentVideo(data)
        idx = quantize(v, cb).indices.reshape(-1)
        pixels = v.data.reshape(-1, v.channels)
        assert [nearest_oracle(p, cb.centroids) for p in pixels] == idx.tolist()

    def test_channel_mismatch(self):
        cb = Codebook(rng(8).normal(size=(4, 3)))
        with pytest.raises(ChannelMismatch):
            quantize(LatentVideo(np.zeros((1, 2, 2, 2))), cb)


class TestInputChecks:
    @pytest.mark.parametrize("shape", [(3,), (0, 2), (1, 2, 2)])
    def test_codebook_needs_k_by_c_matrix(self, shape):
        message = f"centroids must be a (K, C) matrix, got shape {shape}"
        with pytest.raises(ValueError, match=re.escape(message)):
            Codebook(np.zeros(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_codebook_needs_finite_centroids(self, bad):
        with pytest.raises(ValueError, match="centroids must be finite"):
            Codebook([[0.0, bad]])

    @pytest.mark.parametrize(
        "indices",
        [np.zeros((2, 2), dtype=int), np.zeros((1, 2, 2)), np.zeros((1, 1, 2, 2), dtype=int)],
    )
    def test_index_map_needs_3d_integer_grid(self, indices):
        with pytest.raises(ValueError, match="index map must be a 3D integer grid"):
            IndexMap(indices)


class TestDequantize:
    def test_single_entry_gives_constant_video(self):
        cb = Codebook([[0.25, -1.5]])
        out = dequantize(IndexMap(np.zeros((2, 3, 3), dtype=int)), cb)
        assert np.allclose(out.data[..., 0], 0.25)
        assert np.allclose(out.data[..., 1], -1.5)

    def test_centroid_valued_video_reconstructs_exactly(self):
        cb = Codebook(rng(9).normal(size=(5, 2)))
        idx = rng(10).integers(0, 5, size=(2, 4, 4))
        v = dequantize(IndexMap(idx), cb)
        round_tripped = dequantize(quantize(v, cb), cb)
        np.testing.assert_array_equal(round_tripped.data, v.data)

    def test_round_trip_error_is_nearest_distance(self):
        cb = Codebook(rng(11).normal(size=(4, 2)))
        v = LatentVideo(rng(12).normal(size=(1, 3, 3, 2)))
        out = discretize_history(v, cb)
        for r in range(3):
            for c in range(3):
                err = np.linalg.norm(out.data[0, r, c] - v.data[0, r, c])
                best = min(np.linalg.norm(v.data[0, r, c] - cent) for cent in cb.centroids)
                assert err == pytest.approx(best, abs=1e-12)

    def test_out_of_range_index(self):
        cb = Codebook([[0.0], [1.0]])
        with pytest.raises(IndexOutOfRange):
            dequantize(IndexMap(np.full((1, 1, 1), 2)), cb)

    def test_peak_one_result(self):
        # the rows are written straight into the returned snapshot; building
        # centroids[idx] and then copying it into a snapshot peaks at twice
        cb = Codebook(rng(30).normal(size=(128, 16)))
        idx = rng(31).integers(0, 128, size=(16, 64, 64))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = dequantize(IndexMap(idx), cb)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * out.array.nbytes
        assert out.array.dtype == np.float64
        assert not out.array.flags.writeable
        assert out.array.tobytes() == cb.centroids[idx].tobytes()


class TestDiscretizeHistory:
    def test_idempotent_pixel_exact(self):
        data = [LatentVideo(rng(13).normal(size=(2, 5, 5, 3)))]
        cb = fit_codebook(data, 6, seed=1)
        once = discretize_history(data[0], cb)
        twice = discretize_history(once, cb)
        np.testing.assert_array_equal(once.data, twice.data)

    def test_constant_video_stays_constant(self):
        cb = fit_codebook([LatentVideo(rng(14).normal(size=(2, 4, 4, 2)))], 3, seed=2)
        out = discretize_history(LatentVideo(np.full((2, 4, 4, 2), 0.7)), cb)
        assert len(np.unique(out.data.reshape(-1, 2), axis=0)) == 1


@st.composite
def sum_tables(draw):
    """A channel-major (m, columns) table: signed values of magnitude 1e-8
    to 1e150, some or all of them -0.0."""
    m, columns = draw(st.integers(1, 300)), draw(st.integers(0, 40))
    r = rng(draw(st.integers(0, 2**32 - 1)))
    table = 10.0 ** r.uniform(-8, 150, (m, columns)) * r.choice([-1.0, 1.0], (m, columns))
    table[r.random((m, columns)) < draw(st.sampled_from([0.0, 0.1, 1.0]))] = -0.0
    return table


class TestChannelSums:
    """``_pairwise_sum`` adds in numpy's pairwise order for one contiguous
    row, so a numpy release that sums in other pairs fails here by name."""

    @settings(max_examples=300, deadline=None)
    @given(sum_tables())
    def test_bits_match_numpy_row_reduce(self, table):
        want = np.add.reduce(np.ascontiguousarray(table.T), axis=1)
        assert codebook._pairwise_sum(table.copy()).tobytes() == want.tobytes()
        squares = np.add.reduce(np.ascontiguousarray(table.T) ** 2, axis=1)
        assert codebook._squared_norms(table.copy()).tobytes() == squares.tobytes()

    def test_every_width_to_300(self):
        # one table per width, so the <8, 8..128 and split branches all run
        r = rng(60)
        for m in range(1, 301):
            table = r.normal(size=(m, 3)) * 10.0 ** r.uniform(-8, 8, (m, 3))
            want = np.add.reduce(np.ascontiguousarray(table.T), axis=1)
            assert codebook._pairwise_sum(table.copy()).tobytes() == want.tobytes(), m

    def test_negative_zeros_sum_to_positive_zero(self):
        for m in (1, 7, 8, 129):
            total = codebook._pairwise_sum(np.full((m, 2), -0.0))
            assert total.tobytes() == np.zeros(2).tobytes()


@st.composite
def fit_cases(draw):
    """Pixels of 1 to 140 channels with duplicated rows, at scales from
    float64 underflow to overflow; k up to one more than the distinct rows;
    the search budget as it is or small enough for several seeding chunks.
    Rounded rows make distances tie. Permuted rows hold one row's values in
    other channel orders, so their distances from the zero row are the same
    squares added in other orders, which may differ in the last bit."""
    c = draw(st.integers(1, 140) | st.sampled_from([7, 8, 9, 128, 129, 136]))
    distinct = draw(st.integers(1, 8))
    r = rng(draw(st.integers(0, 2**32 - 1)))
    base = r.normal(size=(distinct, c))
    how = draw(st.sampled_from(["normal", "rounded", "permuted"]))
    if how == "rounded":
        base = np.round(base * 2) / 2
    elif how == "permuted":
        base = np.stack([base[0][r.permutation(c)] for _ in range(distinct)])
        base[-1] = 0.0
    rows = np.concatenate([base, base[r.integers(distinct, size=draw(st.integers(0, 30)))]])
    scale, dtype = draw(
        st.sampled_from(
            [(1e-170, np.float64), (1e-20, np.float32), (1.0, np.float32), (1.0, np.float64),
             (1e6, np.float64), (1e20, np.float32), (1e150, np.float64), (1e160, np.float64)]
        )
    )
    pixels = (r.permutation(rows) * scale).astype(dtype)
    k = draw(st.integers(1, distinct + 1))
    budget = draw(st.sampled_from([codebook._SCORE_BYTES, 8 * 32 * c]))
    return pixels, k, draw(st.integers(0, 1000)), budget


class RecordingRng:
    """A seeded generator that keeps the bytes of each D-squared weight
    vector drawn from, so seeding's distance sums are compared bit for
    bit, not only through the pixels they pick: the oracle's ``choice``
    records them here, and ``codebook._draw``, which takes ``random``, is
    patched to record them too."""

    def __init__(self, seed):
        self.rng, self.weights = rng(seed), []

    def integers(self, *args):
        return self.rng.integers(*args)

    def random(self):
        return self.rng.random()

    def choice(self, n, p):
        self.weights.append(p.tobytes())
        return self.rng.choice(n, p=p)


def outcome(call):
    """``call()``, or the type and message of the error it raised; numpy's
    RuntimeWarnings are errors in the tests, so an overflow raises one."""
    try:
        return call()
    except (ValueError, RuntimeWarning) as exc:  # InsufficientData is a ValueError
        return type(exc), str(exc)


class TestFitMatchesRowMajorOracle:
    """Seeds, distances and fits summed channel-major are the bytes of the
    row-major sums in ``codebook_oracle``, and fail with the same errors."""

    @settings(max_examples=150, deadline=None)
    @given(fit_cases())
    def test_same_bytes_and_errors(self, case):
        pixels, k, seed, budget = case
        video = LatentVideo(pixels.reshape(1, 1, *pixels.shape))
        with mock.patch.object(codebook, "_SCORE_BYTES", budget):
            draws, oracle_draws = RecordingRng(seed), RecordingRng(seed)
            draw = codebook._draw

            def recorded(rng, p):
                draws.weights.append(p.tobytes())
                return draw(rng, p)

            with mock.patch.object(codebook, "_draw", recorded):
                got = outcome(lambda: codebook._dsquared_seed(pixels, k, draws))
            want = outcome(lambda: codebook_oracle._dsquared_seed(pixels, k, oracle_draws))
            assert draws.weights == oracle_draws.weights
            fitted = outcome(lambda: fit_codebook([video], k, seed))
            # the first k pixels as centroids may repeat rows, so ties are re-ranked
            for centroids in [want, pixels[:k].astype(np.float64)]:
                if isinstance(centroids, tuple):
                    continue
                near = outcome(lambda: codebook._nearest(pixels, centroids, distances=True))
                oracle = outcome(lambda: codebook_oracle._nearest(pixels, centroids, distances=True))
                if isinstance(oracle[0], type):
                    assert near == oracle
                    continue
                assert near[0].tobytes() == oracle[0].tobytes()
                assert near[1].tobytes() == oracle[1].tobytes()
        with (
            mock.patch.object(codebook, "_dsquared_seed", codebook_oracle._dsquared_seed),
            mock.patch.object(codebook, "_nearest", codebook_oracle._nearest),
        ):
            expected = outcome(lambda: fit_codebook([video], k, seed))
        if isinstance(want, tuple):
            assert got == want
        else:
            assert got.tobytes() == want.tobytes()
        if isinstance(expected, tuple):
            assert fitted == expected
        else:
            assert fitted.centroids.tobytes() == expected.centroids.tobytes()
            assert fitted.fit_stats == expected.fit_stats

    def test_cases_reach_every_error(self):
        errors = {
            (1e-170, 2): "underflow",
            (1e160, 2): "overflow",
            (1.0, 3): "need at least 3 distinct pixels",
        }
        pixels = np.array([[0.0, 1.0], [1.0, 0.0]])
        for (scale, k), message in errors.items():
            got = outcome(lambda: codebook._dsquared_seed(pixels * scale, k, rng(0)))
            want = outcome(lambda: codebook_oracle._dsquared_seed(pixels * scale, k, rng(0)))
            assert got == want
            assert message in got[1]


@st.composite
def wide_search_cases(draw):
    """255, 256 or 257 centroids whose higher indices copy lower ones, so
    exact ties span indices on both sides of 255 and one value may repeat
    K times, and up to 1,000 float32 or float64 pixels: some random, some
    on a centroid, some one float32 ulp off one in each channel."""
    k, c = draw(st.sampled_from([255, 256, 257])), draw(st.integers(1, 6))
    distinct = draw(st.sampled_from([1, 2, k - 1, k]) | st.integers(1, k))
    r = rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    centroids = r.normal(size=(k, c)) * scale
    if draw(st.booleans()):  # keeps exact centroid ties in float32
        centroids = centroids.astype(np.float32).astype(np.float64)
    centroids[distinct:] = centroids[r.integers(distinct, size=k - distinct)]
    n = draw(st.integers(1, 1000))
    pixels, on, how = r.normal(size=(n, c)) * scale, r.integers(k, size=n), r.integers(3, size=n)
    pixels[how == 1] = centroids[on[how == 1]]
    near = centroids[on[how == 2]].astype(np.float32)
    away = np.where(r.random(near.shape) < 0.5, -np.inf, np.inf).astype(np.float32)
    pixels[how == 2] = np.nextafter(near, away)
    return centroids, pixels.astype(draw(st.sampled_from([np.float32, np.float64])))


class TestDrawIsGeneratorChoice:
    """``_draw`` takes ``Generator.choice``'s steps without its checks, so
    it draws the same index and leaves the stream in the same state."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.just(0.0) | st.floats(-300, 300).map(lambda e: 10.0**e), min_size=1, max_size=80
        ).filter(any),
        st.integers(0, 2**64 - 1),
    )
    def test_same_index_and_state(self, weights, seed):
        w = np.array(weights)
        p = w / w.sum()
        ours, numpys = rng(seed), rng(seed)
        assert codebook._draw(ours, p) == numpys.choice(p.size, p=p)
        assert ours.bit_generator.state == numpys.bit_generator.state

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 2**64 - 1),
        st.integers(-3, 3),
        st.integers(0, 3),
        st.integers(0, 3),
        st.lists(st.just(0.0) | st.floats(1e-3, 1.0), min_size=1, max_size=20).filter(any),
        st.floats(-300, 300),
    )
    def test_same_index_at_a_cdf_step(self, seed, ulps, lead, gap, rest, exponent):
        # a random draw almost never meets a step of the cumulative sum, so
        # put one within a few ulps of the uniform double this seed draws
        u = rng(seed).random()
        step = u
        for _ in range(abs(ulps)):
            step = np.nextafter(step, ulps * np.inf)
        rest = np.array(rest) * (1.0 - u) / sum(rest)
        w = np.array([0.0] * lead + [step] + [0.0] * gap + [*rest]) * 10.0**exponent
        p = w / w.sum()
        ours, numpys = rng(seed), rng(seed)
        assert codebook._draw(ours, p) == numpys.choice(p.size, p=p)
        assert ours.bit_generator.state == numpys.bit_generator.state


class TestSearchPastOneByte:
    """Past 255 centroids the search counts near centroids in a wider
    type; a count that wrapped at 256 would read 1 for 257 equal scores."""

    @settings(max_examples=40, deadline=None)
    @given(wide_search_cases())
    def test_matches_oracles(self, case):
        centroids, pixels = case
        video = LatentVideo(pixels.reshape(1, 1, *pixels.shape))
        idx = quantize(video, Codebook(centroids)).indices.reshape(-1)
        exact = video.data.reshape(pixels.shape)
        assert [nearest_oracle(p, centroids) for p in exact] == idx.tolist()
        got = codebook._nearest(pixels, centroids, distances=True)
        want = codebook_oracle._nearest(pixels, centroids, distances=True)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()


class TestRerankCount:
    """The search sends to the float64 re-rank no more rows than the
    best-to-second margin test of ``codebook_oracle`` does, so a looser
    threshold, which would slow the search, fails here."""

    def test_no_more_rows_than_the_margin_test(self):
        r = rng(30)
        means = r.normal(0.0, 2.0, (96, 16)).astype(np.float32)
        frame = means[r.integers(96, size=(60, 104))]
        noisy = r.random((60, 104, 1)) < 0.75
        frame += noisy * r.normal(0.0, 0.6, (60, 104, 16)).astype(np.float32)
        frame = np.round(frame * 16) / 16
        pixels = frame.reshape(-1, 16)
        fitted = fit_codebook([LatentVideo(frame[None])], 128, seed=30, max_iters=30, tol=1e-3)
        # the first 128 pixels repeat rows, so some ranks are exact ties
        for centroids in (fitted.centroids, pixels[:128].astype(np.float64)):
            spy = mock.patch.object(codebook, "_squared_norms", wraps=codebook._squared_norms)
            with spy as norms:
                got, _ = codebook._nearest(pixels, centroids, distances=False)
            # without distances, every call is a (C, rows, K) re-rank
            ours = sum(call.args[0].shape[1] for call in norms.call_args_list)
            with mock.patch("numpy.flatnonzero", wraps=np.flatnonzero) as picks:
                want, _ = codebook_oracle._nearest(pixels, centroids, distances=False)
            theirs = sum(int(call.args[0].sum()) for call in picks.call_args_list)
            assert got.tobytes() == want.tobytes()
            assert 0 < ours <= theirs
