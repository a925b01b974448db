import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ctxpack.errors import ZeroVectorPixel
from ctxpack.importance import (
    importance_scores,
    reorder_frames,
    sim_cos,
    sim_hybrid,
    sim_time,
    sort_by_importance,
)
from ctxpack.packing import LatentVideo, _pool_block, apply_schedule
from ctxpack.schedule import BASE_KERNEL, parse_schedule


def rng(seed=0):
    return np.random.default_rng(seed)


def kendall_tau_distance(p, q):
    """Brute-force count of pairwise order disagreements."""
    pos_q = {v: i for i, v in enumerate(q)}
    distance = 0
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if (pos_q[p[i]] > pos_q[p[j]]) != (i > j) and (pos_q[p[i]] > pos_q[p[j]]):
                distance += 1
    return distance


class TestSimCos:
    def test_identical_frame(self):
        f = rng(1).normal(size=(4, 4, 3))
        assert sim_cos(f, f) == pytest.approx(16.0, abs=1e-12)

    def test_antipodal_frame(self):
        f = rng(2).normal(size=(4, 4, 3))
        assert sim_cos(f, -f) == pytest.approx(-16.0, abs=1e-12)

    def test_orthogonal_pixels(self):
        f = np.zeros((2, 2, 2))
        x = np.zeros((2, 2, 2))
        f[..., 0] = 1.0
        x[..., 1] = 1.0
        assert sim_cos(f, x) == pytest.approx(0.0, abs=1e-15)

    def test_brute_force_oracle(self):
        f = rng(3).normal(size=(3, 2, 4))
        x = rng(4).normal(size=(3, 2, 4))
        expected = 0.0
        for r in range(3):
            for c in range(2):
                a, b = f[r, c], x[r, c]
                expected += a @ b / (np.linalg.norm(a) * np.linalg.norm(b))
        assert sim_cos(f, x) == pytest.approx(expected, abs=1e-12)

    def test_scale_invariance(self):
        f = rng(5).normal(size=(4, 4, 3))
        x = rng(6).normal(size=(4, 4, 3))
        base = sim_cos(f, x)
        for alpha, beta in [(2.0, 3.0), (0.1, 7.5), (1e3, 1e-3)]:
            assert abs(sim_cos(alpha * f, beta * x) - base) < 1e-9

    def test_zero_pixel_raises(self):
        f = rng(7).normal(size=(2, 2, 3))
        f[0, 0] = 0.0
        x = rng(8).normal(size=(2, 2, 3))
        with pytest.raises(ZeroVectorPixel):
            sim_cos(f, x)

    def test_zero_pixel_substitute(self):
        f = rng(9).normal(size=(2, 2, 3))
        x = rng(10).normal(size=(2, 2, 3))
        full = sim_cos(f, x)
        f2 = f.copy()
        f2[0, 0] = 0.0
        partial = sim_cos(f2, x, zero_substitute=True)
        removed = f[0, 0] @ x[0, 0] / (np.linalg.norm(f[0, 0]) * np.linalg.norm(x[0, 0]))
        assert partial == pytest.approx(full - removed, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            sim_cos(np.ones((2, 2, 3)), np.ones((2, 2, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", ["frame", "target"])
    def test_non_finite_rejected(self, bad, side):
        frames = {"frame": rng(11).normal(size=(2, 2, 2)), "target": rng(12).normal(size=(2, 2, 2))}
        frames[side][1, 0, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            sim_cos(frames["frame"], frames["target"])
        with pytest.raises(ValueError, match="finite"):
            sim_hybrid(frames["frame"], frames["target"], 0.0, 1.0, 0.5)


class TestSimTime:
    def test_zero_delta(self):
        assert sim_time(4.0, 4.0) == 1.0

    def test_one_second(self):
        assert abs(sim_time(1.0, 2.0) - math.exp(-1)) < 1e-15

    def test_three_seconds(self):
        assert sim_time(0.0, 3.0) == pytest.approx(math.exp(-9), rel=1e-12)

    def test_symmetry(self):
        assert sim_time(2.0, 5.5) == sim_time(5.5, 2.0)


class TestHybrid:
    @pytest.mark.parametrize("weight", [np.nan, np.inf, -np.inf])
    def test_non_finite_time_weight_rejected(self, weight):
        f = rng(28).normal(size=(2, 2, 2))
        with pytest.raises(ValueError, match="^time_weight must be finite$"):
            sim_hybrid(f, f, 0.0, 50.0, weight)

    def test_composition_is_exact(self):
        f = rng(11).normal(size=(4, 4, 2))
        x = rng(12).normal(size=(4, 4, 2))
        weight = 3.75
        expected = sim_cos(f, x) + weight * sim_time(1.0, 2.5)
        assert sim_hybrid(f, x, 1.0, 2.5, weight) == expected

    def test_scores_expose_components(self):
        v = rng(13).normal(size=(3, 2, 2, 2))
        scores = importance_scores(v, [0.0, 1.0, 2.0], v[0], 2.0, 0.5)
        for s in scores:
            assert s.score == s.components[0] + 0.5 * s.components[1]


class TestSortByImportance:
    def test_single_frame(self):
        v = rng(14).normal(size=(1, 2, 2, 2))
        assert sort_by_importance(v, [0.0], v[0], 1.0, 1.0) == [0]

    def test_identical_frame_wins_without_time_term(self):
        v = rng(15).normal(size=(6, 4, 4, 3))
        target = v[3]
        perm = sort_by_importance(v, list(range(6)), target, 6.0, 0.0)
        assert perm[0] == 3
        # brute-force oracle: descending cosine score
        scores = [sim_cos(v[i], target) for i in range(6)]
        assert perm == sorted(range(6), key=lambda i: -scores[i])

    def test_huge_time_weight_gives_recency_order(self):
        r = rng(16)
        for _ in range(20):
            t = int(r.integers(2, 6))
            v = r.normal(size=(t, 4, 4, 2))
            times = list(r.permutation(t).astype(float))
            target_time = float(max(times) + 1)
            perm = sort_by_importance(v, times, r.normal(size=(4, 4, 2)), target_time, 1e9)
            recency = sorted(range(t), key=lambda i: -times[i])
            assert perm == recency

    def test_equal_scores_break_by_recency_then_index(self):
        v = np.ones((3, 2, 2, 2))
        perm = sort_by_importance(v, [0.0, 2.0, 1.0], np.ones((2, 2, 2)), 2.0, 0.0)
        assert perm == [1, 2, 0]
        perm = sort_by_importance(v, [1.0, 1.0, 1.0], np.ones((2, 2, 2)), 1.0, 0.0)
        assert perm == [0, 1, 2]

    def test_is_permutation(self):
        r = rng(17)
        for _ in range(10):
            t = int(r.integers(1, 9))
            v = r.normal(size=(t, 2, 2, 3))
            perm = sort_by_importance(v, list(map(float, range(t))), v[0], float(t), 0.5)
            assert sorted(perm) == list(range(t))

    def test_monotone_consistency(self):
        r = rng(18)
        v = r.normal(size=(8, 4, 4, 2))
        times = list(map(float, range(8)))
        target = r.normal(size=(4, 4, 2))
        scores = importance_scores(v, times, target, 8.0, 0.7)
        perm = sort_by_importance(v, times, target, 8.0, 0.7)
        by_index = {s.frame_index: s.score for s in scores}
        for earlier, later in zip(perm, perm[1:]):
            assert by_index[earlier] >= by_index[later]

    def test_hybrid_transitions_no_rougher_than_pure_cosine(self):
        # fixed drifting fixture: each frame is the previous plus noise
        r = rng(19)
        frames = [r.normal(size=(4, 4, 2))]
        for _ in range(11):
            frames.append(frames[-1] + 0.2 * r.normal(size=(4, 4, 2)))
        v = np.stack(frames)
        times = list(map(float, range(12)))

        def tau_between(weight, t0, t1):
            p0 = sort_by_importance(v, times, v[t0], float(t0), weight)
            p1 = sort_by_importance(v, times, v[t1], float(t1), weight)
            return kendall_tau_distance(p0, p1)

        assert tau_between(2.0, 8, 9) <= tau_between(0.0, 8, 9)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            sort_by_importance(rng(20).normal(size=(3, 2, 2, 2)), [0.0], None, 0.0, 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_history_rejected(self, bad):
        v = rng(23).normal(size=(3, 2, 2, 2))
        target = v[0].copy()
        v[1, 0, 1, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            sort_by_importance(v, [0.0, 1.0, 2.0], target, 2.0, 0.5)

    @pytest.mark.parametrize("weight", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("rank", [importance_scores, sort_by_importance])
    def test_non_finite_time_weight_rejected(self, weight, rank):
        # inf * sim_time(...) is NaN for a frame 30 s or more from the
        # target, which used to rank such frames first
        v = rng(27).normal(size=(6, 2, 2, 2))
        with pytest.raises(ValueError, match="^time_weight must be finite$"):
            rank(v, [0.0, 10.0, 20.0, 30.0, 40.0, 50.0], v[-1], 50.0, weight)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("wrap", [np.asarray, LatentVideo])
    def test_non_finite_target_rejected(self, bad, wrap):
        v = rng(24).normal(size=(3, 2, 2, 2))
        target = v[0].copy()
        target[1, 1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            importance_scores(wrap(v), [0.0, 1.0, 2.0], target, 2.0, 0.5)


class TestNormOverflow:
    """Pixel norms whose product overflows float64 are rejected before any
    numpy warning; norms just inside the range rank as at unit scale."""

    def case(self, scale):
        history = rng(20).normal(size=(4, 3, 5, 2)) * scale
        return history, [0.0, 1.0, 2.0, 3.0], history[3]

    def test_overflowing_norms_raise_without_warning(self):
        history, times, target = self.case(1e155)
        calls = [
            lambda: sim_cos(history[0], target),
            lambda: importance_scores(history, times, target, 3.0, 0.0),
            lambda: sort_by_importance(history, times, target, 3.0, 0.0),
        ]
        for call in calls:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="pixel norms overflow float64"):
                    call()

    def test_large_finite_norms_rank_as_at_unit_scale(self):
        history, times, target = self.case(1e150)
        scores = [s.score for s in importance_scores(history, times, target, 3.0, 0.0)]
        order = sort_by_importance(history, times, target, 3.0, 0.0)
        assert all(math.isfinite(s) for s in scores)
        assert order == sorted(range(4), key=lambda i: (-scores[i], -times[i], i))
        assert order == sort_by_importance(*self.case(1.0), 3.0, 0.0)


class TestReorderFrames:
    def test_reorders(self):
        v = LatentVideo(rng(21).normal(size=(3, 2, 2, 1)))
        out = reorder_frames(v, [2, 0, 1])
        np.testing.assert_array_equal(out.data[0], v.data[2])

    def test_rejects_non_permutation(self):
        v = LatentVideo(rng(22).normal(size=(3, 2, 2, 1)))
        with pytest.raises(ValueError):
            reorder_frames(v, [0, 0, 1])

    def test_peak_one_result(self):
        # frames are written straight into the returned snapshot; gathering
        # them into an array and then copying that peaks at twice
        v = LatentVideo(rng(25).normal(size=(16, 64, 64, 16)).astype(np.float32))
        order = list(rng(26).permutation(16))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = reorder_frames(v, order)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * out.array.nbytes
        assert out.array.dtype == np.float32
        assert not out.array.flags.writeable
        assert out.array.tobytes() == v.array[order].tobytes()


class TestRankingIntoPacker:
    """The packer's finest entry binds the newest frame, so a ranking,
    most important first, is packed reversed."""

    def f1k1_grid(self, video, order):
        schedule = parse_schedule("td_f16k4f2k2f1k1_g9")
        context = apply_schedule(reorder_frames(video, order), schedule)
        return next(b.grid for b in context.blocks if b.time_span == (18, 19))

    def test_reversed_ranking_gives_top_frame_the_finest_entry(self):
        video = LatentVideo(rng(27).normal(size=(19, 8, 8, 2)).astype(np.float32))
        times = [float(t) for t in range(19)]
        order = sort_by_importance(video, times, video.array[4], 19.0, 0.5)
        assert order[0] == 4

        def pooled(i):
            return _pool_block(video.array[i : i + 1], BASE_KERNEL, False)

        assert self.f1k1_grid(video, order[::-1]).tobytes() == pooled(order[0]).tobytes()
        # as ranked, the finest entry gets the lowest-ranked frame
        assert self.f1k1_grid(video, order).tobytes() == pooled(order[-1]).tobytes()


@st.composite
def scoring_cases(draw):
    """A history and target with exact zeros, copied frames and offsets."""
    t, h, w, c = (draw(st.integers(1, n)) for n in (6, 4, 4, 3))
    values = draw(arrays(np.float64, (t, h, w, c), elements=st.floats(-100, 100)))
    values = values + draw(st.sampled_from([0.0, 1e6, -3e7]))
    for src, dst in draw(st.lists(st.tuples(st.integers(0, t - 1), st.integers(0, t - 1)), max_size=3)):
        values[dst] = values[src]  # exact ties
    if draw(st.booleans()):
        target = values[draw(st.integers(0, t - 1))].copy()
    else:
        target = draw(arrays(np.float64, (h, w, c), elements=st.floats(-100, 100)))
    pixels = st.tuples(st.integers(0, t - 1), st.integers(0, h - 1), st.integers(0, w - 1))
    for i, r, col in draw(st.lists(pixels, max_size=3)):
        values[i, r, col] = 0.0
    for _, r, col in draw(st.lists(pixels, max_size=2)):
        target[r, col] = 0.0
    width = draw(st.sampled_from([np.float32, np.float64]))
    times = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]), min_size=t, max_size=t))
    return LatentVideo(values.astype(width)), target, times


def masked_cosine_sum(frame, target):
    """Per-pixel cosines summed through the zero-norm mask, as ``sim_cos``
    computed them for every frame before it skipped the mask when no
    pixel has zero norm; zero-norm pixels contribute 0."""
    f, x = np.asarray(frame, dtype=np.float64), np.asarray(target, dtype=np.float64)
    dots = (f * x).sum(axis=-1)
    nf = np.linalg.norm(f, axis=-1)
    nx = np.linalg.norm(x, axis=-1)
    zero = (nf == 0) | (nx == 0)
    denom = np.where(zero, 1.0, nf * nx)
    return float(np.where(zero, 0.0, dots / denom).sum())


class TestScoresMatchPerFrameOracle:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(scoring_cases(), st.booleans(), st.sampled_from([0.0, 0.7]))
    def test_bit_identical_to_sim_cos(self, case, zero_substitute, weight):
        video, target, times = case
        try:
            cosines = [
                sim_cos(video.array[i], target, zero_substitute=zero_substitute)
                for i in range(video.frame_count)
            ]
        except ZeroVectorPixel as exc:
            with pytest.raises(ZeroVectorPixel, match=f"^{exc}$"):
                importance_scores(video, times, target, 2.0, weight, zero_substitute=zero_substitute)
            return
        scores = importance_scores(video, times, target, 2.0, weight, zero_substitute=zero_substitute)
        assert [s.components[0] for s in scores] == cosines
        assert cosines == [masked_cosine_sum(frame, target) for frame in video.array]
        expected = [cos + weight * sim_time(times[i], 2.0) for i, cos in enumerate(cosines)]
        assert [s.score for s in scores] == expected
        order = sort_by_importance(video, times, target, 2.0, weight, zero_substitute=zero_substitute)
        assert order == sorted(range(len(times)), key=lambda i: (-expected[i], -times[i], i))


@st.composite
def ranking_cases(draw):
    """A history and target built to put frames within float error of
    each other: exact copies, swapped frames, frames 1 ulp apart, large
    offsets and zero-norm pixels."""
    t, h, w, c = draw(st.integers(0, 6)), *(draw(st.integers(1, n)) for n in (4, 4, 8))
    width = draw(st.sampled_from([np.float32, np.float64]))
    offset = draw(st.sampled_from([0.0, 1e6, -3e7]))
    # generic values, whose sums round differently in the fast and exact forms
    noise = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = (noise.uniform(-100, 100, (t, h, w, c)) + offset).astype(width)
    target = noise.uniform(-100, 100, (h, w, c)) + offset
    if t and draw(st.booleans()):
        # every frame within 2 ulps of frame 0 in every element
        values[1:] = values[0] + noise.integers(-2, 3, values[1:].shape) * np.spacing(values[0])
    frame = st.integers(0, max(t - 1, 0))
    pixel = st.tuples(st.integers(0, h - 1), st.integers(0, w - 1))
    for kind, src, dst, (r, col) in draw(
        st.lists(
            st.tuples(st.sampled_from(["copy", "swap", "ulp", "zero"]), frame, frame, pixel),
            max_size=4 if t else 0,
        )
    ):
        if kind == "copy":
            values[dst] = values[src]
        elif kind == "swap":
            values[[src, dst]] = values[[dst, src]]
        elif kind == "ulp":
            towards = draw(st.sampled_from([np.inf, -np.inf]))
            values[dst] = values[src]
            if draw(st.booleans()):
                values[dst] = np.nextafter(values[src], width(towards))
            else:
                values[dst, r, col, 0] = np.nextafter(values[src, r, col, 0], width(towards))
        else:
            values[dst, r, col] = 0.0
    if t and draw(st.booleans()):
        target = values[draw(frame)].astype(np.float64)
    for r, col in draw(st.lists(pixel, max_size=1)):
        target[r, col] = 0.0
    times = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]), min_size=t, max_size=t))
    return LatentVideo(values), target, times


class TestSortMatchesPerFrameOracle:
    """``sort_by_importance`` ranks by a fast term and re-ranks near-ties
    exactly; its order must be the per-frame formula's, ties to recency
    and then index."""

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(ranking_cases(), st.booleans(), st.sampled_from([0.0, 1.0, 1e9]))
    def test_order_is_brute_force_order(self, case, zero_substitute, weight):
        video, target, times = case

        def order():
            return sort_by_importance(video, times, target, 2.0, weight, zero_substitute=zero_substitute)

        try:
            scores = [
                sim_hybrid(frame, target, times[i], 2.0, weight, zero_substitute=zero_substitute)
                for i, frame in enumerate(video.array)
            ]
        except ZeroVectorPixel as exc:
            with pytest.raises(ZeroVectorPixel, match=f"^{exc}$"):
                order()
            return
        assert order() == sorted(range(len(times)), key=lambda i: (-scores[i], -times[i], i))
