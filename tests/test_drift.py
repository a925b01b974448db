import contextlib
import importlib
import io
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxpack import cli, fplt
from ctxpack.drift import (
    MatchOutcome,
    MatchRecord,
    RatingTable,
    SegmentMetric,
    _frame_difference,
    _laplacian_variance,
    builtin_metrics,
    drift,
    drift_report,
    elo_expected,
    elo_update,
    parse_match_log,
    rank_buckets,
    tournament,
)
from ctxpack.errors import TooFewFrames, UnknownOutcome
from ctxpack.fplt import read_video, write_tensor
from ctxpack.packing import LatentVideo

from variant_catalog import RATING_RANGES

# ``ctxpack.drift`` the attribute is the drift() function
drift_module = importlib.import_module("ctxpack.drift")


def rng(seed=0):
    return np.random.default_rng(seed)


def metric_by_name(name):
    return next(m for m in builtin_metrics() if m.name == name)


class TestDrift:
    def test_constant_metric_gives_zero(self):
        metric = SegmentMetric("const", lambda frames: 0.7)
        assert drift(rng(1).normal(size=(10, 4, 4, 2)), metric) == 0.0

    def test_absolute_difference(self):
        scores = iter([0.70, 0.65])
        metric = SegmentMetric("scripted", lambda frames: next(scores))
        assert drift(np.zeros((10, 2, 2, 1)), metric) == pytest.approx(0.05)

    def test_reversal_symmetry(self):
        r = rng(2)
        for _ in range(20):
            video = r.normal(size=(int(r.integers(2, 30)), 4, 4, 2))
            for metric in builtin_metrics():
                assert drift(video, metric) == pytest.approx(
                    drift(video[::-1], metric), abs=1e-12
                )

    def test_window_is_one_frame_for_ten(self):
        # only frames 0 and 9 carry signal; a wider window would dilute it
        video = np.zeros((10, 2, 2, 1))
        video[0] = 5.0
        video[9] = 7.0
        assert drift(video, metric_by_name("mean-luminance")) == pytest.approx(2.0)

    def test_window_floors_at_fifteen_percent(self):
        video = np.zeros((20, 2, 2, 1))
        video[0], video[1], video[2] = 3.0, 9.0, 100.0
        # 15% of 20 is 3 frames: start mean is (3+9+100)/3, end mean is 0
        assert drift(video, metric_by_name("mean-luminance")) == pytest.approx(112.0 / 3)

    def test_too_few_frames(self):
        with pytest.raises(TooFewFrames):
            drift(np.zeros((1, 2, 2, 1)), metric_by_name("mean-luminance"))

    def test_accepts_latent_video(self):
        v = LatentVideo(rng(3).normal(size=(8, 4, 4, 1)))
        assert drift(v, metric_by_name("mean-luminance")) >= 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_array_rejected(self, bad):
        # of 8 frames, the windows are frames 0 and 7: a raw array is
        # checked only in the frames drift reads, as a file is
        video = rng(4).normal(size=(8, 4, 4, 1))
        finite = drift_report(video, builtin_metrics())
        video[5, 1, 2, 0] = bad
        assert drift_report(video, builtin_metrics()) == finite
        video[7, 1, 2, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            drift(video, metric_by_name("mean-luminance"))
        with pytest.raises(ValueError, match="finite"):
            drift_report(video, builtin_metrics())


class TestBuiltinMetrics:
    def test_constant_video_scores(self):
        frames = np.full((4, 8, 8, 2), 1.5)
        assert metric_by_name("sharpness-proxy").evaluate(frames) == 0.0
        assert metric_by_name("dynamics-proxy").evaluate(frames) == 0.0
        assert metric_by_name("mean-luminance").evaluate(frames) == 1.5

    def test_brightness_ramp_drifts(self):
        t = 20
        video = np.zeros((t, 4, 4, 1))
        for i in range(t):
            video[i] = i / (t - 1)
        got = drift(video, metric_by_name("mean-luminance"))
        # window is 3 frames; start mean is (0+1+2)/(3*19), end mean is (17+18+19)/(3*19)
        assert got == pytest.approx((17 + 18 + 19 - 3) / (3 * 19))
        assert got > 0.0

    def test_checkerboard_dynamics_by_hand(self):
        board = np.indices((4, 4)).sum(axis=0) % 2  # alternating 0/1
        video = np.stack([board, 1 - board]).astype(float)[..., None]
        # every pixel flips by exactly 1 between the two frames
        assert metric_by_name("dynamics-proxy").evaluate(video) == pytest.approx(1.0)

    def test_dynamics_of_single_frame_segment(self):
        assert metric_by_name("dynamics-proxy").evaluate(np.zeros((1, 4, 4, 1))) == 0.0

    def test_sharpness_matches_brute_force(self):
        frames = rng(4).normal(size=(2, 6, 7, 3))
        values = []
        for f in frames[..., 0]:
            for r in range(1, 5):
                for c in range(1, 6):
                    values.append(f[r - 1, c] + f[r + 1, c] + f[r, c - 1] + f[r, c + 1] - 4 * f[r, c])
        expected = np.var(values)
        assert metric_by_name("sharpness-proxy").evaluate(frames) == pytest.approx(expected)

    @pytest.mark.parametrize("frames", [0, 1])
    def test_report_too_few_frames_without_metrics(self, frames):
        with pytest.raises(TooFewFrames):
            drift_report(np.zeros((frames, 2, 2, 1)), [])

    def test_report_format(self):
        video = np.zeros((10, 4, 4, 1))
        text = drift_report(video, builtin_metrics())
        lines = text.strip().splitlines()
        assert len(lines) == 3
        assert lines[0] == "metric=mean-luminance start=0.0 end=0.0 drift=0.0"


class TestEloUpdate:
    def test_even_match_win(self):
        assert elo_update(1000.0, 1000.0, MatchOutcome.A) == (1016.0, 984.0)

    def test_even_match_draw(self):
        assert elo_update(1000.0, 1000.0, MatchOutcome.DRAW) == (1000.0, 1000.0)

    def test_favorite_wins_small_gain(self):
        # independent evaluation of the logistic expression
        expected_gain = 32 * (1 - 1 / (1 + 10 ** ((1000 - 1200) / 400)))
        a, b = elo_update(1200.0, 1000.0, MatchOutcome.A)
        assert a == pytest.approx(1200 + expected_gain, abs=1e-9)
        assert a == pytest.approx(1207.69, abs=5e-3)
        assert b == pytest.approx(1000 - expected_gain, abs=1e-9)

    def test_expected_scores_sum_to_one(self):
        assert elo_expected(1100, 900) + elo_expected(900, 1100) == pytest.approx(1.0)

    @settings(max_examples=200, deadline=None)
    @given(
        r_a=st.floats(500, 2500),
        r_b=st.floats(500, 2500),
        outcome=st.sampled_from(list(MatchOutcome)),
    )
    def test_conservation(self, r_a, r_b, outcome):
        a, b = elo_update(r_a, r_b, outcome)
        assert a + b == pytest.approx(r_a + r_b, abs=1e-9)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("argument", ["rating_a", "rating_b"])
    def test_non_finite_rating_rejected(self, argument, bad):
        ratings = {"rating_a": 1000.0, "rating_b": 1000.0, argument: bad}
        with pytest.raises(ValueError, match=f"{argument} must be finite"):
            elo_expected(**ratings)
        with pytest.raises(ValueError, match=f"{argument} must be finite"):
            elo_update(**ratings, outcome=MatchOutcome.A)

    @pytest.mark.parametrize(
        "rating_a, rating_b, limit",
        [(0.0, 1e6, 0.0), (1e6, 0.0, 1.0), (-1e308, 1e308, 0.0), (1e308, -1e308, 1.0)],
    )
    def test_expected_score_at_a_gap_beyond_float_range(self, rating_a, rating_b, limit):
        assert elo_expected(rating_a, rating_b) == limit

    @pytest.mark.parametrize("gap", [0.0, 400.0, -1234.5, 123_000.0, -123_000.0, -1e6])
    def test_expected_score_bits_unchanged(self, gap):
        # the logistic formula's own value wherever it fits in a float
        assert elo_expected(1000.0, 1000.0 + gap) == 1.0 / (1.0 + 10.0 ** (gap / 400.0))

    def test_update_beyond_float_range_rejected(self):
        with pytest.raises(ValueError, match="updated rating_a must be finite"):
            elo_update(1.5e308, 1.5e308, MatchOutcome.A, k_factor=1e308)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_k_factor_rejected(self, bad):
        with pytest.raises(ValueError, match="k_factor must be finite"):
            elo_update(1000.0, 1000.0, MatchOutcome.A, k_factor=bad)


class TestTournament:
    def test_empty(self):
        table = tournament([])
        assert table.get("anyone") == 1000.0

    def test_single_match(self):
        table = tournament([MatchRecord("a", "b", MatchOutcome.A)])
        assert table.ratings == {"a": 1016.0, "b": 984.0}

    def test_huge_k_factor_reaches_the_expected_score_limit(self):
        # after the first match the gap is 1e300, whose odds overflow a float
        records = parse_match_log("a,b,A\nb,a,A\n")
        table = tournament(records, k_factor=1e300)
        assert table.ratings == {"a": -5e299, "b": 5e299}

    def test_rating_beyond_float_range_rejected(self):
        with pytest.raises(ValueError, match="must be finite, got inf"):
            tournament([MatchRecord("a", "b", MatchOutcome.A)], initial=1.5e308, k_factor=1e308)

    def test_order_changes_ratings_not_sum(self):
        r = rng(5)
        players = [f"p{i}" for i in range(6)]
        records = [
            MatchRecord(*r.choice(players, size=2, replace=False), MatchOutcome(r.choice(["A", "B", "D"])))
            for _ in range(200)
        ]
        base = tournament(records)
        base_sum = sum(base.ratings.values())
        for seed in range(3):
            shuffled = list(records)
            np.random.default_rng(seed).shuffle(shuffled)
            table = tournament(shuffled)
            assert sum(table.ratings.values()) == pytest.approx(base_sum, abs=1e-9)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("setting", ["initial", "k_factor"])
    def test_non_finite_settings_rejected(self, setting, bad):
        # a NaN initial rating used to print a=nan rank=1 for every player
        with pytest.raises(ValueError, match="must be finite"):
            tournament([MatchRecord("a", "b", MatchOutcome.A)], **{setting: bad})
        with pytest.raises(ValueError, match="must be finite"):
            RatingTable(**{setting: bad})

    def test_self_play_rejected(self):
        with pytest.raises(ValueError):
            MatchRecord("a", "a", MatchOutcome.A)


class TestMatchLog:
    def test_parse(self):
        records = parse_match_log("a,b,A\nc,d,D\n\n")
        assert records == [
            MatchRecord("a", "b", MatchOutcome.A),
            MatchRecord("c", "d", MatchOutcome.DRAW),
        ]

    def test_unknown_outcome(self):
        with pytest.raises(UnknownOutcome):
            parse_match_log("a,b,W\n")

    def test_malformed_line(self):
        with pytest.raises(ValueError):
            parse_match_log("a,b\n")

    def test_empty_name(self):
        with pytest.raises(ValueError, match="player names must be non-empty"):
            parse_match_log(",b,A\n")


class TestRankBuckets:
    def make_table(self, ratings):
        table = tournament([])
        table.ratings = dict(ratings)
        return table

    def test_chained_cluster_is_one_bucket(self):
        table = self.make_table({"x": 1235.0, "y": 1228.0, "z": 1225.0})
        assert rank_buckets(table) == {"x": 1, "y": 1, "z": 1}

    def test_wide_gap_splits(self):
        table = self.make_table({"x": 1100.0, "y": 1000.0})
        assert rank_buckets(table) == {"x": 1, "y": 2}

    def test_singleton(self):
        table = self.make_table({"only": 1234.0})
        assert rank_buckets(table) == {"only": 1}

    def test_exactly_margin_still_ties(self):
        table = self.make_table({"x": 1016.0, "y": 1000.0})
        assert rank_buckets(table) == {"x": 1, "y": 1}

    @pytest.mark.parametrize("margin", [float("nan"), -1.0])
    def test_bad_margin_rejected(self, margin):
        table = self.make_table({"x": 1000.0, "y": 1000.0})
        with pytest.raises(ValueError, match=f"tie margin must be >= 0, got {margin!r}"):
            rank_buckets(table, margin)

    def test_published_ranges_reproduce_their_ranks(self):
        for representative in ("low", "mid", "high"):
            ratings = {}
            for lo, hi, rank in RATING_RANGES:
                value = {"low": lo, "mid": (lo + hi) / 2, "high": hi}[representative]
                ratings[f"rank{rank}"] = float(value)
            got = rank_buckets(self.make_table(ratings))
            assert got == {f"rank{rank}": rank for _, _, rank in RATING_RANGES}

    def test_bucket_monotonicity(self):
        r = rng(6)
        ratings = {f"p{i}": float(v) for i, v in enumerate(r.integers(900, 1300, size=30))}
        table = self.make_table(ratings)
        ranks = rank_buckets(table)
        for a, ra in ratings.items():
            for b, rb in ratings.items():
                if ranks[a] < ranks[b]:
                    assert ra >= rb


def laplacian_variance_oracle(frames):
    """The sharpness metric as it was written before it took a contiguous
    copy of channel 0."""
    f = frames[..., 0]
    if f.shape[1] < 3 or f.shape[2] < 3:
        return 0.0
    lap = (
        f[:, :-2, 1:-1]
        + f[:, 2:, 1:-1]
        + f[:, 1:-1, :-2]
        + f[:, 1:-1, 2:]
        - 4.0 * f[:, 1:-1, 1:-1]
    )
    return float(lap.var())


def frame_difference_oracle(frames):
    """The dynamics metric as it was written before it took its absolute
    differences in place."""
    if frames.shape[0] < 2:
        return 0.0
    return float(np.abs(np.diff(frames, axis=0)).mean())


ORACLE_METRICS = [
    SegmentMetric("mean-luminance", lambda frames: float(frames[..., 0].mean())),
    SegmentMetric("sharpness-proxy", laplacian_variance_oracle),
    SegmentMetric("dynamics-proxy", frame_difference_oracle),
]


@st.composite
def spread_frames(draw, frames=st.integers(1, 12)):
    """float32 frames with values over 2^-60 .. 2^60, some -0.0 and some
    pixels -0.0 in every frame."""
    shape = (draw(frames), *(draw(st.integers(1, n)) for n in (7, 7, 3)))
    gen = rng(draw(st.integers(0, 2**32 - 1)))
    x = gen.normal(size=shape) * 2.0 ** gen.integers(-60, 61, shape)
    x[gen.random(shape) < 0.1] = -0.0
    x[:, gen.random(shape[1:]) < 0.2] = -0.0
    return x.astype(np.float32)


def run_main(argv):
    """Exit code, stdout and stderr of one ``cli.main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class TestDriftReadsItsWindows:
    """``ctxpack drift`` reads only the two windows it scores."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(spread_frames(), st.booleans())
    def test_metrics_keep_the_oracle_bits(self, frames, wide):
        window = frames.astype(np.float64) if wide else frames
        for got, want in ((_frame_difference, frame_difference_oracle),
                          (_laplacian_variance, laplacian_variance_oracle)):
            assert np.float64(got(window)).tobytes() == np.float64(want(window)).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(
        spread_frames(st.integers(2, 40)),
        st.sampled_from(["all", *(m.name for m in builtin_metrics())]),
    )
    def test_report_equals_whole_video_report(self, tmp_path_factory, frames, metric):
        path = tmp_path_factory.mktemp("drift") / "v.fplt"
        write_tensor(path, frames)
        code, out, err = run_main(["drift", str(path), "--metric", metric])
        assert (code, err) == (0, "")
        chosen = [m.name for m in builtin_metrics() if metric in ("all", m.name)]
        metrics = [m for m in builtin_metrics() if m.name in chosen]
        assert out == drift_report(read_video(path), metrics)
        assert out == drift_report(read_video(path), [m for m in ORACLE_METRICS if m.name in chosen])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_outside_windows_is_not_read(self, tmp_path, bad):
        # of 40 frames, the windows are frames 0..6 and 34..40
        arr = rng(12).normal(size=(40, 8, 8, 2)).astype(np.float32)
        finite, broken = tmp_path / "finite.fplt", tmp_path / "broken.fplt"
        write_tensor(finite, arr)
        for frame in (6, 20, 33):
            arr[frame, 7, 7, 1] = bad
        write_tensor(broken, arr)
        assert run_main(["drift", str(broken)]) == run_main(["drift", str(finite)])
        assert run_main(["drift", str(broken)])[0] == 0

    @pytest.mark.parametrize("frame", [0, 5, 34, 39])
    def test_non_finite_inside_a_window_exits_3(self, tmp_path, frame):
        arr = rng(13).normal(size=(40, 8, 8, 2)).astype(np.float32)
        arr[frame, 0, 0, 0] = np.nan
        path = tmp_path / "v.fplt"
        write_tensor(path, arr)
        expected = (3, "", "ctxpack: latent video must contain only finite values\n")
        assert run_main(["drift", str(path)]) == expected

    @pytest.mark.parametrize("frames", [0, 1])
    def test_too_few_frames_fail_before_payload(self, tmp_path, monkeypatch, frames):
        def no_read(*args):
            raise AssertionError("payload read")

        path = tmp_path / "v.fplt"
        write_tensor(path, np.full((frames, 2, 2, 1), np.nan, np.float32))
        monkeypatch.setattr(fplt, "_read_payload", no_read)
        expected = (3, "", f"ctxpack: drift needs at least 2 frames, got {frames}\n")
        assert run_main(["drift", str(path)]) == expected

    def test_peak_is_bounded_by_the_windows(self, tmp_path):
        # 200 paper-shaped frames have 30-frame windows: their float32 reads
        # and float64 casts are 72 MB, the whole file 80 MB; the margin
        # covers the metrics' temporaries beyond one window's difference
        shape = (200, 60, 104, 16)
        path = tmp_path / "v.fplt"
        write_tensor(path, rng(14).normal(size=shape).astype(np.float32))
        windows = 2 * 30 * math.prod(shape[1:]) * (4 + 8)
        assert run_main(["drift", str(path)])[0] == 0  # builds the parser first
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            assert run_main(["drift", str(path)])[0] == 0
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < windows + (4 << 20)


class TestOneDriftCore:
    """``drift``, ``drift_report`` and ``ctxpack drift`` read through one
    core, which reads the two windows and nothing else."""

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(2, 40),
        st.sampled_from([np.float32, np.float64]),
        st.lists(st.sampled_from(builtin_metrics()), max_size=3),
    )
    def test_in_memory_reads_exactly_its_two_windows(self, frames, dtype, metrics):
        video = LatentVideo(rng(frames).normal(size=(frames, 5, 4, 2)).astype(dtype))
        window = max(1, int(0.15 * frames))
        held, calls = drift_module._held, []

        def counting(v):
            shape, read = held(v)

            def read_counted(start, stop):
                calls.append((start, stop))
                return read(start, stop)

            return shape, read_counted

        want = drift_report(video, metrics)
        want_drift = [drift(video, m) for m in metrics]
        with mock.patch.object(drift_module, "_held", counting):
            assert drift_report(video, metrics) == want
            assert calls == [(0, window), (frames - window, frames)]
            for m, d in zip(metrics, want_drift):
                calls.clear()
                assert drift(video, m) == d
                assert calls == [(0, window), (frames - window, frames)]

    @pytest.mark.parametrize("frames", [0, 1])
    def test_too_few_frames_read_nothing(self, frames):
        def no_read(start, stop):
            raise AssertionError("frames read")

        with pytest.raises(TooFewFrames, match=f"got {frames}$"):
            drift_module._report((frames, 2, 2, 1), no_read, builtin_metrics())
