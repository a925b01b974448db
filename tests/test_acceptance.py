"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside pytest's own verdicts.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from ctxpack.budget import (
    BudgetParams,
    decompose_rate,
    length_bound,
    tokens_for_schedule,
    total_length,
)
from ctxpack.codebook import discretize_history, fit_codebook
from ctxpack.drift import (
    MatchOutcome,
    MatchRecord,
    builtin_metrics,
    drift,
    elo_update,
    rank_buckets,
    tournament,
)
from ctxpack.errors import ScheduleError, TooShort
from ctxpack.fplt import read_tensor, write_tensor
from ctxpack.importance import sim_cos, sim_time, sort_by_importance
from ctxpack.packing import LatentVideo, apply_schedule
from ctxpack.planner import (
    plan_endpoint,
    plan_inverted,
    plan_multi_endpoint,
    plan_vanilla,
)
from ctxpack.rope import generate_phases, phases_for_positions, pool_phases
from ctxpack.schedule import KernelSpec, format_schedule, parse_schedule

from variant_catalog import ALL_VARIANT_NAMES, RATING_RANGES


def report(number, label):
    print(f"[acceptance] criterion {number:2d} ({label}): PASS")


def test_criterion_01_convergence_bound():
    start = time.perf_counter()
    bound = length_bound(1024, 2, 1)
    assert bound == 3072
    previous = None
    final = None
    for t in range(1, 4097):
        value = total_length(BudgetParams(1024, 2, 1, t))
        assert value <= bound
        if previous is not None:
            assert value > previous
        previous = value
        final = value
    assert abs(float(bound - final)) < 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    report(1, "convergence bound")


def test_criterion_02_arbitrary_rate_construction():
    start = time.perf_counter()
    decomp = decompose_rate(2.625)
    assert decomp.duplicated_levels == (1, 3)
    assert decomp.dropped_levels == ()
    assert decomp.value() == Fraction(21, 8)

    rng = np.random.default_rng(2625)
    for _ in range(1000):
        power = int(rng.integers(0, 12))
        numerator = int(rng.integers(1, 8 * 2**power + 1))
        budget = Fraction(numerator, 2**power)
        assert decompose_rate(budget).value() == budget
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    report(2, "arbitrary-rate construction")


def test_criterion_03_dsl_round_trip():
    start = time.perf_counter()
    for name in ALL_VARIANT_NAMES:
        assert format_schedule(parse_schedule(name)) == name
    assert len(ALL_VARIANT_NAMES) == 40

    alphabet = "tdacfghkwx0123456789_+D"
    rng = np.random.default_rng(40)
    accepted = rejected = 0
    for _ in range(10_000):
        name = list(ALL_VARIANT_NAMES[rng.integers(len(ALL_VARIANT_NAMES))])
        for _ in range(int(rng.integers(1, 4))):
            op = rng.integers(3)
            pos = int(rng.integers(len(name) + (op == 0)))
            if op == 0:
                name.insert(pos, alphabet[rng.integers(len(alphabet))])
            elif op == 1 and name:
                del name[pos % len(name)]
            elif name:
                name[pos % len(name)] = alphabet[rng.integers(len(alphabet))]
        candidate = "".join(name)
        try:
            schedule = parse_schedule(candidate)
        except ScheduleError:
            rejected += 1
            continue
        accepted += 1
        # accepted strings canonicalize without structural alteration,
        # and the canonical form is a fixed point
        canonical = format_schedule(schedule)
        assert parse_schedule(canonical) == schedule
        assert format_schedule(parse_schedule(canonical)) == canonical
    assert accepted and rejected
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.3f}s"
    report(3, f"dsl round trip ({accepted} accepted / {rejected} rejected)")


def _random_schedule(rng):
    kernels = [
        KernelSpec.simplified(1),
        KernelSpec.simplified(2),
        KernelSpec.simplified(4),
        KernelSpec(2, 2, 2),
        KernelSpec(1, 4, 4),
    ]
    def entries(n):
        parts = []
        for _ in range(n):
            kernel = kernels[rng.integers(len(kernels))]
            parts.append(f"f{kernel.p_f * int(rng.integers(1, 5))}{kernel.token}")
        return "".join(parts)

    tail = ["td", "ta", "tc"][rng.integers(3)]
    generate = f"g{int(rng.integers(1, 10))}"
    shape = rng.integers(3)
    if shape == 0:  # forward, tail first
        name = f"{tail}_{entries(int(rng.integers(1, 4)))}_{generate}"
    elif shape == 1:  # forward with a trailing anchor entry
        name = f"{tail}_{entries(int(rng.integers(1, 4)))}_{generate}_x_{entries(1)}"
    else:  # backward, tail last
        name = f"{entries(1)}_x_{generate}_{entries(int(rng.integers(1, 4)))}_{tail}"
    return parse_schedule(name)


def test_criterion_04_budget_packing_equivalence():
    rng = np.random.default_rng(200)
    for _ in range(200):
        schedule = _random_schedule(rng)
        h = int(rng.choice([16, 32, 64]))
        w = int(rng.choice([16, 32, 64]))
        capacity = sum(e.count for e in schedule.frames_entries)
        t = capacity + int(rng.integers(0, 30))
        video = LatentVideo(rng.normal(size=(t, h, w, 2)))
        context = apply_schedule(video, schedule)
        expected = tokens_for_schedule(schedule, h, w, context.tail_frame_count)
        assert context.budget == len(context.tokens) == expected
    report(4, "budget equals packing")


def test_criterion_05_rope_pooling():
    rng = np.random.default_rng(55)
    for _ in range(100):
        n_t = int(rng.choice([2, 4, 8]))
        ticks = np.sort(rng.choice(128, size=n_t, replace=False)).tolist()
        h = int(rng.choice([2, 4, 8]))
        w = int(rng.choice([2, 4, 8]))
        channels = int(rng.choice([6, 12, 24]))
        grid = generate_phases(ticks, h, w, channels)
        kernel = KernelSpec(
            int(rng.choice([s for s in (1, 2, 4, 8) if n_t % s == 0])),
            int(rng.choice([s for s in (1, 2, 4) if h % s == 0])),
            int(rng.choice([s for s in (1, 2, 4) if w % s == 0])),
        )
        pooled = pool_phases(grid, kernel)
        for axis, pooled_axis, step in (
            (grid.time, pooled.time, kernel.p_f),
            (grid.height, pooled.height, kernel.p_h),
            (grid.width, pooled.width, kernel.p_w),
        ):
            mean_positions = axis.positions.reshape(-1, step).mean(axis=1)
            oracle = phases_for_positions(mean_positions, axis.frequencies)
            assert np.abs(pooled_axis.phases - oracle).max() < 1e-9

    sparse = generate_phases([0, 5, 6, 7], 4, 4, 24)
    dense = generate_phases([5, 6, 7], 4, 4, 24)
    assert np.array_equal(sparse.time.phases[1:], dense.time.phases)
    report(5, "rope pooling")


def test_criterion_06_codebook():
    rng = np.random.default_rng(66)
    for i in range(500):
        k = (1, 8, 128)[i % 3]
        shape = {1: (1, 2, 2, 2), 8: (1, 4, 8, 2), 128: (1, 12, 12, 3)}[k]
        dataset = [LatentVideo(rng.normal(size=shape))]
        codebook = fit_codebook(dataset, k, seed=i)
        trace = codebook.fit_stats.inertia_trace
        assert all(b <= a + 1e-9 * max(1.0, trace[0]) for a, b in zip(trace, trace[1:]))

    for i in range(20):
        data = LatentVideo(rng.normal(size=(2, 6, 6, 3)))
        codebook = fit_codebook([data], 6, seed=1000 + i)
        once = discretize_history(data, codebook)
        twice = discretize_history(once, codebook)
        assert np.array_equal(once.data, twice.data)

    data = LatentVideo(rng.normal(size=(3, 8, 8, 2)))
    single = fit_codebook([data], 1, seed=7)
    snapped = discretize_history(data, single)
    mean = data.data.reshape(-1, 2).mean(axis=0)
    assert np.abs(snapped.data - mean).max() < 1e-6

    a = rng.normal(scale=0.01, size=(50, 2))
    b = rng.normal(scale=0.01, size=(50, 2)) + 10.0
    pixels = np.concatenate([a, b])[rng.permutation(100)]
    two = fit_codebook([LatentVideo(pixels.reshape(1, 10, 10, 2))], 2, seed=9)
    got = sorted(two.centroids.tolist())
    assert np.abs(np.asarray(got[0]) - a.mean(axis=0)).max() < 1e-6
    assert np.abs(np.asarray(got[1]) - b.mean(axis=0)).max() < 1e-6
    report(6, "codebook fitting and discretization")


def test_criterion_07_similarity_sorting():
    rng = np.random.default_rng(77)
    for _ in range(100):
        t = int(rng.integers(2, 6))
        video = rng.normal(size=(t, 4, 4, 2))
        offsets = rng.permutation(t) + 1  # distinct gaps of 1..t seconds
        target_time = float(rng.integers(10, 100))
        times = [target_time - float(d) for d in offsets]
        perm = sort_by_importance(
            video, times, rng.normal(size=(4, 4, 2)), target_time, 1e9
        )
        recency = sorted(range(t), key=lambda i: -times[i])
        assert perm == recency

    for seed in range(25):
        r = np.random.default_rng(seed)
        f = r.normal(size=(4, 4, 3))
        x = r.normal(size=(4, 4, 3))
        alpha, beta = float(r.uniform(0.01, 100)), float(r.uniform(0.01, 100))
        assert abs(sim_cos(alpha * f, beta * x) - sim_cos(f, x)) < 1e-9

    assert abs(sim_time(0.0, 1.0) - math.exp(-1)) < 1e-12
    report(7, "similarity sorting")


def test_criterion_08_plan_coverage():
    vanilla = parse_schedule("td_f16k4f2k2f1k1_g9")
    endpoint = parse_schedule("td_f16k4f2k2f1k1_g9_x_f1k1")
    inverted = parse_schedule("f1k1_x_g9_f1k1f2k2f16k4_td")
    section = 9

    def check(plan):
        # plan construction already validates; re-verify independently here
        available = [False] * plan.total_frames
        for span in plan.user_spans:
            for i in range(span.start, span.stop):
                available[i] = True
        for it in plan.iterations:
            for binding in it.inputs:
                assert all(available[binding.span.start : binding.span.stop])
            for span in it.targets:
                for i in range(span.start, span.stop):
                    assert not available[i]
                    available[i] = True
        assert all(available)

    for total in range(9, 109, 9):
        check(plan_vanilla(total, section, vanilla))
        check(plan_inverted(total, section, inverted))
        if total >= 2 * section:
            check(plan_endpoint(total, section, endpoint))
            anchors = [(0, section), (total - section, total)]
            check(plan_multi_endpoint(total, section, endpoint, anchors))
        else:
            with pytest.raises(TooShort):
                plan_endpoint(total, section, endpoint)
    report(8, "plan coverage and causality")


def test_criterion_09_drift_metric():
    rng = np.random.default_rng(99)
    metrics = builtin_metrics()
    for _ in range(100):
        t = int(rng.integers(2, 40))
        video = rng.normal(size=(t, 6, 6, 2))
        for metric in metrics:
            forward = drift(video, metric)
            backward = drift(video[::-1].copy(), metric)
            assert abs(forward - backward) < 1e-12

    constant = np.full((24, 6, 6, 2), 1.25)
    for metric in metrics:
        assert drift(constant, metric) == 0.0

    probe = np.zeros((10, 4, 4, 1))
    probe[0] = 4.0
    probe[9] = 6.0
    luminance = next(m for m in metrics if m.name == "mean-luminance")
    assert drift(probe, luminance) == pytest.approx(2.0)  # window is exactly 1 frame
    report(9, "drift metric")


def test_criterion_10_elo():
    assert elo_update(1000.0, 1000.0, MatchOutcome.A) == (1016.0, 984.0)

    rng = np.random.default_rng(32)
    players = [f"p{i}" for i in range(20)]
    records = []
    for _ in range(10_000):
        i, j = rng.choice(len(players), size=2, replace=False)
        outcome = MatchOutcome(["A", "B", "D"][rng.integers(3)])
        records.append(MatchRecord(players[i], players[j], outcome))
    table = tournament(records)
    total = sum(table.ratings.values())
    assert abs(total - 20 * 1000.0) < 1e-9

    for pick in (lambda lo, hi: lo, lambda lo, hi: hi, lambda lo, hi: (lo + hi) / 2):
        table = tournament([])
        table.ratings = {
            f"rank{rank}": float(pick(lo, hi)) for lo, hi, rank in RATING_RANGES
        }
        assert rank_buckets(table, 16) == {
            f"rank{rank}": rank for _, _, rank in RATING_RANGES
        }
    chained = tournament([])
    chained.ratings = {"x": 1235.0, "y": 1228.0, "z": 1225.0}
    assert set(rank_buckets(chained, 16).values()) == {1}
    report(10, "elo scoring and rank buckets")


def test_criterion_11_fplt_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    shapes = [(1, 4, 4, 2), (3, 2, 2, 1), (1, 1, 1, 1)]
    while len(shapes) < 50:
        shapes.append(tuple(int(rng.integers(1, 9)) for _ in range(4)))
    for i, shape in enumerate(shapes):
        arr = rng.normal(size=shape).astype(np.float32)
        first = tmp_path / f"t{i}a.fplt"
        second = tmp_path / f"t{i}b.fplt"
        write_tensor(first, arr, flags=int(rng.integers(2)))
        loaded, flags = read_tensor(first)
        assert np.array_equal(loaded, arr)
        write_tensor(second, loaded, flags=flags)
        assert first.read_bytes() == second.read_bytes()
    report(11, "fplt round trip")
