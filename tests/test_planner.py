import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import planner_oracle
from ctxpack import planner as planner_module
from ctxpack.errors import ModeMismatch, OverlappingEndpoints, PlanError, TooShort
from ctxpack.planner import (
    GenerationPlan,
    InputBinding,
    Iteration,
    PlanMode,
    Span,
    plan_endpoint,
    plan_inverted,
    plan_multi_endpoint,
    plan_vanilla,
    serialize_plan,
)
from ctxpack.schedule import parse_schedule
from test_schedule import schedules
from variant_catalog import ENDPOINT_NAMES, INVERTED_NAMES, VANILLA_NAMES

VANILLA = parse_schedule("td_f16k4f2k2f1k1_g9")
ENDPOINT = parse_schedule("td_f16k4f2k2f1k1_g9_x_f1k1")
INVERTED = parse_schedule("f1k1_x_g9_f1k1f2k2f16k4_td")


def targets_of(plan):
    return [span for it in plan.iterations for span in it.targets]


def assert_covers(plan: GenerationPlan):
    """Oracle: walk iterations with an availability array."""
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


class TestVanilla:
    def test_three_sections(self):
        plan = plan_vanilla(27, 9, VANILLA)
        assert targets_of(plan) == [Span(0, 9), Span(9, 18), Span(18, 27)]
        assert_covers(plan)

    def test_single_section_has_empty_inputs(self):
        plan = plan_vanilla(9, 9, VANILLA)
        assert len(plan.iterations) == 1
        assert all(b.span.length == 0 for b in plan.iterations[0].inputs)

    def test_newest_available_binds_to_finest_entry(self):
        plan = plan_vanilla(27, 9, VANILLA)
        third = plan.iterations[2]
        assert third.targets == (Span(18, 27),)
        finest = third.inputs[-1]
        assert finest.span == Span(17, 18)
        assert finest.kernel_token == "k1"

    def test_bindings_walk_backward(self):
        plan = plan_vanilla(27, 9, VANILLA)
        third = plan.iterations[2]
        assert [b.span for b in third.inputs] == [Span(0, 15), Span(15, 17), Span(17, 18)]

    def test_mode_mismatch(self):
        with pytest.raises(ModeMismatch):
            plan_vanilla(27, 9, INVERTED)

    def test_partial_section_flagged(self):
        with pytest.raises(PlanError):
            plan_vanilla(25, 9, VANILLA)
        plan = plan_vanilla(25, 9, VANILLA, allow_partial=True)
        assert targets_of(plan)[-1] == Span(18, 25)
        assert_covers(plan)


class TestEndpoint:
    def test_anchors_then_gap(self):
        plan = plan_endpoint(27, 9, ENDPOINT)
        assert plan.iterations[0].targets == (Span(0, 9), Span(18, 27))
        assert plan.iterations[1].targets == (Span(9, 18),)
        assert_covers(plan)

    def test_gap_conditions_on_both_sides(self):
        plan = plan_endpoint(27, 9, ENDPOINT)
        gap = plan.iterations[1]
        spans = [b.span for b in gap.inputs]
        assert spans[:3] == [Span(0, 6), Span(6, 8), Span(8, 9)]  # preceding frames
        assert spans[3] == Span(18, 19)  # endpoint frame beyond the gap
        assert gap.skip_spans == (Span(18, 18),)

    def test_two_sections_single_iteration(self):
        plan = plan_endpoint(18, 9, ENDPOINT)
        assert len(plan.iterations) == 1
        assert plan.iterations[0].targets == (Span(0, 9), Span(9, 18))
        assert_covers(plan)

    def test_too_short(self):
        with pytest.raises(TooShort):
            plan_endpoint(9, 9, ENDPOINT)

    def test_mode_mismatch(self):
        with pytest.raises(ModeMismatch):
            plan_endpoint(27, 9, VANILLA)


class TestInverted:
    def test_descending_targets(self):
        plan = plan_inverted(28, 9, INVERTED)
        assert targets_of(plan) == [Span(19, 28), Span(10, 19), Span(1, 10)]
        assert plan.user_spans == (Span(0, 1),)
        assert_covers(plan)

    def test_every_iteration_reads_frame_zero(self):
        plan = plan_inverted(28, 9, INVERTED)
        for it in plan.iterations:
            assert it.inputs[0].span == Span(0, 1)

    def test_negative_user_frames_rejected(self):
        with pytest.raises(PlanError, match="user_frames must be >= 0"):
            plan_inverted(28, 9, INVERTED, user_frames=-1)

    def test_first_iteration_has_no_future_bindings(self):
        plan = plan_inverted(28, 9, INVERTED)
        first = plan.iterations[0]
        assert all(b.span.length == 0 for b in first.inputs[1:])

    def test_later_iterations_bind_generated_future(self):
        plan = plan_inverted(28, 9, INVERTED)
        second = plan.iterations[1]
        assert [b.span for b in second.inputs] == [
            Span(0, 1),
            Span(19, 20),
            Span(20, 22),
            Span(22, 28),
        ]
        assert second.skip_spans == (Span(1, 10),)

    def test_partial_first_section_abuts_user_frame(self):
        plan = plan_inverted(27, 9, INVERTED)
        assert targets_of(plan) == [Span(18, 27), Span(9, 18), Span(1, 9)]
        assert plan.iterations[-1].skip_spans == (Span(1, 1),)
        assert_covers(plan)

    def test_without_user_frames_mirrors_vanilla_targets(self):
        inverted = plan_inverted(27, 9, INVERTED, user_frames=0)
        vanilla = plan_vanilla(27, 9, VANILLA)
        assert targets_of(inverted) == list(reversed(targets_of(vanilla)))
        assert_covers(inverted)

    def test_nothing_to_generate(self):
        with pytest.raises(TooShort):
            plan_inverted(1, 9, INVERTED)


class TestMultiEndpoint:
    def test_two_anchors_three_gaps(self):
        plan = plan_multi_endpoint(45, 9, ENDPOINT, [(0, 9), (36, 45)])
        assert len(plan.iterations) == 5
        assert targets_of(plan) == [
            Span(0, 9),
            Span(36, 45),
            Span(9, 18),
            Span(18, 27),
            Span(27, 36),
        ]
        assert_covers(plan)

    def test_gap_reads_next_anchor_over_ungenerated_span(self):
        plan = plan_multi_endpoint(45, 9, ENDPOINT, [(0, 9), (36, 45)])
        middle = plan.iterations[3]
        assert middle.targets == (Span(18, 27),)
        assert middle.inputs[-1].span == Span(36, 37)
        assert middle.skip_spans == (Span(27, 36),)

    def test_fully_anchored_has_no_gap_iterations(self):
        plan = plan_multi_endpoint(18, 9, ENDPOINT, [(0, 9), (9, 18)])
        assert len(plan.iterations) == 2
        assert_covers(plan)

    def test_single_far_anchor_gap_order_matches_endpoint_plan(self):
        multi = plan_multi_endpoint(45, 9, ENDPOINT, [(0, 9), (36, 45)])
        single = plan_endpoint(45, 9, ENDPOINT)
        multi_gaps = [it.targets for it in multi.iterations[2:]]
        single_gaps = [it.targets for it in single.iterations[1:]]
        assert multi_gaps == single_gaps
        anchor_union = {s for it in multi.iterations[:2] for s in it.targets}
        assert anchor_union == set(single.iterations[0].targets)

    def test_prompts_attach_to_anchors(self):
        plan = plan_multi_endpoint(
            45, 9, ENDPOINT, [(0, 9), (36, 45)], prompts=["intro", "finale"]
        )
        assert [it.prompt for it in plan.iterations[:2]] == ["intro", "finale"]
        assert all(it.prompt is None for it in plan.iterations[2:])

    def test_overlap_rejected(self):
        with pytest.raises(OverlappingEndpoints):
            plan_multi_endpoint(45, 9, ENDPOINT, [(0, 18), (9, 27)])

    def test_out_of_range_rejected(self):
        with pytest.raises(OverlappingEndpoints):
            plan_multi_endpoint(45, 9, ENDPOINT, [(36, 54)])

    def test_misaligned_rejected(self):
        with pytest.raises(PlanError):
            plan_multi_endpoint(45, 9, ENDPOINT, [(3, 12)])

    @pytest.mark.parametrize(
        "endpoints,message",
        [
            ([(9, 18), (27, 36)], "endpoint 27..36 reads frames 0..9, "),
            ([(0, 9), (18, 27), (36, 45)], "endpoint 36..45 reads frames 9..18, "),
            ([(18, 27), (36, 45)], "endpoint 36..45 reads frames 8..18, "),
        ],
    )
    def test_anchor_reading_ungenerated_frames_rejected(self, endpoints, message):
        # a later anchor binds backward from the earlier anchor's stop; the
        # frames it reaches before that anchor are generated by nothing yet
        with pytest.raises(PlanError, match=f"^{message}which no earlier endpoint generates$"):
            plan_multi_endpoint(45, 9, ENDPOINT, endpoints)

    def test_anchor_reading_only_earlier_anchors_plans(self):
        plan = plan_multi_endpoint(45, 9, ENDPOINT, [(0, 9), (27, 36)])
        assert plan.iterations[1].inputs[0].span == Span(0, 6)
        assert_covers(plan)

    def test_anchors_of_10_18_frames_plan_in_milliseconds(self):
        # the anchor check compares span ends; it never visits a frame
        n = 10**18
        start = time.perf_counter()
        plan = plan_multi_endpoint(2 * n, n, ENDPOINT, [(0, n), (n, 2 * n)])
        assert serialize_plan(plan) == (
            f"ITER 1 TARGET 0..{n} INPUTS 0..0@k4,0..0@k2,0..0@k1,{n}..{n}@k1\n"
            f"ITER 2 TARGET {n}..{2 * n} INPUTS {n - 19}..{n - 3}@k4,{n - 3}..{n - 1}@k2,"
            f"{n - 1}..{n}@k1,{2 * n}..{2 * n}@k1\n"
        )
        far = 9 * 10**17
        with pytest.raises(PlanError, match=f"^endpoint {far + 27}..{far + 36} reads frames "
                           f"{far - 10}..{far}, which no earlier endpoint generates$"):
            plan_multi_endpoint(far + 45, 9, ENDPOINT, [(far, far + 9), (far + 27, far + 36)])
        assert time.perf_counter() - start < 0.5


@st.composite
def uncovered_cases(draw):
    """Two lists of sorted spans that do not overlap, as an anchor's inputs
    and the earlier anchors are: each may touch the next or be empty."""
    def spans():
        cuts = sorted(draw(st.lists(st.integers(0, 40), max_size=8)))
        return [Span(a, b) for a, b in zip(cuts[::2], cuts[1::2])]

    return spans(), spans()


class TestUncovered:
    @settings(max_examples=500)
    @given(uncovered_cases())
    def test_matches_per_frame_ranges(self, case):
        spans, cover = case
        frames = {i for s in spans for i in range(s.start, s.stop)}
        frames -= {i for s in cover for i in range(s.start, s.stop)}
        runs = [[f, f + 1] for f in sorted(frames) if f - 1 not in frames]
        for run in runs:
            while run[1] in frames:
                run[1] += 1
        assert planner_module._uncovered(spans, cover) == ",".join(f"{a}..{b}" for a, b in runs)


class TestSerialize:
    def test_golden_inverted_plan(self):
        plan = plan_inverted(28, 9, INVERTED)
        assert serialize_plan(plan) == (
            "ITER 1 TARGET 19..28 INPUTS 0..1@k1,28..28@k1,28..28@k2,28..28@k4\n"
            "ITER 2 TARGET 10..19 INPUTS 0..1@k1,19..20@k1,20..22@k2,22..28@k4\n"
            "ITER 3 TARGET 1..10 INPUTS 0..1@k1,10..11@k1,11..13@k2,13..28@k4\n"
        )

    def test_golden_endpoint_plan(self):
        plan = plan_endpoint(27, 9, ENDPOINT)
        assert serialize_plan(plan) == (
            "ITER 1 TARGET 0..9,18..27 INPUTS 0..0@k4,0..0@k2,0..0@k1,27..27@k1\n"
            "ITER 2 TARGET 9..18 INPUTS 0..6@k4,6..8@k2,8..9@k1,18..19@k1\n"
        )

    def test_no_entries_serializes_dash(self):
        plan = plan_vanilla(4, 2, parse_schedule("g2"))
        assert "INPUTS -" in serialize_plan(plan)


PLANNERS = {
    "vanilla": lambda total, section: plan_vanilla(total, section, VANILLA),
    "endpoint": lambda total, section: plan_endpoint(total, section, ENDPOINT),
    "inverted": lambda total, section: plan_inverted(total, section, INVERTED),
    "multi-endpoint": lambda total, section: plan_multi_endpoint(
        total, section, ENDPOINT, [(0, 9)]
    ),
}


class TestSpan:
    def test_stop_before_start_rejected(self):
        with pytest.raises(ValueError, match="span stop 2 before start 3"):
            Span(3, 2)


class TestSizes:
    @pytest.mark.parametrize("planner", sorted(PLANNERS))
    @pytest.mark.parametrize("total,section", [(27, 0), (27, -9), (0, 9), (-27, 9)])
    def test_size_below_one_rejected(self, planner, total, section):
        with pytest.raises(PlanError, match="must both be >= 1"):
            PLANNERS[planner](total, section)


# Published variants, or random vanilla, endpoint and inverted shapes;
# endpoint names twice as often, since two planners take them.
planner_schedules = (
    st.sampled_from(VANILLA_NAMES + ENDPOINT_NAMES * 2 + INVERTED_NAMES).map(parse_schedule)
    | schedules()
)


@st.composite
def plan_cases(draw):
    """A schedule, sizes, and anchor spans mostly aligned to sections; some
    misaligned, empty, overlapping or out of range, some totals partial."""
    section = draw(st.integers(1, 10))
    total = draw(st.integers(1, 80) | st.integers(1, 80 // section).map(lambda k: k * section))
    spans = []
    units = st.lists(st.integers(0, total // section), min_size=1, max_size=3, unique=True)
    for unit in draw(units) if draw(st.sampled_from([True] * 9 + [False])) else []:
        length = draw(st.sampled_from([1] * 6 + [2] * 3 + [0]))
        shift = draw(st.sampled_from([0] * 19 + [1]))
        spans.append((unit * section + shift, (unit + length) * section + shift))
    labels = [f"p{i}" for i in range(len(spans))]
    prompts = draw(st.sampled_from([None, labels, labels, labels, labels[1:] or ["p"]]))
    return draw(planner_schedules), total, section, spans, prompts


def outcome(planner, *args, **kwargs):
    """What a planner returns, or the class and message of what it raises."""
    try:
        plan = planner(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)
    return plan.mode, plan.iterations, plan.user_spans, serialize_plan(plan)


class TestPlannerOracle:
    @settings(max_examples=600)
    @given(case=plan_cases(), user_frames=st.integers(0, 5), allow_partial=st.booleans())
    def test_matches_reference_planners(self, case, user_frames, allow_partial):
        schedule, total, section, endpoints, prompts = case
        calls = [
            ("plan_vanilla", (total, section, schedule), {"allow_partial": allow_partial}),
            ("plan_endpoint", (total, section, schedule), {}),
            ("plan_inverted", (total, section, schedule), {"user_frames": user_frames}),
            ("plan_multi_endpoint", (total, section, schedule, endpoints), {"prompts": prompts}),
        ]
        for name, args, kwargs in calls:
            new = outcome(getattr(planner_module, name), *args, **kwargs)
            old = outcome(getattr(planner_oracle, name), *args, **kwargs)
            assert new == old, name


@st.composite
def checked_plans(draw):
    """A plan of up to 30 frames, its spans all in range: user frames at the
    start, then targets that partition the rest in order, each read after
    inputs mostly among the frames before it; then spans added, dropped and
    reordered, so most plans fail one of the three checks somewhere."""
    total = draw(st.integers(1, 30))
    bounds = st.tuples(st.integers(0, total), st.integers(0, total))
    span = bounds.map(lambda ab: Span(min(ab), max(ab)))
    user = draw(st.integers(0, total - 1))
    user_spans = [Span(0, user)] * bool(user) + draw(st.lists(span, max_size=1))
    cuts = sorted({user, total, *draw(st.lists(st.integers(user, total), max_size=5))})
    iterations = []
    for start, stop in zip(cuts, cuts[1:]):
        before = st.tuples(st.integers(0, start), st.integers(0, start))
        inputs = draw(st.lists(before.map(lambda ab: Span(min(ab), max(ab))) | span, max_size=3))
        targets = [Span(start, stop), *draw(st.lists(span, max_size=1))]
        bindings = tuple(InputBinding(s, "k1") for s in inputs)
        iterations.append(Iteration(tuple(draw(st.permutations(targets))), bindings))
    iterations = [it for it in iterations if draw(st.integers(0, 3))]
    if draw(st.booleans()):
        iterations = draw(st.permutations(iterations))
    return GenerationPlan(
        PlanMode.VANILLA, total, 1, VANILLA, tuple(iterations), tuple(user_spans)
    )


class TestCheckPlan:
    """The plan check keeps merged spans of available frames, not one slot
    per frame, and names the same first failure as the per-frame check."""

    @settings(max_examples=500)
    @given(checked_plans())
    def test_matches_per_frame_check(self, plan):
        new = outcome(planner_module._check_plan, plan)
        assert new == outcome(planner_oracle._check_plan, plan)
