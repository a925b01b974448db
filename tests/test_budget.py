import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxpack.budget import (
    BudgetParams,
    RateDecomposition,
    decompose_rate,
    length_bound,
    per_frame_length,
    segment_tokens,
    tail_tokens,
    tokens_for_entry,
    tokens_for_schedule,
    tokens_per_frame_for,
    total_length,
)
from ctxpack.errors import ExcessHistory, IndivisibleDims, NonDyadicBudget
from ctxpack.schedule import BASE_KERNEL, KernelSpec, TailMode, parse_schedule


def geometric_sum_oracle(lf, ratio, section, history):
    """Direct term-by-term summation, independent of the closed form."""
    total = section * Fraction(lf)
    for i in range(history):
        total += Fraction(lf) / Fraction(ratio) ** i
    return total


class TestPerFrameLength:
    def test_level_zero(self):
        assert per_frame_length(1024, 2, 0) == 1024

    def test_level_three(self):
        assert per_frame_length(1024, 2, 3) == 1024 / 2**3 == 128

    def test_real_resolution_level_five(self):
        # 1560 tokens per frame, five halvings
        assert per_frame_length(1560, 2, 5) == Fraction(1560, 32) == 48.75

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError):
            per_frame_length(1024, 2, -1)


class TestFormulaInputs:
    """The length formulas take BudgetParams' one input rule."""

    @pytest.mark.parametrize(
        "formula, args, message",
        [
            (per_frame_length, (1560, 0, 1), "ratio must be > 1"),
            (per_frame_length, (1560, -2, 1), "ratio must be > 1"),
            (per_frame_length, (1560, 1, 3), "ratio must be > 1"),
            (per_frame_length, (-5, 2, 1), "tokens_per_frame must be >= 1"),
            (length_bound, (1560, 2, -3), "section_frames must be >= 1"),
            (length_bound, (0, 2, 1), "tokens_per_frame must be >= 1"),
        ],
    )
    def test_rejected_with_params_message(self, formula, args, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            formula(*args)

    def test_level_checked_first(self):
        with pytest.raises(ValueError, match="^level must be >= 0$"):
            per_frame_length(0, 1, -1)

    @pytest.mark.parametrize("ratio", [float("inf"), float("nan"), None, "half"])
    def test_non_rational_ratio_rejected(self, ratio):
        with pytest.raises(TypeError, match="^ratio must be a rational number"):
            length_bound(1560, ratio, 1)


class TestTotalLength:
    def test_empty_history(self):
        assert total_length(BudgetParams(1024, 2, 1, 0)) == 1024

    def test_matches_direct_summation(self):
        got = total_length(BudgetParams(1024, 2, 1, 4))
        assert got == geometric_sum_oracle(1024, 2, 1, 4) == 2944

    @settings(max_examples=60, deadline=None)
    @given(
        lf=st.integers(1, 2000),
        num=st.integers(3, 9),
        section=st.integers(1, 9),
        history=st.integers(0, 40),
    )
    def test_closed_form_equals_summation(self, lf, num, section, history):
        ratio = Fraction(num, 2)  # > 1
        params = BudgetParams(lf, ratio, section, history)
        assert total_length(params) == geometric_sum_oracle(lf, ratio, section, history)

    def test_monotone_and_bounded(self):
        bound = length_bound(1024, 2, 1)
        previous = None
        for t in range(1, 200):
            value = total_length(BudgetParams(1024, 2, 1, t))
            assert value <= bound
            if previous is not None:
                assert value > previous
            previous = value

    def test_gap_to_bound_is_exact(self):
        lf, ratio, section = 1024, Fraction(3, 2), 2
        bound = length_bound(lf, ratio, section)
        for t in [1, 5, 17]:
            gap = bound - total_length(BudgetParams(lf, ratio, section, t))
            assert gap == lf * ratio**-t / (1 - 1 / ratio)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            BudgetParams(1024, 1, 1, 0)
        with pytest.raises(ValueError):
            BudgetParams(0, 2, 1, 0)
        with pytest.raises(ValueError):
            BudgetParams(1024, 2, 0, 0)
        with pytest.raises(ValueError):
            BudgetParams(1024, 2, 1, -1)


class TestLengthBound:
    def test_closed_form_values(self):
        assert length_bound(1024, 2, 1) == 3072
        assert length_bound(1024, 2, 9) == 11264

    def test_large_ratio_asymptote(self):
        # ratio/(ratio-1) tends to 1, so the bound tends to (S+1)*L_f
        bound = length_bound(1024, 10**9, 3)
        assert abs(bound - 4 * 1024) < 1e-4


class TestDecomposeRate:
    def test_duplicate_half_and_eighth(self):
        decomp = decompose_rate(2.625)
        assert decomp == RateDecomposition((1, 3), ())
        assert decomp.value() == Fraction(21, 8)

    def test_exact_base_sum(self):
        assert decompose_rate(2) == RateDecomposition((), ())

    def test_duplicate_one_and_half(self):
        assert decompose_rate(3.5) == RateDecomposition((0, 1), ())

    def test_integer_extra_duplicates_level_zero(self):
        assert decompose_rate(5) == RateDecomposition((0, 0, 0), ())

    def test_below_two_uses_drops(self):
        decomp = decompose_rate(1.75)
        assert not decomp.duplicated_levels
        assert decomp.value() == Fraction(7, 4)

    def test_drops_are_distinct_levels(self):
        decomp = decompose_rate(Fraction(1, 8))
        assert len(set(decomp.dropped_levels)) == len(decomp.dropped_levels)
        assert decomp.value() == Fraction(1, 8)

    def test_non_dyadic_rejected(self):
        with pytest.raises(NonDyadicBudget):
            decompose_rate(Fraction(1, 3))

    def test_non_positive_rejected(self):
        with pytest.raises(ValueError):
            decompose_rate(0)

    @pytest.mark.parametrize("budget", [float("inf"), float("-inf"), float("nan"), "two"])
    def test_non_rational_rejected(self, budget):
        with pytest.raises(TypeError, match="^budget must be a rational number"):
            decompose_rate(budget)

    @settings(max_examples=300, deadline=None)
    @given(numerator=st.integers(1, 8 * 1024), power=st.integers(0, 10))
    def test_round_trip_exact(self, numerator, power):
        budget = Fraction(numerator, 2**power)
        assert decompose_rate(budget).value() == budget


class TestTokensForEntry:
    def test_base_kernel(self):
        assert tokens_for_entry(1, KernelSpec(1, 2, 2), 64, 64) == 1024

    def test_doubled_kernel(self):
        assert tokens_for_entry(2, KernelSpec(2, 4, 4), 64, 64) == 256

    def test_coarse_kernel(self):
        assert tokens_for_entry(16, KernelSpec(4, 8, 8), 64, 64) == 256

    def test_base_kernel_matches_per_frame_cost(self):
        for h, w in [(64, 64), (60, 104), (8, 6)]:
            lf = tokens_per_frame_for(h, w)
            assert tokens_for_entry(5, KernelSpec(1, 2, 2), h, w) == 5 * lf

    def test_real_latent_resolution(self):
        assert tokens_per_frame_for(60, 104) == 1560

    def test_indivisible(self):
        with pytest.raises(IndivisibleDims):
            tokens_for_entry(3, KernelSpec(2, 4, 4), 64, 64)
        with pytest.raises(IndivisibleDims):
            tokens_for_entry(16, KernelSpec(4, 8, 8), 60, 104)

    def test_pad_uses_ceiling_grids(self):
        kernel = KernelSpec(4, 8, 8)
        got = tokens_for_entry(18, kernel, 60, 104, pad=True)
        assert got == math.ceil(18 / 4) * math.ceil(60 / 8) * math.ceil(104 / 8)


class TestSizeChecks:
    @pytest.mark.parametrize("height,width", [(0, 64), (-4, 64), (64, 0), (64, -1)])
    def test_dimension_below_one_rejected(self, height, width):
        schedule = parse_schedule("ta_f1k1_g1")
        calls = [
            lambda: tokens_for_entry(1, BASE_KERNEL, height, width, pad=True),
            lambda: tail_tokens(TailMode.APPEND, 2, BASE_KERNEL, height, width),
            lambda: segment_tokens(schedule, height, width, 2, pad=True),
            lambda: tokens_for_schedule(schedule, height, width, 2, pad=True),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="height and width must be >= 1"):
                call()

    @pytest.mark.parametrize("pad", [False, True])
    def test_negative_entry_count_rejected(self, pad):
        with pytest.raises(ValueError, match="entry frame count must be >= 0"):
            tokens_for_entry(-3, BASE_KERNEL, 64, 64, pad=pad)
        assert tokens_for_entry(0, BASE_KERNEL, 64, 64, pad=pad) == 0

    @pytest.mark.parametrize("name", ["td_f1k1_g1", "ta_f1k1_g1", "tc_f1k1_g1", "f1k1_g1"])
    def test_negative_tail_rejected(self, name):
        schedule = parse_schedule(name)
        with pytest.raises(ValueError, match="tail frame count must be >= 0"):
            segment_tokens(schedule, 64, 64, -3)
        with pytest.raises(ValueError, match="tail frame count must be >= 0"):
            tokens_for_schedule(schedule, 64, 64, -3)
        if schedule.tail is not None:
            with pytest.raises(ValueError, match="tail frame count must be >= 0"):
                tail_tokens(schedule.tail.mode, -3, BASE_KERNEL, 64, 64)


class TestTokensForSchedule:
    def test_vanilla_chain_at_64(self):
        s = parse_schedule("td_f16k4f2k2f1k1_g9")
        assert tokens_for_schedule(s, 64, 64) == 10752 == 9216 + 1024 + 256 + 256

    def test_minimal(self):
        assert tokens_for_schedule(parse_schedule("td_f1k1_g1"), 64, 64) == 2048

    def test_tail_modes(self):
        base = tokens_for_schedule(parse_schedule("td_f16k4f2k2f1k1_g9"), 64, 64, 81)
        append = tokens_for_schedule(parse_schedule("ta_f16k4f2k2f1k1_g9"), 64, 64, 3)
        compress = tokens_for_schedule(parse_schedule("tc_f16k4f2k2f1k1_g9"), 64, 64, 8)
        assert base == 10752  # deleted tail costs nothing
        assert append == 10752 + 3 * 2 * 2
        assert compress == 10752 + (64 // 8) * (64 // 8)  # one coarsest-kernel group

    def test_zero_tail_frames_cost_nothing(self):
        for name in ["td_f1k1_g1", "ta_f1k1_g1", "tc_f1k1_g1"]:
            assert tokens_for_schedule(parse_schedule(name), 64, 64, 0) == 2048

    def test_tail_frames_without_tail_marker(self):
        with pytest.raises(ExcessHistory):
            tokens_for_schedule(parse_schedule("f1k1_g1"), 64, 64, 5)

    def test_duplicated_spatial_kernels_add(self):
        # same spatial extent, different temporal steps
        s = parse_schedule("f1k1h2w2f2k2h2w2_g1")
        first = tokens_for_entry(1, KernelSpec(1, 2, 2), 64, 64)
        second = tokens_for_entry(2, KernelSpec(2, 2, 2), 64, 64)
        assert tokens_for_schedule(s, 64, 64) == first + second + 1024

    def test_total_never_exceeds_bound(self):
        s = parse_schedule("td_f16k4f2k2f1k1_g9")
        bound = length_bound(1024, 2, 9)
        for tail_frames in [0, 1, 100, 4096]:
            assert tokens_for_schedule(s, 64, 64, tail_frames) <= bound
