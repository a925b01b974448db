import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxpack.errors import (
    EmptySchedule,
    InvalidSchedule,
    MisplacedTail,
    MultipleGenerate,
    ScheduleError,
    UnknownToken,
)
from ctxpack.schedule import (
    Frames,
    Generate,
    KernelSpec,
    PackingSchedule,
    SamplingMode,
    Skip,
    Tail,
    TailMode,
    classify_sampling_mode,
    format_schedule,
    parse_schedule,
)

from variant_catalog import (
    ALL_VARIANT_NAMES,
    DISCRETIZED_NAMES,
    ENDPOINT_NAMES,
    INVERTED_NAMES,
    VANILLA_NAMES,
)


def k(n):
    return KernelSpec.simplified(n)


class TestParse:
    def test_vanilla_chain(self):
        s = parse_schedule("td_f16k4f2k2f1k1_g9")
        assert s.segments == (
            Tail(TailMode.DELETE),
            Frames(16, k(4)),
            Frames(2, k(2)),
            Frames(1, k(1)),
            Generate(9),
        )
        assert s.sampling_mode is SamplingMode.VANILLA
        assert not s.discretize_history

    def test_inverted_chain(self):
        s = parse_schedule("f1k1_x_g9_f1k1f4k2f16k4_td")
        assert s.segments == (
            Frames(1, k(1)),
            Skip(),
            Generate(9),
            Frames(1, k(1)),
            Frames(4, k(2)),
            Frames(16, k(4)),
            Tail(TailMode.DELETE),
        )
        assert s.sampling_mode is SamplingMode.INVERTED

    def test_discretize_flag(self):
        plain = parse_schedule("td_f16k4f2k2f1k1_g9")
        flagged = parse_schedule("td_f16k4f2k2f1k1_g9+D")
        assert flagged.discretize_history
        assert flagged.segments == plain.segments

    def test_simplified_kernel_expansion(self):
        s = parse_schedule("td_f8k8_g1")
        assert s.frames_entries[0].kernel == KernelSpec(8, 16, 16)

    def test_explicit_kernel(self):
        s = parse_schedule("f2k2h2w4_g1")
        assert s.frames_entries[0].kernel == KernelSpec(2, 2, 4)

    def test_underscores_are_cosmetic(self):
        canonical = parse_schedule("td_f16k4f2k2f1k1_g9")
        spread = parse_schedule("td_f16k4_f2k2_f1k1_g9")
        dense = parse_schedule("tdf16k4f2k2f1k1g9")
        assert spread == canonical
        assert dense == canonical

    def test_explicit_base_kernel_canonicalizes(self):
        s = parse_schedule("td_f16k4f2k2f1k1h2w2_g9")
        assert format_schedule(s) == "td_f16k4f2k2f1k1_g9"


class TestParseErrors:
    def test_empty(self):
        with pytest.raises(EmptySchedule):
            parse_schedule("")

    def test_only_separators(self):
        with pytest.raises(EmptySchedule):
            parse_schedule("___")

    def test_flag_alone(self):
        with pytest.raises(EmptySchedule):
            parse_schedule("+D")

    def test_multiple_generate(self):
        with pytest.raises(MultipleGenerate):
            parse_schedule("g9_g9")

    def test_missing_generate(self):
        with pytest.raises(InvalidSchedule):
            parse_schedule("td_f1k1")

    def test_tail_in_middle(self):
        with pytest.raises(MisplacedTail):
            parse_schedule("f1k1_td_g9")

    def test_two_tails(self):
        with pytest.raises(MisplacedTail):
            parse_schedule("td_ta_g9")

    @pytest.mark.parametrize(
        "bad",
        ["zz", "f16_g9", "tq_g9", "g", "f1k2h4_g9", "g9+d", "g9 ", "k1_g9"],
    )
    def test_unknown_tokens(self, bad):
        with pytest.raises(UnknownToken):
            parse_schedule(bad)

    @pytest.mark.parametrize("bad", ["g0", "f0k1_g9", "f1k0_g9"])
    def test_nonpositive_counts(self, bad):
        with pytest.raises(InvalidSchedule):
            parse_schedule(bad)

    def test_non_ascii(self):
        with pytest.raises(UnknownToken):
            parse_schedule("td_f1k1_g9é")


class TestFormat:
    def test_minimal(self):
        s = PackingSchedule((Tail(TailMode.DELETE), Frames(1, k(1)), Generate(9)))
        assert format_schedule(s) == "td_f1k1_g9"

    def test_explicit_kernel_token(self):
        s = PackingSchedule((Frames(2, KernelSpec(2, 2, 4)), Generate(1)))
        assert format_schedule(s) == "f2k2h2w4_g1"

    def test_invalid_construction_rejected(self):
        with pytest.raises(InvalidSchedule):
            PackingSchedule((Frames(1, k(1)),))
        with pytest.raises(MultipleGenerate):
            PackingSchedule((Generate(1), Generate(2)))


class TestPublishedVariants:
    @pytest.mark.parametrize("name", ALL_VARIANT_NAMES)
    def test_round_trip_identity(self, name):
        assert format_schedule(parse_schedule(name)) == name

    def test_catalog_size(self):
        assert len(ALL_VARIANT_NAMES) == 40

    @pytest.mark.parametrize("name", VANILLA_NAMES + DISCRETIZED_NAMES)
    def test_vanilla_modes(self, name):
        assert parse_schedule(name).sampling_mode is SamplingMode.VANILLA

    @pytest.mark.parametrize("name", ENDPOINT_NAMES)
    def test_endpoint_modes(self, name):
        assert parse_schedule(name).sampling_mode is SamplingMode.ENDPOINT_ANCHORED

    @pytest.mark.parametrize("name", INVERTED_NAMES)
    def test_inverted_modes(self, name):
        assert parse_schedule(name).sampling_mode is SamplingMode.INVERTED


class TestClassify:
    def test_examples(self):
        assert (
            parse_schedule("td_f16k4f2k2f1k1_g9_x_f1k1").sampling_mode
            is SamplingMode.ENDPOINT_ANCHORED
        )
        assert parse_schedule("td_f1k1_g9").sampling_mode is SamplingMode.VANILLA
        assert (
            parse_schedule("f1k1_x_g9_f1k1f2k2f16k4_td").sampling_mode
            is SamplingMode.INVERTED
        )

    def test_generate_only(self):
        assert parse_schedule("g9").sampling_mode is SamplingMode.VANILLA
        assert parse_schedule("td_g9").sampling_mode is SamplingMode.VANILLA

    def test_tail_and_skip_on_same_side_is_unclassified(self):
        s = parse_schedule("f1k1_g9_x_f1k1_td")
        assert s.sampling_mode is SamplingMode.UNCLASSIFIED

    def test_generate_mid_list_without_skip_is_unclassified(self):
        s = parse_schedule("f1k1_g9_f1k1")
        assert s.sampling_mode is SamplingMode.UNCLASSIFIED

    def test_two_skips_is_unclassified(self):
        s = parse_schedule("f1k1_x_g9_x_f1k1")
        assert s.sampling_mode is SamplingMode.UNCLASSIFIED

    def test_classify_matches_property(self):
        s = parse_schedule("td_f1k1_g9")
        assert classify_sampling_mode(s) is s.sampling_mode

    def test_endpoint_and_inverted_are_mirror_images(self):
        # every parseable name of up to six of these tokens
        tokens = ["td", "ta", "f1k1", "f2k2", "x", "g9"]
        checked = 0
        for n in range(1, 7):
            for combo in itertools.product(tokens, repeat=n):
                try:
                    s = parse_schedule("_".join(combo))
                except ScheduleError:
                    continue
                mirrored = PackingSchedule(s.segments[::-1])
                endpoint = s.sampling_mode is SamplingMode.ENDPOINT_ANCHORED
                assert endpoint == (mirrored.sampling_mode is SamplingMode.INVERTED), s.name
                checked += 1
        assert checked == 4193


simple_kernels = st.sampled_from([1, 2, 4, 8, 16]).map(KernelSpec.simplified)
explicit_kernels = st.builds(
    KernelSpec,
    st.integers(1, 8),
    st.integers(1, 8),
    st.integers(1, 8),
)
frames_entries = st.builds(
    Frames, st.integers(1, 600), st.one_of(simple_kernels, explicit_kernels)
)


@st.composite
def schedules(draw):
    pre = draw(st.lists(frames_entries, max_size=4))
    post = draw(st.lists(frames_entries, max_size=4))
    shape = draw(st.sampled_from(["vanilla", "endpoint", "inverted"]))
    generate = Generate(draw(st.integers(1, 16)))
    if shape == "vanilla":
        segments = [*pre, generate]
        tail_at_start = True
    elif shape == "endpoint":
        segments = [*pre, generate, Skip(), *(post or [draw(frames_entries)])]
        tail_at_start = True
    else:
        segments = [*(pre or [draw(frames_entries)]), Skip(), generate, *post]
        tail_at_start = False
    if draw(st.booleans()):
        tail = Tail(draw(st.sampled_from(list(TailMode))))
        segments = [tail, *segments] if tail_at_start else [*segments, tail]
    return PackingSchedule(tuple(segments), draw(st.booleans()))


class TestRoundTripProperty:
    @settings(max_examples=300, deadline=None)
    @given(schedules())
    def test_parse_format_round_trip(self, schedule):
        name = format_schedule(schedule)
        assert parse_schedule(name) == schedule

    @settings(max_examples=300, deadline=None)
    @given(schedules())
    def test_exactly_one_generate(self, schedule):
        generates = [s for s in schedule.segments if isinstance(s, Generate)]
        assert len(generates) == 1

    @settings(max_examples=200, deadline=None)
    @given(schedules())
    def test_simplified_kernels_expand(self, schedule):
        name = format_schedule(schedule)
        for entry in parse_schedule(name).frames_entries:
            kern = entry.kernel
            if kern.is_simplified:
                assert kern.p_h == 2 * kern.p_f and kern.p_w == 2 * kern.p_f
