"""float32 histories give the bytes the same values give as float64.

``LatentVideo`` keeps float32 input as float32, and each consumer casts
only the frames it reduces; the casts are exact, so every result must
match the float64 path byte for byte.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxpack.codebook import fit_codebook, quantize
from ctxpack.drift import builtin_metrics, drift_report
from ctxpack.errors import ExcessHistory, IndivisibleDims, InsufficientData, ShortHistory
from ctxpack.packing import LatentVideo, apply_schedule
from ctxpack.schedule import (
    Frames,
    Generate,
    KernelSpec,
    PackingSchedule,
    Skip,
    Tail,
    TailMode,
)

# k1, k2, k4 and k2h8w4
KERNELS = [KernelSpec(1, 2, 2), KernelSpec(2, 4, 4), KernelSpec(4, 8, 8), KernelSpec(2, 8, 4)]


def widths(t, h, w, c, seed):
    """The same float32 values as a float32 and a float64 LatentVideo."""
    values = np.random.default_rng(seed).normal(scale=3.0, size=(t, h, w, c))
    narrow = values.astype(np.float32)
    return LatentVideo(narrow), LatentVideo(narrow.astype(np.float64))


def block_digest(blocks):
    return [
        (b.time_span, b.kernel, b.time_phase, b.row_phases, b.col_phases, b.grid.dtype, b.grid.tobytes())
        for b in blocks
    ]


@st.composite
def schedules(draw):
    """td/ta/tc at the start or the end, optional ``x``, mixed kernels."""
    entries = st.lists(st.builds(Frames, st.integers(1, 5), st.sampled_from(KERNELS)), max_size=3)
    tail = [Tail(draw(st.sampled_from(list(TailMode))))]
    at_start = draw(st.booleans())
    pre = draw(entries)
    post = draw(entries) if at_start else draw(entries.filter(bool))
    gap = [Skip()] if post and draw(st.booleans()) else []
    body = [*pre, *gap, Generate(draw(st.integers(1, 2))), *post]
    return PackingSchedule(tuple(tail + body if at_start else body + tail))


@st.composite
def dims(draw):
    """Latent dims, mostly odd, so padding and clipped windows show up."""
    return draw(st.integers(1, 23)), draw(st.integers(1, 41)), draw(st.integers(1, 3))


seeds = st.integers(0, 2**16)
# mostly padded, so most cases pack rather than raise
mostly = st.sampled_from([True, True, True, False])


class TestPacking:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(schedules(), dims(), st.integers(-3, 8), seeds, mostly, mostly)
    def test_apply_schedule(self, schedule, hwc, extra, seed, pad_history, pad_spatial):
        capacity = sum(e.count for e in schedule.frames_entries)
        narrow, wide = widths(max(0, capacity + extra), *hwc, seed)
        pads = dict(pad_history=pad_history, pad_spatial=pad_spatial)
        try:
            expected = apply_schedule(wide, schedule, **pads)
        except (ShortHistory, ExcessHistory, IndivisibleDims) as exc:
            with pytest.raises(type(exc)):
                apply_schedule(narrow, schedule, **pads)
            return
        got = apply_schedule(narrow, schedule, **pads)
        assert block_digest(got.blocks) == block_digest(expected.blocks)
        assert got.features.tobytes() == expected.features.tobytes()
        assert (got.budget, got.generate_span, got.tail_span) == (
            expected.budget,
            expected.generate_span,
            expected.tail_span,
        )

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.sampled_from(list(TailMode)),
        st.sampled_from(KERNELS),
        st.integers(0, 6),
        dims(),
        seeds,
        mostly,
    )
    def test_tail_modes(self, mode, coarsest, frames, hwc, seed, pad_spatial):
        # the entry takes the newest p_f frames and sets the coarsest kernel
        schedule = PackingSchedule((Tail(mode), Frames(coarsest.p_f, coarsest), Generate(1)))
        narrow, wide = widths(frames + coarsest.p_f, *hwc, seed)
        try:
            expected = apply_schedule(wide, schedule, pad_spatial=pad_spatial)
        except IndivisibleDims:
            with pytest.raises(IndivisibleDims):
                apply_schedule(narrow, schedule, pad_spatial=pad_spatial)
            return
        got = apply_schedule(narrow, schedule, pad_spatial=pad_spatial)
        assert got.tail_span == expected.tail_span == (0, frames)
        assert block_digest(got.blocks) == block_digest(expected.blocks)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.sampled_from(KERNELS), dims(), seeds, mostly)
    def test_entry_pooling(self, kernel, hwc, seed, pad_spatial):
        # five deleted tail frames put the one kernel group at times 5..
        schedule = PackingSchedule((Tail(TailMode.DELETE), Frames(kernel.p_f, kernel), Generate(1)))
        narrow, wide = widths(5 + kernel.p_f, *hwc, seed)
        try:
            expected = apply_schedule(wide, schedule, pad_spatial=pad_spatial)
        except IndivisibleDims:
            with pytest.raises(IndivisibleDims):
                apply_schedule(narrow, schedule, pad_spatial=pad_spatial)
            return
        got = apply_schedule(narrow, schedule, pad_spatial=pad_spatial)
        assert got.blocks[0].time_span == (5, 5 + kernel.p_f)
        assert block_digest(got.blocks) == block_digest(expected.blocks)

    @pytest.mark.parametrize("h, w", [(64, 64), (60, 50)])
    @pytest.mark.parametrize("seed", range(4))
    def test_single_channel_window_of_131072_values(self, h, w, seed):
        # one window, one channel: numpy sums the whole block as one
        # contiguous run, so a float32 block reduced through a cast would
        # round differently from its float64 copy; values span 2^±14 so
        # the summation order shows in the last bits
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(32, h, w, 1)) * np.exp2(rng.uniform(-14, 14, (32, h, w, 1)))
        narrow = LatentVideo(values.astype(np.float32))
        wide = LatentVideo(narrow.array.astype(np.float64))
        schedule = PackingSchedule((Frames(32, KernelSpec(32, 64, 64)), Generate(1)))
        got = apply_schedule(narrow, schedule, pad_spatial=True)
        expected = apply_schedule(wide, schedule, pad_spatial=True)
        assert got.blocks[0].size == 1
        assert block_digest(got.blocks) == block_digest(expected.blocks)


class TestDriftAndCodebook:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(2, 30), dims(), seeds)
    def test_drift_report(self, frames, hwc, seed):
        narrow, wide = widths(frames, *hwc, seed)
        metrics = builtin_metrics()
        assert drift_report(narrow, metrics) == drift_report(wide, metrics)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.integers(1, 4), dims(), st.integers(1, 8), seeds)
    def test_fit_codebook_and_quantize(self, frames, hwc, k, seed):
        narrow, wide = widths(frames, *hwc, seed)
        try:
            expected = fit_codebook([wide], k, seed=seed, max_iters=5)
        except InsufficientData:
            with pytest.raises(InsufficientData):
                fit_codebook([narrow], k, seed=seed, max_iters=5)
            return
        got = fit_codebook([narrow], k, seed=seed, max_iters=5)
        assert got.centroids.tobytes() == expected.centroids.tobytes()
        assert got.fit_stats == expected.fit_stats
        indices = quantize(narrow, expected).indices
        assert indices.tobytes() == quantize(wide, expected).indices.tobytes()
        assert indices.dtype == quantize(wide, expected).indices.dtype
