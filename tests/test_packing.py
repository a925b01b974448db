import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ctxpack import packing
from ctxpack.budget import TAIL_KERNEL, tokens_for_entry, tokens_for_schedule
from ctxpack.errors import (
    ExcessHistory,
    IndivisibleDims,
    InvalidSchedule,
    PlanError,
    ShortHistory,
    UnsupportedKernel,
)
from ctxpack.importance import sort_by_importance
from ctxpack.packing import (
    KernelResolution,
    LatentVideo,
    _bind,
    _pack,
    _packed,
    _pool_block,
    apply_schedule,
    resolve_kernel,
)
from ctxpack.planner import Span, plan_endpoint, plan_inverted, plan_multi_endpoint, plan_vanilla
from ctxpack.schedule import (
    BASE_KERNEL,
    Frames,
    Generate,
    KernelSpec,
    PackingSchedule,
    Skip,
    Tail,
    TailMode,
    parse_schedule,
)
from packing_oracle import apply_schedule_oracle, in_order_sum, pool
from planner_oracle import bind_backward, bind_forward


def rng(seed=0):
    return np.random.default_rng(seed)


def video(t, h=64, w=64, c=3, seed=0):
    return LatentVideo(rng(seed).normal(size=(t, h, w, c)))


def constant_video(t, h, w, c, value):
    return LatentVideo(np.full((t, h, w, c), float(value)))


def entry_block(frames, kernel, *, pad_spatial=False):
    """The one entry block of an ``f{p}k…_g1`` pack: ``frames`` pooled as
    one kernel group."""
    schedule = parse_schedule(f"f{kernel.p_f}{kernel.token}_g1")
    return apply_schedule(frames, schedule, pad_spatial=pad_spatial).blocks[0]


def history_blocks(ctx):
    """The entry and tail blocks: those outside the generated section."""
    a, b = ctx.generate_span
    return [blk for blk in ctx.blocks if blk.time_span[1] <= a or blk.time_span[0] >= b]


def tail_blocks(ctx):
    a, b = ctx.tail_span
    return [blk for blk in ctx.blocks if a <= blk.time_span[0] and blk.time_span[1] <= b]


def padded_entry(data, entry, span, before):
    """The frames an entry pools: those of ``span``, with zero frames for
    what it lacks of whole kernel steps at its side's far end, in front
    for an entry ``before`` the generated section and behind for one
    after it."""
    p_f = entry.kernel.p_f
    zeros = np.zeros((-(-entry.count // p_f) * p_f - span.length, *data.shape[1:]))
    frames = data[span.start : span.stop]
    return np.concatenate([zeros, frames] if before else [frames, zeros])


def pooled_mean_oracle(data, p_f, p_h, p_w, gt, gr, gc):
    """Brute-force mean over one kernel window."""
    window = data[gt * p_f : (gt + 1) * p_f, gr * p_h : (gr + 1) * p_h, gc * p_w : (gc + 1) * p_w]
    return window.reshape(-1, data.shape[-1]).mean(axis=0)


class TestLatentVideo:
    def test_shape_properties(self):
        v = video(3, 8, 6, 2)
        assert (v.frame_count, v.height, v.width, v.channels) == (3, 8, 6, 2)

    def test_empty_time_axis_allowed(self):
        assert LatentVideo(np.zeros((0, 4, 4, 1))).frame_count == 0

    def test_non_finite_rejected(self):
        data = np.zeros((1, 2, 2, 1))
        data[0, 0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            LatentVideo(data)

    def test_wrong_rank_rejected(self):
        with pytest.raises(ValueError):
            LatentVideo(np.zeros((2, 2, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_non_finite_rejected_in_either_width(self, dtype, bad):
        data = np.zeros((3, 2, 2, 1), dtype=dtype)
        data[2, 1, 0, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            LatentVideo(data)

    @pytest.mark.parametrize(
        "source, width",
        [
            (np.ones((2, 3, 3, 2), dtype=np.float32), np.float32),
            (np.ones((2, 3, 3, 2)), np.float64),
            (np.ones((2, 3, 3, 2), dtype=np.float16), np.float64),
            (np.ones((2, 3, 3, 2), dtype=np.int32), np.float64),
            (np.ones((2, 3, 3, 2), dtype=">f4"), np.float64),
            ([[[[1.0]]]], np.float64),
        ],
    )
    def test_snapshot_width(self, source, width):
        v = LatentVideo(source)
        assert v.array.dtype == width
        assert not v.array.flags.writeable
        assert v.array is not source

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int16])
    def test_data_is_read_only_float64(self, dtype):
        source = (rng(3).normal(size=(4, 5, 6, 2)) * 100).astype(dtype)
        v = LatentVideo(source)
        assert v.data.dtype == np.float64
        assert not v.data.flags.writeable
        assert v.data is v.data
        assert v.data.tobytes() == np.array(source, dtype=np.float64).tobytes()
        with pytest.raises(ValueError):
            v.data[0, 0, 0, 0] = 1.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_writes_to_source_do_not_reach_snapshot(self, dtype):
        source = rng(4).normal(size=(20, 8, 8, 2)).astype(dtype)
        original = source.copy()
        schedule = parse_schedule("td_f16k4f2k2f1k1_g9")
        v = LatentVideo(source)
        source[:] = np.nan
        np.testing.assert_array_equal(v.data, original.astype(np.float64))
        got = apply_schedule(v, schedule, pad_history=True)
        expected = apply_schedule(LatentVideo(original), schedule, pad_history=True)
        assert got.features.tobytes() == expected.features.tobytes()

    def test_float32_construction_peak(self):
        # 4 MB of float32: one float32 snapshot plus the finiteness scan,
        # where a float64 copy alone would need twice the payload
        source = np.arange(16 * 64 * 64 * 16, dtype=np.float32).reshape(16, 64, 64, 16)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            v = LatentVideo(source)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * source.nbytes
        assert v.array.tobytes() == source.tobytes()

    def test_float32_pack_peak(self):
        # H and W are whole k8 windows, so the group is pooled where it
        # lies in the snapshot; a float64 copy of it alone would be 4 MiB
        v = LatentVideo(rng(6).normal(size=(8, 64, 64, 16)).astype(np.float32))
        schedule = parse_schedule("f8k8_g1")
        group64 = v.array.size * 8
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            ctx = apply_schedule(v, schedule)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < group64 / 4
        expected = v.data.reshape(8, 4, 16, 4, 16, 16).mean(axis=(0, 2, 4))
        assert ctx.blocks[0].grid.tobytes() == expected.tobytes()


class TestPoolWithoutPadding:
    """A grid with two or more channels is pooled in place: each window's
    sum over the block divided by a whole window's size, bit for bit the
    mean of the zero-padded block."""

    @staticmethod
    def padded_mean(block, kernel):
        t, h, w, c = block.shape
        padded = np.zeros((t, h + -h % kernel.p_h, w + -w % kernel.p_w, c), block.dtype)
        padded[:, :h, :w] = block
        rows, cols = padded.shape[1] // kernel.p_h, padded.shape[2] // kernel.p_w
        windows = padded.reshape(t, rows, kernel.p_h, cols, kernel.p_w, c)
        return windows.mean(axis=(0, 2, 4), dtype=np.float64)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("c", [2, 3, 16])
    @pytest.mark.parametrize("fill", ["normal", "-0.0", "mostly -0.0"])
    def test_matches_zero_padded_mean(self, dtype, c, fill):
        gen = rng(c)
        for kernel in [KernelSpec(1, 2, 2), KernelSpec(2, 3, 5), KernelSpec(4, 8, 8), KernelSpec(3, 16, 1)]:
            for h, w in [(2, 2), (7, 9), (8, 8), (13, 4)]:
                shape = (kernel.p_f, h, w, c)
                block = np.full(shape, -0.0) if fill != "normal" else gen.normal(size=shape)
                if fill == "mostly -0.0":
                    hits = gen.random(shape) < 0.1
                    block[hits] = gen.normal(size=hits.sum())
                block = block.astype(dtype)
                got = _pool_block(block, kernel)
                assert got.tobytes() == self.padded_mean(block, kernel).tobytes()

    def test_large_kernel_peak(self):
        # the zero-padded 64-frame k64 block alone would be 16 MiB with 4
        # channels, and 8 MiB as float64 with one
        for c in (4, 1):
            v = LatentVideo(rng(7).normal(size=(1, 2, 2, c)).astype(np.float32))
            pads = dict(pad_history=True, pad_spatial=True)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                apply_schedule(v, parse_schedule("f64k64_g1"), **pads)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert peak < 64 << 10, c
            ctx = apply_schedule(v, parse_schedule("f512k512_g1"), **pads)
            expected = v.data.sum(axis=(0, 1, 2)) / (512 * 1024 * 1024)
            np.testing.assert_allclose(ctx.blocks[0].grid[0, 0], expected, rtol=1e-12)

    @pytest.mark.parametrize("name", ["f16k4_g1", "f64k64_g1", "f512k512_g1"])
    def test_padded_frame_peak(self, name):
        # the entry holds one frame of its kernel step; built whole with its
        # zero frames, that step alone would be 6 to 195 MiB of float32
        x = rng(8).normal(size=(1, 60, 104, 16)).astype(np.float32)
        pads = dict(pad_history=True, pad_spatial=True)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            apply_schedule(x, parse_schedule(name), **pads)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def numpy_window_means(block, kernel, clipped):
    """The grids ``_pool_block`` pools, window by window: each window's
    pixels in memory order (frame, row, column) summed by ``in_order_sum``,
    numpy's ``cumsum``, as numpy's own window sum is pairwise for one
    channel."""
    t, h, w, c = block.shape
    p_f, p_h, p_w = kernel.dims
    grids = np.empty((t // p_f, -(-h // p_h), -(-w // p_w), c))
    for g in range(grids.shape[0]):
        for i, r0 in enumerate(range(0, h, p_h)):
            for j, c0 in enumerate(range(0, w, p_w)):
                window = block[g * p_f : (g + 1) * p_f, r0 : r0 + p_h, c0 : c0 + p_w]
                pixels = window.reshape(-1, c)
                grids[g, i, j] = in_order_sum(pixels) / (len(pixels) if clipped else p_f * p_h * p_w)
    return grids


@st.composite
def window_cases(draw):
    """A block of one or more channels, a kernel, a divisor rule and the
    zero frames ``(before, after)`` for ``_pool_block``.

    The kernels reach every way a band of windows is copied: whole, in runs
    of frames (k4 and k8 bands), of window rows (the 32x32 tail windows) and
    of pixels (a 2048-pixel window row); k8 at C >= 16 is a window larger
    than the buffer. H and W leave clipped last runs in about half the draws.
    A quarter of the blocks are one step of one channel, whose table would
    be a lone column without its spare zeros. Half the blocks have zero to
    two steps of zero frames on each side, whole steps in total, so their
    frames leave clipped first and last steps and steps of no frame; only
    the others may divide by the pixels a window holds.
    """
    kernel = draw(
        st.sampled_from(
            [
                KernelSpec(1, 2, 2),
                KernelSpec(2, 3, 5),
                KernelSpec(4, 8, 8),
                KernelSpec(8, 16, 16),
                TAIL_KERNEL,
                KernelSpec(1, 1, 2048),
            ]
        )
    )
    if draw(st.sampled_from([False, False, False, True])):
        h = draw(st.integers(1, kernel.p_h))
        w = draw(st.integers(1, min(kernel.p_w, 40)))
        steps, shape = 1, (h, w, 1)
    else:
        h = draw(st.integers(0, 2)) * kernel.p_h + draw(st.integers(0, kernel.p_h - 1))
        w = draw(st.integers(0, 2)) * kernel.p_w + draw(st.integers(0, min(kernel.p_w - 1, 40)))
        steps, shape = draw(st.integers(1, 2)), (max(h, 1), max(w, 1), draw(st.integers(1, 17)))
    p_f = kernel.p_f
    frames, pad = steps * p_f, (0, 0)
    if draw(st.booleans()):
        frames = draw(st.integers(0, steps * p_f))
        before = draw(st.integers(0, 2 * p_f))
        rest = -(before + frames) % p_f
        pad = (before, rest + p_f * draw(st.integers(0, (2 * p_f - rest) // p_f)))
    shape = (frames, *shape)
    gen = rng(draw(st.integers(0, 2**32 - 1)))
    block = gen.normal(size=shape) * 2.0 ** gen.integers(-60, 61, size=shape)
    block[gen.random(shape) < draw(st.sampled_from([0.0, 0.2, 0.9]))] = -0.0
    # a window of nothing but -0.0 sums to +0.0
    block[: kernel.p_f, : kernel.p_h, : kernel.p_w] = -0.0
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    clipped = draw(st.booleans()) if pad == (0, 0) else False
    return block.astype(dtype), kernel, clipped, pad


class TestWindowSums:
    """Windows of any channel count are summed through a bounded band
    buffer, each window's pixels added one at a time in memory order, from
    +0.0. Zero frames around a block pool as if they were there."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(window_cases())
    def test_matches_numpy_window_sums(self, case):
        block, kernel, clipped, pad = case
        got = _pool_block(block, kernel, clipped=clipped, pad=pad)
        padded = np.pad(block, (pad, (0, 0), (0, 0), (0, 0)))
        assert got.tobytes() == numpy_window_means(padded, kernel, clipped).tobytes()


class TestResolveKernel:
    def test_identity(self):
        assert resolve_kernel(KernelSpec(1, 2, 2)) == KernelResolution((1, 1, 1), KernelSpec(1, 2, 2))

    def test_one_level_beyond_learned(self):
        assert resolve_kernel(KernelSpec(16, 32, 32)) == KernelResolution(
            (2, 2, 2), KernelSpec(8, 16, 16)
        )

    def test_two_levels_beyond_learned(self):
        assert resolve_kernel(KernelSpec(32, 64, 64)) == KernelResolution(
            (4, 4, 4), KernelSpec(8, 16, 16)
        )

    def test_learned_kernels_resolve_to_themselves(self):
        for n in (1, 2, 4, 8):
            res = resolve_kernel(KernelSpec.simplified(n))
            assert res.downsample == (1, 1, 1)
            assert res.physical == KernelSpec.simplified(n)

    def test_downsample_times_physical_recovers_request(self):
        for n in (1, 2, 4, 8, 16, 32, 64, 512):
            requested = KernelSpec.simplified(n)
            res = resolve_kernel(requested)
            recovered = (
                res.downsample[0] * res.physical.p_f,
                res.downsample[1] * res.physical.p_h,
                res.downsample[2] * res.physical.p_w,
            )
            assert recovered == requested.dims

    def test_sub_base_kernel_unsupported(self):
        with pytest.raises(UnsupportedKernel):
            resolve_kernel(KernelSpec(1, 1, 1))
        with pytest.raises(UnsupportedKernel):
            resolve_kernel(KernelSpec(1, 2, 1))


class TestEntryPooling:
    """One kernel group pooled through a ``td_f{p}k…_g1`` pack."""

    def test_constant_video_gives_constant_features(self):
        for kernel in [KernelSpec(1, 2, 2), KernelSpec(2, 4, 4), KernelSpec(4, 8, 8)]:
            block = entry_block(constant_video(kernel.p_f, 16, 16, 3, 2.5), kernel)
            assert np.allclose(block.grid, 2.5)

    def test_single_window_mean(self):
        v = LatentVideo(np.array([[[ [1.0], [2.0]], [[3.0], [4.0]]]]))  # 1x2x2x1
        block = entry_block(v, KernelSpec(1, 2, 2))
        assert block.size == 1
        assert block.grid[0, 0, 0] == pytest.approx(2.5)

    def test_token_count(self):
        assert entry_block(video(4), KernelSpec(4, 8, 8)).size == 64

    def test_features_match_brute_force(self):
        kernel = KernelSpec(2, 4, 4)
        v = video(2, 8, 8, 3, seed=5)
        block = entry_block(v, kernel)
        assert block.grid.shape == (2, 2, 3)
        for r in range(2):
            for c in range(2):
                expected = pooled_mean_oracle(v.data, 2, 4, 4, 0, r, c)
                np.testing.assert_allclose(block.grid[r, c], expected, atol=1e-12)

    def test_linearity(self):
        kernel = KernelSpec(2, 4, 4)
        a, b = 2.5, -1.25
        v1, v2 = video(2, 8, 8, 2, seed=1), video(2, 8, 8, 2, seed=2)
        combined = LatentVideo(a * v1.data + b * v2.data)
        g1, g2 = entry_block(v1, kernel).grid, entry_block(v2, kernel).grid
        np.testing.assert_allclose(entry_block(combined, kernel).grid, a * g1 + b * g2, atol=1e-9)

    def test_indivisible_dims(self):
        with pytest.raises(IndivisibleDims):
            entry_block(video(1, 60, 104), KernelSpec(1, 8, 8))

    def test_zero_pad_opt_in(self):
        block = entry_block(video(1, 60, 104), KernelSpec(1, 8, 8), pad_spatial=True)
        assert block.size == 8 * 13

    def test_provenance(self):
        ctx = apply_schedule(video(12, 8, 8), parse_schedule("td_f2k2_g1"))
        tokens = ctx.tokens[:4]
        assert ctx.blocks[0].time_span == (10, 12)
        assert tokens[0].time_span == (10, 12)
        assert tokens[0].phase == (10.5, 1.5, 1.5)
        assert [t.cell for t in tokens] == [(0, 0), (0, 1), (1, 0), (1, 1)]


class TestTailModes:
    """Each tail mode through ``td_g1``, ``ta_g1`` and ``tc_g1`` packs."""

    def test_delete(self):
        ctx = apply_schedule(video(5), parse_schedule("td_g1"))
        assert ctx.tail_span == (0, 5)
        assert tail_blocks(ctx) == []

    def test_append_token_count(self):
        blocks = tail_blocks(apply_schedule(video(3), parse_schedule("ta_g1")))
        assert [b.size for b in blocks] == [2 * 2] * 3
        assert [b.time_span for b in blocks] == [(0, 1), (1, 2), (2, 3)]
        assert blocks[0].kernel == KernelSpec(1, 32, 32)

    def test_append_clipped_windows_preserve_constants(self):
        v = constant_video(2, 40, 50, 2, -3.0)
        blocks = tail_blocks(apply_schedule(v, parse_schedule("ta_g1")))
        # ceil(40/32) * ceil(50/32) per frame
        assert [b.grid.shape for b in blocks] == [(2, 2, 2)] * 2
        for block in blocks:
            assert np.allclose(block.grid, -3.0)

    def test_compress_constant(self):
        # the entry takes the newest 4 frames and sets the coarsest kernel
        v = constant_video(12, 64, 64, 3, 1.5)
        (block,) = tail_blocks(apply_schedule(v, parse_schedule("tc_f4k4_g1")))
        assert block.kernel == KernelSpec(4, 8, 8)
        assert block.size == 64
        assert np.allclose(block.grid, 1.5)
        assert block.time_span == (0, 8)

    def test_compress_matches_two_step_oracle(self):
        # f1k1 binds frame 0 and f2k2 frames 1..3, so the tail is frames
        # 3..7, packed after them at times 4..8
        v = video(7, 16, 16, 2, seed=9)
        ctx = apply_schedule(v, parse_schedule("f1k1_g1_f2k2_tc"))
        (block,) = tail_blocks(ctx)
        assert block.kernel == KernelSpec(2, 4, 4)
        averaged = v.data[3:].mean(axis=0, keepdims=True)
        for r in range(4):
            for c in range(4):
                expected = pooled_mean_oracle(averaged, 1, 4, 4, 0, r, c)
                np.testing.assert_allclose(block.grid[r, c], expected, atol=1e-12)
        assert block.time_span == ctx.tail_span == (4, 8)

    def test_empty_tail(self):
        ctx = apply_schedule(video(0), parse_schedule("ta_g1"))
        assert ctx.tail_span == (0, 0)
        assert history_blocks(ctx) == []

    def test_compress_defaults_to_base_kernel(self):
        # a schedule without entries compresses its tail at the base kernel
        v = video(3, 6, 10, 2, seed=4)
        (block,) = tail_blocks(apply_schedule(v, parse_schedule("tc_g1")))
        assert block.kernel == BASE_KERNEL
        assert block.size == 15
        averaged = v.data.mean(axis=0, keepdims=True)
        expected = averaged.reshape(1, 3, 2, 5, 2, 2).mean(axis=(0, 2, 4))
        np.testing.assert_allclose(block.grid, expected, atol=1e-12)


class TestApplySchedule:
    def test_exact_capacity(self):
        s = parse_schedule("td_f16k4f2k2f1k1_g9")
        ctx = apply_schedule(video(19), s)
        assert ctx.tail_frame_count == 0
        assert sum(b.size for b in history_blocks(ctx)) == 1536 == 256 + 256 + 1024
        assert ctx.budget == len(ctx.tokens) == tokens_for_schedule(s, 64, 64, 0) == 10752

    def test_no_tail_marker_counts_no_tail_frames(self):
        ctx = apply_schedule(video(1, 8, 8), parse_schedule("f1k1_g1"))
        assert ctx.tail_span is None
        assert ctx.tail_frame_count == 0

    def test_long_history_feeds_tail(self):
        s = parse_schedule("td_f16k4f2k2f1k1_g9")
        ctx = apply_schedule(video(100), s)
        assert ctx.tail_frame_count == 81
        assert sum(b.size for b in history_blocks(ctx)) == 1536
        assert ctx.budget == tokens_for_schedule(s, 64, 64, 81)

    def test_empty_history(self):
        ctx = apply_schedule(video(0), parse_schedule("td_g9"))
        assert history_blocks(ctx) == []
        assert ctx.budget == 9 * 1024

    def test_newest_frames_go_to_finest_entry(self):
        s = parse_schedule("td_f16k4f2k2f1k1_g9")
        v = video(30, 8, 8, 1, seed=3)
        ctx = apply_schedule(v, s)
        (finest,) = [b for b in history_blocks(ctx) if b.kernel == KernelSpec(1, 2, 2)]
        assert finest.grid.shape == (4, 4, 1)
        expected = pooled_mean_oracle(v.data[29:30], 1, 2, 2, 0, 0, 0)
        np.testing.assert_allclose(finest.grid[0, 0], expected, atol=1e-12)

    def test_history_timeline_is_disjoint_and_complete(self):
        s = parse_schedule("td_f16k4f2k2f1k1_g9")
        ctx = apply_schedule(video(25), s)
        spans = {b.time_span for b in history_blocks(ctx)}
        covered = sorted(i for a, b in spans for i in range(a, b))
        # tail occupies [0, 6); entries cover [6, 25); generate is [25, 34)
        assert ctx.tail_span == (0, 6)
        assert covered == list(range(6, 25))
        assert ctx.generate_span == (25, 34)

    def test_short_history_raises(self):
        with pytest.raises(ShortHistory):
            apply_schedule(video(10), parse_schedule("td_f16k4f2k2f1k1_g9"))

    def test_short_history_pads_with_zero_frames(self):
        s = parse_schedule("td_f16k4f2k2f1k1_g9")
        v = video(10, 8, 8, 1, seed=4)
        ctx = apply_schedule(v, s, pad_history=True)
        assert ctx.budget == tokens_for_schedule(s, 8, 8, 0)
        # f16k4 binds frames 0..7 and lacks 9: zero frames 0..9 of its 16,
        # so its group 8..12 is one zero frame and frames 0..3
        coarse = {b.time_span: b for b in history_blocks(ctx) if b.kernel == KernelSpec(4, 8, 8)}
        assert not coarse[(0, 4)].grid.any() and not coarse[(4, 8)].grid.any()
        expected = v.data[0:3].sum(axis=(0, 1, 2)) / (4 * 8 * 8)
        np.testing.assert_allclose(coarse[(8, 12)].grid[0, 0], expected, atol=1e-12)

    def test_empty_history_pads_as_zero_frames(self):
        s = parse_schedule("td_f1k1_g1")
        ctx = apply_schedule(video(0), s, pad_history=True)
        assert ctx.budget == tokens_for_schedule(s, 64, 64, 0)
        assert not ctx.features.any()

    @pytest.mark.parametrize(
        "name,frames",
        [
            ("f1k1_x_g9_f1k1f4k2_td", 1),
            ("td_f2k1_g1_x_f1k1", 1),
            ("f1k1_x_g9_f1k1_td", 0),
        ],
    )
    def test_padding_never_crosses_sides(self, name, frames):
        # one side binds no frame at all and packs as zero frames; the other
        # side's frame, if any, stays in its generate-adjacent f1k1 entry
        v = video(frames, 8, 8, 1)
        ctx = apply_schedule(v, parse_schedule(name), pad_history=True)
        a, b = ctx.generate_span
        before = [blk for blk in history_blocks(ctx) if blk.time_span[1] <= a]
        after = [blk for blk in history_blocks(ctx) if blk.time_span[0] >= b]
        assert sum(blk.grid.any() for blk in before + after) == frames
        for blk in (*before[-1:], *after[:1]):
            if blk.grid.any():
                assert blk.grid.tobytes() == pool(v.data[:1], blk.kernel, False).tobytes()

    @pytest.mark.parametrize("name,frames", [("f2k2h1w1_g1", 2), ("f1k1_x_g1_f1k1h2w1", 2)])
    def test_sub_base_kernel_rejected(self, name, frames):
        for pad in (False, True):
            with pytest.raises(UnsupportedKernel):
                apply_schedule(
                    video(frames, 8, 8, 1), parse_schedule(name), pad_history=pad, pad_spatial=pad
                )

    @pytest.mark.parametrize("mode", ["td", "ta", "tc"])
    def test_tail_at_end_needs_a_post_entry(self, mode):
        # plan feeds f1k1 the newest frame (INPUTS 17..18); a tail at the
        # end would take that frame and leave the entry the oldest one
        s = parse_schedule(f"f1k1_g9_{mode}")
        for pad in (False, True):
            with pytest.raises(InvalidSchedule, match="after the generated section"):
                apply_schedule(video(18, 8, 8, 1), s, pad_history=pad, pad_spatial=pad)

    def test_discretized_schedule_rejected(self):
        s = parse_schedule("td_f1k1_g9+D")
        with pytest.raises(InvalidSchedule, match=r"quantize.*'td_f1k1_g9'$"):
            apply_schedule(video(5, 8, 8, 1), s, pad_history=True)

    def test_excess_history_without_tail(self):
        with pytest.raises(ExcessHistory):
            apply_schedule(video(5), parse_schedule("f1k1_g1"))

    def test_inverted_consumption(self):
        s = parse_schedule("f1k1_x_g9_f1k1f4k2f16k4_td")
        v = video(40, 8, 8, 1, seed=6)
        ctx = apply_schedule(v, s)
        # 1 user frame + 21 future frames consumed, 18 newest deleted
        assert ctx.tail_frame_count == 18
        assert ctx.generate_span == (1, 10)
        assert ctx.tail_span == (31, 49)
        first = min(history_blocks(ctx), key=lambda b: b.time_span)
        expected = pooled_mean_oracle(v.data[0:1], 1, 2, 2, 0, 0, 0)
        np.testing.assert_allclose(first.grid[0, 0], expected, atol=1e-12)

    def test_endpoint_schedule_binds_newest_to_post_entry(self):
        s = parse_schedule("td_f16k4f2k2f1k1_g9_x_f1k1")
        v = video(20, 8, 8, 1, seed=7)
        ctx = apply_schedule(v, s)
        assert ctx.tail_frame_count == 0
        post = max(history_blocks(ctx), key=lambda b: b.time_span)
        expected = pooled_mean_oracle(v.data[19:20], 1, 2, 2, 0, 0, 0)
        np.testing.assert_allclose(post.grid[0, 0], expected, atol=1e-12)

    def test_round_up_zero_frame_sits_at_the_far_end(self):
        # each f3k2 pools two groups of two frames: the one zero frame
        # comes first before the generated section and last after it
        v = video(6, 8, 8, 1, seed=5)
        ctx = apply_schedule(v, parse_schedule("td_f3k2_g1_x_f3k2"), pad_history=True)
        zero = np.zeros((1, 8, 8, 1))
        groups = [(zero, v.data[0:1]), (v.data[1:3],), (v.data[3:5],), (v.data[5:6], zero)]
        blocks = history_blocks(ctx)
        assert len(blocks) == len(groups)
        for blk, group in zip(blocks, groups):
            assert blk.grid.tobytes() == pool(np.concatenate(group), blk.kernel, False).tobytes()

    def test_overflowing_sum_is_named(self):
        with pytest.raises(ValueError, match="^pooled values overflow float64; rescale"):
            apply_schedule(np.full((2, 4, 4, 2), 1e308), parse_schedule("f2k2_g1"))

    @pytest.mark.parametrize("name", ["td_f4k2f1k1_g2", "ta_f4k2f1k1_g2", "tc_f4k2f1k1_g2"])
    def test_constant_conservation(self, name):
        s = parse_schedule(name)
        ctx = apply_schedule(constant_video(12, 32, 32, 2, 7.25), s)
        for block in history_blocks(ctx):
            assert np.allclose(block.grid, 7.25)

    def test_generate_placeholders_are_zero_at_base_kernel(self):
        ctx = apply_schedule(video(1, 8, 8), parse_schedule("td_f1k1_g2"))
        a, b = ctx.generate_span
        gen = [blk for blk in ctx.blocks if a <= blk.time_span[0] and blk.time_span[1] <= b]
        assert [blk.size for blk in gen] == [16, 16]
        assert all(blk.kernel == KernelSpec(1, 2, 2) for blk in gen)
        assert all(not blk.grid.any() for blk in gen)

    def test_budget_matches_accounting_with_spatial_pad(self):
        s = parse_schedule("td_f4k2f1k1_g1")
        ctx = apply_schedule(video(5, 30, 50), s, pad_spatial=True)
        assert ctx.budget == tokens_for_schedule(s, 30, 50, 0, pad=True)

    def test_indivisible_entry_count(self):
        s = parse_schedule("td_f3k2_g1")
        with pytest.raises(IndivisibleDims):
            apply_schedule(video(3), s)
        ctx = apply_schedule(video(3), s, pad_history=True)
        assert ctx.budget == tokens_for_schedule(s, 64, 64, 0, pad=True)

    @pytest.mark.parametrize(
        "name, bound",
        [
            ("td_f16k4f2k2f1k1_g9", (41, 60)),
            ("f1k1_x_g9_f1k1f2k2f16k4_td", (0, 20)),
            ("ta_f16k4f2k2f1k1_g9", (41, 60)),
            ("f1k1_x_g9_f1k1f2k2f16k4_tc", (0, 20)),
        ],
    )
    def test_reached_frames_pack_as_the_whole_history(self, name, bound):
        # the first read is the bound range, served from a snapshot of it alone
        s = parse_schedule(name)
        whole = video(60, 8, 8, 2, seed=4)
        part = LatentVideo(whole.array[slice(*bound)])
        reads = []

        def read(start, stop):
            reads.append((start, stop))
            return part.array if len(reads) == 1 else whole.array[start:stop]

        got = _packed(whole.array.shape, read, s, False, False)
        want = apply_schedule(whole, s)
        assert reads[0] == bound
        assert got.features.tobytes() == want.features.tobytes()
        assert [b.time_span for b in got.blocks] == [b.time_span for b in want.blocks]
        assert got.tail_span == want.tail_span


class TestSymmetricSchedule:
    """A half-progression mirrored around the generated section."""

    @staticmethod
    def mirrored(half, generate_count):
        return PackingSchedule((*half, Generate(generate_count), *reversed(half)))

    def test_mirrors_around_generate(self):
        half = [Frames(1, KernelSpec.simplified(1)), Frames(2, KernelSpec.simplified(2))]
        s = self.mirrored(half, 9)
        assert s.segments == (
            half[0],
            half[1],
            Generate(9),
            half[1],
            half[0],
        )

    def test_single_entry_mirror(self):
        half = [Frames(1, KernelSpec.simplified(1))]
        s = self.mirrored(half, 1)
        assert [seg for seg in s.segments if isinstance(seg, Frames)] == half * 2

    def test_budget_doubles(self):
        half = [Frames(1, KernelSpec.simplified(1)), Frames(4, KernelSpec.simplified(2))]
        s = self.mirrored(half, 9)
        half_tokens = sum(tokens_for_entry(e.count, e.kernel, 64, 64) for e in half)
        mirrored_tokens = sum(
            tokens_for_entry(e.count, e.kernel, 64, 64) for e in s.frames_entries
        )
        assert mirrored_tokens == 2 * half_tokens

    def test_packs_with_exact_capacity(self):
        half = [Frames(2, KernelSpec.simplified(1)), Frames(4, KernelSpec.simplified(2))]
        s = self.mirrored(half, 3)
        ctx = apply_schedule(video(12, 16, 16), s)
        assert ctx.budget == tokens_for_schedule(s, 16, 16, 0)


PROPERTY_KERNELS = [KernelSpec(1, 2, 2), KernelSpec(2, 4, 4), KernelSpec(4, 8, 8), KernelSpec(2, 2, 2)]


@st.composite
def vanilla_cases(draw):
    entries = draw(
        st.lists(
            st.builds(Frames, st.integers(1, 6), st.sampled_from(PROPERTY_KERNELS)),
            min_size=1,
            max_size=3,
        )
    )
    tail = Tail(draw(st.sampled_from(list(TailMode))))
    section = draw(st.integers(1, 3))
    schedule = PackingSchedule((tail, *entries, Generate(section)))
    total = draw(st.integers(1, 14))
    seed = draw(st.integers(0, 2**16))
    return schedule, section, video(total, 8, 8, 2, seed=seed)


@st.composite
def anchored_cases(draw):
    """An endpoint, inverted or multi-endpoint plan of a schedule with one to
    three entries on each side of its generated section, any tail, and a
    history of the plan's length."""
    entries = st.lists(
        st.builds(Frames, st.integers(1, 6), st.sampled_from(PROPERTY_KERNELS)),
        min_size=1,
        max_size=3,
    )
    near, far = draw(entries), draw(entries)
    tail = Tail(draw(st.sampled_from(list(TailMode))))
    generate = Generate(draw(st.integers(1, 3)))
    section, units = draw(st.integers(1, 3)), draw(st.integers(3, 6))
    total = section * units
    mode = draw(st.sampled_from(["endpoint", "inverted", "multi-endpoint"]))
    if mode == "inverted":
        schedule = PackingSchedule((*far, Skip(), generate, *near, tail))
        user = draw(st.integers(1, min(3, total - 1)))
        plan = plan_inverted(total, section, schedule, user_frames=user)
    else:
        schedule = PackingSchedule((tail, *near, generate, Skip(), *far))
        if mode == "endpoint":
            plan = plan_endpoint(total, section, schedule)
        else:
            # an anchor after two sections or more, so that a gap section
            # sees frames on both sides
            later = st.lists(st.integers(2, units - 1), min_size=1, max_size=2, unique=True)
            picked = [0] * draw(st.booleans()) + draw(later)
            anchors = [(u * section, (u + 1) * section) for u in picked]
            try:
                plan = plan_multi_endpoint(total, section, schedule, anchors)
            except PlanError:
                assume(False)
    return plan, video(plan.total_frames, 8, 8, 2, seed=draw(st.integers(0, 2**16)))


class TestPlannerBindingProperty:
    """Every plan iteration packs the frames its INPUTS name."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(vanilla_cases())
    def test_entries_pool_their_planner_spans(self, case):
        schedule, section, history = case
        plan = plan_vanilla(history.frame_count, section, schedule, allow_partial=True)
        for it in plan.iterations:
            prefix = LatentVideo(history.data[: it.targets[0].start])
            ctx = apply_schedule(prefix, schedule, pad_history=True)
            assert ctx.tail_frame_count == it.inputs[0].span.start
            entry_tokens = iter(
                t
                for t in ctx.tokens
                if ctx.tail_span[1] <= t.time_span[0] and t.time_span[1] <= ctx.generate_span[0]
            )
            for entry, binding in zip(schedule.frames_entries, it.inputs):
                k = entry.kernel
                frames = padded_entry(prefix.data, entry, binding.span, before=True)
                for gt in range(len(frames) // k.p_f):
                    for gr in range(8 // k.p_h):
                        for gc in range(8 // k.p_w):
                            token = next(entry_tokens)
                            assert token.kernel == k
                            np.testing.assert_allclose(
                                token.feature,
                                pooled_mean_oracle(frames, k.p_f, k.p_h, k.p_w, gt, gr, gc),
                                atol=1e-12,
                            )
            assert next(entry_tokens, None) is None

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(vanilla_cases(), st.booleans())
    def test_pack_of_plan_iteration_is_apply_schedule(self, case, pad_spatial):
        schedule, section, history = case
        plan = plan_vanilla(history.frame_count, section, schedule, allow_partial=True)
        for it in plan.iterations:
            prefix = LatentVideo(history.array[: it.targets[0].start])
            want = apply_schedule(prefix, schedule, pad_history=True, pad_spatial=pad_spatial)
            # the tail holds the frames before the plan's oldest input
            bound = (it.inputs[0].span.start, it.inputs[-1].span.stop)
            got = _pack(lambda a, b: prefix.array[a:b], schedule, it, bound, (0, bound[0]))
            assert self.packed(got) == self.packed(want)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(anchored_cases())
    def test_anchored_entries_pool_their_planner_spans(self, case):
        # the bound range of an iteration is read once, gap and all
        plan, history = case
        schedule = plan.schedule
        n_pre = len(schedule.entries_before_generate)
        for it in plan.iterations:
            spans = [b.span for b in it.inputs]
            bound = (spans[0].start, spans[-1].stop)
            tail = (0, bound[0]) if schedule.tail_at_start else (bound[1], plan.total_frames)
            reads = []

            def read(start, stop):
                reads.append((start, stop))
                return history.array[start:stop]

            ctx = _pack(read, schedule, it, bound, tail)
            assert reads[0] == bound
            a, b = ctx.generate_span
            generated = [blk for blk in ctx.blocks if a <= blk.time_span[0] < b]
            assert len(generated) == schedule.generate.count
            assert all(blk.kernel == BASE_KERNEL and not blk.grid.any() for blk in generated)
            t0, t1 = ctx.tail_span
            blocks = iter(
                blk
                for blk in history_blocks(ctx)
                if not (t0 <= blk.time_span[0] and blk.time_span[1] <= t1)
            )
            for n, (entry, span) in enumerate(zip(schedule.frames_entries, spans)):
                frames = padded_entry(history.data, entry, span, before=n < n_pre)
                for g in range(0, len(frames), entry.kernel.p_f):
                    blk = next(blocks)
                    assert blk.kernel == entry.kernel
                    want = pool(frames[g : g + entry.kernel.p_f], entry.kernel, False)
                    np.testing.assert_allclose(blk.grid, want, atol=1e-12)
            assert next(blocks, None) is None

    @staticmethod
    def packed(ctx):
        """Every field of a packed context, with each grid as its bytes."""
        blocks = [
            (b.time_span, b.kernel, b.time_phase, b.row_phases, b.col_phases, b.grid.tobytes())
            for b in ctx.blocks
        ]
        return ctx.budget, ctx.generate_span, ctx.tail_span, ctx.schedule, blocks


@st.composite
def short_cases(draw):
    """A vanilla, inverted, endpoint or unclassified schedule whose entry
    counts are whole kernel steps, a history of 0 to capacity - 1 frames
    of either float width, and a ``pad_spatial`` flag: without it the
    frames are 8x8, which every kernel divides."""
    entry = st.builds(
        lambda n, k: Frames(n * k.p_f, k), st.integers(1, 3), st.sampled_from(PROPERTY_KERNELS)
    )
    entries = st.lists(entry, min_size=1, max_size=3)
    near, far = draw(entries), draw(entries)
    tail, generate = Tail(draw(st.sampled_from(list(TailMode)))), Generate(draw(st.integers(1, 3)))
    segments = draw(
        st.sampled_from(
            [
                (tail, *near, generate),
                (*far, Skip(), generate, *near, tail),
                (tail, *near, generate, Skip(), *far),
                (*near, generate, *far),
            ]
        )
    )
    schedule = PackingSchedule(segments)
    pad_spatial = draw(st.booleans())
    h, w = (draw(st.integers(1, 9)), draw(st.integers(1, 9))) if pad_spatial else (8, 8)
    capacity = sum(e.count for e in schedule.frames_entries)
    shape = (draw(st.integers(0, capacity - 1)), h, w, draw(st.integers(1, 3)))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    history = rng(draw(st.integers(0, 2**16))).normal(size=shape).astype(dtype)
    return schedule, history, pad_spatial


class TestZeroFramePadding:
    """A padded pack is the unpadded pack of the history with zero frames
    on each side for the frames that side lacks."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(short_cases())
    def test_padded_pack_is_the_pack_of_zero_frames(self, case):
        schedule, history, pad_spatial = case
        _, middle, (lo, hi) = _bind(schedule, len(history))
        before = sum(e.count for e in schedule.entries_before_generate) - (middle - lo)
        after = sum(e.count for e in schedule.entries_after_generate) - (hi - middle)
        zero_framed = np.pad(history, ((before, after), (0, 0), (0, 0), (0, 0)))
        got = apply_schedule(history, schedule, pad_history=True, pad_spatial=pad_spatial)
        want = apply_schedule(zero_framed, schedule, pad_spatial=pad_spatial)
        assert got.features.tobytes() == want.features.tobytes()
        packed = TestPlannerBindingProperty.packed
        assert packed(got) == packed(want)


ORACLE_KERNELS = [
    KernelSpec(1, 2, 2),
    KernelSpec(2, 4, 4),
    KernelSpec(4, 8, 8),
    KernelSpec(2, 2, 2),
    KernelSpec(1, 4, 2),
    KernelSpec(2, 8, 4),
]


@st.composite
def packing_cases(draw):
    """A schedule with its tail at the start, at the end or absent, and a
    history whose dims need not divide by the kernels or by 32."""
    entries = st.lists(
        st.builds(Frames, st.integers(1, 5), st.sampled_from(ORACLE_KERNELS)),
        max_size=3,
    )
    tail = [Tail(draw(st.sampled_from(list(TailMode))))]
    generate = Generate(draw(st.integers(1, 2)))
    layout = draw(st.sampled_from(["start", "end", "none"]))
    pre = draw(entries)
    post = draw(entries.filter(bool)) if layout == "end" else draw(entries)
    # a gap before the generated section (inverted) or after it (endpoint)
    gap = [Skip()] if post and draw(st.booleans()) else []
    body = [*pre, *gap, generate, *post] if draw(st.booleans()) else [*pre, generate, *gap, *post]
    segments = {"start": tail + body, "end": body + tail, "none": body}[layout]
    h = draw(st.integers(1, 24))
    w = draw(st.integers(1, 40))
    c = draw(st.integers(1, 3))
    capacity = sum(e.count for e in (*pre, *post))
    spare = 6 if layout != "none" else 0
    total = max(0, capacity + draw(st.integers(-3, spare)))
    seed = draw(st.integers(0, 2**16))
    # mostly padded, so most cases pack rather than raise
    mostly = st.sampled_from([True, True, True, False])
    return (
        PackingSchedule(tuple(segments)),
        video(total, h, w, c, seed=seed),
        draw(mostly),
        draw(mostly),
    )


@st.composite
def binding_cases(draw):
    """A schedule of any sampling mode, its tail at the start, at the end or
    absent and its gap before, after or without the generated section, with
    a history length around its capacity."""
    entries = st.lists(
        st.builds(Frames, st.integers(1, 5), st.sampled_from(ORACLE_KERNELS)),
        max_size=3,
    )
    layout = draw(st.sampled_from(["start", "end", "none"]))
    pre = draw(entries)
    # a tail at the end needs an entry after the generated section; a
    # vanilla schedule has none
    post = draw(entries.filter(bool) if layout == "end" else st.just([]) | entries)
    gap = draw(st.sampled_from(["before", "after", "none"]))
    skip_before, skip_after = [Skip()] * (gap == "before"), [Skip()] * (gap == "after")
    body = [*pre, *skip_before, Generate(1), *skip_after, *post]
    tail = [Tail(draw(st.sampled_from(list(TailMode))))]
    segments = {"start": tail + body, "end": body + tail, "none": body}[layout]
    capacity = sum(e.count for e in (*pre, *post))
    return PackingSchedule(tuple(segments)), draw(st.integers(0, capacity + 6))


class TestBindMatchesPlannerOracle:
    """The packer binds through the planner's iteration rule: its spans are
    those the reference planner's binders give from the meeting frame."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(binding_cases())
    def test_spans_are_the_oracle_binders_from_the_meeting_frame(self, case):
        schedule, total = case
        pre = schedule.entries_before_generate
        post = schedule.entries_after_generate
        if schedule.tail_at_start:
            middle = max(0, total - sum(e.count for e in post))
        else:
            middle = min(sum(e.count for e in pre), total)
        expected = bind_backward(pre, middle) + bind_forward(post, middle, total)
        iteration, meeting, (lo, hi) = _bind(schedule, total)
        assert meeting == middle
        assert list(iteration.inputs) == expected
        spans = [b.span for b in expected]
        assert (lo, hi) == ((spans[0].start, spans[-1].stop) if spans else (middle, middle))
        has_gap = any(isinstance(seg, Skip) for seg in schedule.segments)
        assert iteration.skip_spans == ((Span(middle, middle),) if has_gap else ())
        assert iteration.targets == ()


class TestBlockPackerOracle:
    """The block packer's token view equals the per-token packer's output."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(packing_cases())
    def test_tokens_match_per_token_oracle(self, case):
        schedule, history, pad_history, pad_spatial = case
        pads = dict(pad_history=pad_history, pad_spatial=pad_spatial)
        try:
            expected, generate_span, tail_span = apply_schedule_oracle(history, schedule, **pads)
        except (ShortHistory, ExcessHistory, IndivisibleDims) as exc:
            with pytest.raises(type(exc)):
                apply_schedule(history, schedule, **pads)
            return
        ctx = apply_schedule(history, schedule, **pads)
        assert (ctx.generate_span, ctx.tail_span) == (generate_span, tail_span)
        assert ctx.budget == len(ctx.tokens) == len(expected)
        for got, ref in zip(ctx.tokens, expected):
            assert got.feature.tobytes() == ref.feature.tobytes()
            assert (got.time_span, got.cell, got.kernel) == (ref.time_span, ref.cell, ref.kernel)
            assert got.phase == ref.phase
            assert all(type(p) is float for p in got.phase)
        stacked = np.stack([t.feature for t in expected])
        assert ctx.features.shape == stacked.shape
        assert ctx.features.tobytes() == stacked.tobytes()
        assert ctx.tokens is ctx.tokens

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("c", [1, 2, 16])
    @pytest.mark.parametrize("h, w", [(33, 70), (60, 104), (64, 64)])
    @pytest.mark.parametrize("mode", ["ta", "tc"])
    def test_tails_match_per_token_oracle(self, mode, h, w, c, dtype):
        # windows taller than 32 rows and values spread over 2^±14, where
        # the order of a window's sum shows in its last bits
        gen = rng(h * w + c)
        shape = (7, h, w, c)
        spread = gen.normal(size=shape) * 2.0 ** gen.integers(-14, 15, shape)
        history = LatentVideo(spread.astype(dtype))
        schedule = parse_schedule(f"{mode}_f2k2f1k1_g1")
        expected, generate_span, tail_span = apply_schedule_oracle(history, schedule, pad_spatial=True)
        ctx = apply_schedule(history, schedule, pad_spatial=True)
        assert (ctx.generate_span, ctx.tail_span) == (generate_span, tail_span) == ((7, 8), (0, 4))
        assert [t.time_span for t in ctx.tokens] == [t.time_span for t in expected]
        assert ctx.features.tobytes() == np.stack([t.feature for t in expected]).tobytes()


@st.composite
def tail_run_cases(draw):
    """A ta or tc schedule with its tail at the start or at the end, a
    history of more frames than its entries take, with values over
    2^-30 .. 2^30, where the order of a float64 sum of float32 values
    shows in its last bits, and some pixels -0.0 in every frame, and a
    tail run of one to four frames."""
    entry = st.builds(Frames, st.integers(1, 4), st.sampled_from(ORACLE_KERNELS))
    tail = [Tail(draw(st.sampled_from([TailMode.APPEND, TailMode.COMPRESS])))]
    at_start = draw(st.booleans())
    pre = draw(st.lists(entry, max_size=2))
    # a tail at the end needs an entry after the generated section
    post = draw(st.lists(entry, min_size=0 if at_start else 1, max_size=2))
    body = [*pre, Generate(1), *post]
    schedule = PackingSchedule(tuple(tail + body if at_start else body + tail))
    shape = (
        sum(e.count for e in (*pre, *post)) + draw(st.integers(0, 12)),
        *(draw(st.integers(1, n)) for n in (9, 9, 3)),
    )
    gen = rng(draw(st.integers(0, 2**32 - 1)))
    x = gen.normal(size=shape) * 2.0 ** gen.integers(-30, 31, shape)
    x[:, gen.random(shape[1:]) < 0.2] = -0.0
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    return schedule, LatentVideo(x.astype(dtype)), draw(st.integers(1, 4))


class TestTailRuns:
    """A ta or tc tail is pooled in runs of about ``_RUN_BYTES``."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(tail_run_cases())
    def test_runs_match_per_token_oracle(self, case):
        schedule, history, run = case
        frame_bytes = history.array.itemsize * history.height * history.width * history.channels
        pads = dict(pad_history=True, pad_spatial=True)
        expected, generate_span, tail_span = apply_schedule_oracle(history, schedule, **pads)
        whole = apply_schedule(history, schedule, **pads)
        with mock.patch.object(packing, "_RUN_BYTES", run * frame_bytes):
            ctx = apply_schedule(history, schedule, **pads)
        assert (ctx.generate_span, ctx.tail_span) == (generate_span, tail_span)
        assert ctx.features.tobytes() == np.stack([t.feature for t in expected]).tobytes()
        assert TestPlannerBindingProperty.packed(ctx) == TestPlannerBindingProperty.packed(whole)

    @pytest.mark.parametrize(
        "name, bound, tail",
        [
            ("ta_f16k4f2k2f1k1_g9", (41, 60), (0, 41)),
            ("tc_f16k4f2k2f1k1_g9", (41, 60), (0, 41)),
            ("f1k1_x_g9_f1k1f2k2f16k4_ta", (0, 20), (20, 60)),
            ("f1k1_x_g9_f1k1f2k2f16k4_tc", (0, 20), (20, 60)),
        ],
    )
    def test_reader_reads_the_tail_in_runs(self, name, bound, tail):
        s = parse_schedule(name)
        whole = LatentVideo(rng(5).normal(size=(60, 8, 8, 2)).astype(np.float32))
        calls = []

        def read(start, stop):
            calls.append((start, stop))
            return whole.array[start:stop]

        # runs of 16 frames of 8x8x2 float32 values
        with mock.patch.object(packing, "_RUN_BYTES", 16 * 8 * 8 * 2 * 4):
            got = _packed(whole.array.shape, read, s, False, False)
        starts = range(tail[0], tail[1], 16)
        assert calls == [bound] + [(t, min(t + 16, tail[1])) for t in starts]
        packed = TestPlannerBindingProperty.packed
        assert packed(got) == packed(apply_schedule(whole, s))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_tail_of_one_value_frames_adds_in_order(self, dtype):
        # numpy's own sum of such a tail would add its frames pairwise
        history = LatentVideo(rng(20).normal(size=(300, 1, 1, 1)).astype(dtype))
        s = parse_schedule("tc_f1k1_g1")
        expected = apply_schedule_oracle(history, s, pad_spatial=True)[0]
        want = np.stack([t.feature for t in expected]).tobytes()
        for run in (1, 7, 300):
            with mock.patch.object(packing, "_RUN_BYTES", run * history.array.itemsize):
                ctx = apply_schedule(history, s, pad_spatial=True)
            assert ctx.features.tobytes() == want, run


@st.composite
def read_cases(draw):
    """A binding case with a small history of its length and a tail run of
    one to four frames, or a tail run case; with or without history
    padding, and with or without spatial padding."""
    if draw(st.booleans()):
        schedule, total = draw(binding_cases())
        h, w, c = (draw(st.integers(1, n)) for n in (9, 9, 3))
        history = video(total, h, w, c, seed=draw(st.integers(0, 2**16)))
        return schedule, history, draw(st.integers(1, 4)), draw(st.booleans()), draw(st.booleans())
    return (*draw(tail_run_cases()), True, draw(st.booleans()))


class TestPackedReadsOnce:
    """``_packed`` reads the bound range once, then only a ta or tc tail, in
    runs that split it in order, and packs the bytes of the whole history;
    every error, an indivisible-dims one too, is raised before any read."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(read_cases())
    def test_reads_the_bound_range_then_the_tail_runs(self, case):
        schedule, history, run, pad_history, pad_spatial = case
        total = history.frame_count
        reads = []

        def read(start, stop):
            reads.append((start, stop))
            return history.array[start:stop]

        frame_bytes = history.array.itemsize * history.height * history.width * history.channels
        with mock.patch.object(packing, "_RUN_BYTES", run * frame_bytes):
            try:
                want = apply_schedule(
                    history, schedule, pad_history=pad_history, pad_spatial=pad_spatial
                )
            except (ShortHistory, ExcessHistory, IndivisibleDims) as exc:
                with pytest.raises(type(exc), match=re.escape(str(exc))):
                    _packed(history.array.shape, read, schedule, pad_history, pad_spatial)
                assert reads == []
                return
            got = _packed(history.array.shape, read, schedule, pad_history, pad_spatial)
        lo, hi = _bind(schedule, total)[2]
        assert reads[0] == (lo, hi)
        tail = schedule.tail
        if tail and tail.mode is not TailMode.DELETE and got.tail_frame_count:
            start = 0 if schedule.tail_at_start else hi
            runs = reads[1:]
            assert [a for a, _ in runs] == [start] + [b for _, b in runs[:-1]]
            assert runs[-1][1] == start + got.tail_frame_count
            assert all(a < b for a, b in runs)
        else:
            assert reads == [(lo, hi)]
        packed = TestPlannerBindingProperty.packed
        assert packed(got) == packed(want)


@st.composite
def held_cases(draw):
    """A float32, float64 or integer (T, H, W, C) array, a range ``a <= b``
    of its frames, and either no non-finite value or one at a random frame
    and pixel, given as ``(frame, pixel, value)``."""
    dtype = draw(st.sampled_from([np.float32, np.float64, np.int64, np.int16, np.uint8]))
    t = draw(st.integers(0, 9))
    shape = (t, *(draw(st.integers(1, 3)) for _ in range(3)))
    x = (rng(draw(st.integers(0, 2**32 - 1))).normal(size=shape) * 50).astype(dtype)
    a = draw(st.integers(0, t))
    b = draw(st.integers(a, t))
    bad = None
    if t and x.dtype.kind == "f" and draw(st.booleans()):
        pixel = tuple(draw(st.integers(0, n - 1)) for n in shape)
        bad = pixel, draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return x, a, b, bad


class TestHeldReader:
    """``packing._held`` reads a raw array's frames ``a .. b`` as
    ``LatentVideo(x).array[a:b]``, checking only those frames."""

    @settings(max_examples=300, deadline=None)
    @given(held_cases())
    def test_raw_read_is_the_snapshot_slice(self, case):
        x, a, b, bad = case
        want = LatentVideo(x).array[a:b]
        if bad:
            x[bad[0]] = bad[1]
        shape, read = packing._held(x)
        assert shape == x.shape
        if not np.isfinite(x[a:b]).all():
            with pytest.raises(ValueError, match="^latent video must contain only finite values$"):
                read(a, b)
            return
        got = read(a, b)
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
        assert not got.flags.writeable
        x[...] = 7
        assert got.tobytes() == want.tobytes()

    def test_video_read_is_a_slice_of_its_snapshot(self):
        v = video(6, 4, 4, 2)
        shape, read = packing._held(v)
        assert shape == v.array.shape
        assert np.shares_memory(read(2, 5), v.array)
        assert read(2, 5).tobytes() == v.array[2:5].tobytes()

    def test_shape_is_checked_before_any_read(self):
        with pytest.raises(ValueError, match="must be 4D"):
            packing._held(np.full((3, 2, 2), np.nan))
        with pytest.raises(ValueError, match="H, W, C must all be >= 1"):
            packing._held(np.full((3, 0, 2, 1), np.nan))


class TestRawHistoryIsNotCopiedWhole:
    """A raw history is copied and checked only in the frames a call reads:
    a td pack copies its bound frames, a ta or tc pack reads its tail in
    runs, and the importance ranking one frame at a time."""

    SCHEDULE = "td_f16k4f2k2f1k1_g9"

    @staticmethod
    def peak(call):
        call()  # first-use allocations are not the call's
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            call()
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    def test_pack_peak_does_not_grow_with_the_prefix(self):
        # 199 frames of 8 KiB: a whole copy would add 1.6 MB to a pack
        # that copies 19 frames
        frames = rng(3).normal(size=(199, 16, 16, 8)).astype(np.float32)
        schedule = parse_schedule(self.SCHEDULE)
        pads = dict(pad_history=True, pad_spatial=True)
        peaks = [self.peak(lambda: apply_schedule(frames[:n], schedule, **pads)) for n in (19, 199)]
        assert peaks[1] <= 1.1 * peaks[0]

    def test_sort_peak_equals_the_video_sort_peak(self):
        # 200 frames of 16 channels share one 400 KiB scoring chunk; a copy
        # of the history, or of the chunk, would add 200 KiB to the peak
        frames = rng(4).normal(size=(200, 4, 4, 16)).astype(np.float32)
        history, times = LatentVideo(frames), [i / 7.5 for i in range(200)]
        target = frames[-1].astype(np.float64)
        peaks = [
            self.peak(lambda h=h: sort_by_importance(h, times, target, times[-1], 1.0))
            for h in (history, frames)
        ]
        assert peaks[1] <= 1.1 * peaks[0]

    @pytest.mark.parametrize("mode", ["td", "ta", "tc"])
    @pytest.mark.parametrize("tail_at_start", [True, False])
    def test_copies_only_the_frames_it_reads(self, monkeypatch, mode, tail_at_start):
        name = f"{mode}_f16k4f2k2f1k1_g9" if tail_at_start else f"f1k1_x_g9_f1k1f2k2f16k4_{mode}"
        frames = rng(5).normal(size=(199, 8, 8, 2)).astype(np.float32)
        schedule = parse_schedule(name)
        want = apply_schedule(LatentVideo(frames), schedule, pad_history=True, pad_spatial=True)
        copied, fill_checked = [], packing._fill_checked

        def counting(shape, dtype, fill):
            copied.append(shape[0])
            return fill_checked(shape, dtype, fill)

        monkeypatch.setattr(packing, "_fill_checked", counting)
        monkeypatch.setattr(packing, "_RUN_BYTES", 40 * frames[0].nbytes)
        got = apply_schedule(frames, schedule, pad_history=True, pad_spatial=True)
        assert got.features.tobytes() == want.features.tobytes()
        bound = 19 if tail_at_start else 20  # the second also binds f1k1 before g9
        tail = 199 - bound
        if mode == "td":
            assert copied == [bound]
        else:
            assert copied == [bound] + [40] * (tail // 40) + [tail % 40]
