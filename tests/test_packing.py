import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxpack.budget import tokens_for_entry, tokens_for_schedule
from ctxpack.errors import (
    ExcessHistory,
    IndivisibleDims,
    InvalidSchedule,
    ShortHistory,
    UnsupportedKernel,
)
from ctxpack.packing import (
    KernelResolution,
    LatentVideo,
    _pool_block,
    apply_schedule,
    build_symmetric_schedule,
    resolve_kernel,
)
from ctxpack.planner import plan_vanilla
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
from packing_oracle import apply_schedule_oracle


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
                got = _pool_block(block, kernel, pad_spatial=True)
                assert got.tobytes() == self.padded_mean(block, kernel).tobytes()

    def test_large_kernel_peak(self):
        # the zero-padded 64-frame k64 block alone would be 16 MiB
        v = LatentVideo(rng(7).normal(size=(1, 2, 2, 4)).astype(np.float32))
        pads = dict(pad_history=True, pad_spatial=True)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            apply_schedule(v, parse_schedule("f64k64_g1"), **pads)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        ctx = apply_schedule(v, parse_schedule("f512k512_g1"), **pads)
        expected = v.data.sum(axis=(0, 1, 2)) / (1024 * 1024)
        np.testing.assert_allclose(ctx.blocks[0].grid[0, 0], expected, rtol=1e-12)


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


class TestPatchify:
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


class TestHandleTail:
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

    def test_short_history_pad_replicates_oldest(self):
        s = parse_schedule("td_f16k4f2k2f1k1_g9")
        v = video(10, 8, 8, 1, seed=4)
        ctx = apply_schedule(v, s, pad_history=True)
        assert ctx.budget == tokens_for_schedule(s, 8, 8, 0)
        # the coarsest entry's oldest group is all replicas of frame 0
        coarse = [b for b in history_blocks(ctx) if b.kernel == KernelSpec(4, 8, 8)]
        (oldest,) = [b for b in coarse if b.time_span == (0, 4)]
        expected = v.data[0].reshape(-1, 1).mean(axis=0)
        np.testing.assert_allclose(oldest.grid[0, 0], expected, atol=1e-12)

    def test_pad_from_empty_history_still_fails(self):
        with pytest.raises(ShortHistory):
            apply_schedule(video(0), parse_schedule("td_f1k1_g1"), pad_history=True)

    @pytest.mark.parametrize(
        "name,frames",
        [
            ("f1k1_x_g9_f1k1f4k2_td", 1),
            ("td_f2k1_g1_x_f1k1", 1),
            ("f1k1_x_g9_f1k1_td", 0),
        ],
    )
    def test_padding_never_crosses_sides(self, name, frames):
        # one side binds no frame at all; the other side's frames must not
        # stand in for it
        with pytest.raises(ShortHistory):
            apply_schedule(video(frames, 8, 8, 1), parse_schedule(name), pad_history=True)

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


class TestSymmetricSchedule:
    def test_mirrors_around_generate(self):
        half = [Frames(1, KernelSpec.simplified(1)), Frames(2, KernelSpec.simplified(2))]
        s = build_symmetric_schedule(half, 9)
        assert s.segments == (
            half[0],
            half[1],
            Generate(9),
            half[1],
            half[0],
        )

    def test_single_entry_mirror(self):
        half = [Frames(1, KernelSpec.simplified(1))]
        s = build_symmetric_schedule(half, 1)
        assert [seg for seg in s.segments if isinstance(seg, Frames)] == half * 2

    def test_budget_doubles(self):
        half = [Frames(1, KernelSpec.simplified(1)), Frames(4, KernelSpec.simplified(2))]
        s = build_symmetric_schedule(half, 9)
        half_tokens = sum(tokens_for_entry(e.count, e.kernel, 64, 64) for e in half)
        mirrored_tokens = sum(
            tokens_for_entry(e.count, e.kernel, 64, 64) for e in s.frames_entries
        )
        assert mirrored_tokens == 2 * half_tokens

    def test_packs_with_exact_capacity(self):
        half = [Frames(2, KernelSpec.simplified(1)), Frames(4, KernelSpec.simplified(2))]
        s = build_symmetric_schedule(half, 3)
        ctx = apply_schedule(video(12, 16, 16), s)
        assert ctx.budget == tokens_for_schedule(s, 16, 16, 0)

    def test_empty_half_rejected(self):
        with pytest.raises(InvalidSchedule):
            build_symmetric_schedule([], 9)


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


class TestPlannerBindingProperty:
    """Every vanilla plan iteration packs the frames its INPUTS name."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(vanilla_cases())
    def test_entries_pool_their_planner_spans(self, case):
        schedule, section, history = case
        plan = plan_vanilla(history.frame_count, section, schedule, allow_partial=True)
        for it in plan.iterations:
            prefix = LatentVideo(history.data[: it.targets[0].start])
            if prefix.frame_count == 0:
                with pytest.raises(ShortHistory):
                    apply_schedule(prefix, schedule, pad_history=True)
                continue
            ctx = apply_schedule(prefix, schedule, pad_history=True)
            assert ctx.tail_frame_count == it.inputs[0].span.start
            entry_tokens = iter(
                t
                for t in ctx.tokens
                if ctx.tail_span[1] <= t.time_span[0] and t.time_span[1] <= ctx.generate_span[0]
            )
            for entry, binding in zip(schedule.frames_entries, it.inputs):
                k = entry.kernel
                span = binding.span
                idx = [span.start] * (entry.count - span.length) + list(range(span.start, span.stop))
                idx += [idx[-1]] * ((-entry.count) % k.p_f)
                frames = prefix.data[idx]
                for gt in range(len(idx) // k.p_f):
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
    gap = [Skip()] if post and draw(st.booleans()) else []
    body = [*pre, *gap, generate, *post]
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
