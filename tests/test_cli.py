import os
import sys
import tracemalloc
from hashlib import sha256
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ctxpack import cli, codebook
from ctxpack.cli import build_parser, main
from ctxpack.codebook import Codebook, discretize_history
from ctxpack.fplt import (
    read_codebook,
    read_tensor,
    read_video,
    write_codebook,
    write_tensor,
    write_video,
)
from ctxpack.packing import LatentVideo
from ctxpack.schedule import parse_schedule
from packing_oracle import apply_schedule_oracle, pack_outputs_oracle


def rng(seed=0):
    return np.random.default_rng(seed)


@pytest.fixture
def video_path(tmp_path):
    path = tmp_path / "video.fplt"
    write_video(path, LatentVideo(rng(1).normal(size=(19, 64, 64, 3)).astype(np.float32)))
    return str(path)


@pytest.fixture
def small_video_path(tmp_path):
    path = tmp_path / "small.fplt"
    write_video(path, LatentVideo(rng(2).normal(size=(10, 8, 8, 2)).astype(np.float32)))
    return str(path)


class TestParseCommand:
    def test_valid(self, capsys):
        assert main(["parse", "td_f16k4f2k2f1k1_g9"]) == 0
        out = capsys.readouterr().out
        assert "mode=vanilla" in out
        assert "entries=3" in out
        assert "generate=9" in out

    def test_multiple_generate_exits_2(self, capsys):
        assert main(["parse", "g9_g9"]) == 2
        assert "generate" in capsys.readouterr().err

    def test_empty_exits_2(self, capsys):
        assert main(["parse", ""]) == 2

    def test_unknown_token_named(self, capsys):
        assert main(["parse", "td_f1k1_q9"]) == 2
        assert "'q'" in capsys.readouterr().err

    @pytest.mark.skipif(
        not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000,
        reason="int() converts a 5000-digit string on this Python",
    )
    def test_count_too_long_for_int_exits_2(self, capsys):
        assert main(["parse", "g" + "9" * 5000]) == 2
        assert capsys.readouterr().err == "ctxpack: count 99999999... has 5000 digits\n"

    def test_skip_segment_output(self, capsys):
        assert main(["parse", "f1k1_x_g9_f1k1f2k2f16k4_td"]) == 0
        assert capsys.readouterr().out == (
            "name=f1k1_x_g9_f1k1f2k2f16k4_td\n"
            "mode=inverted\n"
            "discretize=false\n"
            "entries=4\n"
            "generate=9\n"
            "segment 1: frames f1k1\n"
            "segment 2: skip x\n"
            "segment 3: generate g9\n"
            "segment 4: frames f1k1\n"
            "segment 5: frames f2k2\n"
            "segment 6: frames f16k4\n"
            "segment 7: tail td\n"
        )


class TestBudgetCommand:
    def test_vanilla_chain(self, capsys):
        assert main(["budget", "td_f16k4f2k2f1k1_g9", "--height", "64", "--width", "64"]) == 0
        assert "total 10752" in capsys.readouterr().out

    def test_minimal(self, capsys):
        assert main(["budget", "td_f1k1_g1", "--height", "64", "--width", "64"]) == 0
        assert "total 2048" in capsys.readouterr().out

    def test_indivisible_exits_2(self, capsys):
        assert main(["budget", "td_f16k4f2k2f1k1_g9", "--height", "60", "--width", "104"]) == 2
        assert "divisible" in capsys.readouterr().err

    def test_pad_flag(self, capsys):
        rc = main(["budget", "td_f16k4f2k2f1k1_g9", "--height", "60", "--width", "104", "--pad"])
        assert rc == 0

    def test_table_output(self, capsys):
        dims = ["--height", "60", "--width", "104", "--pad"]
        cases = [
            (
                ["ta_f16k4f2k2f1k1_g9", "--tail-frames", "7"],
                "entry f16k4 tokens=416\n"
                "entry f2k2 tokens=390\n"
                "entry f1k1 tokens=1560\n"
                "generate g9 tokens=14040\n"
                "tail ta frames=7 tokens=56\n"
                "total 16462\n",
            ),
            (
                ["f1k1_x_g9_f1k1f2k2f16k4_tc", "--tail-frames", "5"],
                "entry f1k1 tokens=1560\n"
                "generate g9 tokens=14040\n"
                "entry f1k1 tokens=1560\n"
                "entry f2k2 tokens=390\n"
                "entry f16k4 tokens=416\n"
                "tail tc frames=5 tokens=104\n"
                "total 18070\n",
            ),
            (
                ["f2k2_g1_f3k1", "--tail-frames", "0"],
                "entry f2k2 tokens=390\n"
                "generate g1 tokens=1560\n"
                "entry f3k1 tokens=4680\n"
                "total 6630\n",
            ),
        ]
        for args, expected in cases:
            assert main(["budget", *args, *dims]) == 0
            assert capsys.readouterr().out == expected

    def test_discretized_schedule_accepted(self, capsys):
        assert main(["budget", "td_f1k1_g1+D", "--height", "64", "--width", "64"]) == 0
        assert "total 2048" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "name,height,width,tail",
        [
            ("td_f1k1_g1", "64", "64", "-3"),
            ("f1k1_g1", "64", "64", "-3"),
            ("td_f1k1_g1", "-4", "64", "0"),
            ("td_f1k1_g1", "64", "0", "0"),
        ],
    )
    def test_bad_size_exits_3(self, capsys, name, height, width, tail):
        args = ["budget", name, "--height", height, "--width", width, "--tail-frames", tail]
        assert main(args) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert ">= " in captured.err


class TestPlanCommand:
    def test_inverted_example(self, capsys):
        rc = main(["plan", "f1k1_x_g9_f1k1f2k2f16k4_td", "--total", "28", "--section", "9"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("ITER 1 TARGET 19..28")
        assert lines[2].startswith("ITER 3 TARGET 1..10")

    def test_vanilla(self, capsys):
        rc = main(["plan", "td_f16k4f2k2f1k1_g9", "--total", "27", "--section", "9"])
        assert rc == 0
        assert capsys.readouterr().out.startswith("ITER 1 TARGET 0..9")

    def test_multi_endpoint(self, capsys):
        rc = main([
            "plan", "td_f16k4f2k2f1k1_g9_x_f1k1",
            "--total", "45", "--section", "9", "--endpoints", "0..9,36..45",
        ])
        assert rc == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 5

    def test_unclassified_exits_2(self, capsys):
        assert main(["plan", "f1k1_g9_f1k1", "--total", "18", "--section", "9"]) == 2

    def test_endpoint_output(self, capsys):
        assert main(["plan", "td_f16k4f2k2f1k1_g9_x_f1k1", "--total", "36", "--section", "9"]) == 0
        assert capsys.readouterr().out == (
            "ITER 1 TARGET 0..9,27..36 INPUTS 0..0@k4,0..0@k2,0..0@k1,36..36@k1\n"
            "ITER 2 TARGET 9..18 INPUTS 0..6@k4,6..8@k2,8..9@k1,27..28@k1\n"
            "ITER 3 TARGET 18..27 INPUTS 0..15@k4,15..17@k2,17..18@k1,27..28@k1\n"
        )

    def test_multi_endpoint_frames_after_last_anchor(self, capsys):
        rc = main([
            "plan", "td_f16k4f2k2f1k1_g9_x_f1k1",
            "--total", "45", "--section", "9", "--endpoints", "9..18",
        ])
        assert rc == 0
        assert capsys.readouterr().out == (
            "ITER 1 TARGET 9..18 INPUTS 0..0@k4,0..0@k2,0..0@k1,18..18@k1\n"
            "ITER 2 TARGET 0..9 INPUTS 0..0@k4,0..0@k2,0..0@k1,9..10@k1\n"
            "ITER 3 TARGET 18..27 INPUTS 0..15@k4,15..17@k2,17..18@k1,27..27@k1\n"
            "ITER 4 TARGET 27..36 INPUTS 8..24@k4,24..26@k2,26..27@k1,36..36@k1\n"
            "ITER 5 TARGET 36..45 INPUTS 17..33@k4,33..35@k2,35..36@k1,45..45@k1\n"
        )

    def test_multi_endpoint_ungenerated_anchor_input_exits_2(self, capsys):
        rc = main([
            "plan", "td_f16k4f2k2f1k1_g9_x_f1k1",
            "--total", "45", "--section", "9", "--endpoints", "9..18,27..36",
        ])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "ctxpack: endpoint 27..36 reads frames 0..9, which no earlier endpoint generates\n"
        )

    def test_multi_endpoint_anchor_after_first_frames(self, capsys):
        rc = main([
            "plan", "td_f16k4f2k2f1k1_g9_x_f1k1",
            "--total", "45", "--section", "9", "--endpoints", "0..9,27..36",
        ])
        assert rc == 0
        assert capsys.readouterr().out == (
            "ITER 1 TARGET 0..9 INPUTS 0..0@k4,0..0@k2,0..0@k1,9..9@k1\n"
            "ITER 2 TARGET 27..36 INPUTS 0..6@k4,6..8@k2,8..9@k1,36..36@k1\n"
            "ITER 3 TARGET 9..18 INPUTS 0..6@k4,6..8@k2,8..9@k1,27..28@k1\n"
            "ITER 4 TARGET 18..27 INPUTS 0..15@k4,15..17@k2,17..18@k1,27..28@k1\n"
            "ITER 5 TARGET 36..45 INPUTS 17..33@k4,33..35@k2,35..36@k1,45..45@k1\n"
        )

    @pytest.mark.parametrize(
        "endpoints,message",
        [
            ("9-18", "'9-18' is not a span start..stop"),
            ("18..9", "span '18..9' stops before it starts"),
            (",9..18", "'' is not a span start..stop"),
            ("9..18,", "'' is not a span start..stop"),
            ("", "'' is not a span start..stop"),
        ],
    )
    def test_bad_endpoints_exit_2_naming_the_option(self, capsys, endpoints, message):
        rc = main([
            "plan", "td_f16k4f2k2f1k1_g9_x_f1k1",
            "--total", "45", "--section", "9", "--endpoints", endpoints,
        ])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"ctxpack: --endpoints: {message}\n"

    def test_inverted_user_frames(self, capsys):
        rc = main([
            "plan", "f1k1_x_g9_f1k1f2k2f16k4_td",
            "--total", "28", "--section", "9", "--user-frames", "5",
        ])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("ITER 1 TARGET 19..28")
        assert lines[-1].startswith("ITER 3 TARGET 5..10")

    @pytest.mark.parametrize(
        "name,extra",
        [
            ("td_f1k1_g9", []),
            ("td_f16k4f2k2f1k1_g9_x_f1k1", []),
            ("f1k1_x_g9_f1k1f2k2f16k4_td", ["--endpoints", "0..9"]),
        ],
    )
    def test_user_frames_outside_inverted_plans_exit_2(self, capsys, name, extra):
        rc = main(["plan", name, "--total", "18", "--section", "9", "--user-frames", "5", *extra])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("ctxpack: --user-frames applies only to an inverted")

    @pytest.mark.parametrize("total,section", [("27", "0"), ("0", "9"), ("-27", "9")])
    def test_size_below_one_exits_2(self, capsys, total, section):
        rc = main(["plan", "td_f16k4f2k2f1k1_g9", "--total", total, "--section", section])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must both be >= 1" in captured.err


class TestPackCommand:
    def test_pack_writes_features_and_provenance(self, tmp_path, video_path, capsys):
        out = tmp_path / "packed.fplt"
        rc = main(["pack", "td_f16k4f2k2f1k1_g9", video_path, "-o", str(out)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "budget 10752" in stdout
        features, _ = read_tensor(out)
        assert features.shape == (1, 1, 10752, 3)
        prov = (tmp_path / "packed.fplt.prov").read_text()
        assert prov.startswith("schedule td_f16k4f2k2f1k1_g9\nbudget 10752\n")
        assert "token 0 span=0..4 cell=0,0 kernel=k4" in prov

    def test_short_history_exits_3(self, tmp_path, small_video_path, capsys):
        out = tmp_path / "packed.fplt"
        rc = main(["pack", "td_f16k4f2k2f1k1_g9", small_video_path, "-o", str(out)])
        assert rc == 3

    def test_missing_file_exits_3(self, tmp_path):
        rc = main(["pack", "td_f1k1_g1", str(tmp_path / "nope.fplt"), "-o", str(tmp_path / "o")])
        assert rc == 3

    def test_sub_base_kernel_exits_2(self, tmp_path, small_video_path, capsys):
        out = tmp_path / "packed.fplt"
        rc = main(["pack", "f2k2h1w1_g1", small_video_path, "-o", str(out)])
        assert rc == 2
        assert "learned kernel" in capsys.readouterr().err
        assert not out.exists()

    def test_discretized_schedule_exits_2(self, tmp_path, small_video_path, capsys):
        out = tmp_path / "packed.fplt"
        rc = main(["pack", "td_f1k1_g1+D", small_video_path, "-o", str(out), "--pad-history"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "quantize" in err and "'td_f1k1_g1'" in err
        assert not out.exists()

    def test_tail_at_end_without_post_entry_exits_2(self, tmp_path, small_video_path, capsys):
        out = tmp_path / "packed.fplt"
        rc = main(["pack", "f1k1_g9_td", small_video_path, "-o", str(out), "--pad-history"])
        assert rc == 2
        assert "after the generated section" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "name",
        [
            "ta_f16k4f2k2f1k1_g9",
            "tc_f16k4f2k2f1k1_g9",
            "f1k1_x_g9_f1k1f2k2f16k4_td",
            "f1k1_x_g9_f1k1f2k2f16k4_ta",
        ],
    )
    def test_outputs_match_per_token_formatter(self, tmp_path, name):
        # 60x104 is indivisible by k4's 8x8 and by the 32x32 tail windows
        path = tmp_path / "latent.fplt"
        write_video(path, LatentVideo(rng(3).normal(size=(24, 60, 104, 2)).astype(np.float32)))
        out = tmp_path / "packed.fplt"
        assert main(["pack", name, str(path), "-o", str(out), "--pad-history", "--pad-spatial"]) == 0
        tokens, generate_span, tail_span = apply_schedule_oracle(
            read_video(path), parse_schedule(name), pad_history=True, pad_spatial=True
        )
        payload, prov = pack_outputs_oracle(name, tokens, generate_span, tail_span)
        assert sha256(out.read_bytes()[28:]).hexdigest() == sha256(payload).hexdigest()
        got, want = (tmp_path / "packed.fplt.prov").read_text().split("\n"), prov.split("\n")
        # report the first differing line, not a diff of ~20k lines
        assert next(((a, b) for a, b in zip(got, want) if a != b), None) is None
        assert len(got) == len(want)

    @pytest.mark.parametrize("failing", ["packed.fplt", "packed.fplt.prov"])
    def test_failed_write_keeps_old_output(self, tmp_path, small_video_path, monkeypatch, failing):
        out = tmp_path / "packed.fplt"
        assert main(["pack", "td_f1k1_g1", small_video_path, "-o", str(out), "--pad-history"]) == 0
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        replace = os.replace

        def flaky(src, dst):
            if os.path.basename(dst) == failing:
                raise OSError("disk full")
            replace(src, dst)

        monkeypatch.setattr(os, "replace", flaky)
        assert main(["pack", "td_f1k1_g2", small_video_path, "-o", str(out), "--pad-history"]) == 3
        after = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert after.keys() == before.keys()
        assert after[failing] == before[failing]


class TestCodebookCommands:
    def test_fit_quantize_constant_for_k1(self, tmp_path, small_video_path, capsys):
        cb_path = tmp_path / "cb.fplt"
        rc = main(["codebook", "fit", "--k", "1", "--seed", "7", small_video_path, "-o", str(cb_path)])
        assert rc == 0
        assert read_codebook(cb_path).size == 1

        out_path = tmp_path / "quantized.fplt"
        rc = main(["quantize", small_video_path, "--codebook", str(cb_path), "-o", str(out_path)])
        assert rc == 0
        quantized = read_video(out_path)
        flattened = quantized.data.reshape(-1, quantized.channels)
        assert len(np.unique(flattened, axis=0)) == 1

    def test_fit_is_deterministic(self, tmp_path, small_video_path):
        a, b = tmp_path / "a.fplt", tmp_path / "b.fplt"
        argv = ["codebook", "fit", "--k", "4", "--seed", "9", small_video_path]
        assert main(argv + ["-o", str(a)]) == 0
        assert main(argv + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_k_too_large_exits_3(self, tmp_path, small_video_path):
        rc = main([
            "codebook", "fit", "--k", "99999", "--seed", "1", small_video_path,
            "-o", str(tmp_path / "cb.fplt"),
        ])
        assert rc == 3

    def test_k_beyond_any_allocation_exits_3(self, tmp_path, capsys):
        path = tmp_path / "tiny.fplt"
        write_video(path, LatentVideo(rng(3).normal(size=(1, 2, 2, 6))))
        out = tmp_path / "cb.fplt"
        k = "10000000000000"
        rc = main(["codebook", "fit", "--k", k, "--seed", "1", str(path), "-o", str(out)])
        assert rc == 3
        assert capsys.readouterr().err == (
            f"ctxpack: need at least {k} distinct pixels to fit {k} codebook entries\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [
        ("--max-iters", "0"), ("--max-iters", "-2"),
        ("--tol", "nan"), ("--tol", "inf"), ("--tol", "-0.5"),
    ])
    def test_bad_fit_argument_exits_3(self, tmp_path, small_video_path, capsys, flag, value):
        out = tmp_path / "cb.fplt"
        rc = main([
            "codebook", "fit", "--k", "2", "--seed", "1", small_video_path,
            flag, value, "-o", str(out),
        ])
        assert rc == 3
        assert capsys.readouterr().err.startswith("ctxpack: ")
        assert not out.exists()


# The nearest-centroid search scores in float32 only while max|x| and
# C * (2 max|x| max|c| + max|c|^2) stay below this.
GUARD = float(np.finfo(np.float32).max) / 4


@st.composite
def stream_cases(draw):
    """A float32 history and codebook, and a score budget that cuts the
    history into runs of one to three frames. Values are at unit scale, at
    scales where the search's overflow guard passes some runs and fails
    others, or large beside an all-zero codebook, where |x|^2 overflows
    float32 and the guard passes."""
    k, c = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    t = draw(st.sampled_from([0, 1]) | st.integers(2, 7))
    h, w = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    # with |x| and |c| at most s, C * (2 s s + s s) reaches the guard
    s = (GUARD / (3 * c)) ** 0.5
    scales = [(4, 4), (s / 2, s / 2), (s, s), (2 * s, 2 * s), (0, GUARD), (0, 1.9 * GUARD)]
    centroid_scale, pixel_scale = draw(st.sampled_from(scales))
    unit = st.floats(-1, 1, width=32)
    centroids = draw(arrays(np.float32, (k, c), elements=unit)) * np.float32(centroid_scale)
    frames = draw(arrays(np.float32, (t, h, w, c), elements=unit)) * np.float32(pixel_scale)
    pixels = frames.reshape(-1, c)
    for p in range(pixels.shape[0]):
        if draw(st.booleans()):  # an exact tie when centroids repeat
            pixels[p] = centroids[draw(st.integers(0, k - 1))]
    # a run holds at most _SCORE_BYTES / (4 * max(K, C)) pixels
    run = draw(st.integers(1, 3))
    return centroids, frames, run * h * w * 4 * max(k, c)


class TestQuantizeStream:
    @settings(max_examples=150)
    @given(stream_cases())
    def test_matches_whole_history_path(self, tmp_path_factory, case):
        centroids, frames, score_bytes = case
        root = tmp_path_factory.mktemp("stream")
        video, book, out, want = (root / n for n in ("v.fplt", "cb.fplt", "o.fplt", "w.fplt"))
        write_tensor(video, frames)
        write_codebook(book, Codebook(centroids))
        write_video(want, discretize_history(read_video(video), read_codebook(book)))
        with mock.patch.object(codebook, "_SCORE_BYTES", score_bytes):
            assert main(["quantize", str(video), "--codebook", str(book), "-o", str(out)]) == 0
        assert out.read_bytes() == want.read_bytes()

    def test_peak_does_not_grow_with_history(self, tmp_path):
        # with K = 128 a run holds 8,192 pixels, 32 frames of 16x16, so the
        # long history is 20 runs; holding it whole, as indices or as
        # float64 rows would peak at many times the one-run quantize
        book = tmp_path / "cb.fplt"
        write_codebook(book, Codebook(rng(40).normal(size=(128, 16))))
        argvs = []
        for frames in (32, 640):
            path = tmp_path / f"h{frames}.fplt"
            write_tensor(path, rng(frames).normal(size=(frames, 16, 16, 16)).astype(np.float32))
            argvs.append(["quantize", str(path), "--codebook", str(book), "-o", str(tmp_path / "o")])
        assert main(argvs[0]) == 0  # builds the parser before anything is measured
        peaks = []
        for argv in argvs:
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                assert main(argv) == 0
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
            finally:
                tracemalloc.stop()
        assert peaks[1] < 2 * peaks[0]

    @pytest.mark.parametrize(
        "flags, shape, extra, message",
        [
            (1, (1, 2, 2, 2), b"", "holds a codebook, not a latent video"),
            (0, (3, 2, 2, 3), b"", "video has 3 channels, codebook has 2"),
            (0, (0, 2, 2, 3), b"", "video has 3 channels, codebook has 2"),
            (0, (3, 2, 2, 2), b"\0", "expected 124 bytes, found 125"),
            (0, (3, 0, 2, 2), b"", "H, W, C must all be >= 1, got shape (3, 0, 2, 2)"),
        ],
    )
    def test_rejected_input_keeps_no_output(self, tmp_path, capsys, flags, shape, extra, message):
        video, book = tmp_path / "v.fplt", tmp_path / "cb.fplt"
        write_tensor(video, np.ones(shape, dtype=np.float32), flags=flags)
        video.write_bytes(video.read_bytes() + extra)
        write_codebook(book, Codebook(np.eye(2)))
        argv = ["quantize", str(video), "--codebook", str(book), "-o", str(tmp_path / "o.fplt")]
        assert main(argv) == 3
        assert capsys.readouterr().err.endswith(f"{message}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cb.fplt", "v.fplt"]


class TestDriftCommand:
    def test_all_metrics(self, small_video_path, capsys):
        assert main(["drift", small_video_path]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        assert all(line.startswith("metric=") for line in lines)

    def test_single_metric(self, small_video_path, capsys):
        assert main(["drift", small_video_path, "--metric", "mean-luminance"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("metric=mean-luminance")

    def test_unknown_metric_exits_2(self, small_video_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["drift", small_video_path, "--metric", "bogus"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestEloCommand:
    def test_single_match(self, tmp_path, capsys):
        log = tmp_path / "matches.csv"
        log.write_text("a,b,A\n")
        assert main(["elo", str(log)]) == 0
        assert capsys.readouterr().out == "a=1016.0\nb=984.0\n"

    def test_ranks_flag(self, tmp_path, capsys):
        log = tmp_path / "matches.csv"
        log.write_text("a,b,A\n")
        assert main(["elo", str(log), "--ranks"]) == 0
        assert capsys.readouterr().out == "a=1016.0 rank=1\nb=984.0 rank=2\n"

    @pytest.mark.parametrize("ranks", [[], ["--ranks"]])
    @pytest.mark.parametrize("match", ["a,b,D\n", "b,a,D\n"])
    def test_tied_ratings_print_by_name(self, tmp_path, capsys, ranks, match):
        log = tmp_path / "matches.csv"
        log.write_text(match)
        assert main(["elo", str(log), *ranks]) == 0
        suffix = " rank=1" if ranks else ""
        assert capsys.readouterr().out == f"a=1000.0{suffix}\nb=1000.0{suffix}\n"

    def test_unknown_outcome_exits_3(self, tmp_path, capsys):
        log = tmp_path / "matches.csv"
        log.write_text("a,b,Q\n")
        assert main(["elo", str(log)]) == 3

    @pytest.mark.parametrize("initial", ["nan", "inf", "-inf"])
    def test_non_finite_initial_exits_3(self, tmp_path, capsys, initial):
        log = tmp_path / "matches.csv"
        log.write_text("a,b,A\n")
        assert main(["elo", str(log), f"--initial={initial}", "--ranks"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("ctxpack: initial rating must be finite")


class TestParserReuse:
    """``main`` parses every call with one parser; no option of one call
    may carry over to the next."""

    def test_build_parser_returns_a_fresh_parser(self):
        assert build_parser() is not build_parser()

    def test_provenance_does_not_leak(self, tmp_path, small_video_path, capsys):
        out = tmp_path / "packed.fplt"
        named = tmp_path / "named.prov"
        pack = ["pack", "td_f1k1_g1", small_video_path, "-o", str(out)]
        assert main([*pack, "--provenance", str(named)]) == 0
        assert named.exists() and not (tmp_path / "packed.fplt.prov").exists()
        named.unlink()
        assert main(pack) == 0
        assert (tmp_path / "packed.fplt.prov").exists() and not named.exists()
        assert capsys.readouterr().out.splitlines()[-1] == f"provenance {out}.prov"

    def test_command_patched_after_first_parse_runs(self, small_video_path, monkeypatch, capsys):
        assert main(["drift", small_video_path]) == 0
        calls = []
        monkeypatch.setattr(cli, "cmd_drift", lambda args: calls.append(args.input) or 0)
        assert main(["drift", small_video_path]) == 0
        assert calls == [small_video_path]

    def test_metric_does_not_leak(self, small_video_path, capsys):
        for _ in range(2):
            assert main(["drift", small_video_path, "--metric", "mean-luminance"]) == 0
            assert len(capsys.readouterr().out.splitlines()) == 1
            assert main(["drift", small_video_path]) == 0
            lines = capsys.readouterr().out.splitlines()
            assert [line.split()[0] for line in lines] == [
                "metric=mean-luminance", "metric=sharpness-proxy", "metric=dynamics-proxy"
            ]
