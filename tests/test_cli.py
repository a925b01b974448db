import contextlib
import io
import math
import os
import sys
import tracemalloc
from hashlib import sha256
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ctxpack import cli, codebook, fplt, packing
from ctxpack.cli import build_parser, main
from ctxpack.codebook import Codebook, discretize_history
from ctxpack.drift import _report, builtin_metrics, drift_report
from ctxpack.fplt import (
    read_codebook,
    read_tensor,
    read_video,
    write_codebook,
    write_tensor,
    write_video,
)
from ctxpack.packing import LatentVideo, apply_schedule
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

    @pytest.mark.parametrize("total", ["999999999999999999", "10000000000000000000"])
    def test_one_section_of_a_huge_total(self, capsys, total):
        # the plan check keeps no slot per frame, so neither size runs out
        argv = ["plan", "td_f16k4f2k2f1k1_g9", "--total", total, "--section", total]
        assert main(argv) == 0
        assert capsys.readouterr().out == f"ITER 1 TARGET 0..{total} INPUTS 0..0@k4,0..0@k2,0..0@k1\n"

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

    @pytest.mark.parametrize("sidecar", ["p.fplt", "./p.fplt", "sub/../p.fplt", "{tmp}/p.fplt"])
    def test_provenance_over_output_exits_2(self, tmp_path, monkeypatch, capsys, sidecar):
        # the sidecar would replace the packed tensor; nothing is read or written
        def no_read(*args):
            raise AssertionError("payload read")

        write_tensor(tmp_path / "v.fplt", rng(5).normal(size=(4, 4, 4, 2)).astype(np.float32))
        (tmp_path / "sub").mkdir()
        (tmp_path / "p.fplt").write_bytes(b"old")
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(fplt, "_read_payload", no_read)
        sidecar = sidecar.format(tmp=tmp_path)
        argv = ["pack", "td_f1k1_g1", "v.fplt", "-o", "p.fplt", "--provenance", sidecar]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"ctxpack: --provenance {sidecar} is the output file\n"
        assert (tmp_path / "p.fplt").read_bytes() == b"old"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["p.fplt", "sub", "v.fplt"]

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
        "name, shape",
        [
            *(
                pytest.param(name, (24, 60, 104, 2), id=name)
                for name in [
                    "ta_f16k4f2k2f1k1_g9",
                    "tc_f16k4f2k2f1k1_g9",
                    "f1k1_x_g9_f1k1f2k2f16k4_td",
                    "f1k1_x_g9_f1k1f2k2f16k4_ta",
                    "td_f16k4f2k2f1k1_g9",
                ]
            ),
            # odd H and W: k1 entries and placeholders share their cell
            # text, and k4's padded grid and the tail's clipped one both
            # have one row, of different phases
            pytest.param(
                "f1k1_x_g9_f1k1f2k2f16k4_ta",
                (23, 7, 37, 3),
                id="f1k1_x_g9_f1k1f2k2f16k4_ta-23x7x37x3",
            ),
        ],
    )
    def test_outputs_match_per_token_formatter(self, tmp_path, name, shape):
        # 60x104 is indivisible by k4's 8x8 and by the 32x32 tail windows
        path = tmp_path / "latent.fplt"
        write_video(path, LatentVideo(rng(3).normal(size=shape).astype(np.float32)))
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


# td, ta and tc tails at the start and at the end (two inverted), no tail
# (a full one, and one whose excess history raises), entries of a count
# their kernel step does not divide, and the bench's own schedule
PACK_NAMES = [
    "td_f4k2f1k1_g2",
    "ta_f4k2f1k1_g2",
    "tc_f4k2f1k1_g2",
    "td_f3k2_g1",
    "f1k1_g2_f1k1f2k2_td",
    "f1k1_x_g3_f1k1f4k2_td",
    "f1k1_x_g3_f1k1f4k2_ta",
    "f1k1_g2_f1k1f2k2_tc",
    "f4k2f1k1_g2",
    "f1k1_g2_f2k2",
    "td_f16k4f2k2f1k1_g9",
]


@st.composite
def pack_cases(draw):
    """A schedule, a float32 history of 0-40 small frames and both pad flags.
    Half the histories have at most 6 frames, so short entries are drawn."""
    name = draw(st.sampled_from(PACK_NAMES))
    frames = draw(st.integers(0, 6) | st.integers(0, 40))
    shape = (frames, *(draw(st.integers(1, n)) for n in (9, 9, 3)))
    frames = rng(draw(st.integers(0, 2**32 - 1))).normal(size=shape).astype(np.float32)
    flags = [f for f in ("--pad-history", "--pad-spatial") if draw(st.booleans())]
    return name, frames, flags


def pack_run(argv):
    """Exit code and stderr of one ``main`` call."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


class TestPackReadsBoundFrames:
    @settings(max_examples=300, deadline=None)
    @given(pack_cases())
    def test_matches_whole_history_path(self, tmp_path_factory, case):
        name, frames, flags = case
        root = tmp_path_factory.mktemp("pack")
        video, out, want = root / "v.fplt", root / "o.fplt", root / "w.fplt"
        write_tensor(video, frames)
        try:
            context = apply_schedule(
                read_video(video),
                parse_schedule(name),
                pad_history="--pad-history" in flags,
                pad_spatial="--pad-spatial" in flags,
            )
        except cli.USAGE_ERRORS as exc:
            expected = 2, f"ctxpack: {exc}\n"
        except ValueError as exc:
            expected = 3, f"ctxpack: {exc}\n"
        else:
            cli._write_packed(context, str(want), None)
            expected = 0, ""
        assert pack_run(["pack", name, str(video), "-o", str(out), *flags]) == expected
        if expected[0] == 0:
            assert out.read_bytes() == want.read_bytes()
            assert (root / "o.fplt.prov").read_bytes() == (root / "w.fplt.prov").read_bytes()
        else:
            assert sorted(p.name for p in root.iterdir()) == ["v.fplt"]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "name, frame",
        [
            # of 40 frames, the first binds frames 21..40, the second 0..20
            ("td_f16k4f2k2f1k1_g9", 0),
            ("td_f16k4f2k2f1k1_g9", 20),
            ("f1k1_x_g9_f1k1f2k2f16k4_td", 20),
            ("f1k1_x_g9_f1k1f2k2f16k4_td", 39),
        ],
    )
    def test_non_finite_deleted_frame_is_not_read(self, tmp_path, name, frame, bad):
        arr = rng(11).normal(size=(40, 8, 8, 2)).astype(np.float32)
        finite, broken = tmp_path / "finite.fplt", tmp_path / "broken.fplt"
        write_tensor(finite, arr)
        arr[frame, 7, 7, 1] = bad
        write_tensor(broken, arr)
        outputs = []
        for video in (finite, broken):
            out = tmp_path / f"{video.stem}.out"
            assert pack_run(["pack", name, str(video), "-o", str(out), "--pad-spatial"]) == (0, "")
            outputs.append((out.read_bytes(), Path(f"{out}.prov").read_bytes()))
        assert outputs[0] == outputs[1]

    def test_peak_does_not_grow_with_history(self, tmp_path):
        # a td pack of 200 frames reads the 19 that a 19-frame pack reads;
        # reading all 200 32 KiB frames would peak at many times that
        argvs = []
        for frames in (19, 200):
            path = tmp_path / f"h{frames}.fplt"
            write_tensor(path, rng(frames).normal(size=(frames, 32, 32, 8)).astype(np.float32))
            argvs.append(["pack", "td_f16k4f2k2f1k1_g9", str(path), "-o", str(tmp_path / "o")])
        assert pack_run(argvs[0])[0] == 0  # builds the parser before anything is measured
        peaks = []
        for argv in argvs:
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                assert pack_run(argv)[0] == 0
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
            finally:
                tracemalloc.stop()
        assert peaks[1] < 2 * peaks[0]

    @pytest.mark.parametrize(
        "flags, shape, extra, message",
        [
            (1, (40, 8, 8, 2), b"", "holds a codebook, not a latent video"),
            (0, (40, 8, 8, 2), b"\0", "expected 20508 bytes, found 20509"),
            (0, (40, 0, 8, 2), b"", "H, W, C must all be >= 1, got shape (40, 0, 8, 2)"),
            (0, (40, 8, 8, 0), b"", "H, W, C must all be >= 1, got shape (40, 8, 8, 0)"),
        ],
    )
    def test_rejected_file_fails_before_payload(
        self, tmp_path, monkeypatch, flags, shape, extra, message
    ):
        # the td pack would read frames 21..40; the file's own shape is named
        def no_read(*args):
            raise AssertionError("payload read")

        video = tmp_path / "v.fplt"
        write_tensor(video, np.ones(shape, dtype=np.float32), flags=flags)
        video.write_bytes(video.read_bytes() + extra)
        monkeypatch.setattr(fplt, "_read_payload", no_read)
        argv = ["pack", "td_f16k4f2k2f1k1_g9", str(video), "-o", str(tmp_path / "o.fplt")]
        code, err = pack_run(argv)
        assert code == 3
        assert err.endswith(f"{message}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["v.fplt"]

    @pytest.mark.parametrize(
        "name, height, code, message",
        [
            ("td_f1k1_g1+D", 8, 2, "schedule 'td_f1k1_g1+D' packs a discretized history; run "
             "`ctxpack quantize` first, then pack 'td_f1k1_g1'"),
            ("td_f1k1h1w1_g1", 8, 2, "kernel (1, 1, 1) is not a multiple of any learned kernel"),
            ("td_f3k2_g1", 8, 2, "entry of 3 frames is not divisible by kernel step 2"),
            ("f1k1_g1", 8, 3, "history of 20 frames exceeds schedule capacity 1 and there is "
             "no tail marker"),
            ("f30k1_g1", 8, 3, "history of 20 frames cannot fill entries needing 30 frames"),
            ("td_f1k1_g1", 7, 2, "latent dims 7x8 are not divisible by kernel (1, 2, 2)"),
        ],
        ids=["discretized", "kernel", "entry", "excess", "short", "dims"],
    )
    def test_checks_that_need_no_frame_come_before_any_read(
        self, tmp_path, monkeypatch, name, height, code, message
    ):
        # every pack here would read frame 19, whose NaN is never named
        def no_read(*args):
            raise AssertionError("payload read")

        arr = rng(17).normal(size=(20, height, 8, 2)).astype(np.float32)
        arr[19, 0, 0, 0] = np.nan
        video = tmp_path / "v.fplt"
        write_tensor(video, arr)
        monkeypatch.setattr(fplt, "_read_payload", no_read)
        argv = ["pack", name, str(video), "-o", str(tmp_path / "o.fplt")]
        assert pack_run(argv) == (code, f"ctxpack: {message}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["v.fplt"]


# ta and tc tails at the start and at the end, one after a gap, and one
# whose entry of 3 frames its kernel step does not divide
TAIL_NAMES = [
    "ta_f4k2f1k1_g2",
    "tc_f4k2f1k1_g2",
    "f1k1_g2_f1k1f2k2_ta",
    "f1k1_x_g3_f1k1f4k2_ta",
    "f1k1_g2_f1k1f2k2_tc",
    "tc_f3k2_g1",
]


@st.composite
def tail_cases(draw):
    """A ta or tc schedule, a float32 history of 0-40 small frames with
    values over 2^-30 .. 2^30 and some pixels -0.0 in every frame, mostly
    both pad flags, and a tail run of one to three frames. The float32
    output hides most last-bit changes of the float64 tail mean, which
    ``test_packing.TestTailRuns`` compares in float64."""
    name = draw(st.sampled_from(TAIL_NAMES))
    shape = (draw(st.integers(0, 40)), *(draw(st.integers(1, n)) for n in (9, 9, 3)))
    gen = rng(draw(st.integers(0, 2**32 - 1)))
    frames = gen.normal(size=shape) * 2.0 ** gen.integers(-30, 31, shape)
    frames[:, gen.random(shape[1:]) < 0.2] = -0.0
    mostly = st.sampled_from([True, True, True, False])
    flags = [f for f in ("--pad-history", "--pad-spatial") if draw(mostly)]
    return name, frames.astype(np.float32), flags, draw(st.integers(1, 3))


# td, ta and tc tails, at the start and at the end of the schedule
RAW_NAMES = [
    "td_f4k2f1k1_g2",
    "ta_f4k2f1k1_g2",
    "tc_f4k2f1k1_g2",
    "f1k1_x_g3_f1k1f4k2_td",
    "f1k1_x_g3_f1k1f4k2_ta",
    "f1k1_g2_f1k1f2k2_tc",
]


@st.composite
def raw_cases(draw):
    """A schedule of ``RAW_NAMES``, both pad flags, and a float32 history of
    0-30 small frames with no non-finite value or one at a random frame."""
    name = draw(st.sampled_from(RAW_NAMES))
    shape = (draw(st.integers(0, 30)), *(draw(st.integers(1, n)) for n in (6, 6, 2)))
    frames = rng(draw(st.integers(0, 2**32 - 1))).normal(size=shape).astype(np.float32)
    if shape[0] and draw(st.booleans()):
        pixel = tuple(draw(st.integers(0, n - 1)) for n in shape)
        frames[pixel] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    flags = [f for f in ("--pad-history", "--pad-spatial") if draw(st.booleans())]
    return name, frames, flags


def expected_run(call):
    """The exit code and stderr ``ctxpack`` gives for the library ``call``,
    and its result (None if it raised)."""
    try:
        result = call()
    except cli.USAGE_ERRORS as exc:
        return (2, f"ctxpack: {exc}\n"), None
    except ValueError as exc:
        return (3, f"ctxpack: {exc}\n"), None
    return (0, ""), result


class TestRawArrayMatchesFile:
    """A raw array is checked only in the frames a call reads, as the
    command checks its file: the library call on the array and the command
    on its file give the same bytes, or the same error, exit 3 for a
    ``ValueError``."""

    @settings(max_examples=300, deadline=None)
    @given(raw_cases())
    def test_pack_and_drift(self, tmp_path_factory, case):
        name, frames, flags = case
        root = tmp_path_factory.mktemp("raw")
        video, out, want = root / "v.fplt", root / "o.fplt", root / "w.fplt"
        write_tensor(video, frames)
        schedule = parse_schedule(name)
        pads = dict(pad_history="--pad-history" in flags, pad_spatial="--pad-spatial" in flags)
        expected, context = expected_run(lambda: apply_schedule(frames, schedule, **pads))
        if context is not None:
            cli._write_packed(context, str(want), None)
        assert pack_run(["pack", name, str(video), "-o", str(out), *flags]) == expected
        if context is not None:
            assert out.read_bytes() == want.read_bytes()
            assert (root / "o.fplt.prov").read_bytes() == (root / "w.fplt.prov").read_bytes()
        expected, report = expected_run(lambda: drift_report(frames, builtin_metrics()))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["drift", str(video)])
        assert (code, err.getvalue()) == expected
        assert out.getvalue() == (report or "")


class TestPackStreamsTail:
    """A ta or tc pack reads its bound frames whole and its tail in runs."""

    @settings(max_examples=200, deadline=None)
    @given(tail_cases())
    def test_runs_match_whole_history_path(self, tmp_path_factory, case):
        name, frames, flags, run = case
        root = tmp_path_factory.mktemp("tail")
        video, out, want = root / "v.fplt", root / "o.fplt", root / "w.fplt"
        write_tensor(video, frames)
        try:
            context = apply_schedule(
                read_video(video),
                parse_schedule(name),
                pad_history="--pad-history" in flags,
                pad_spatial="--pad-spatial" in flags,
            )
        except cli.USAGE_ERRORS as exc:
            expected = 2, f"ctxpack: {exc}\n"
        except ValueError as exc:
            expected = 3, f"ctxpack: {exc}\n"
        else:
            cli._write_packed(context, str(want), None)
            expected = 0, ""
        run_bytes = run * 4 * math.prod(frames.shape[1:])
        with mock.patch.object(packing, "_RUN_BYTES", run_bytes):
            assert pack_run(["pack", name, str(video), "-o", str(out), *flags]) == expected
        if expected[0] == 0:
            assert out.read_bytes() == want.read_bytes()
            assert (root / "o.fplt.prov").read_bytes() == (root / "w.fplt.prov").read_bytes()

    @pytest.mark.parametrize("mode", ["ta", "tc"])
    def test_peak_does_not_grow_with_history(self, tmp_path, mode):
        # a pack of 200 paper-shaped frames reads the 19 a 19-frame pack
        # reads, then its 181-frame tail in runs of 10; reading all 200
        # frames at once, 80 MB, would peak at many times the 19-frame pack
        name = f"{mode}_f16k4f2k2f1k1_g9"
        argvs = []
        for frames in (19, 200):
            path = tmp_path / f"h{frames}.fplt"
            write_tensor(path, rng(frames).normal(size=(frames, 60, 104, 16)).astype(np.float32))
            argv = ["pack", name, str(path), "-o", str(tmp_path / "o")]
            argvs.append([*argv, "--pad-history", "--pad-spatial"])
        assert pack_run(argvs[0])[0] == 0  # builds the parser before anything is measured
        peaks = []
        for argv in argvs:
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                assert pack_run(argv)[0] == 0
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
            finally:
                tracemalloc.stop()
        assert peaks[1] < 2 * peaks[0]

    @pytest.mark.parametrize(
        "name, frame",
        [
            # of 40 frames, the first binds 21..40, the others 0..20 and 0..19
            ("ta_f16k4f2k2f1k1_g9", 0),
            ("tc_f16k4f2k2f1k1_g9", 20),
            ("f1k1_x_g9_f1k1f2k2f16k4_ta", 39),
            ("f1k1_x_g9_f1k1f2k2f16k4_tc", 30),
        ],
    )
    def test_non_finite_tail_frame_exits_3_and_keeps_no_file(self, tmp_path, name, frame):
        arr = rng(15).normal(size=(40, 8, 8, 2)).astype(np.float32)
        arr[frame, 3, 3, 1] = np.nan
        video = tmp_path / "v.fplt"
        write_tensor(video, arr)
        with mock.patch.object(packing, "_RUN_BYTES", 2 * arr[0].nbytes):
            code, err = pack_run(["pack", name, str(video), "-o", str(tmp_path / "o.fplt")])
        assert (code, err) == (3, "ctxpack: latent video must contain only finite values\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["v.fplt"]

    @pytest.mark.parametrize(
        "name, frame, message",
        [
            # every check that needs no frame runs before any frame is read
            ("f1k1_g2_f3k2_ta", 19, "entry of 3 frames is not divisible by kernel step 2"),
            ("f1k1_g2_f3k2_tc", 19, "entry of 3 frames is not divisible by kernel step 2"),
            # the schedule's checks come before any tail is read
            ("ta_f2k2h1w1_g1", 0, "kernel (2, 1, 1) is not a multiple of any learned kernel"),
            ("f1k1_g1_tc", 19, "schedule 'f1k1_g1_tc' has its tail at the end but no entry "
             "after the generated section"),
        ],
        ids=["entry-ta", "entry-tc", "kernel", "tail-at-end"],
    )
    def test_usage_error_wins_over_non_finite_tail(self, tmp_path, name, frame, message):
        arr = rng(16).normal(size=(20, 8, 8, 2)).astype(np.float32)
        arr[frame, 0, 0, 0] = np.nan
        video = tmp_path / "v.fplt"
        write_tensor(video, arr)
        argv = ["pack", name, str(video), "-o", str(tmp_path / "o.fplt")]
        assert pack_run(argv) == (2, f"ctxpack: {message}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["v.fplt"]


class TestOutputOverInput:
    """A command whose output is its input reads all of it before the
    output replaces it."""

    @pytest.mark.parametrize("mode", ["ta", "tc"])
    def test_pack(self, tmp_path, mode):
        video, other = tmp_path / "v.fplt", tmp_path / "other.fplt"
        write_tensor(video, rng(17).normal(size=(40, 9, 7, 3)).astype(np.float32))
        argv = [f"{mode}_f16k4f2k2f1k1_g9", "--pad-history", "--pad-spatial"]
        with mock.patch.object(packing, "_RUN_BYTES", 4 * 9 * 7 * 3 * 2):
            assert main(["pack", argv[0], str(video), "-o", str(other), *argv[1:]]) == 0
            assert main(["pack", argv[0], str(video), "-o", str(video), *argv[1:]]) == 0
        assert video.read_bytes() == other.read_bytes()
        assert Path(f"{video}.prov").read_bytes() == Path(f"{other}.prov").read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["v.fplt", "v.fplt.prov", "other.fplt", "other.fplt.prov"]
        )

    def test_quantize(self, tmp_path):
        video, other, book = tmp_path / "v.fplt", tmp_path / "other.fplt", tmp_path / "cb.fplt"
        write_tensor(video, rng(18).normal(size=(40, 4, 4, 2)).astype(np.float32))
        write_codebook(book, Codebook(rng(19).normal(size=(4, 2))))
        # runs of 3 frames: the input is read in 14 runs before it is replaced
        with mock.patch.object(codebook, "_SCORE_BYTES", 4 * 4 * 4 * 4 * 3):
            for out in (other, video):
                assert main(["quantize", str(video), "--codebook", str(book), "-o", str(out)]) == 0
        assert video.read_bytes() == other.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cb.fplt", "other.fplt", "v.fplt"]


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
        # a value with a leading "-" after a space, read as a value
        ("--tol", "-inf"), ("--tol", "-1e-3"),
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

    @pytest.mark.parametrize("flag,value,message", [
        ("--k", "0", "k must be >= 1"),
        ("--max-iters", "0", "max_iters must be >= 1, got 0"),
        ("--tol", "-1", "tol must be finite and >= 0, got -1.0"),
    ])
    def test_fit_arguments_are_checked_before_any_read(
        self, tmp_path, monkeypatch, capsys, flag, value, message
    ):
        # both inputs hold a NaN, which only a read would name
        def no_read(*args):
            raise AssertionError("payload read")

        inputs = [tmp_path / "a.fplt", tmp_path / "b.fplt"]
        for path in inputs:
            write_tensor(path, np.full((2, 2, 2, 2), np.nan, np.float32))
        monkeypatch.setattr(fplt, "_read_payload", no_read)
        args = {"--k": "2", "--max-iters": "5", "--tol": "0", flag: value}
        argv = ["codebook", "fit", *map(str, inputs), "--seed", "1", "-o", str(tmp_path / "cb")]
        assert main(argv + [a for kv in args.items() for a in kv]) == 3
        assert capsys.readouterr().err == f"ctxpack: {message}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.fplt", "b.fplt"]


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


class TestQuantizeReadsThroughOneCore:
    """``ctxpack quantize`` is one call of ``codebook._quantized``, which
    checks the channels from the shape and then reads the runs in order."""

    @pytest.mark.parametrize("frames", [0, 3])
    def test_channel_mismatch_reads_no_frame(self, frames):
        calls = []

        def read(start, stop):
            calls.append((start, stop))
            raise AssertionError("frames read")

        with pytest.raises(ValueError, match="^video has 3 channels, codebook has 2$"):
            codebook._quantized((frames, 2, 2, 3), read, Codebook(np.eye(2)))
        assert calls == []

    def test_channel_mismatch_is_named_before_a_nan(self, tmp_path, monkeypatch, capsys):
        arr = rng(21).normal(size=(3, 2, 2, 3)).astype(np.float32)
        arr[0, 0, 0, 0] = np.nan
        video, book = tmp_path / "v.fplt", tmp_path / "cb.fplt"
        write_tensor(video, arr)
        write_codebook(book, Codebook(np.eye(2)))
        read_payload = fplt._read_payload

        def codebook_only(fh, path, *args):
            assert path == str(book), "video payload read"
            read_payload(fh, path, *args)

        monkeypatch.setattr(fplt, "_read_payload", codebook_only)
        argv = ["quantize", str(video), "--codebook", str(book), "-o", str(tmp_path / "o.fplt")]
        assert main(argv) == 3
        assert capsys.readouterr().err == "ctxpack: video has 3 channels, codebook has 2\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cb.fplt", "v.fplt"]

    @pytest.mark.parametrize("frames", [0, 1, 7, 9])
    def test_runs_are_read_in_order(self, frames):
        # runs of 3 frames of 2x2 pixels against 4 two-channel centroids
        whole = LatentVideo(rng(frames).normal(size=(frames, 2, 2, 2)).astype(np.float32))
        book = Codebook(rng(22).normal(size=(4, 2)))
        calls = []

        def read(start, stop):
            calls.append((start, stop))
            return whole.array[start:stop]

        with mock.patch.object(codebook, "_SCORE_BYTES", 4 * 4 * 2 * 2 * 3):
            rows = list(codebook._quantized(whole.array.shape, read, book))
        assert calls == [(t, min(t + 3, frames)) for t in range(0, frames, 3)]
        want = discretize_history(whole, book).array.astype(np.float32)
        assert np.concatenate([want[:0], *rows]).tobytes() == want.tobytes()


class TestOneReadDrivesEveryCore:
    """One ``read(start, stop)`` that returns read-only array slices, the
    form ``fplt._open_video`` gives, drives the core of ``ctxpack pack``,
    ``drift`` and ``quantize`` as it is; each reads only its ranges and
    gives the bytes of its in-memory entry."""

    def test_pack_drift_and_quantize(self):
        whole = LatentVideo(rng(25).normal(size=(30, 8, 8, 2)).astype(np.float32))
        calls = []

        def read(start, stop):
            calls.append((start, stop))
            return whole.array[start:stop]

        schedule = parse_schedule("ta_f16k4f2k2f1k1_g9")
        # the 19 bound frames 11..30 at once, then the 11-frame tail in runs of 4
        with mock.patch.object(packing, "_RUN_BYTES", 4 * 4 * 8 * 8 * 2):
            got = packing._packed(whole.array.shape, read, schedule, False, True)
        assert calls == [(11, 30), (0, 4), (4, 8), (8, 11)]
        want = apply_schedule(whole, schedule, pad_spatial=True)
        assert got.features.tobytes() == want.features.tobytes()
        assert (got.budget, got.generate_span, got.tail_span) == (
            want.budget, want.generate_span, want.tail_span
        )

        calls.clear()
        metrics = builtin_metrics()
        # the two 4-frame windows, 15% of 30 frames
        assert _report(whole.array.shape, read, metrics) == drift_report(whole, metrics)
        assert calls == [(0, 4), (26, 30)]

        calls.clear()
        book = Codebook(rng(26).normal(size=(4, 2)))
        # runs of 7 frames of 8x8 pixels against 4 two-channel centroids
        with mock.patch.object(codebook, "_SCORE_BYTES", 4 * 4 * 8 * 8 * 7):
            rows = list(codebook._quantized(whole.array.shape, read, book))
        assert calls == [(0, 7), (7, 14), (14, 21), (21, 28), (28, 30)]
        want = discretize_history(whole, book).array.astype(np.float32)
        assert np.concatenate(rows).tobytes() == want.tobytes()


class TestFitChecksChannelsFirst:
    """``ctxpack codebook fit`` compares its inputs' channel counts from
    their headers, through the check ``fit_codebook`` runs, before it reads
    any payload."""

    def test_mixed_channels_are_named_before_a_nan(self, tmp_path, monkeypatch, capsys):
        a = rng(23).normal(size=(2, 2, 2, 2)).astype(np.float32)
        a[1, 1, 1, 1] = np.nan
        write_tensor(tmp_path / "a.fplt", a)
        write_tensor(tmp_path / "b.fplt", rng(24).normal(size=(2, 2, 2, 3)).astype(np.float32))

        def no_payload(*args):
            raise AssertionError("payload read")

        monkeypatch.setattr(fplt, "_read_payload", no_payload)
        out = tmp_path / "c.fplt"
        argv = ["codebook", "fit", str(tmp_path / "a.fplt"), str(tmp_path / "b.fplt")]
        assert main([*argv, "--k", "1", "--seed", "0", "-o", str(out)]) == 3
        assert capsys.readouterr().err == "ctxpack: dataset videos have mixed channel counts\n"
        assert not out.exists()

    def test_library_fit_gives_the_same_message(self):
        videos = [LatentVideo(np.zeros((1, 1, 1, c))) for c in (2, 2, 3)]
        with pytest.raises(ValueError, match="^dataset videos have mixed channel counts$"):
            codebook.fit_codebook(videos, 1, 0)


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

    @pytest.mark.parametrize(
        "initial",
        [
            pytest.param(["--initial=nan"], id="nan"),
            pytest.param(["--initial=inf"], id="inf"),
            pytest.param(["--initial=-inf"], id="-inf"),
            # a value with a leading "-" after a space is a value, not an
            # option name, as in the "=" form
            pytest.param(["--initial", "-inf"], id="space--inf"),
            pytest.param(["--initial", "-nan"], id="space--nan"),
            pytest.param(["--initial", "-Infinity"], id="space--Infinity"),
        ],
    )
    def test_non_finite_initial_exits_3(self, tmp_path, capsys, initial):
        log = tmp_path / "matches.csv"
        log.write_text("a,b,A\n")
        assert main(["elo", str(log), *initial, "--ranks"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("ctxpack: initial rating must be finite")

    @pytest.mark.parametrize("initial", [["--initial=-1e3"], ["--initial", "-1e3"]])
    def test_negative_exponent_initial(self, tmp_path, capsys, initial):
        log = tmp_path / "matches.csv"
        log.write_text("a,b,A\n")
        assert main(["elo", str(log), *initial]) == 0
        assert capsys.readouterr().out == "a=-984.0\nb=-1016.0\n"


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
