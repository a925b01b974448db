"""Command checks over small FPLT files, each run in-process through
``cli.main`` in its own directory: exit codes, and outputs compared byte
for byte with a second run or with the library call the command stands
for. pyproject raises every warning as an error, on every numpy a test
leg installs. One test runs the installed ``ctxpack`` entry point, and
skips where it is not on PATH."""

import math
import os
import shutil
import struct
import subprocess
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from ctxpack import cli, fplt
from ctxpack.cli import main
from ctxpack.codebook import discretize_history, fit_codebook
from ctxpack.packing import apply_schedule
from ctxpack.schedule import parse_schedule


def normal(seed, shape):
    return np.random.default_rng(seed).normal(size=shape).astype(np.float32)


def test_replace_outputs(tmp_path, monkeypatch, capsys):
    # quantize and pack each write twice onto one -o, the second time
    # replacing the first output through a temp file reserved to its final
    # size: the two outputs are equal byte for byte, each FPLT file is
    # 28 + 4N bytes for the N values its header names, and no temp file is
    # left behind
    monkeypatch.chdir(tmp_path)
    fplt.write_tensor("h.fplt", normal(8, (19, 16, 16, 4)))
    assert main(["codebook", "fit", "h.fplt", "--k", "16", "--seed", "0", "-o", "cb.fplt"]) == 0
    for i in (1, 2):
        assert main(["quantize", "h.fplt", "--codebook", "cb.fplt", "-o", "q.fplt"]) == 0
        assert main(["pack", "td_f16k4f2k2f1k1_g9", "h.fplt", "-o", "p.pack", "--pad-spatial"]) == 0
        shutil.copy("q.fplt", f"q{i}.fplt")
        shutil.copy("p.pack", f"p{i}.pack")
        shutil.copy("p.pack.prov", f"p{i}.prov")
    capsys.readouterr()
    for first, second in (("q1.fplt", "q2.fplt"), ("p1.pack", "p2.pack"), ("p1.prov", "p2.prov")):
        assert Path(first).read_bytes() == Path(second).read_bytes()
    for name in ("q1.fplt", "q2.fplt", "p1.pack", "p2.pack"):
        dims = struct.unpack("<4sII4I", Path(name).read_bytes()[:28])[3:]
        assert Path(name).stat().st_size == 28 + 4 * math.prod(dims), (name, dims)
    assert list(tmp_path.rglob("*.tmp")) == []


def test_commands_exit_0(tmp_path, capsys):
    # an inverted plan after two user frames, a multi-endpoint plan of two
    # 10^12-frame anchors, checked by their ends rather than frame by
    # frame, and the ranks of a three-match log
    matches = tmp_path / "matches.csv"
    matches.write_text("a,b,A\nb,c,D\nc,a,B\n")
    tera, two_tera = "1000000000000", "2000000000000"
    anchors = f"0..{tera},{tera}..{two_tera}"
    for argv in (
        ["plan", "f1k1_x_g9_f1k1f2k2f16k4_td", "--total", "28", "--section", "9",
         "--user-frames", "2"],
        ["plan", "td_f16k4f2k2f1k1_g9_x_f1k1", "--total", two_tera, "--section", tera,
         "--endpoints", anchors],
        ["elo", str(matches), "--ranks"],
    ):
        assert main(argv) == 0, argv
        assert capsys.readouterr().err == "", argv


# (input, k): one two-channel frame; 16 and 130 channels, whose squared
# distances are summed channel-major in numpy's pairwise order; and k = 300
# over 512 pixels, whose near-tie counts need two bytes
_wide = np.random.default_rng(3)
FITS = {
    "c2-k4": (normal(0, (1, 4, 4, 2)), 4),
    "c16-k8": (_wide.normal(size=(2, 6, 8, 16)).astype(np.float32), 8),
    "c130-k8": (_wide.normal(size=(2, 6, 8, 130)).astype(np.float32), 8),
    "k300": (normal(4, (2, 16, 16, 4)), 300),
}


def fit(video, k):
    fplt.write_tensor("h.fplt", video)
    assert main(["codebook", "fit", "h.fplt", "--k", str(k), "--seed", "0", "-o", "cb.fplt"]) == 0


@pytest.mark.parametrize("video, k", FITS.values(), ids=FITS.keys())
def test_quantize_is_idempotent(tmp_path, monkeypatch, video, k):
    monkeypatch.chdir(tmp_path)
    fit(video, k)
    assert main(["quantize", "h.fplt", "--codebook", "cb.fplt", "-o", "q.fplt"]) == 0
    assert main(["quantize", "q.fplt", "--codebook", "cb.fplt", "-o", "qq.fplt"]) == 0
    assert Path("q.fplt").read_bytes() == Path("qq.fplt").read_bytes()


def test_quantize_past_255_centroids_matches_library(tmp_path, monkeypatch):
    # 40 frames of 16x16 against 300 centroids are searched in runs of 13
    # frames; the output equals the public discretize_history of the file
    monkeypatch.chdir(tmp_path)
    fit(*FITS["k300"])
    fplt.write_tensor("l.fplt", normal(6, (40, 16, 16, 4)))
    assert main(["quantize", "l.fplt", "--codebook", "cb.fplt", "-o", "q.fplt"]) == 0
    whole = discretize_history(fplt.read_video("l.fplt"), fplt.read_codebook("cb.fplt"))
    fplt.write_tensor("w.fplt", whole.array)
    assert Path("q.fplt").read_bytes() == Path("w.fplt").read_bytes()


def test_video_of_no_frames_quantizes_to_its_header(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    fit(*FITS["c2-k4"])
    fplt.write_tensor("empty.fplt", np.zeros((0, 4, 4, 2), np.float32))
    assert main(["quantize", "empty.fplt", "--codebook", "cb.fplt", "-o", "q.fplt"]) == 0
    assert Path("q.fplt").read_bytes() == Path("empty.fplt").read_bytes()


def test_fit_holds_one_input_open_at_a_time(tmp_path, monkeypatch):
    # a fit over three inputs of different sizes never holds two open at
    # once, checks every header before it reads any payload, and fits the
    # codebook the library fits over the three videos
    monkeypatch.chdir(tmp_path)
    names = ["a.fplt", "b.fplt", "c.fplt"]
    fplt.write_tensor("a.fplt", FITS["c2-k4"][0])
    fplt.write_tensor("b.fplt", normal(1, (40, 8, 8, 2)))
    fplt.write_tensor("c.fplt", normal(2, (3, 5, 7, 2)))
    fplt.write_codebook("want.fplt", fit_codebook([fplt.read_video(p) for p in names], 4, 0))
    open_video, header, payload = fplt._open_video, fplt._header, fplt._read_payload
    held, depths, events = [], [], []

    @contextmanager
    def open_spy(path):
        held.append(path)
        depths.append(len(held))
        try:
            with open_video(path) as opened:
                yield opened
        finally:
            held.remove(path)

    def header_spy(fh, path, **kwargs):
        events.append(("header", path))
        return header(fh, path, **kwargs)

    def payload_spy(fh, path, *args):
        events.append(("payload", path))
        return payload(fh, path, *args)

    monkeypatch.setattr(fplt, "_open_video", open_spy)
    monkeypatch.setattr(fplt, "_header", header_spy)
    monkeypatch.setattr(fplt, "_read_payload", payload_spy)
    argv = ["codebook", "fit", *names, "--k", "4", "--seed", "0", "-o", "cb.fplt"]
    assert main(argv) == 0
    assert max(depths) == 1
    first = next(n for n, (kind, _) in enumerate(events) if kind == "payload")
    assert {path for _, path in events[:first]} == set(names)
    assert {path for kind, path in events if kind == "payload"} == set(names)
    assert Path("cb.fplt").read_bytes() == Path("want.fplt").read_bytes()


# a two-channel file, and a one-channel one whose 9x13 frames divide by
# neither 2 nor 32, so each of its window sums, whole or clipped, adds one
# channel in memory order
TAIL_FILES = {"c2": normal(1, (40, 8, 8, 2)), "c1-9x13": normal(5, (40, 9, 13, 1))}


@pytest.mark.parametrize("frames", TAIL_FILES.values(), ids=TAIL_FILES.keys())
@pytest.mark.parametrize("name", [
    "ta_f16k4f2k2f1k1_g9", "tc_f16k4f2k2f1k1_g9",
    "f1k1_x_g9_f1k1f2k2f16k4_ta", "f1k1_x_g9_f1k1f2k2f16k4_tc",
])
def test_tail_runs_match_whole_history(tmp_path, monkeypatch, name, frames):
    # the pack reads its bound frames at once and its tail apart, in runs
    # (one at this size); its features and .prov equal those of the library
    # pack of the whole history, read at once
    monkeypatch.chdir(tmp_path)
    fplt.write_tensor("v.fplt", frames)
    assert main(["pack", name, "v.fplt", "-o", "p.pack", "--pad-history", "--pad-spatial"]) == 0
    whole = apply_schedule(
        fplt.read_video("v.fplt"), parse_schedule(name), pad_history=True, pad_spatial=True
    )
    cli._write_packed(whole, "w.pack", None)
    for got, want in (("p.pack", "w.pack"), ("p.pack.prov", "w.pack.prov")):
        assert Path(got).read_bytes() == Path(want).read_bytes()


def test_installed_entry_point(capsys):
    # the [project.scripts] entry runs main, with any warning an error
    script = shutil.which("ctxpack")
    if script is None:
        pytest.skip("no ctxpack on PATH: install the package to run its entry point")
    argv = ["parse", "td_f16k4f2k2f1k1_g9"]
    env = {**os.environ, "PYTHONWARNINGS": "error"}
    run = subprocess.run([script, *argv], capture_output=True, text=True, env=env, check=False)
    assert main(argv) == 0
    assert (run.returncode, run.stdout, run.stderr) == (0, capsys.readouterr().out, "")
