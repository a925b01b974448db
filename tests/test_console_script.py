"""Checks the tier-1 workflow once ran as shell steps, run in-process
through ``cli.main`` with every warning raised as an error, as
``PYTHONWARNINGS=error`` raised them for the console script."""

import math
import shutil
import struct
import warnings
from pathlib import Path

import numpy as np

from ctxpack import fplt
from ctxpack.cli import main


def test_replace_outputs(tmp_path, monkeypatch, capsys):
    # quantize and pack each write twice onto one -o, the second time
    # replacing the first output through a temp file reserved to its final
    # size: the two outputs are equal byte for byte, each FPLT file is
    # 28 + 4N bytes for the N values its header names, and no temp file is
    # left behind
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        history = np.random.default_rng(8).normal(size=(19, 16, 16, 4)).astype(np.float32)
        fplt.write_tensor("h.fplt", history)
        assert main(["codebook", "fit", "h.fplt", "--k", "16", "--seed", "0", "-o", "cb.fplt"]) == 0
        for i in (1, 2):
            assert main(["quantize", "h.fplt", "--codebook", "cb.fplt", "-o", "q.fplt"]) == 0
            pack = ["pack", "td_f16k4f2k2f1k1_g9", "h.fplt", "-o", "p.pack", "--pad-spatial"]
            assert main(pack) == 0
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
