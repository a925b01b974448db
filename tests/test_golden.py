"""The bench corpus against ``perfbench/golden.json``: one untimed pass of
each workload (``perfbench/run.py --seconds 0``, every warning an error)
must reproduce the stored digests of every op, among them the pack,
``.prov`` and RoPE bytes, so a refactor that changes an output fails here.
The three workloads run at once, each in its own process."""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("rollout", "clip-tools", "codebook")
TIMEOUT_S = 300  # for all three together; a pass of each takes seconds


def test_bench_corpus_matches_golden(tmp_path):
    logs = {name: (tmp_path / f"{name}.out", tmp_path / f"{name}.err") for name in WORKLOADS}
    procs, codes = {}, {}
    try:
        for name, (out, err) in logs.items():
            argv = [sys.executable, "-W", "error", "perfbench/run.py",
                    "--workload", name, "--seconds", "0"]
            with out.open("w") as stdout, err.open("w") as stderr:
                procs[name] = subprocess.Popen(argv, cwd=ROOT, stdout=stdout, stderr=stderr)
        deadline = time.monotonic() + TIMEOUT_S
        for name, proc in procs.items():
            try:
                codes[name] = proc.wait(max(0.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                pytest.fail(f"{name} ran past {TIMEOUT_S} s; all three workloads killed")
    finally:
        for proc in procs.values():
            proc.kill()
            proc.wait()
    failures = []
    for name, (out, err) in logs.items():
        lines = out.read_text().splitlines()
        try:
            correct = json.loads(lines[-1])["correct"] is True
        except (IndexError, ValueError, KeyError, TypeError):
            correct = False
        if codes[name] != 0 or not correct:
            tail = "\n".join(err.read_text().splitlines()[-20:])
            failures.append(f"{name}: exit {codes[name]}, correct {correct}\n{tail}")
    if failures:
        pytest.fail("outputs differ from golden.json:\n" + "\n".join(failures), pytrace=False)
