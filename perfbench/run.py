"""ctxpack benchmark: seeded closed-loop workloads, checked outputs, traced layers.

One workload per process, run from the root of a checkout:

    python3 perfbench/run.py --workload rollout --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run; the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. Two more modes:

    python3 perfbench/run.py --repeat 10 [--workload NAME] [--seconds S]
    python3 perfbench/run.py --capture-golden

``--repeat`` runs each workload in a fresh process under seeds 1..N (or
N seeds from ``--seed``) and prints every end-to-end metric's median and
quartile spread against its bound in BENCHMARK.json. ``--capture-golden`` rewrites golden.json, the
digests of the reference corpus's outputs.
"""

from __future__ import annotations

import os
import sys
import time

PROCESS_START = time.perf_counter()

# One BLAS/OpenMP thread, fixed before numpy loads, so a library change
# (say, a matmul-based nearest-centroid search) cannot change how many
# threads the benchmark runs with. It is no higher than nproc anywhere.
THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
OUT = ROOT / ".perfbench-out"
GOLDEN = HERE / "golden.json"
SETUPS = 5  # set-ups per run; setup_s is their median
REFERENCE_SEED = 20250417  # seed of the corpus golden.json describes
WORKLOAD_NAMES = ("rollout", "clip-tools", "codebook")

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


def _load_library():
    """Import ctxpack from the checkout's ``src``; exit 2 if it is absent."""
    if not (ROOT / "src" / "ctxpack" / "__init__.py").is_file():
        print(f"perfbench: no ctxpack sources under {ROOT / 'src'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import numpy
    import tracing
    import workloads

    return numpy, tracing, workloads


def environment(numpy) -> dict:
    return {
        "threads": THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


class Runner:
    """Executes ops, times them, checks their outputs and counts failures."""

    def __init__(self, workloads, tracer=None) -> None:
        self.workloads = workloads
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.digests: dict[str, dict] = {}
        self.op_id = 0

    def execute(self, op, *, traced: bool = False, expected: dict | None = None):
        """Run one op; returns its latency in seconds, or None if it failed."""
        self.attempted += 1
        tracer = self.tracer if traced else None
        if tracer is not None:
            tracer.op = self.op_id
            tracer.install()
            root = tracer.begin(f"bench.{op.kind}")
        start = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # a failing op is counted, the run goes on
            result = exc
        latency = time.perf_counter() - start
        if tracer is not None:
            tracer.end(root)
            tracer.uninstall()
        try:
            if isinstance(result, Exception):
                raise result
            digests = op.check(result)
            reference = expected if expected is not None else self.digests.setdefault(op.key, digests)
            if digests != reference:
                raise self.workloads.CheckFailed(f"digests differ from {'golden.json' if expected else 'pass 0'}")
        except Exception as exc:
            self.failed += 1
            if self.failed <= 5:
                print(f"op {op.key} failed: {exc!r}", file=sys.stderr)
                if not isinstance(exc, self.workloads.CheckFailed):
                    traceback.print_exception(exc, file=sys.stderr)
            return None
        return latency


def set_up(workload_cls, seed, runner):
    """Build the corpus and warm up SETUPS times; keep the last one."""
    WORK.mkdir(exist_ok=True)
    times, workdirs = [], []
    for _ in range(SETUPS):
        start = time.perf_counter()
        workdir = Path(tempfile.mkdtemp(prefix=f"{workload_cls.name}-", dir=WORK))
        workload = workload_cls()
        workload.setup(seed, workdir)
        for op in workload.warmup_ops():
            runner.execute(op)
        times.append(time.perf_counter() - start)
        workdirs.append(workdir)
        if len(workdirs) > 1:
            shutil.rmtree(workdirs[-2])
    return workload, workdirs[-1], times


def run_golden(workload_cls, runner, seed, stored=None) -> None:
    """Run the reference corpus's ops; compare with ``stored`` digests if given."""
    workdir = Path(tempfile.mkdtemp(prefix="golden-", dir=WORK))
    try:
        workload = workload_cls()
        workload.setup(seed, workdir, golden=True)
        for op in workload.golden_ops():
            expected = None if stored is None else stored.get(op.key, {"missing": op.key})
            runner.execute(op, expected=expected)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def run_workload(name, seed, seconds, trace) -> int:
    numpy, tracing, workloads = _load_library()
    import_s = time.perf_counter() - PROCESS_START
    golden = json.loads(GOLDEN.read_text())
    workload_cls = workloads.WORKLOADS[name]
    tracer = tracing.Tracer() if trace else None
    runner = Runner(workloads, tracer)
    env = environment(numpy)
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))

    workload, workdir, setup_times = set_up(workload_cls, seed, runner)
    latencies: list[float] = []
    traced_s = untraced_s = 0.0
    op_pass: dict[int, int] = {}
    passes = 0
    window = time.perf_counter()
    try:
        # Whole passes only, so every run measures the same op mix.
        while passes == 0 or time.perf_counter() - window < seconds:
            for op in workload.pass_ops(passes):
                if trace:
                    # Each op runs twice, traced and untraced, alternating
                    # which goes first; the pair gives the tracing overhead.
                    order = (True, False) if runner.op_id % 2 else (False, True)
                    pair = {t: runner.execute(op, traced=t) for t in order}
                    op_pass[runner.op_id] = passes
                    if None not in pair.values():
                        traced_s += pair[True]
                        untraced_s += pair[False]
                else:
                    latency = runner.execute(op)
                    if latency is not None:
                        latencies.append(latency)
                runner.op_id += 1
            passes += 1
        window_s = time.perf_counter() - window
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        run_golden(workload_cls, runner, golden["reference_seed"],
                   golden["digests"].get(name, {}))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload={name} seed={seed} closed-loop clients=1 passes={passes}"
          f" window_s={window_s:.3f} attempted={runner.attempted} failed={runner.failed}")
    if trace:
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{name}-seed{seed}.jsonl"
        tracer.write(spans_path)
        metrics = tracing.layer_metrics(tracer.spans, op_pass, traced_s, untraced_s)
        units = {m: u for m, u, _ in tracing.PER_LAYER}
        print(f"spans={len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
        for metric, value in metrics.items():
            print(f"  {metric:<36} {value:>16.6g} {units[metric]}")
    else:
        n = len(latencies)
        samples = f"{n} ops"
        metrics = {
            "setup_s": import_s + statistics.median(setup_times),
            "ops_per_s": n / sum(latencies) if n else 0.0,
            "op_ms_p50": 1000.0 * statistics.median(latencies) if n else 0.0,
            "op_ms_p90": 1000.0 * percentile(latencies, 90) if n else 0.0,
            "peak_rss_mb": peak_rss_mb,
        }
        units = dict(E2E_UNITS)
        beyond = sum(1 for x in latencies if 1000.0 * x > metrics["op_ms_p90"])
        notes = {
            "setup_s": f"{import_s:.3f} s import + median of set-ups "
            + ", ".join(f"{t:.3f}" for t in setup_times),
            "ops_per_s": samples,
            "op_ms_p50": samples,
            "op_ms_p90": f"{samples}, {beyond} beyond",
            "peak_rss_mb": "ru_maxrss",
        }
        for metric, value in metrics.items():
            print(f"  {metric:<12} {value:>14.6f} {units[metric]:<5} {notes[metric]}")
        error_rate = runner.failed / runner.attempted
        print(f"  {'error_rate':<12} {error_rate:>14.6f} ratio {runner.failed} of {runner.attempted} ops failed")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def capture_golden() -> int:
    numpy, _tracing, workloads = _load_library()
    WORK.mkdir(exist_ok=True)
    digests = {}
    for name, workload_cls in workloads.WORKLOADS.items():
        runner = Runner(workloads)
        run_golden(workload_cls, runner, REFERENCE_SEED)
        if runner.failed:
            print(f"{name}: golden ops failed; golden.json not written", file=sys.stderr)
            return 1
        digests[name] = runner.digests
    document = {"reference_seed": REFERENCE_SEED, "environment": environment(numpy),
                "digests": digests}
    GOLDEN.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN.relative_to(ROOT)}")
    return 0


def repeat(names, runs, seconds, first_seed) -> int:
    """Run each workload ``runs`` times in fresh processes, one seed each,
    and print each end-to-end metric's median and quartile spread."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    status = 0
    for name in names:
        values: dict[str, list[float]] = {}
        seeds = range(first_seed, first_seed + runs)
        for seed in seeds:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            result = json.loads(lines[-1])
            if not result["correct"]:
                print(f"{name} seed {seed}: {result['failed']} of {result['attempted']} ops failed")
                status = 1
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
        print(f"{name}: {runs} runs, seeds {seeds[0]}..{seeds[-1]}")
        for metric, series in values.items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median
            bound = bounds[metric]
            verdict = "ok" if spread <= bound / 3 else ("within bound" if spread <= bound else "OVER BOUND")
            print(f"  {metric:<12} median {median:12.6f} q1 {q1:12.6f} q3 {q3:12.6f}"
                  f" spread {spread:7.4f} bound {bound:.2f} {verdict}")
            print("    runs: " + " ".join(f"{v:.6g}" for v in series))
            if metric != "setup_s" and spread > bound:
                status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, metavar="N", help="runs per workload")
    parser.add_argument("--capture-golden", action="store_true")
    args = parser.parse_args(argv)
    if args.capture_golden:
        return capture_golden()
    if args.repeat:
        names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
        return repeat(names, args.repeat, args.seconds, args.seed)
    if not args.workload:
        parser.error("--workload is required")
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
