"""In-memory span tracing around calls into ctxpack's layers.

Every public function of the ten ctxpack modules, plus ``LatentVideo``
construction, is wrapped while tracing is installed. The wrappers are
bound into every ctxpack module namespace that refers to the function,
so calls the library makes to itself (``cli.main`` -> ``cmd_pack`` ->
``apply_schedule`` -> ``handle_tail``) are recorded as nested spans.
Nothing under ``src/`` changes: ``install`` patches at run time and
``uninstall`` puts every original back.

A span is ``[name, start, end, parent, op, attrs]``: times come from
``time.perf_counter``, ``parent`` is the index of the enclosing span or
-1, ``op`` is the benchmark op the span belongs to, and ``attrs`` holds
counts observed at the call (bytes, tokens, iterations, peak bytes).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import os
import sys
import time
import tracemalloc

LAYERS = (
    "schedule",
    "budget",
    "planner",
    "packing",
    "rope",
    "fplt",
    "cli",
    "codebook",
    "drift",
    "importance",
)

# Calls whose peak allocation is recorded with tracemalloc.
PEAK_BYTES = {"codebook.fit_codebook", "codebook.quantize"}


def _layer_modules():
    # ``ctxpack.drift`` the attribute is the drift() function, so modules
    # are looked up by their full import name.
    return {name: importlib.import_module(f"ctxpack.{name}") for name in LAYERS}


def _sampling_variant(schedule) -> str:
    from ctxpack.schedule import SamplingMode

    if schedule.sampling_mode is SamplingMode.INVERTED:
        return "inverted"
    return schedule.tail.mode.value if schedule.tail is not None else "none"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _observe_apply(args, kwargs, ctx):
    from ctxpack.budget import tokens_per_frame_for

    history = _arg(args, kwargs, 0, "history")
    schedule = _arg(args, kwargs, 1, "schedule")
    pad = kwargs.get("pad_spatial", False) or kwargs.get("pad_history", False)
    section = ctx.generate_span[1] - ctx.generate_span[0]
    return {
        "variant": _sampling_variant(schedule),
        "tokens": ctx.budget,
        "placeholder_tokens": section
        * tokens_per_frame_for(history.height, history.width, pad=pad),
        "tail_frames": ctx.tail_frame_count,
    }


def _observe_pack(args, kwargs, _result):
    ns = args[0]
    sidecar = ns.provenance or f"{ns.output}.prov"
    return {"prov_bytes": os.stat(sidecar).st_size}


def _observe_fit(args, kwargs, codebook):
    pixels = sum(v.data.size // v.channels for v in _arg(args, kwargs, 0, "dataset"))
    iterations = codebook.fit_stats.iterations
    # D-squared seeding makes one distance pass per seed, each Lloyd
    # iteration one full assignment pass.
    return {
        "iterations": iterations,
        "distance_evals": pixels * codebook.size * (1 + iterations),
    }


def _observe_quantize(args, kwargs, _index_map):
    frames = _arg(args, kwargs, 0, "frames")
    codebook = _arg(args, kwargs, 1, "codebook")
    pixels = frames.data.size // frames.channels
    return {"pixels": pixels, "distance_evals": pixels * codebook.size}


OBSERVERS = {
    "packing.LatentVideo": lambda args, kwargs, _r: {"bytes": args[0].data.nbytes},
    "packing.apply_schedule": _observe_apply,
    "planner.plan_vanilla": lambda a, k, plan: {"iterations": len(plan.iterations)},
    "fplt.read_tensor": lambda a, k, r: {"bytes": 28 + 4 * r[0].size},
    "fplt.write_tensor": lambda a, k, r: {
        "bytes": 28 + 4 * math.prod(_arg(a, k, 1, "array").shape)
    },
    "cli.cmd_pack": _observe_pack,
    "codebook.fit_codebook": _observe_fit,
    "codebook.quantize": _observe_quantize,
    "drift.tournament": lambda a, k, r: {"matches": len(_arg(a, k, 0, "records"))},
    "importance.sort_by_importance": lambda a, k, order: {"frames": len(order)},
}


class Tracer:
    """Records spans in memory while installed; writes them out on demand."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._observing = False

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op, None])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, index: int, attrs: dict | None = None, at: float | None = None) -> None:
        self.spans[index][2] = time.perf_counter() if at is None else at
        self.spans[index][5] = attrs
        self._stack.pop()

    def _wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)
        track_peak = name in PEAK_BYTES

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._observing:
                return fn(*args, **kwargs)
            index = self.begin(name)
            started = track_peak and not tracemalloc.is_tracing()
            if started:
                tracemalloc.start()
            if track_peak:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            try:
                result = fn(*args, **kwargs)
                end = time.perf_counter()
                if track_peak:
                    peak = tracemalloc.get_traced_memory()[1] - base
            except BaseException:
                self.end(index)
                raise
            finally:
                if started:
                    tracemalloc.stop()
            attrs = None
            if observe is not None:
                self._observing = True
                try:
                    attrs = observe(args, kwargs, result)
                finally:
                    self._observing = False
            if track_peak:
                attrs = {**(attrs or {}), "peak_bytes": peak}
            self.end(index, attrs, at=end)
            return result

        return wrapper

    def install(self) -> None:
        """Bind wrappers over every layer function in every ctxpack module."""
        modules = _layer_modules()
        namespaces = [m for n, m in sys.modules.items() if n.startswith("ctxpack")]
        for layer, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                ):
                    continue
                wrapped = self._wrap(f"{layer}.{attr}", fn)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            self._patches.append((ns, key, fn))
                            setattr(ns, key, wrapped)
        video = modules["packing"].LatentVideo
        original = video.__post_init__
        self._patches.append((video, "__post_init__", original))
        video.__post_init__ = self._wrap("packing.LatentVideo", original)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def write(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w") as fh:
            for name, start, end, parent, op, attrs in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end,
                         "parent": parent, "op": op, "attrs": attrs}
                    )
                    + "\n"
                )


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child[span[3]] += span[2] - span[1]
    return [s[2] - s[1] - c for s, c in zip(spans, child)]


# (name, unit, better) of every per-layer metric a traced run reports.
# ``*_ms`` is the mean inclusive duration per call of that span; counts
# and bytes are totals over the first pass, so they repeat exactly for a
# seed; ``*.self_ms`` is the layer's self time per op.
PER_LAYER = (
    ("packing.latent_video_ms", "ms", "lower"),
    ("packing.latent_video_bytes", "bytes", "lower"),
    ("packing.apply_schedule_ms", "ms", "lower"),
    ("packing.apply_schedule_ms.td", "ms", "lower"),
    ("packing.apply_schedule_ms.ta", "ms", "lower"),
    ("packing.apply_schedule_ms.tc", "ms", "lower"),
    ("packing.apply_schedule_ms.inverted", "ms", "lower"),
    ("packing.tokens", "count", "lower"),
    ("packing.placeholder_tokens", "count", "lower"),
    ("packing.tail_frames", "count", "lower"),
    ("planner.plan_ms", "ms", "lower"),
    ("planner.iterations", "count", "lower"),
    ("budget.tokens_for_schedule_ms", "ms", "lower"),
    ("schedule.parse_ms", "ms", "lower"),
    ("rope.generate_phases_ms", "ms", "lower"),
    ("rope.pool_phases_ms", "ms", "lower"),
    ("fplt.read_ms", "ms", "lower"),
    ("fplt.write_ms", "ms", "lower"),
    ("fplt.bytes_read", "bytes", "lower"),
    ("fplt.bytes_written", "bytes", "lower"),
    ("fplt.read_mb_s", "MB/s", "higher"),
    ("cli.pack_ms", "ms", "lower"),
    ("cli.pack_residual_ms", "ms", "lower"),
    ("cli.prov_bytes", "bytes", "lower"),
    ("codebook.fit_ms", "ms", "lower"),
    ("codebook.iterations", "count", "lower"),
    ("codebook.distance_evals", "count", "lower"),
    ("codebook.fit_peak_bytes", "bytes", "lower"),
    ("codebook.quantize_ms", "ms", "lower"),
    ("codebook.quantize_mpix_s", "Mpix/s", "higher"),
    ("codebook.quantize_peak_bytes", "bytes", "lower"),
    ("codebook.dequantize_ms", "ms", "lower"),
    ("drift.report_ms", "ms", "lower"),
    ("drift.tournament_ms", "ms", "lower"),
    ("drift.matches", "count", "lower"),
    ("importance.sort_ms", "ms", "lower"),
    ("importance.frames_scored", "count", "lower"),
    *((f"{layer}.self_ms", "ms", "lower") for layer in (*LAYERS, "bench")),
    ("bench.spans", "count", "lower"),
    ("bench.trace_overhead", "ratio", "lower"),
)


def layer_metrics(
    spans: list[list], op_pass: dict[int, int], traced_s: float, untraced_s: float
) -> dict[str, float]:
    """Per-layer metrics from the spans of a traced run.

    ``op_pass`` maps each traced op to its pass; ``traced_s`` and
    ``untraced_s`` are the summed latencies of the same ops run with and
    without tracing.
    """
    durations: dict[str, list[float]] = {}
    first: dict[str, list[dict]] = {}
    for name, start, end, _parent, op, attrs in spans:
        durations.setdefault(name, []).append(end - start)
        if attrs and name == "packing.apply_schedule":
            durations.setdefault(f"{name}.{attrs['variant']}", []).append(end - start)
        if op_pass.get(op) == 0:
            first.setdefault(name, []).append(attrs or {})

    def ms(name):
        values = durations.get(name)
        return 1000.0 * sum(values) / len(values) if values else 0.0

    def total(name, key):
        return sum(a.get(key, 0) for a in first.get(name, ()))

    def attr_all(name, key):
        return [s[5][key] for s in spans if s[0] == name and s[5]]

    def rate(name, key, scale):
        seconds = sum(durations.get(name, ()))
        return sum(attr_all(name, key)) / seconds / scale if seconds else 0.0

    selfs = self_times(spans)
    ops = len(op_pass)
    self_ms = {}
    for span, own in zip(spans, selfs):
        layer = span[0].split(".", 1)[0]
        self_ms[layer] = self_ms.get(layer, 0.0) + own

    pack_self = [own for span, own in zip(spans, selfs) if span[0] == "cli.cmd_pack"]
    metrics = {
        "packing.latent_video_ms": ms("packing.LatentVideo"),
        "packing.latent_video_bytes": total("packing.LatentVideo", "bytes"),
        "packing.apply_schedule_ms": ms("packing.apply_schedule"),
        **{
            f"packing.apply_schedule_ms.{v}": ms(f"packing.apply_schedule.{v}")
            for v in ("td", "ta", "tc", "inverted")
        },
        "packing.tokens": total("packing.apply_schedule", "tokens"),
        "packing.placeholder_tokens": total("packing.apply_schedule", "placeholder_tokens"),
        "packing.tail_frames": total("packing.apply_schedule", "tail_frames"),
        "planner.plan_ms": ms("planner.plan_vanilla"),
        "planner.iterations": total("planner.plan_vanilla", "iterations"),
        "budget.tokens_for_schedule_ms": ms("budget.tokens_for_schedule"),
        "schedule.parse_ms": ms("schedule.parse_schedule"),
        "rope.generate_phases_ms": ms("rope.generate_phases"),
        "rope.pool_phases_ms": ms("rope.pool_phases"),
        "fplt.read_ms": ms("fplt.read_tensor"),
        "fplt.write_ms": ms("fplt.write_tensor"),
        "fplt.bytes_read": total("fplt.read_tensor", "bytes"),
        "fplt.bytes_written": total("fplt.write_tensor", "bytes"),
        "fplt.read_mb_s": rate("fplt.read_tensor", "bytes", 1e6),
        "cli.pack_ms": ms("cli.cmd_pack"),
        "cli.pack_residual_ms": 1000.0 * sum(pack_self) / len(pack_self) if pack_self else 0.0,
        "cli.prov_bytes": total("cli.cmd_pack", "prov_bytes"),
        "codebook.fit_ms": ms("codebook.fit_codebook"),
        "codebook.iterations": total("codebook.fit_codebook", "iterations"),
        "codebook.distance_evals": total("codebook.fit_codebook", "distance_evals")
        + total("codebook.quantize", "distance_evals"),
        "codebook.fit_peak_bytes": max(attr_all("codebook.fit_codebook", "peak_bytes"), default=0),
        "codebook.quantize_ms": ms("codebook.quantize"),
        "codebook.quantize_mpix_s": rate("codebook.quantize", "pixels", 1e6),
        "codebook.quantize_peak_bytes": max(attr_all("codebook.quantize", "peak_bytes"), default=0),
        "codebook.dequantize_ms": ms("codebook.dequantize"),
        "drift.report_ms": ms("drift.drift_report"),
        "drift.tournament_ms": ms("drift.tournament"),
        "drift.matches": total("drift.tournament", "matches"),
        "importance.sort_ms": ms("importance.sort_by_importance"),
        "importance.frames_scored": total("importance.sort_by_importance", "frames"),
        **{
            f"{layer}.self_ms": 1000.0 * self_ms.get(layer, 0.0) / ops
            for layer in (*LAYERS, "bench")
        },
        "bench.spans": sum(len(v) for v in first.values()),
        "bench.trace_overhead": traced_s / untraced_s - 1.0,
    }
    if list(metrics) != [name for name, _, _ in PER_LAYER]:
        raise RuntimeError("layer_metrics and PER_LAYER list different metrics")
    return metrics
