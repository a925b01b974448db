"""The three benchmark workloads: seeded inputs, op sequences and output checks.

Every workload is a closed loop: one caller sends one op at a time and
waits for it. A pass is a fixed sequence of ops over the seeded corpus;
the same seed gives the same corpus and the same passes. Latents are
float32 at 60x104x16 (L_f = 1560 with spatial padding).

An op's ``run`` is the timed call into ctxpack. Its ``check`` runs after
the timer stops: it raises ``CheckFailed`` on a broken invariant and
returns the SHA-256 digests of the op's outputs, which the runner
compares across passes and, for the reference corpus, against
``golden.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

H, W, C = 60, 104, 16
FPLT_HEADER = struct.Struct("<4sII4I")

cli = importlib.import_module("ctxpack.cli")
budget = importlib.import_module("ctxpack.budget")
codebook = importlib.import_module("ctxpack.codebook")
fplt = importlib.import_module("ctxpack.fplt")
importance = importlib.import_module("ctxpack.importance")
packing = importlib.import_module("ctxpack.packing")
planner = importlib.import_module("ctxpack.planner")
rope = importlib.import_module("ctxpack.rope")
schedule_mod = importlib.import_module("ctxpack.schedule")


class CheckFailed(Exception):
    """An op's output broke an invariant or a stored digest."""


@dataclass
class Op:
    kind: str
    key: str  # names the same op with the same inputs in every pass
    run: Callable[[], object]
    check: Callable[[object], dict]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def run_cli(argv: list[str]) -> str:
    """``cli.main`` in-process; returns stdout, raises on a non-zero exit."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    if code != 0:
        raise CheckFailed(f"ctxpack {argv[0]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def check_fplt(path: Path, shape: tuple[int, ...]) -> bytes:
    """File size is 28 + 4*N and the header carries ``shape``."""
    blob = path.read_bytes()
    expect(len(blob) == 28 + 4 * math.prod(shape), f"{path.name}: {len(blob)} bytes for {shape}")
    expect(FPLT_HEADER.unpack_from(blob)[3:] == shape, f"{path.name}: header is not {shape}")
    return blob


def latent_clip(rng: np.random.Generator, frames: int) -> np.ndarray:
    """A still scene plus per-frame noise and a slow drift in channel 0."""
    base = rng.standard_normal((H, W, C), dtype=np.float32)
    clip = rng.standard_normal((frames, H, W, C), dtype=np.float32)
    clip *= 0.5
    clip += base
    clip[..., 0] += np.linspace(0.0, 1.0, frames, dtype=np.float32)[:, None, None]
    return clip


class Workload:
    name = ""
    # Keys of the ops whose digests ``golden.json`` stores.
    golden_keys: tuple[str, ...] = ()

    def setup(self, seed: int, workdir: Path, *, golden: bool = False) -> None:
        raise NotImplementedError

    def pass_ops(self, index: int) -> list[Op]:
        raise NotImplementedError

    def warmup_ops(self) -> list[Op]:
        return self.pass_ops(0)[:1]

    def golden_ops(self) -> list[Op]:
        """The first pass's ops named in ``golden_keys``; needs ``setup(golden=True)``."""
        return [op for op in self.pass_ops(0) if op.key in self.golden_keys]


class Rollout(Workload):
    """Forward sampling under td_f16k4f2k2f1k1_g9, one op per iteration.

    A 19-frame user prefix is followed by 21 generated sections of 9
    frames; iteration i packs the first 19 + 9i frames (19 to 199).
    """

    name = "rollout"
    SCHEDULE = "td_f16k4f2k2f1k1_g9"
    PREFIX = 19
    SECTION = 9
    ITERATIONS = 21
    ROPE_CHANNELS = 48  # rotary head dim: 16 channels per axis
    golden_keys = ("iter/19", "iter/199")

    def setup(self, seed, workdir, *, golden=False):
        frames = self.PREFIX + self.SECTION * self.ITERATIONS
        self.frames = latent_clip(np.random.default_rng([seed, 0]), frames)
        self.schedule = schedule_mod.parse_schedule(self.SCHEDULE)
        self.plan = None

    def pass_ops(self, index):
        return [self._iteration(i) for i in range(self.ITERATIONS)]

    def _iteration(self, i: int) -> Op:
        history = self.PREFIX + self.SECTION * i

        def run():
            if i == 0:
                self.schedule = schedule_mod.parse_schedule(self.SCHEDULE)
                self.plan = planner.plan_vanilla(
                    self.SECTION * self.ITERATIONS, self.SECTION, self.schedule
                )
            target = self.plan.iterations[i].targets[0]
            n = self.PREFIX + target.start
            video = packing.LatentVideo(self.frames[:n])
            ctx = packing.apply_schedule(
                video, self.schedule, pad_history=True, pad_spatial=True
            )
            expected = budget.tokens_for_schedule(
                self.schedule, H, W, ctx.tail_frame_count, pad=True
            )
            phases = []
            stop = n
            for entry in reversed(self.schedule.entries_before_generate):
                k = entry.kernel
                grid = rope.generate_phases(
                    range(stop - entry.count, stop),
                    math.ceil(H / k.p_h) * (k.p_h // 2),
                    math.ceil(W / k.p_w) * (k.p_w // 2),
                    self.ROPE_CHANNELS,
                )
                cells = schedule_mod.KernelSpec(k.p_f, k.p_h // 2, k.p_w // 2)
                phases.append((entry, rope.pool_phases(grid, cells)))
                stop -= entry.count
            return target, ctx, expected, phases

        def check(result):
            target, ctx, expected, phases = result
            expect(target.length == self.SECTION, f"plan target {target.text}")
            expect(
                ctx.budget == expected == len(ctx.tokens),
                f"budget {ctx.budget}, accounting {expected}, rows {len(ctx.tokens)}",
            )
            expect(ctx.tail_frame_count == history - self.PREFIX, "tail frames")
            gen = ctx.generate_span
            expect(gen[1] - gen[0] == self.SECTION, f"generate span {gen}")
            digest = hashlib.sha256()
            for entry, grid in phases:
                k = entry.kernel
                shape = (entry.count // k.p_f, math.ceil(H / k.p_h), math.ceil(W / k.p_w))
                expect(grid.shape == shape, f"pooled phases {grid.shape} != {shape}")
                tokens = budget.tokens_for_entry(entry.count, k, H, W, pad=True)
                expect(math.prod(grid.shape) == tokens, "phase grid size != entry tokens")
                for axis in (grid.time, grid.height, grid.width):
                    digest.update(axis.phases.tobytes())
            features = np.stack([t.feature for t in ctx.tokens]).astype("<f4")
            provenance = np.array(
                [(*t.time_span, *t.cell, *t.kernel.dims, *t.phase) for t in ctx.tokens],
                dtype="<f8",
            )
            return {
                "tensor": sha256(features.tobytes()),
                "tokens": sha256(provenance.tobytes()),
                "phases": digest.hexdigest(),
            }

        return Op("iteration", f"iter/{history}", run, check)


class ClipTools(Workload):
    """The offline file path through ``cli.main``: pack, drift, elo, plus
    the library's importance sort, over a corpus of FPLT histories."""

    name = "clip-tools"
    LENGTHS = (19, 79, 140, 200)
    SCHEDULES = (
        "td_f16k4f2k2f1k1_g9",
        "ta_f16k4f2k2f1k1_g9",
        "tc_f16k4f2k2f1k1_g9",
        "f1k1_x_g9_f1k1f2k2f16k4_td",
    )
    PLAYERS = 8
    MATCHES = 240
    FPS = 7.5  # latent frames per second for the importance time term
    golden_keys = (
        *(f"pack/79/{name}" for name in SCHEDULES),
        "drift/79",
        "importance/79",
        "elo",
    )

    def setup(self, seed, workdir, *, golden=False):
        self.workdir = workdir
        lengths = (79,) if golden else self.LENGTHS
        self.clips = []
        for i, length in enumerate(self.LENGTHS):
            if length not in lengths:
                continue
            path = workdir / f"clip{length}.fplt"
            fplt.write_tensor(path, latent_clip(np.random.default_rng([seed, 1, i]), length))
            self.clips.append((length, path))
        rng = np.random.default_rng([seed, 2])
        strength = rng.normal(0.0, 1.0, self.PLAYERS)
        lines = []
        for _ in range(self.MATCHES):
            a, b = rng.choice(self.PLAYERS, size=2, replace=False)
            p_a = 1.0 / (1.0 + math.exp(strength[b] - strength[a]))
            u = rng.random()
            outcome = "D" if abs(u - p_a) < 0.1 else ("A" if u < p_a else "B")
            lines.append(f"p{a},p{b},{outcome}")
        self.matches = workdir / "matches.csv"
        self.matches.write_text("\n".join(lines) + "\n")

    def warmup_ops(self):
        ops = self.pass_ops(0)
        return [next(op for op in ops if op.kind == kind) for kind in ("pack", "drift", "importance", "elo")]

    def pass_ops(self, index):
        """Every clip under all four schedules, rotating the start, then
        its drift report and importance sort; one elo per pass."""
        ops = []
        n = len(self.SCHEDULES)
        for i, (length, path) in enumerate(self.clips):
            ops += [self._pack(length, path, self.SCHEDULES[(i + j) % n]) for j in range(n)]
            ops += [self._drift(length, path), self._importance(length, path)]
        ops.append(self._elo())
        return ops

    def _pack(self, length, path, name) -> Op:
        out = self.workdir / f"pack{length}-{name}.fplt"
        prov = Path(f"{out}.prov")

        def run():
            return run_cli(["pack", name, str(path), "-o", str(out),
                            "--pad-history", "--pad-spatial"])

        def check(stdout):
            lines = stdout.splitlines()
            expect(lines[0].startswith("budget "), f"pack stdout {lines[:1]}")
            tokens = int(lines[0].split()[1])
            tensor = check_fplt(out, (1, 1, tokens, C))
            text = prov.read_bytes()
            prov_lines = text.decode().splitlines()
            expect(len(prov_lines) == tokens + 4, f".prov has {len(prov_lines)} lines for {tokens} tokens")
            expect(prov_lines[1] == f"budget {tokens}", f".prov says {prov_lines[1]!r}")
            tail = int(prov_lines[3].split()[1])
            expected = budget.tokens_for_schedule(
                schedule_mod.parse_schedule(name), H, W, tail, pad=True
            )
            expect(tokens == expected, f"budget {tokens}, accounting {expected}")
            return {"tensor": sha256(tensor), "prov": sha256(text)}

        return Op("pack", f"pack/{length}/{name}", run, check)

    def _drift(self, length, path) -> Op:
        def run():
            return run_cli(["drift", str(path)])

        def check(stdout):
            lines = stdout.splitlines()
            expect(len(lines) == 3, f"drift printed {len(lines)} lines")
            for line in lines:
                fields = dict(part.split("=", 1) for part in line.split())
                start, end = float(fields["start"]), float(fields["end"])
                expect(float(fields["drift"]) == abs(start - end), f"drift line {line!r}")
            return {"report": sha256(stdout.encode())}

        return Op("drift", f"drift/{length}", run, check)

    def _importance(self, length, path) -> Op:
        times = [i / self.FPS for i in range(length)]

        def run():
            video = fplt.read_video(path)
            return importance.sort_by_importance(
                video, times, video.data[-1], times[-1], 1.0
            )

        def check(order):
            expect(sorted(order) == list(range(length)), "order is not a permutation")
            expect(order[0] == length - 1, f"newest frame ranked at {order.index(length - 1)}")
            return {"order": sha256(np.asarray(order, dtype="<i8").tobytes())}

        return Op("importance", f"importance/{length}", run, check)

    def _elo(self) -> Op:
        def run():
            return run_cli(["elo", str(self.matches), "--ranks"])

        def check(stdout):
            rows = [line.replace("=", " ").split() for line in stdout.splitlines()]
            expect(len(rows) == self.PLAYERS, f"elo printed {len(rows)} players")
            ratings = [float(r[1]) for r in rows]
            ranks = [int(r[3]) for r in rows]
            expect(ratings == sorted(ratings, reverse=True), "ratings not in order")
            expect(ranks[0] == 1 and ranks == sorted(ranks), f"ranks {ranks}")
            # K-32 Elo is zero-sum; printed ratings carry one decimal.
            expect(abs(sum(ratings) - 1000.0 * self.PLAYERS) <= 0.05 * self.PLAYERS,
                   f"ratings sum to {sum(ratings)}")
            return {"ratings": sha256(stdout.encode())}

        return Op("elo", "elo", run, check)


class Codebooks(Workload):
    """``codebook fit --k 128`` then one ``quantize`` per history, via ``cli.main``.

    Pixels come from a Gaussian mixture: some sit exactly on a component
    mean, so the distinct-pixel check collapses duplicates, and the rest
    carry noise, so Lloyd runs several passes before its tolerance stop.
    """

    name = "codebook"
    K = 128
    MAX_ITERS = 30
    TOL = 1e-3
    FIT_CLIPS = 1  # one frame each
    # Frames per quantized history. A fit costs about as much as
    # quantizing 4 to 6 frames, so with the gap to 10 frames the median
    # op of a pass is always quantize/10 and the p90 op quantize/19.
    HISTORIES = (1, 4, 10, 13, 16, 19)
    COMPONENTS = 96
    golden_keys = ("fit", "quantize/1", "quantize/4")

    def _mixture(self, rng, frames: int) -> np.ndarray:
        z = rng.integers(self.COMPONENTS, size=(frames, H, W))
        pixels = self.means[z]
        noisy = rng.random((frames, H, W)) < 0.75
        pixels += noisy[..., None] * rng.normal(0.0, 0.6, (frames, H, W, C)).astype(np.float32)
        return np.round(pixels * 16) / 16

    def setup(self, seed, workdir, *, golden=False):
        self.seed = seed
        self.workdir = workdir
        self.means = np.random.default_rng([seed, 3]).normal(
            0.0, 2.0, (self.COMPONENTS, C)
        ).astype(np.float32)
        self.fit_inputs = []
        for i in range(self.FIT_CLIPS):
            path = workdir / f"fit{i}.fplt"
            fplt.write_tensor(path, self._mixture(np.random.default_rng([seed, 4, i]), 1))
            self.fit_inputs.append(str(path))
        self.histories = []
        for length in self.HISTORIES:
            path = workdir / f"history{length}.fplt"
            fplt.write_tensor(path, self._mixture(np.random.default_rng([seed, 5, length]), length))
            self.histories.append((length, path))
        # Until the first fit op replaces it, the codebook is the first K
        # pixels of a fit clip, so the warm-up quantize has one to read.
        self.codebook = workdir / "codebook.fplt"
        first = fplt.read_tensor(self.fit_inputs[0])[0].reshape(-1, C)[: self.K]
        fplt.write_codebook(self.codebook, codebook.Codebook(first))

    def _fit_argv(self):
        return ["codebook", "fit", *self.fit_inputs, "--k", str(self.K),
                "--seed", str(self.seed), "--max-iters", str(self.MAX_ITERS),
                "--tol", str(self.TOL), "-o", str(self.codebook)]

    def warmup_ops(self):
        op = self._quantize(*min(self.histories))
        op.key = f"warmup/{op.key}"  # its codebook is not the fitted one
        return [op]

    def pass_ops(self, index):
        return [self._fit()] + [self._quantize(n, p) for n, p in self.histories]

    def _fit(self) -> Op:
        def run():
            return run_cli(self._fit_argv())

        def check(stdout):
            fields = dict(line.split(" ", 1) for line in stdout.splitlines())
            expect(int(fields["k"]) == self.K, f"k {fields['k']}")
            expect(1 <= int(fields["iterations"]) <= self.MAX_ITERS, f"iterations {fields['iterations']}")
            blob = check_fplt(self.codebook, (1, 1, self.K, C))
            return {"codebook": sha256(blob)}

        return Op("fit", "fit", run, check)

    def _quantize(self, length, path) -> Op:
        out = self.workdir / f"quantized{length}.fplt"

        def run():
            return run_cli(["quantize", str(path), "--codebook", str(self.codebook), "-o", str(out)])

        def check(_stdout):
            blob = check_fplt(out, (length, H, W, C))
            pixels = np.frombuffer(blob, dtype="<f4", offset=28).reshape(-1, C)
            # discretize_history works pixel by pixel, so it is idempotent
            # on the whole output exactly when it is on the distinct pixels.
            rows = np.unique(pixels.view(np.dtype((np.void, 4 * C))))
            distinct = rows.view("<f4").reshape(-1, C)
            expect(len(distinct) <= self.K, f"{len(distinct)} distinct pixels > k")
            again = codebook.discretize_history(
                packing.LatentVideo(distinct.reshape(1, 1, -1, C)),
                fplt.read_codebook(self.codebook),
            )
            expect(np.array_equal(again.data.reshape(-1, C), distinct), "quantize is not idempotent")
            return {"quantized": sha256(blob)}

        return Op("quantize", f"quantize/{length}", run, check)


WORKLOADS = {w.name: w for w in (Rollout, ClipTools, Codebooks)}
