"""Command-line front end over the packing toolkit.

One binary with subcommands; outputs are deterministic plain text so they
can serve as golden files. Exit codes: 0 success, 2 usage or schedule
errors, 3 data errors.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from argparse import ArgumentError
from contextlib import ExitStack
from pathlib import Path

from . import codebook, fplt
from .budget import segment_tokens
from .drift import (
    DEFAULT_INITIAL_RATING, _report, builtin_metrics, parse_match_log, rank_buckets, tournament
)
from .errors import IndivisibleDims, PlanError, ScheduleError, UnsupportedKernel
from .packing import LatentVideo, PackedBlock, PackedContext, _packed
from .planner import (
    plan_endpoint,
    plan_inverted,
    plan_multi_endpoint,
    plan_vanilla,
    serialize_plan,
)
from .schedule import Frames, Generate, SamplingMode, Skip, Tail, parse_schedule

USAGE_ERRORS = (ScheduleError, IndivisibleDims, UnsupportedKernel, PlanError, ArgumentError)


_SEGMENT_KINDS = {Tail: "tail", Frames: "frames", Generate: "generate", Skip: "skip"}


def cmd_parse(args: argparse.Namespace) -> int:
    schedule = parse_schedule(args.name)
    print(f"name={schedule.name}")
    print(f"mode={schedule.sampling_mode.value}")
    print(f"discretize={'true' if schedule.discretize_history else 'false'}")
    print(f"entries={len(schedule.frames_entries)}")
    print(f"generate={schedule.generate.count}")
    for i, seg in enumerate(schedule.segments, start=1):
        print(f"segment {i}: {_SEGMENT_KINDS[type(seg)]} {seg.token}")
    return 0


def cmd_budget(args: argparse.Namespace) -> int:
    schedule = parse_schedule(args.name)
    table = segment_tokens(schedule, args.height, args.width, args.tail_frames, pad=args.pad)
    for seg, tokens in table:
        kind = "entry" if isinstance(seg, Frames) else _SEGMENT_KINDS[type(seg)]
        frames = f" frames={args.tail_frames}" if isinstance(seg, Tail) else ""
        print(f"{kind} {seg.token}{frames} tokens={tokens}")
    print(f"total {sum(tokens for _, tokens in table)}")
    return 0


def _parse_spans(text: str) -> list[tuple[int, int]]:
    spans = []
    for part in text.split(","):
        lo, _, hi = part.partition("..")
        try:
            start, stop = int(lo), int(hi)
        except ValueError:
            raise PlanError(f"--endpoints: {part!r} is not a span start..stop") from None
        if stop < start:
            raise PlanError(f"--endpoints: span {part!r} stops before it starts")
        spans.append((start, stop))
    return spans


def cmd_plan(args: argparse.Namespace) -> int:
    schedule = parse_schedule(args.name)
    mode = schedule.sampling_mode
    user_frames = {} if args.user_frames is None else {"user_frames": args.user_frames}
    if user_frames and (args.endpoints is not None or mode is not SamplingMode.INVERTED):
        raise PlanError("--user-frames applies only to an inverted schedule without --endpoints")
    if args.endpoints is not None:
        plan = plan_multi_endpoint(
            args.total, args.section, schedule, _parse_spans(args.endpoints)
        )
    elif mode is SamplingMode.VANILLA:
        plan = plan_vanilla(args.total, args.section, schedule)
    elif mode is SamplingMode.ENDPOINT_ANCHORED:
        plan = plan_endpoint(args.total, args.section, schedule)
    elif mode is SamplingMode.INVERTED:
        plan = plan_inverted(args.total, args.section, schedule, **user_frames)
    else:
        raise PlanError(f"schedule {args.name!r} does not imply a sampling order")
    sys.stdout.write(serialize_plan(plan))
    return 0


def cmd_pack(args: argparse.Namespace) -> int:
    schedule = parse_schedule(args.name)
    if args.provenance and Path(args.provenance).resolve() == Path(args.output).resolve():
        raise ArgumentError(None, f"--provenance {args.provenance} is the output file")
    # every check that needs no frame, the header's dims too, runs first;
    # then the frames the entries bind are read as one snapshot and a ta or
    # tc tail in runs, all before the output is written; a td tail is never read
    with fplt._open_video(args.input) as (shape, read):
        context = _packed(shape, read, schedule, args.pad_history, args.pad_spatial)
    sidecar = _write_packed(context, args.output, args.provenance)
    print(f"budget {context.budget}")
    print(f"tokens {args.output}")
    print(f"provenance {sidecar}")
    return 0


def _write_packed(context: PackedContext, output: str, provenance: str | None) -> Path:
    """Write a packed context's features to ``output`` and its provenance
    to ``provenance`` (default ``<output>.prov``), both replaced or neither;
    return the sidecar's path. The ``.prov`` text is rendered first."""
    sidecar = Path(provenance or f"{output}.prov")
    schedule = context.schedule
    lines = [
        f"schedule {schedule.name}",
        f"budget {context.budget}",
        f"generate_span {context.generate_span[0]}..{context.generate_span[1]}",
        f"tail_frames {context.tail_frame_count}",
    ]
    # blocks of one kernel over one extent share their cell text
    cells: dict[tuple, list[tuple[str, str]]] = {}
    i = 0
    for block in context.blocks:
        key = (block.kernel, block.row_phases, block.col_phases)
        if (text := cells.get(key)) is None:
            text = cells[key] = _cell_text(block)
        span = f"span={block.time_span[0]}..{block.time_span[1]}"
        phase = repr(block.time_phase)
        lines += [f"token {t} {span} {a}{phase}{b}" for t, (a, b) in enumerate(text, i)]
        i += len(text)
    text = ("\n".join(lines) + "\n").encode()
    grid = context.features[None, None]
    fplt._write(output, grid.shape, grid, sidecars=[(sidecar, text)])
    return sidecar


def _cell_text(block: PackedBlock) -> list[tuple[str, str]]:
    """Each cell's ``.prov`` text before and after its block's time phase,
    ``cell=r,c kernel=K phase=`` and ``,row,col``, in token order; each
    row's and each column's text is formatted once."""
    kernel = block.kernel.token
    cols = [(f"{c} kernel={kernel} phase=", f",{col!r}") for c, col in enumerate(block.col_phases)]
    text = []
    for r, row in enumerate(block.row_phases):
        head, tail = f"cell={r},", f",{row!r}"
        text += [(head + before, tail + after) for before, after in cols]
    return text


def cmd_codebook_fit(args: argparse.Namespace) -> int:
    # every check that needs no pixel runs before any payload is read
    codebook._check_fit(args.k, args.max_iters, args.tol)
    with ExitStack() as stack:
        opened = [stack.enter_context(fplt._open_video(p)) for p in args.inputs]
        codebook._check_same_channels([shape[3] for shape, _ in opened])
        videos = [LatentVideo._over(read(0, shape[0])) for shape, read in opened]
    fitted = codebook.fit_codebook(videos, args.k, args.seed, args.max_iters, args.tol)
    fplt.write_codebook(args.output, fitted)
    stats = fitted.fit_stats
    print(f"codebook {args.output}")
    print(f"k {fitted.size}")
    print(f"iterations {stats.iterations}")
    print(f"inertia {stats.inertia!r}")
    return 0


def cmd_quantize(args: argparse.Namespace) -> int:
    book = fplt.read_codebook(args.codebook)
    with fplt._open_video(args.input) as (shape, read):
        fplt._write(args.output, shape, codebook._quantized(shape, read, book))
    print(f"quantized {args.output}")
    return 0


def cmd_drift(args: argparse.Namespace) -> int:
    metrics = [m for m in builtin_metrics() if args.metric in ("all", m.name)]
    with fplt._open_video(args.input) as (shape, read):
        sys.stdout.write(_report(shape, read, metrics))
    return 0


def cmd_elo(args: argparse.Namespace) -> int:
    records = parse_match_log(Path(args.matches).read_text())
    table = tournament(records, initial=args.initial)
    for player, rank in rank_buckets(table).items():
        line = f"{player}={table.ratings[player]:.1f}"
        print(f"{line} rank={rank}" if args.ranks else line)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctxpack",
        description="Compute, apply, and verify frame-context packing schedules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a schedule name and dump its structure")
    p.add_argument("name")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("budget", help="token accounting for a schedule at given dims")
    p.add_argument("name")
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--tail-frames", type=int, default=0)
    p.add_argument("--pad", action="store_true", help="ceil-divide indivisible dims")
    p.set_defaults(func=cmd_budget)

    p = sub.add_parser("plan", help="emit the generation plan a schedule implies")
    p.add_argument("name")
    p.add_argument("--total", type=int, required=True)
    p.add_argument("--section", type=int, required=True)
    p.add_argument(
        "--user-frames", type=int, help="leading user-supplied frames (inverted mode; default 1)"
    )
    p.add_argument("--endpoints", help="anchor spans a..b,c..d for multi-endpoint plans")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("pack", help="apply a schedule to a latent video container")
    p.add_argument("name")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--provenance", help="sidecar path (default: <output>.prov)")
    p.add_argument("--pad-history", action="store_true")
    p.add_argument("--pad-spatial", action="store_true")
    p.set_defaults(func=cmd_pack)

    p = sub.add_parser("codebook", help="codebook operations")
    csub = p.add_subparsers(dest="codebook_command", required=True)
    pf = csub.add_parser("fit", help="fit a codebook over latent pixels")
    pf.add_argument("inputs", nargs="+")
    pf.add_argument("--k", type=int, required=True)
    pf.add_argument("--seed", type=int, required=True)
    pf.add_argument("--max-iters", type=int, default=100)
    pf.add_argument("--tol", type=float, default=1e-6)
    pf.add_argument("-o", "--output", required=True)
    pf.set_defaults(func=cmd_codebook_fit)

    p = sub.add_parser("quantize", help="snap a video to its nearest codebook entries")
    p.add_argument("input")
    p.add_argument("--codebook", required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_quantize)

    p = sub.add_parser("drift", help="start-end drift report for a video")
    p.add_argument("input")
    p.add_argument(
        "--metric",
        default="all",
        choices=["all"] + [m.name for m in builtin_metrics()],
    )
    p.set_defaults(func=cmd_drift)

    p = sub.add_parser("elo", help="sequential K-32 ratings from a match log")
    p.add_argument("matches")
    p.add_argument("--initial", type=float, default=DEFAULT_INITIAL_RATING)
    p.add_argument("--ranks", action="store_true", help="append tie-bucketed ranks")
    p.set_defaults(func=cmd_elo)

    # argparse takes "-inf" or "-1e3" after a space for an option name; read
    # any value float() takes with a leading "-" as a value, on every Python
    for takes_floats in (pf, p):
        takes_floats._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.I)

    return parser


# Parsing leaves the parser unchanged, so one serves every call of ``main``.
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    # The parser holds the command functions it was built with; look the
    # command up by name so one patched in since (a test double, a
    # tracer) is the one that runs, as with a parser built per call.
    command = globals()[args.func.__name__]
    try:
        return command(args)
    except USAGE_ERRORS as exc:
        print(f"ctxpack: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"ctxpack: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
