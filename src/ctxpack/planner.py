"""Generation plans: which frames each prediction step makes and sees.

A plan is an ordered list of iterations. Each iteration targets one or
more frame ranges and binds every frame entry of the schedule to a
concrete (possibly empty) range of already-available frames, with any
gap the schedule skips resolved to explicit spans. Plans serialize to a
line-oriented text form for golden-file comparison:

    ITER <n> TARGET <a>..<b>[,<a>..<b>] INPUTS <a>..<b>@<kernel>[,...]

with ``INPUTS -`` when the schedule has no frame entries.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .errors import ModeMismatch, OverlappingEndpoints, PlanError, TooShort
from .schedule import Frames, PackingSchedule, SamplingMode, Skip


@dataclass(frozen=True)
class Span:
    """Half-open frame index range [start, stop)."""

    start: int
    stop: int

    def __post_init__(self) -> None:
        if self.stop < self.start:
            raise ValueError(f"span stop {self.stop} before start {self.start}")

    @property
    def length(self) -> int:
        return self.stop - self.start

    @property
    def text(self) -> str:
        return f"{self.start}..{self.stop}"


@dataclass(frozen=True)
class InputBinding:
    span: Span
    kernel_token: str


@dataclass(frozen=True)
class Iteration:
    targets: tuple[Span, ...]
    inputs: tuple[InputBinding, ...]
    skip_spans: tuple[Span, ...] = ()
    prompt: str | None = None


class PlanMode(Enum):
    VANILLA = "vanilla"
    ENDPOINT = "endpoint"
    INVERTED = "inverted"
    MULTI_ENDPOINT = "multi-endpoint"


@dataclass(frozen=True)
class GenerationPlan:
    mode: PlanMode
    total_frames: int
    section: int
    schedule: PackingSchedule
    iterations: tuple[Iteration, ...]
    user_spans: tuple[Span, ...] = ()


def bind_backward(entries: Sequence[Frames], stop: int) -> list[InputBinding]:
    """Bind entries to frames ending at ``stop``, newest frames to the
    generate-adjacent (last) entry, clipping at frame 0."""
    cursor = stop
    reversed_bindings = []
    for entry in reversed(entries):
        take = min(entry.count, cursor)
        reversed_bindings.append(InputBinding(Span(cursor - take, cursor), entry.kernel.token))
        cursor -= take
    return list(reversed(reversed_bindings))


def bind_forward(entries: Sequence[Frames], start: int, ceiling: int) -> list[InputBinding]:
    """Bind entries to frames starting at ``start``, earliest frames to the
    generate-adjacent (first) entry, clipping at ``ceiling``."""
    cursor = start
    bindings = []
    for entry in entries:
        take = min(entry.count, max(0, ceiling - cursor))
        bindings.append(InputBinding(Span(cursor, cursor + take), entry.kernel.token))
        cursor += take
    return bindings


def _check_plan(plan: GenerationPlan) -> GenerationPlan:
    """Coverage and causality: targets plus user frames partition the range,
    and every input frame is available before the iteration that reads it.

    The available frames are kept as sorted spans that neither overlap nor
    touch, so the check holds no per-frame state however long the range.
    """
    # span starts and stops, after an end marker no frame reaches
    starts: list[float] = [math.inf]
    stops: list[float] = [math.inf]

    def add(span: Span) -> None:
        # merge the span with every available span it overlaps or touches
        if span.length:
            i, j = bisect_left(stops, span.start), bisect_right(starts, span.stop)
            starts[i:j] = [min([span.start, *starts[i:j]])]
            stops[i:j] = [max([span.stop, *stops[i:j]])]

    for span in plan.user_spans:
        add(span)
    for it in plan.iterations:
        for binding in it.inputs:
            span = binding.span
            # the first available span that ends after the input's start
            i = bisect_right(stops, span.start)
            if span.length and not (starts[i] <= span.start and span.stop <= stops[i]):
                raise PlanError(f"input {span.text} read before it is available")
        for span in it.targets:
            first = max(starts[bisect_right(stops, span.start)], span.start)
            if first < span.stop:
                raise PlanError(f"frame {first} targeted twice or user-supplied")
            add(span)
    missing = stops[0] if starts[0] == 0 else 0
    if missing < plan.total_frames:
        raise PlanError(f"frame {missing} is never generated or supplied")
    return plan


def _sections(start: int, stop: int, section: int) -> list[Span]:
    return [Span(s, min(s + section, stop)) for s in range(start, stop, section)]


def _check_request(total: int, section: int, schedule: PackingSchedule, mode: SamplingMode) -> None:
    """Sizes first, then the sampling order the schedule implies."""
    if section < 1 or total < 1:
        raise PlanError(f"section {section} and total {total} must both be >= 1")
    if schedule.sampling_mode is not mode:
        raise ModeMismatch(f"schedule {schedule.name!r} does not imply {mode.value} sampling")


def _iteration(
    schedule: PackingSchedule,
    targets: tuple[Span, ...],
    history_stop: int,
    future: Span,
    skip: Span,
    prompt: str | None = None,
) -> Iteration:
    """The one iteration rule: entries before the generated section bind
    backward from ``history_stop``, entries after it bind forward over
    ``future``, and ``skip`` is recorded when the schedule has a gap."""
    pre = bind_backward(schedule.entries_before_generate, history_stop)
    post = bind_forward(schedule.entries_after_generate, future.start, future.stop)
    has_gap = any(isinstance(s, Skip) for s in schedule.segments)
    return Iteration(targets, tuple(pre + post), (skip,) if has_gap else (), prompt)


def _fill(
    schedule: PackingSchedule, start: int, stop: int, section: int, anchor: Span | None
) -> list[Iteration]:
    """Sections of [start, stop) in temporal order, each conditioned on the
    frames before it and on ``anchor``, the next already-generated span."""
    iterations = []
    for target in _sections(start, stop, section):
        future = anchor or Span(target.stop, target.stop)
        skip = Span(target.stop, future.start)
        iterations.append(_iteration(schedule, (target,), target.start, future, skip))
    return iterations


def plan_vanilla(
    total: int,
    section: int,
    schedule: PackingSchedule,
    *,
    allow_partial: bool = False,
) -> GenerationPlan:
    """Forward sampling: sections in temporal order, conditioned on the
    most recent preceding frames."""
    _check_request(total, section, schedule, SamplingMode.VANILLA)
    if total % section and not allow_partial:
        raise PlanError(f"total {total} is not a multiple of section {section}")
    iterations = _fill(schedule, 0, total, section, None)
    plan = GenerationPlan(PlanMode.VANILLA, total, section, schedule, tuple(iterations))
    return _check_plan(plan)


def plan_endpoint(total: int, section: int, schedule: PackingSchedule) -> GenerationPlan:
    """Anchor-first sampling: generate the first and last sections together,
    then fill the gap in temporal order, conditioned on both sides."""
    _check_request(total, section, schedule, SamplingMode.ENDPOINT_ANCHORED)
    if total < 2 * section:
        raise TooShort(f"total {total} cannot hold two sections of {section}")
    if total % section:
        raise PlanError(f"total {total} is not a multiple of section {section}")

    anchor = Span(total - section, total)
    targets = (Span(0, section), anchor)
    first = _iteration(schedule, targets, 0, Span(total, total), Span(section, anchor.start))
    iterations = [first] + _fill(schedule, section, anchor.start, section, anchor)
    plan = GenerationPlan(PlanMode.ENDPOINT, total, section, schedule, tuple(iterations))
    return _check_plan(plan)


def plan_inverted(
    total: int,
    section: int,
    schedule: PackingSchedule,
    *,
    user_frames: int = 1,
) -> GenerationPlan:
    """Backward sampling toward user-supplied opening frames.

    Sections are generated from the far end toward the start; each one is
    conditioned on the user frames (through the leading entries) and on
    the already-generated future (through the trailing entries). The
    earliest section may be partial so it abuts the user frames exactly.
    """
    _check_request(total, section, schedule, SamplingMode.INVERTED)
    if user_frames < 0:
        raise PlanError("user_frames must be >= 0")
    if total <= user_frames:
        raise TooShort(f"total {total} leaves nothing to generate after {user_frames} user frames")

    iterations = []
    stop = total
    while stop > user_frames:
        start = max(user_frames, stop - section)
        target = (Span(start, stop),)
        skip = Span(user_frames, start)
        iterations.append(_iteration(schedule, target, user_frames, Span(stop, total), skip))
        stop = start
    plan = GenerationPlan(
        PlanMode.INVERTED,
        total,
        section,
        schedule,
        tuple(iterations),
        user_spans=(Span(0, user_frames),) if user_frames else (),
    )
    return _check_plan(plan)


def plan_multi_endpoint(
    total: int,
    section: int,
    schedule: PackingSchedule,
    endpoints: Sequence[tuple[int, int] | Span],
    *,
    prompts: Sequence[str] | None = None,
) -> GenerationPlan:
    """Several anchors first, then gaps filled between the flanking anchors.

    Anchor sections are generated in temporal order, each conditioned on
    the nearest earlier anchor. Gap sections follow in temporal order,
    conditioned on everything before them and on the next anchor. An
    anchor whose entries would reach back past the earlier anchors into
    frames no anchor generates raises ``PlanError`` naming those frames.
    ``prompts[i]`` belongs to ``endpoints[i]``, in whatever order the
    endpoints are given.
    """
    _check_request(total, section, schedule, SamplingMode.ENDPOINT_ANCHORED)
    spans = [s if isinstance(s, Span) else Span(*s) for s in endpoints]
    if not spans:
        raise PlanError("at least one endpoint section is required")
    if prompts is not None and len(prompts) != len(spans):
        raise PlanError("one prompt per endpoint section expected")
    order = sorted(range(len(spans)), key=lambda i: spans[i].start)
    anchors = [spans[i] for i in order]
    labels = [None if prompts is None else prompts[i] for i in order]
    for a in anchors:
        if a.start < 0 or a.stop > total:
            raise OverlappingEndpoints(f"endpoint {a.text} is outside [0, {total})")
        if a.start % section or a.length % section or a.length == 0:
            raise PlanError(f"endpoint {a.text} is not aligned to sections of {section}")
    for left, right in zip(anchors, anchors[1:]):
        if left.stop > right.start:
            raise OverlappingEndpoints(f"endpoints {left.text} and {right.text} overlap")
    if total % section:
        raise PlanError(f"total {total} is not a multiple of section {section}")

    iterations = []
    starts = [0] + [a.stop for a in anchors]
    for n, (start, anchor, prompt) in enumerate(zip(starts, anchors, labels)):
        future, skip = Span(anchor.stop, anchor.stop), Span(start, anchor.start)
        iteration = _iteration(schedule, (anchor,), start, future, skip, prompt)
        missing = _uncovered([b.span for b in iteration.inputs], anchors[:n])
        if missing:
            raise PlanError(
                f"endpoint {anchor.text} reads frames {missing}, which no earlier "
                "endpoint generates"
            )
        iterations.append(iteration)
    for start, anchor in zip(starts, [*anchors, None]):
        iterations += _fill(schedule, start, anchor.start if anchor else total, section, anchor)
    plan = GenerationPlan(
        PlanMode.MULTI_ENDPOINT, total, section, schedule, tuple(iterations)
    )
    return _check_plan(plan)


def _uncovered(spans: Sequence[Span], cover: Sequence[Span]) -> str:
    """The frames of ``spans`` outside every span of ``cover``, as ranges
    joined by commas; each is sorted, and its spans do not overlap."""
    runs: list[Span] = []
    for span in spans:
        start = span.start
        # each cover span that meets the span, then one at its stop, ends a run
        i = bisect_right(cover, start, key=lambda c: c.stop)
        j = bisect_left(cover, span.stop, key=lambda c: c.start)
        for c in (*cover[i:j], Span(span.stop, span.stop)):
            stop = min(c.start, span.stop)
            if start < stop and runs and runs[-1].stop == start:
                runs[-1] = Span(runs[-1].start, stop)
            elif start < stop:
                runs.append(Span(start, stop))
            start = max(start, c.stop)
    return ",".join(r.text for r in runs)


def serialize_plan(plan: GenerationPlan) -> str:
    """Bit-exact text form of a plan, one line per iteration."""
    lines = []
    for n, it in enumerate(plan.iterations, start=1):
        targets = ",".join(s.text for s in it.targets)
        inputs = ",".join(f"{b.span.text}@{b.kernel_token}" for b in it.inputs) or "-"
        lines.append(f"ITER {n} TARGET {targets} INPUTS {inputs}")
    return "\n".join(lines) + "\n"
