"""Reference planners: the four planners as each wrote its own iterations.

This is the planner module from before the planners shared one iteration
constructor and one gap-filling loop, kept as an oracle. Every plan
builds its ``Iteration`` objects by hand, with its own skip-span formula,
and the endpoint and multi-endpoint planners each fill their gaps with
their own loop. Sizes below 1 are not checked here: ``section=0``
divides by zero or, in ``plan_inverted``, never returns. The one later
spec change it carries is the multi-endpoint planner's up-front
rejection of an anchor that reads frames no earlier anchor generates,
written here on its own rather than copied.
"""

from __future__ import annotations

from typing import Sequence

from ctxpack.errors import ModeMismatch, OverlappingEndpoints, PlanError, TooShort
from ctxpack.planner import GenerationPlan, InputBinding, Iteration, PlanMode, Span
from ctxpack.schedule import Frames, PackingSchedule, SamplingMode


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
    and every input frame is available before the iteration that reads it."""
    available = [False] * plan.total_frames
    for span in plan.user_spans:
        for i in range(span.start, span.stop):
            available[i] = True
    for it in plan.iterations:
        for binding in it.inputs:
            span = binding.span
            if not all(available[span.start : span.stop]):
                raise PlanError(f"input {span.text} read before it is available")
        for span in it.targets:
            for i in range(span.start, span.stop):
                if available[i]:
                    raise PlanError(f"frame {i} targeted twice or user-supplied")
                available[i] = True
    if not all(available):
        missing = available.index(False)
        raise PlanError(f"frame {missing} is never generated or supplied")
    return plan


def _sections(start: int, stop: int, section: int) -> list[Span]:
    return [Span(s, min(s + section, stop)) for s in range(start, stop, section)]


def plan_vanilla(
    total: int,
    section: int,
    schedule: PackingSchedule,
    *,
    allow_partial: bool = False,
) -> GenerationPlan:
    """Forward sampling: sections in temporal order, conditioned on the
    most recent preceding frames."""
    if schedule.sampling_mode is not SamplingMode.VANILLA:
        raise ModeMismatch(f"schedule {schedule.name!r} does not imply vanilla sampling")
    if total % section and not allow_partial:
        raise PlanError(f"total {total} is not a multiple of section {section}")
    entries = schedule.entries_before_generate
    iterations = []
    for target in _sections(0, total, section):
        iterations.append(
            Iteration(
                targets=(target,),
                inputs=tuple(bind_backward(entries, target.start)),
            )
        )
    plan = GenerationPlan(PlanMode.VANILLA, total, section, schedule, tuple(iterations))
    return _check_plan(plan)


def plan_endpoint(total: int, section: int, schedule: PackingSchedule) -> GenerationPlan:
    """Anchor-first sampling: generate the first and last sections together,
    then fill the gap in temporal order, conditioned on both sides."""
    if schedule.sampling_mode is not SamplingMode.ENDPOINT_ANCHORED:
        raise ModeMismatch(f"schedule {schedule.name!r} does not imply endpoint sampling")
    if total < 2 * section:
        raise TooShort(f"total {total} cannot hold two sections of {section}")
    if total % section:
        raise PlanError(f"total {total} is not a multiple of section {section}")

    pre = schedule.entries_before_generate
    post = schedule.entries_after_generate
    anchor_start = total - section
    iterations = [
        Iteration(
            targets=(Span(0, section), Span(anchor_start, total)),
            inputs=tuple(
                bind_backward(pre, 0) + bind_forward(post, total, total)
            ),
            skip_spans=(Span(section, anchor_start),),
        )
    ]
    for target in _sections(section, anchor_start, section):
        iterations.append(
            Iteration(
                targets=(target,),
                inputs=tuple(
                    bind_backward(pre, target.start)
                    + bind_forward(post, anchor_start, total)
                ),
                skip_spans=(Span(target.stop, anchor_start),),
            )
        )
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
    if schedule.sampling_mode is not SamplingMode.INVERTED:
        raise ModeMismatch(f"schedule {schedule.name!r} does not imply inverted sampling")
    if user_frames < 0:
        raise PlanError("user_frames must be >= 0")
    if total <= user_frames:
        raise TooShort(f"total {total} leaves nothing to generate after {user_frames} user frames")

    pre = schedule.entries_before_generate
    post = schedule.entries_after_generate
    iterations = []
    stop = total
    while stop > user_frames:
        start = max(user_frames, stop - section)
        iterations.append(
            Iteration(
                targets=(Span(start, stop),),
                inputs=tuple(
                    bind_backward(pre, user_frames)
                    + bind_forward(post, stop, total)
                ),
                skip_spans=(Span(user_frames, start),),
            )
        )
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
    conditioned on everything before them and on the next anchor.
    """
    if schedule.sampling_mode is not SamplingMode.ENDPOINT_ANCHORED:
        raise ModeMismatch(f"schedule {schedule.name!r} does not imply endpoint sampling")
    anchors = sorted(
        (s if isinstance(s, Span) else Span(*s) for s in endpoints),
        key=lambda s: s.start,
    )
    if not anchors:
        raise PlanError("at least one endpoint section is required")
    if prompts is not None and len(prompts) != len(anchors):
        raise PlanError("one prompt per endpoint section expected")
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

    pre = schedule.entries_before_generate
    post = schedule.entries_after_generate
    iterations = []
    for i, anchor in enumerate(anchors):
        previous_stop = anchors[i - 1].stop if i else 0
        iterations.append(
            Iteration(
                targets=(anchor,),
                inputs=tuple(
                    bind_backward(pre, previous_stop)
                    + bind_forward(post, anchor.stop, anchor.stop)
                ),
                skip_spans=(Span(previous_stop, anchor.start),),
                prompt=None if prompts is None else prompts[i],
            )
        )

    # An anchor whose inputs reach frames that no earlier anchor generates
    # is rejected up front, naming those frames as ranges.
    generated: set[int] = set()
    for it in iterations:
        (anchor,) = it.targets
        lacking = {i for b in it.inputs for i in range(b.span.start, b.span.stop)} - generated
        if lacking:
            runs = [[f, f + 1] for f in sorted(lacking) if f - 1 not in lacking]
            for run in runs:
                while run[1] in lacking:
                    run[1] += 1
            text = ",".join(f"{a}..{b}" for a, b in runs)
            raise PlanError(
                f"endpoint {anchor.text} reads frames {text}, which no earlier endpoint generates"
            )
        generated.update(range(anchor.start, anchor.stop))

    bounds = [0] + [b for a in anchors for b in (a.start, a.stop)] + [total]
    gaps = [Span(a, b) for a, b in zip(bounds[::2], bounds[1::2]) if a < b]
    for gap in gaps:
        next_anchor = next((a for a in anchors if a.start >= gap.stop), None)
        for target in _sections(gap.start, gap.stop, section):
            if next_anchor is None:
                future = bind_forward(post, target.stop, target.stop)
                skip = Span(target.stop, target.stop)
            else:
                future = bind_forward(post, next_anchor.start, next_anchor.stop)
                skip = Span(target.stop, next_anchor.start)
            iterations.append(
                Iteration(
                    targets=(target,),
                    inputs=tuple(bind_backward(pre, target.start) + future),
                    skip_spans=(skip,),
                )
            )
    plan = GenerationPlan(
        PlanMode.MULTI_ENDPOINT, total, section, schedule, tuple(iterations)
    )
    return _check_plan(plan)
