"""Parsing and serialization of compact packing-schedule names.

A schedule name is a flat ASCII string built from these tokens:

    td | ta | tc       tail handling: delete, append pooled pixels, compress
    f<N>k<M>           N frames grouped under the simplified kernel k<M>
    f<N>k<F>h<H>w<W>   same, with an explicit 3D kernel shape
    g<N>               the generated section, N frames
    x                  a gap of unresolved length (may be zero frames)
    _                  cosmetic separator, no semantics
    +D                 trailing flag: history is discretized

Segments are listed in temporal order, earliest first. Simplified kernels
expand as k<N> = (N, 2N, 2N). The canonical form joins logical groups with
underscores and concatenates adjacent frame entries without separators;
``parse_schedule`` accepts underscores anywhere between tokens and explicit
kernel spellings, both of which re-serialize to the canonical form.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Union

from .errors import (
    EmptySchedule,
    InvalidSchedule,
    MisplacedTail,
    MultipleGenerate,
    UnknownToken,
)


class TailMode(Enum):
    DELETE = "td"
    APPEND = "ta"
    COMPRESS = "tc"


class SamplingMode(Enum):
    VANILLA = "vanilla"
    ENDPOINT_ANCHORED = "endpoint"
    INVERTED = "inverted"
    UNCLASSIFIED = "unclassified"


@dataclass(frozen=True)
class KernelSpec:
    """A 3D grouping window (frames, height, width) producing one token."""

    p_f: int
    p_h: int
    p_w: int

    def __post_init__(self) -> None:
        if min(self.p_f, self.p_h, self.p_w) < 1:
            raise InvalidSchedule(f"kernel dims must all be >= 1, got {self.dims}")

    @classmethod
    def simplified(cls, n: int) -> "KernelSpec":
        return cls(n, 2 * n, 2 * n)

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.p_f, self.p_h, self.p_w)

    @property
    def rate(self) -> int:
        """Compression rate: latent values folded into one token."""
        return self.p_f * self.p_h * self.p_w

    @property
    def is_simplified(self) -> bool:
        return self.p_h == 2 * self.p_f and self.p_w == 2 * self.p_f

    @property
    def token(self) -> str:
        if self.is_simplified:
            return f"k{self.p_f}"
        return f"k{self.p_f}h{self.p_h}w{self.p_w}"


BASE_KERNEL = KernelSpec(1, 2, 2)


@dataclass(frozen=True)
class Tail:
    mode: TailMode

    @property
    def token(self) -> str:
        return self.mode.value


@dataclass(frozen=True)
class Frames:
    count: int
    kernel: KernelSpec

    def __post_init__(self) -> None:
        if self.count < 1:
            raise InvalidSchedule(f"frame count must be >= 1, got {self.count}")

    @property
    def token(self) -> str:
        return f"f{self.count}{self.kernel.token}"


@dataclass(frozen=True)
class Skip:
    @property
    def token(self) -> str:
        return "x"


@dataclass(frozen=True)
class Generate:
    count: int

    def __post_init__(self) -> None:
        if self.count < 1:
            raise InvalidSchedule(f"generate count must be >= 1, got {self.count}")

    @property
    def token(self) -> str:
        return f"g{self.count}"


Segment = Union[Tail, Frames, Skip, Generate]


def _validate_segments(segments: tuple[Segment, ...]) -> None:
    if not segments:
        raise EmptySchedule("schedule has no segments")
    generates = [s for s in segments if isinstance(s, Generate)]
    if len(generates) > 1:
        raise MultipleGenerate(f"schedule has {len(generates)} generate entries")
    if not generates:
        raise InvalidSchedule("schedule needs exactly one generate entry")
    tail_positions = [i for i, s in enumerate(segments) if isinstance(s, Tail)]
    if len(tail_positions) > 1:
        raise MisplacedTail("schedule has more than one tail marker")
    if tail_positions and tail_positions[0] not in (0, len(segments) - 1):
        raise MisplacedTail("tail marker must sit at an end of the schedule")


@dataclass(frozen=True)
class PackingSchedule:
    """A validated schedule: ordered segments plus the discretize flag."""

    segments: tuple[Segment, ...]
    discretize_history: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "segments", tuple(self.segments))
        _validate_segments(self.segments)

    @property
    def sampling_mode(self) -> SamplingMode:
        return classify_sampling_mode(self)

    @property
    def generate(self) -> Generate:
        return next(s for s in self.segments if isinstance(s, Generate))

    @property
    def generate_index(self) -> int:
        return next(i for i, s in enumerate(self.segments) if isinstance(s, Generate))

    @property
    def tail(self) -> Tail | None:
        return next((s for s in self.segments if isinstance(s, Tail)), None)

    @property
    def tail_at_start(self) -> bool:
        return isinstance(self.segments[0], Tail)

    @property
    def tail_at_end(self) -> bool:
        return len(self.segments) > 1 and isinstance(self.segments[-1], Tail)

    @property
    def frames_entries(self) -> tuple[Frames, ...]:
        return tuple(s for s in self.segments if isinstance(s, Frames))

    @property
    def entries_before_generate(self) -> tuple[Frames, ...]:
        gi = self.generate_index
        return tuple(s for s in self.segments[:gi] if isinstance(s, Frames))

    @property
    def entries_after_generate(self) -> tuple[Frames, ...]:
        gi = self.generate_index
        return tuple(s for s in self.segments[gi + 1 :] if isinstance(s, Frames))

    @property
    def coarsest_kernel(self) -> KernelSpec:
        """Kernel with the highest compression rate; base kernel if no entries."""
        entries = self.frames_entries
        if not entries:
            return BASE_KERNEL
        return max(entries, key=lambda e: e.kernel.rate).kernel

    @property
    def name(self) -> str:
        return format_schedule(self)


def _anchored(side: list[Segment], other: list[Segment]) -> bool:
    """``side``, read outward from the generated section, is the gap and
    one or more frame entries, and ``other`` holds frame entries only."""
    frames = all(isinstance(s, Frames) for s in (*side[1:], *other))
    return len(side) > 1 and isinstance(side[0], Skip) and frames


def classify_sampling_mode(schedule: PackingSchedule) -> SamplingMode:
    """Derive the sampling order a schedule implies.

    Vanilla: no gap, generate is the temporally last non-tail segment.
    Endpoint-anchored: ends with generate, gap, then trailing frame entries.
    Inverted: the mirror image, frame entries, gap, then generate; tail
    only at the temporally late end. Anything else is unclassified.
    """
    core = [s for s in schedule.segments if not isinstance(s, Tail)]
    gi = next(i for i, s in enumerate(core) if isinstance(s, Generate))
    leading, trailing = core[:gi], core[gi + 1 :]

    if not trailing and not any(isinstance(s, Skip) for s in leading):
        return SamplingMode.VANILLA
    if not schedule.tail_at_end and _anchored(trailing, leading):
        return SamplingMode.ENDPOINT_ANCHORED
    if not schedule.tail_at_start and _anchored(leading[::-1], trailing):
        return SamplingMode.INVERTED
    return SamplingMode.UNCLASSIFIED


_TOKEN = re.compile(
    r"_|(?P<tail>t[dac])"
    r"|f(?P<count>[0-9]+)k(?P<p_f>[0-9]+)(?:h(?P<p_h>[0-9]+)w(?P<p_w>[0-9]+))?"
    r"|g(?P<generate>[0-9]+)|(?P<skip>x)"
)


def _count(digits: str) -> int:
    try:
        return int(digits)
    except ValueError:  # more digits than int() converts
        raise InvalidSchedule(f"count {digits[:8]}... has {len(digits)} digits") from None


def parse_schedule(name: str) -> PackingSchedule:
    """Parse a schedule name into its validated structured form."""
    if not isinstance(name, str):
        raise TypeError("schedule name must be a string")
    discretize = name.endswith("+D")
    body = name[:-2] if discretize else name

    segments: list[Segment] = []
    i = 0
    while i < len(body):
        m = _TOKEN.match(body, i)
        if m is None:
            raise UnknownToken(f"unrecognized token {body[i]!r} at position {i} in {name!r}")
        if m["tail"]:
            segments.append(Tail(TailMode(m["tail"])))
        elif m["count"]:
            count = _count(m["count"])
            p_f = _count(m["p_f"])
            if m["p_h"] is None:
                kernel = KernelSpec.simplified(p_f)
            else:
                kernel = KernelSpec(p_f, _count(m["p_h"]), _count(m["p_w"]))
            segments.append(Frames(count, kernel))
        elif m["generate"]:
            segments.append(Generate(_count(m["generate"])))
        elif m["skip"]:
            segments.append(Skip())
        i = m.end()
    return PackingSchedule(tuple(segments), discretize)


def format_schedule(schedule: PackingSchedule) -> str:
    """Serialize a schedule to its canonical name.

    Adjacent frame entries concatenate without separators; everything else
    is joined with underscores, and the discretize flag appends ``+D``.
    """
    segments = schedule.segments
    groups: list[str] = []
    for prev, seg in zip((None, *segments), segments):
        if isinstance(prev, Frames) and isinstance(seg, Frames):
            groups[-1] += seg.token
        else:
            groups.append(seg.token)
    name = "_".join(groups)
    return name + "+D" if schedule.discretize_history else name
