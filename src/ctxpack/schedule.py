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


def _read_int(name: str, i: int, what: str) -> tuple[int, int]:
    j = i
    while j < len(name) and name[j].isdigit():
        j += 1
    if j == i:
        raise UnknownToken(f"expected {what} at position {i} in {name!r}")
    value = int(name[i:j])
    if value < 1:
        raise InvalidSchedule(f"{what} must be >= 1 at position {i} in {name!r}")
    return value, j


def _read_kernel(name: str, i: int) -> tuple[KernelSpec, int]:
    # name[i] is 'k'
    n, i = _read_int(name, i + 1, "kernel frame step")
    if i < len(name) and name[i] == "h":
        h, i = _read_int(name, i + 1, "kernel height step")
        if i >= len(name) or name[i] != "w":
            raise UnknownToken(f"explicit kernel needs a 'w' step at position {i} in {name!r}")
        w, i = _read_int(name, i + 1, "kernel width step")
        return KernelSpec(n, h, w), i
    return KernelSpec.simplified(n), i


def parse_schedule(name: str) -> PackingSchedule:
    """Parse a schedule name into its validated structured form."""
    if not isinstance(name, str):
        raise TypeError("schedule name must be a string")
    if not name.isascii():
        raise UnknownToken("schedule name must be ASCII")

    discretize = False
    body = name
    if body.endswith("+D"):
        discretize = True
        body = body[:-2]

    segments: list[Segment] = []
    i = 0
    while i < len(body):
        c = body[i]
        if c == "_":
            i += 1
        elif c == "t":
            run = body[i : i + 2]
            try:
                mode = TailMode(run)
            except ValueError:
                raise UnknownToken(f"unknown tail marker {run!r} at position {i} in {name!r}") from None
            segments.append(Tail(mode))
            i += 2
        elif c == "f":
            count, i = _read_int(body, i + 1, "frame count")
            if i >= len(body) or body[i] != "k":
                raise UnknownToken(f"frame entry needs a kernel at position {i} in {name!r}")
            kernel, i = _read_kernel(body, i)
            segments.append(Frames(count, kernel))
        elif c == "g":
            count, i = _read_int(body, i + 1, "generate count")
            segments.append(Generate(count))
        elif c == "x":
            segments.append(Skip())
            i += 1
        else:
            raise UnknownToken(f"unrecognized token {c!r} at position {i} in {name!r}")

    if not segments:
        raise EmptySchedule(f"no segments in schedule name {name!r}")
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
