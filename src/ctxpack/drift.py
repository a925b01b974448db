"""Start-end drift scoring and Elo aggregation of A/B preferences.

Drift is the absolute difference of a quality metric between the first
and last 15% of frames (at least one frame each side), which makes it
direction-agnostic by construction. Metrics are pluggable; the built-ins
are cheap analytic proxies rather than learned predictors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import TooFewFrames, UnknownOutcome
from .packing import LatentVideo

DRIFT_WINDOW = 0.15
DEFAULT_K_FACTOR = 32.0
DEFAULT_INITIAL_RATING = 1000.0
DEFAULT_TIE_MARGIN = 16.0


@dataclass(frozen=True)
class SegmentMetric:
    """A deterministic score over a (T, H, W, C) frame block."""

    name: str
    evaluate: Callable[[np.ndarray], float]


def _segments(video: LatentVideo | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The start and end segments of a video, DRIFT_WINDOW of its frames each."""
    arr = (video if isinstance(video, LatentVideo) else LatentVideo(video)).array
    t = arr.shape[0]
    if t < 2:
        raise TooFewFrames(f"drift needs at least 2 frames, got {t}")
    window = max(1, int(DRIFT_WINDOW * t))
    start, end = arr[:window], arr[-window:]
    return start.astype(np.float64, copy=False), end.astype(np.float64, copy=False)


def drift(video: LatentVideo | np.ndarray, metric: SegmentMetric) -> float:
    """|metric(start segment) - metric(end segment)| for one video."""
    start, end = _segments(video)
    return abs(float(metric.evaluate(start)) - float(metric.evaluate(end)))


def _mean_luminance(frames: np.ndarray) -> float:
    return float(frames[..., 0].mean())


def _laplacian_variance(frames: np.ndarray) -> float:
    f = frames[..., 0]
    if f.shape[1] < 3 or f.shape[2] < 3:
        return 0.0
    lap = (
        f[:, :-2, 1:-1]
        + f[:, 2:, 1:-1]
        + f[:, 1:-1, :-2]
        + f[:, 1:-1, 2:]
        - 4.0 * f[:, 1:-1, 1:-1]
    )
    return float(lap.var())


def _frame_difference(frames: np.ndarray) -> float:
    if frames.shape[0] < 2:
        return 0.0
    return float(np.abs(np.diff(frames, axis=0)).mean())


def builtin_metrics() -> list[SegmentMetric]:
    """Analytic stand-ins for learned quality predictors."""
    return [
        SegmentMetric("mean-luminance", _mean_luminance),
        SegmentMetric("sharpness-proxy", _laplacian_variance),
        SegmentMetric("dynamics-proxy", _frame_difference),
    ]


def drift_report(video: LatentVideo | np.ndarray, metrics: Iterable[SegmentMetric]) -> str:
    """One text line per metric: start and end scores plus their drift."""
    start_frames, end_frames = _segments(video)
    lines = []
    for metric in metrics:
        start = float(metric.evaluate(start_frames))
        end = float(metric.evaluate(end_frames))
        lines.append(
            f"metric={metric.name} start={start!r} end={end!r} drift={abs(start - end)!r}"
        )
    return "\n".join(lines) + "\n"


class MatchOutcome(Enum):
    A = "A"
    B = "B"
    DRAW = "D"


@dataclass(frozen=True)
class MatchRecord:
    player_a: str
    player_b: str
    outcome: MatchOutcome

    def __post_init__(self) -> None:
        if not self.player_a or not self.player_b:
            raise ValueError("player names must be non-empty")
        if self.player_a == self.player_b:
            raise ValueError(f"a player cannot face itself: {self.player_a!r}")


def _check_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


def elo_expected(rating_a: float, rating_b: float) -> float:
    """Expected score of the first player under the logistic model.

    Raises ``ValueError`` for a non-finite rating. A gap whose odds
    overflow a float gives the expected score's limit, 0.0.
    """
    _check_finite("rating_a", rating_a)
    _check_finite("rating_b", rating_b)
    try:
        return 1.0 / (1.0 + 10.0 ** ((rating_b - rating_a) / 400.0))
    except OverflowError:
        return 0.0


def elo_update(
    rating_a: float,
    rating_b: float,
    outcome: MatchOutcome,
    k_factor: float = DEFAULT_K_FACTOR,
) -> tuple[float, float]:
    """One rating update; the two deltas are exact negatives of each other.

    Raises ``ValueError`` for a non-finite rating, K factor or result.
    """
    _check_finite("k_factor", k_factor)
    expected_a = elo_expected(rating_a, rating_b)
    score_a = {MatchOutcome.A: 1.0, MatchOutcome.B: 0.0, MatchOutcome.DRAW: 0.5}[outcome]
    delta = k_factor * (score_a - expected_a)
    a, b = rating_a + delta, rating_b - delta
    _check_finite("updated rating_a", a)
    _check_finite("updated rating_b", b)
    return a, b


@dataclass
class RatingTable:
    k_factor: float = DEFAULT_K_FACTOR
    initial: float = DEFAULT_INITIAL_RATING
    ratings: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _check_finite("k_factor", self.k_factor)
        _check_finite("initial rating", self.initial)

    def get(self, player: str) -> float:
        return self.ratings.get(player, self.initial)

    def record(self, match: MatchRecord) -> None:
        a, b = elo_update(
            self.get(match.player_a), self.get(match.player_b), match.outcome, self.k_factor
        )
        self.ratings[match.player_a] = a
        self.ratings[match.player_b] = b


def tournament(
    records: Sequence[MatchRecord],
    initial: float = DEFAULT_INITIAL_RATING,
    k_factor: float = DEFAULT_K_FACTOR,
) -> RatingTable:
    """Sequential rating over the records in the given order."""
    table = RatingTable(k_factor=k_factor, initial=initial)
    for match in records:
        table.record(match)
    return table


def parse_match_log(text: str) -> list[MatchRecord]:
    """Comma-separated lines ``player_a,player_b,outcome`` with outcome A|B|D."""
    records = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 3:
            raise ValueError(f"line {lineno}: expected 'a,b,outcome', got {raw!r}")
        try:
            outcome = MatchOutcome(parts[2])
        except ValueError:
            raise UnknownOutcome(
                f"line {lineno}: outcome must be one of A, B, D, got {parts[2]!r}"
            ) from None
        records.append(MatchRecord(parts[0], parts[1], outcome))
    return records


def rank_buckets(table: RatingTable, tie_margin: float = DEFAULT_TIE_MARGIN) -> dict[str, int]:
    """Chain players into rank buckets while consecutive gaps stay within
    the tie margin; bucket 1 holds the highest ratings. The dict runs in
    rating order, best first, ties by name."""
    ordered = sorted(table.ratings.items(), key=lambda kv: (-kv[1], kv[0]))
    ranks: dict[str, int] = {}
    bucket = 0
    previous = None
    for player, rating in ordered:
        if previous is None or previous - rating > tie_margin:
            bucket += 1
        ranks[player] = bucket
        previous = rating
    return ranks
