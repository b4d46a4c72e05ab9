"""Constructible local-realistic adversaries.

Three families, all fully deterministic given their parameters:

1. Instruction sets: each pair class carries per-setting detection flags
   for both sides.  Classes with weight w contribute w pairs to each of
   the four setting combinations, so count tables derived from them are
   exact integer arithmetic.  No instruction set can push the
   detection-probability Bell combination above 0 (ratio form above 1);
   the enumeration over all 16 deterministic one-detector-per-arm
   strategies is included as the explicit proof of that bound.

2. An emission-time schedule that defeats event-windowed coincidence
   counting: four emissions per trial at offsets T, 2T, 3T, 4T,
   alternating Alice/Bob, with detection flags arranged so that the
   primed/primed setting pair produces detections 3T apart while every
   other pair produces detections T apart.  With any event window of
   radius between T and 3T the primed/primed coincidences vanish and the
   ratio estimator reaches 1, far beyond the quantum maximum of about
   0.207.  Clock windowing is immune: every trial then has exactly one
   click per arm whatever the settings.

3. Intensity drift under a fixed cyclic settings order: a source whose
   emission rate decays within the measurement cycle while the four
   setting pairs are visited in a fixed order.  With the singles terms
   estimated from trials measured late in the cycle, the drift fakes a
   violation from separable states.  Randomizing the settings order
   removes the effect.
"""

from __future__ import annotations

import json
import math
from dataclasses import astuple, dataclass
from typing import Sequence

import numpy as np

from .counting import CHANNEL_ALICE, CHANNEL_BOB, CHANNEL_CLOCK, CountsTable, TimetagStream
from .errors import FormatError, ValidationError
from .quantum import (
    DetectionModel,
    MeasurementSettings,
    PolarizationState,
    click_probabilities,
    pair_probs,
)

_INT64_MAX = np.iinfo(np.int64).max


@dataclass(frozen=True)
class LhvClass:
    """One pair class: weight plus per-setting detection flags per side."""

    weight: int
    fires_a: tuple[bool, bool]  # detected under (a, a')
    fires_b: tuple[bool, bool]  # detected under (b, b')

    def __post_init__(self):
        if self.weight < 0:
            raise ValidationError("class weight must be >= 0")
        if len(self.fires_a) != 2 or len(self.fires_b) != 2:
            raise ValidationError("fires_a/fires_b must carry one flag per setting")


@dataclass(frozen=True)
class LhvStrategy:
    """A weighted collection of instruction-set pair classes."""

    classes: tuple[LhvClass, ...]

    def __post_init__(self):
        if not self.classes:
            raise ValidationError("strategy needs at least one class")

    @property
    def total_weight(self) -> int:
        return sum(c.weight for c in self.classes)

    def to_json(self) -> str:
        return json.dumps(
            [
                {"weight": c.weight, "fires_a": list(c.fires_a), "fires_b": list(c.fires_b)}
                for c in self.classes
            ],
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "LhvStrategy":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FormatError(f"strategy JSON does not parse: {exc}") from None
        if not isinstance(doc, list):
            raise ValidationError("strategy JSON must be an array of classes")
        return cls(tuple(_class_from_json(entry, i) for i, entry in enumerate(doc)))


def _class_from_json(entry, index: int) -> LhvClass:
    """One class of a strategy JSON array, its field types checked."""
    where = f"strategy class {index}"
    if not isinstance(entry, dict):
        raise ValidationError(f"{where} must be an object, got {entry!r}")
    missing = {"weight", "fires_a", "fires_b"} - entry.keys()
    if missing:
        raise ValidationError(f"{where} is missing {sorted(missing)}")
    weight = entry["weight"]
    if isinstance(weight, bool) or not isinstance(weight, int):
        raise ValidationError(f"{where}: weight must be an integer, got {weight!r}")
    for side in ("fires_a", "fires_b"):
        flags = entry[side]
        if not (isinstance(flags, list) and len(flags) == 2
                and all(isinstance(f, bool) for f in flags)):
            raise ValidationError(f"{where}: {side} must be two booleans, got {flags!r}")
    return LhvClass(weight, tuple(entry["fires_a"]), tuple(entry["fires_b"]))


def _cls(w, fa, fb) -> LhvClass:
    return LhvClass(w, (bool(fa[0]), bool(fa[1])), (bool(fb[0]), bool(fb[1])))


def demo_strategy_ideal() -> LhvStrategy:
    """Best instruction set against ideal-detector maximally entangled counts.

    Matches the quantum coincidences exactly but necessarily overshoots
    the singles on the unprimed settings (604 vs 500 per 1000 pairs).
    """
    return LhvStrategy((
        _cls(73, (1, 1), (1, 1)),
        _cls(177, (1, 1), (1, 0)),
        _cls(177, (1, 0), (1, 1)),
        _cls(177, (1, 0), (0, 1)),
        _cls(177, (0, 1), (1, 0)),
        _cls(73, (0, 1), (0, 0)),
        _cls(73, (0, 0), (0, 1)),
    ))


def demo_strategy_82pct() -> LhvStrategy:
    """Instruction set that exactly mimics 82%-efficient quantum counts."""
    return LhvStrategy((
        _cls(49, (1, 1), (1, 1)),
        _cls(119, (1, 1), (1, 0)),
        _cls(119, (1, 0), (1, 1)),
        _cls(119, (1, 0), (0, 1)),
        _cls(119, (0, 1), (1, 0)),
        _cls(123, (0, 1), (0, 0)),
        _cls(123, (0, 0), (0, 1)),
        _cls(4, (1, 0), (0, 0)),
        _cls(4, (0, 0), (1, 0)),
    ))


def _pair_weights(strategy: LhvStrategy):
    """Summed weight of the classes firing on side A, on side B and on both,
    each a list over the four setting pairs."""
    def total(fires):
        return [sum(c.weight * fires(c, combo >> 1, combo & 1) for c in strategy.classes)
                for combo in range(4)]

    return (total(lambda c, ia, ib: c.fires_a[ia]),
            total(lambda c, ia, ib: c.fires_b[ib]),
            total(lambda c, ia, ib: c.fires_a[ia] and c.fires_b[ib]))


def counts_from_strategy(strategy: LhvStrategy, trials_per_combo: int) -> CountsTable:
    """Exact integer counts from an instruction set, one weight-pair per combo.

    Each class contributes weight * flag products to coincidences and
    weight * flag to singles in every setting combination; no sampling.
    """
    if trials_per_combo < 1:
        raise ValidationError("trials_per_combo must be >= 1")
    if strategy.total_weight > trials_per_combo:
        raise ValidationError(
            f"total class weight {strategy.total_weight} exceeds trials_per_combo"
        )
    singles_a, singles_b, coinc = _pair_weights(strategy)
    if max(max(singles_a), max(singles_b)) > _INT64_MAX:
        raise OverflowError("strategy counts overflow 64-bit integers")
    return CountsTable(
        n_trials=np.full(4, trials_per_combo, dtype=np.int64),
        singles_a=np.array(singles_a, dtype=np.int64),
        singles_b=np.array(singles_b, dtype=np.int64),
        coincidences=np.array(coinc, dtype=np.int64),
        meta={"source": "instruction-set"},
    )


def _deterministic_value(fa: tuple[int, int], fb: tuple[int, int]) -> int:
    return (
        fa[0] * fb[0] + fa[0] * fb[1] + fa[1] * fb[0] - fa[1] * fb[1] - fa[0] - fb[0]
    )


def max_deterministic_ch() -> float:
    """Exhaustive maximum of the CH combination over all 16 deterministic
    one-detector-per-arm strategies; equals 0, the classical bound."""
    best = -math.inf
    for fa0 in (0, 1):
        for fa1 in (0, 1):
            for fb0 in (0, 1):
                for fb1 in (0, 1):
                    best = max(best, _deterministic_value((fa0, fa1), (fb0, fb1)))
    return float(best)


def max_deterministic_ch_ratio() -> float:
    """Same enumeration for the ratio form; the bound is 1."""
    best = -math.inf
    for fa0 in (0, 1):
        for fa1 in (0, 1):
            for fb0 in (0, 1):
                for fb1 in (0, 1):
                    num = fa0 * fb0 + fa0 * fb1 + fa1 * fb0 - fa1 * fb1
                    den = fa0 + fb0
                    if den > 0:
                        best = max(best, num / den)
    return float(best)


# ---------------------------------------------------------------------------
# timing-based adversary


@dataclass(frozen=True)
class Emission:
    """A scheduled emission: time offset (in units of the base spacing T),
    target side, and per-setting detection flags for that side."""

    offset: int
    target: str  # "alice" | "bob"
    fires_under: tuple[bool, bool]

    def __post_init__(self):
        if self.target not in ("alice", "bob"):
            raise ValidationError(f"target must be 'alice' or 'bob', got {self.target!r}")
        if self.offset < 0:
            raise ValidationError("emission offset must be >= 0")


@dataclass(frozen=True)
class TimedEmissionSchedule:
    """Per-trial emission schedule with strictly increasing offsets."""

    emissions: tuple[Emission, ...]

    def __post_init__(self):
        offs = [e.offset for e in self.emissions]
        if any(b <= a for a, b in zip(offs, offs[1:])):
            raise ValidationError("emission offsets must be strictly increasing")

    @property
    def max_offset(self) -> int:
        return max((e.offset for e in self.emissions), default=0)


def coincidence_loophole_schedule() -> TimedEmissionSchedule:
    """The four-emission schedule that defeats event windowing.

    Alice's T photon fires under a', Bob's 2T photon under b, Alice's 3T
    photon under a, Bob's 4T photon under b'.  Any setting pair except
    (a',b') then yields one detection on each side exactly T apart, while
    (a',b') yields detections 3T apart.
    """
    return TimedEmissionSchedule((
        Emission(1, "alice", (False, True)),
        Emission(2, "bob", (True, False)),
        Emission(3, "alice", (True, False)),
        Emission(4, "bob", (False, True)),
    ))


def coincidence_time_stream(
    schedule: TimedEmissionSchedule,
    settings_per_trial: Sequence[int],
    T_ns: int,
    n_trials: int,
    trial_period_ns: int | None = None,
) -> TimetagStream:
    """Emit the adversarial detection stream for n_trials trials.

    Per trial, each scheduled emission produces a detection exactly when
    its fires_under flag matches the trial's local setting.  A clock
    marker starts every trial.  The default trial period leaves a guard
    band of 4 T after the last emission slot so that legal event windows
    (radius < 3T) can never pair detections across trials.
    """
    if T_ns <= 0:
        raise ValidationError("T_ns must be positive")
    if n_trials < 0:
        raise ValidationError("n_trials must be >= 0")
    settings = np.asarray(settings_per_trial, dtype=np.int64)
    if settings.size < n_trials:
        raise ValidationError("settings_per_trial shorter than n_trials")
    settings = settings[:n_trials]
    if n_trials and (settings.min() < 0 or settings.max() > 3):
        raise ValidationError("setting indices must be in 0..3")
    period = trial_period_ns if trial_period_ns is not None else (schedule.max_offset + 4) * T_ns
    if schedule.max_offset * T_ns >= period:
        raise ValidationError("schedule offsets exceed the trial period")

    trial_start = np.arange(n_trials, dtype=np.int64) * int(period)
    times = [trial_start]
    chans = [np.full(n_trials, CHANNEL_CLOCK, dtype=np.uint8)]
    local = {"alice": settings >> 1, "bob": settings & 1}
    chan_of = {"alice": CHANNEL_ALICE, "bob": CHANNEL_BOB}
    for em in schedule.emissions:
        fires = np.asarray(em.fires_under, dtype=bool)[local[em.target]]
        t = trial_start[fires] + em.offset * T_ns
        times.append(t)
        chans.append(np.full(t.size, chan_of[em.target], dtype=np.uint8))

    t_all = np.concatenate(times)
    c_all = np.concatenate(chans)
    # stable order: time, clock markers ahead of detections at equal times
    order = np.lexsort((c_all != CHANNEL_CLOCK, t_all))
    return TimetagStream(
        t_all[order], c_all[order],
        trial_period_ns=float(period),
        meta={"source": "timed-emission"},
    )


# ---------------------------------------------------------------------------
# drift adversary


@dataclass(frozen=True)
class DriftModel:
    """Source-intensity drift across a fixed cyclic measurement order.

    setting_order is the permutation of the four setting-pair indices in
    the order they are measured.  final_fraction is the end-of-cycle
    intensity over the start-of-cycle intensity.  Two discretizations of
    the decay are supported:

    - "continuous-exponential-integrated" (default): intensity decays as
      exp(-lambda t) through the cycle and each measurement period uses
      the time integral over its quarter of the cycle.  This is the
      variant that reproduces the documented drift-attack numbers.
    - "piecewise-geometric": constant intensity within each period, the
      last period at final_fraction of the first.
    """

    setting_order: tuple[int, int, int, int] = (0, 1, 2, 3)
    decay_kind: str = "continuous-exponential-integrated"
    final_fraction: float = 1.0

    def __post_init__(self):
        if sorted(self.setting_order) != [0, 1, 2, 3]:
            raise ValidationError("setting_order must be a permutation of 0..3")
        if self.decay_kind not in ("piecewise-geometric", "continuous-exponential-integrated"):
            raise ValidationError(f"unknown decay kind {self.decay_kind!r}")
        if not (0.0 < self.final_fraction <= 1.0):
            raise ValidationError("final_fraction must be in (0, 1]")

    def multipliers(self, n_periods: int) -> np.ndarray:
        """Per-period intensity multipliers, decay continuing across cycles."""
        if n_periods < 1:
            raise ValidationError("n_periods must be >= 1")
        k = np.arange(n_periods, dtype=float)
        f = self.final_fraction
        if f == 1.0:
            return np.ones(n_periods)
        if self.decay_kind == "piecewise-geometric":
            return f ** (k / 3.0)
        lam = -math.log(f)
        return (4.0 / lam) * (np.exp(-lam * k / 4.0) - np.exp(-lam * (k + 1) / 4.0))


def _source_probs(source, settings: MeasurementSettings):
    """(p1, p2, p12) over the four setting pairs for a quantum state or an
    instruction set, as `quantum.pair_probs` returns them."""
    if isinstance(source, PolarizationState):
        return pair_probs(source, *astuple(settings))
    if isinstance(source, LhvStrategy):
        tot = source.total_weight
        if tot == 0:
            raise ValidationError("strategy has zero total weight")
        return tuple(tuple(w / tot for w in weights) for weights in _pair_weights(source))
    raise ValidationError(f"unsupported source type {type(source).__name__}")


def drifted_counts(
    source,
    settings: MeasurementSettings,
    det: DetectionModel,
    drift: DriftModel,
    cycles: int = 1,
    trials_per_period: int = 1_000_000,
) -> CountsTable:
    """Expected counts under cyclic settings with a drifting source.

    Each measurement period takes the linear-model click probabilities
    with the drift multiplier scaling its pair rate and backgrounds;
    settings are visited in drift.setting_order with no randomization.
    The returned table holds expected (float) counts.
    """
    if cycles < 1:
        raise ValidationError("cycles must be >= 1")
    combos = np.tile(drift.setting_order, cycles)
    p1, p2, p12 = (np.array(p)[combos] for p in _source_probs(source, settings))
    rates = click_probabilities(p1, p2, p12, det, "linear", drift.multipliers(4 * cycles))

    def per_combo(per_period):
        return np.bincount(combos, weights=trials_per_period * per_period, minlength=4)

    return CountsTable(
        per_combo(np.ones(combos.size)), *(per_combo(r) for r in rates),
        meta={"source": "drift-expectation", "decay_kind": drift.decay_kind},
    )
