"""Constructible local-realistic adversaries.

Three families, all fully deterministic given their parameters:

1. Instruction sets, held in their normal form: 16 non-negative integer
   weights, weight s being the number of pairs that follow deterministic
   one-detector-per-arm strategy s (detected under a, a', b, b' as bits
   3, 2, 1, 0 of s).  Each pair contributes to each of the four setting
   combinations, so a count table is one integer table times the
   weights.  No instruction set can push the detection-probability Bell
   combination above 0 (ratio form above 1); the maximum over the 16
   strategies is included as the explicit proof of that bound.

2. An emission-time schedule that defeats event-windowed coincidence
   counting, held as rows of (offset, channel, fires_under): four
   emissions per trial at offsets T, 2T, 3T, 4T, alternating Alice/Bob
   channels, with detection flags arranged so that the
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

import math
from dataclasses import astuple, dataclass
from typing import Sequence

import numpy as np

from .counting import (
    CHANNEL_ALICE,
    CHANNEL_BOB,
    CHANNEL_CLOCK,
    _INT64_MAX,
    CountsTable,
    TimetagStream,
    _first_bad_setting,
    _integer_array,
    sort_records,
)
from .errors import ValidationError
from .quantum import (
    DetectionModel,
    MeasurementSettings,
    PolarizationState,
    ch_terms,
    click_probabilities,
    pair_probs,
)

# Singles A, singles B and coincidences (layers) of deterministic strategy s
# (columns) at each setting pair c (rows, primed flags c >> 1 and c & 1).
# Strategy s fires under a, a', b, b' as bits 3, 2, 1, 0 of s.
_COMBO = np.arange(4)[:, None]
_FIRES_A = (np.arange(16) >> (3 - (_COMBO >> 1))) & 1
_FIRES_B = (np.arange(16) >> (1 - (_COMBO & 1))) & 1
_STRATEGY_COUNTS = np.stack([_FIRES_A, _FIRES_B, _FIRES_A & _FIRES_B]).astype(np.int64)


def _weights(classes: dict) -> np.ndarray:
    """Strategy weights from {(fires under a, a', b, b'): pairs}."""
    w = np.zeros(16, dtype=np.int64)
    for flags, pairs in classes.items():
        w[np.dot(flags, (8, 4, 2, 1))] = pairs
    return w


def demo_strategy_ideal() -> np.ndarray:
    """Best instruction set against ideal-detector maximally entangled counts.

    Matches the quantum coincidences exactly but necessarily overshoots
    the singles on the unprimed settings (604 vs 500 per 1000 pairs).
    """
    return _weights({(1, 1, 1, 1): 73, (1, 1, 1, 0): 177, (1, 0, 1, 1): 177,
                     (1, 0, 0, 1): 177, (0, 1, 1, 0): 177, (0, 1, 0, 0): 73,
                     (0, 0, 0, 1): 73})


def demo_strategy_82pct() -> np.ndarray:
    """Instruction set that exactly mimics 82%-efficient quantum counts."""
    return _weights({(1, 1, 1, 1): 49, (1, 1, 1, 0): 119, (1, 0, 1, 1): 119,
                     (1, 0, 0, 1): 119, (0, 1, 1, 0): 119, (0, 1, 0, 0): 123,
                     (0, 0, 0, 1): 123, (1, 0, 0, 0): 4, (0, 0, 1, 0): 4})


def counts_from_strategy(weights, trials_per_combo: int) -> CountsTable:
    """Exact integer counts from an instruction set, no sampling.

    weights[s] pairs follow deterministic strategy s in every setting
    combination, so the counts are the strategy table times the weights.
    """
    w = np.asarray(weights)
    if w.shape != (16,) or w.dtype.kind not in "iu":
        raise ValidationError("weights must be 16 integers, one per deterministic strategy")
    if (w < 0).any():
        raise ValidationError("strategy weights must be >= 0")
    if not 1 <= trials_per_combo <= _INT64_MAX:
        raise ValidationError("trials_per_combo must be in 1..2^63-1")
    total = sum(int(x) for x in w)  # Python ints, so the sum cannot wrap
    if total > trials_per_combo:
        raise ValidationError(f"total strategy weight {total} exceeds trials_per_combo")
    # every weight is at most total <= 2^63-1, so no count wraps
    return CountsTable(np.full(4, trials_per_combo, dtype=np.int64),
                       *(_STRATEGY_COUNTS @ w.astype(np.int64)))


def _deterministic_terms():
    """(coincidence combination, singles sum) of `quantum.ch_terms` at
    ideal detection, each a 16-vector over the deterministic strategies."""
    return ch_terms(*_STRATEGY_COUNTS, DetectionModel.ideal(), "linear")


def max_deterministic_ch() -> float:
    """Exhaustive maximum of the CH combination over all 16 deterministic
    one-detector-per-arm strategies; equals 0, the classical bound."""
    num, den = _deterministic_terms()
    return float((num - den).max())


def max_deterministic_ch_ratio() -> float:
    """Same enumeration for the ratio form; the bound is 1."""
    num, den = _deterministic_terms()
    return float((num[den > 0] / den[den > 0]).max())


# ---------------------------------------------------------------------------
# timing-based adversary


def coincidence_loophole_schedule() -> tuple[tuple[int, int, tuple[bool, bool]], ...]:
    """The four-emission schedule that defeats event windowing.

    One row per emission: (offset in units of the base spacing T,
    detector channel, whether it fires under the unprimed and the primed
    local setting).  Alice's T photon fires under a', Bob's 2T photon
    under b, Alice's 3T photon under a, Bob's 4T photon under b'.  Any
    setting pair except (a',b') then yields one detection on each side
    exactly T apart, while (a',b') yields detections 3T apart.
    """
    return (
        (1, CHANNEL_ALICE, (False, True)),
        (2, CHANNEL_BOB, (True, False)),
        (3, CHANNEL_ALICE, (True, False)),
        (4, CHANNEL_BOB, (False, True)),
    )


def coincidence_time_stream(
    schedule: Sequence[tuple[int, int, tuple[bool, bool]]],
    settings_per_trial: Sequence[int],
    T_ns: int,
    first_trial: int = 0,
) -> TimetagStream:
    """Emit the adversarial detection stream, one trial per entry of
    settings_per_trial, which the stream carries in meta["trial_settings"].

    Per trial, each schedule row (offset, channel, fires_under) produces a
    detection on its channel exactly when fires_under holds for the
    trial's local setting on that side.  A clock marker starts every
    trial.  The trial period, (largest offset + 4) T, leaves a guard band
    of 4 T after the last emission slot so that legal event windows
    (radius < 3T) can never pair detections across trials; so the streams
    of consecutive trial ranges, each starting at its `first_trial`,
    concatenate to the stream of the whole run.  A negative offset, which
    would put an emission before its own trial's clock mark, and a range
    whose timestamps would fall below 0 or beyond the signed 64-bit range
    raise ValidationError.
    """
    if T_ns <= 0:
        raise ValidationError("T_ns must be positive")
    for row, (offset, _, _) in enumerate(schedule):
        if offset < 0:
            raise ValidationError(f"schedule row {row} has negative offset {offset}: "
                                  "an emission would precede its trial's clock mark")
    settings = _integer_array(settings_per_trial, "setting indices").astype(np.int64, copy=False)
    if _first_bad_setting(settings) < settings.size:
        raise ValidationError("setting indices must be in 0..3")
    last_offset = max((offset for offset, _, _ in schedule), default=0)
    period = (last_offset + 4) * T_ns
    if settings.size:
        # the first trial's clock mark and the last trial's last emission, in
        # Python ints, so that no timestamp wraps in int64
        first_t = first_trial * period
        last_t = (first_trial + settings.size - 1) * period + last_offset * T_ns
        if first_t < 0:
            raise ValidationError(f"negative timestamp {first_t} at record 0")
        if last_t > _INT64_MAX:
            raise ValidationError(f"trial {first_trial + settings.size - 1} emits at "
                                  f"{last_t} ns, beyond the 64-bit timestamp range")

    trial_start = np.arange(first_trial, first_trial + settings.size, dtype=np.int64) * int(period)
    times = [trial_start]
    chans = [np.full(settings.size, CHANNEL_CLOCK, dtype=np.uint8)]
    local = {CHANNEL_ALICE: settings >> 1, CHANNEL_BOB: settings & 1}
    for offset, channel, fires_under in schedule:
        fires = np.asarray(fires_under, dtype=bool)[local[channel]]
        t = trial_start[fires] + offset * T_ns
        times.append(t)
        chans.append(np.full(t.size, channel, dtype=np.uint8))

    return TimetagStream(*sort_records(np.concatenate(times), np.concatenate(chans)),
                         meta={"trial_settings": settings})


# ---------------------------------------------------------------------------
# drift adversary


@dataclass(frozen=True)
class DriftModel:
    """Source-intensity decay through a cycle of four measurement periods.

    final_fraction is the end-of-cycle intensity over the start-of-cycle
    intensity.  The intensity decays as exp(-lambda t) through the cycle,
    and each measurement period takes the time integral over its quarter
    of the cycle; these are the documented drift-attack numbers.

    The model holds no measurement order.  `drifted_counts` takes the
    order its cyclic settings visit, and `simulate` applies the drift by
    block index to the blocks of the config's schedule, which a cyclic
    schedule measures in `ExperimentConfig.cyclic_order`.
    """

    final_fraction: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.final_fraction <= 1.0):
            raise ValidationError("final_fraction must be in (0, 1]")

    def multipliers(self, n_periods: int) -> np.ndarray:
        """Per-period intensity multipliers, decay continuing across cycles."""
        if n_periods < 1:
            raise ValidationError("n_periods must be >= 1")
        f = self.final_fraction
        if f == 1.0:
            return np.ones(n_periods)
        k = np.arange(n_periods, dtype=float)
        lam = -math.log(f)
        return (4.0 / lam) * (np.exp(-lam * k / 4.0) - np.exp(-lam * (k + 1) / 4.0))


def drifted_counts(
    state: PolarizationState,
    settings: MeasurementSettings,
    det: DetectionModel,
    drift: DriftModel,
    order: Sequence[int] = (0, 1, 2, 3),
    cycles: int = 1,
    trials_per_period: int = 1_000_000,
) -> CountsTable:
    """Expected counts under cyclic settings with a drifting source.

    The four setting-pair indices are measured in `order`, a permutation
    of 0..3, once per cycle with no randomization.  Each measurement
    period takes the linear-model click probabilities with the drift
    multiplier scaling its pair rate and backgrounds.  The returned
    table holds expected (float) counts.
    """
    if sorted(order) != [0, 1, 2, 3]:
        raise ValidationError("order must be a permutation of 0..3")
    if cycles < 1:
        raise ValidationError("cycles must be >= 1")
    combos = np.tile(order, cycles)
    p1, p2, p12 = (np.array(p)[combos] for p in pair_probs(state, *astuple(settings)))
    rates = click_probabilities(p1, p2, p12, det, "linear", drift.multipliers(4 * cycles))

    def per_combo(per_period):
        return np.bincount(combos, weights=trials_per_period * per_period, minlength=4)

    return CountsTable(per_combo(np.ones(combos.size)), *(per_combo(r) for r in rates))
