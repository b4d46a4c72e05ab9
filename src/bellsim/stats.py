"""Estimators and uncertainty for detection-probability Bell tests.

The difference-form estimator normalizes each coincidence count by the
trials of its own setting pair and subtracts the two singles
probabilities:

    B = C(a,b)/N(a,b) + C(a,b')/N(a,b') + C(a',b)/N(a',b)
        - C(a',b')/N(a',b') - p1(a) - p2(b)        (classical bound: 0)

The ratio form divides the coincidence combination by the singles sum
(classical bound: 1).  Three singles conventions are supported, because
which trials estimate p1(a) matters for both statistics and adversaries:

- "pooled" (default): p1(a) = [S(a|b)+S(a|b')]/[N(a,b)+N(a,b')], i.e.
  all trials with that local setting; best statistics.
- "paired": only the trials of the unprimed pair, S(a|b)/N(a,b).
- "conditional": only the opposite-pair trials, S(a|b')/N(a,b') and
  S(b|a')/N(a',b).  Used for per-cycle violation counting, and the
  convention under which a drifting source with cyclic settings can fake
  a violation (the singles are then sampled at a different time than the
  coincidences they normalize).

Uncertainty follows the partition method: split the run into k
partitions, compute B on each, and scale the spread of the k values down
to the full data set.  Each setting pair's blocks are dealt round-robin
over the partitions, so that every partition sees all four pairs.  The
partition sums are made in one pass over batches of blocks: a block is
tallied by its setting pair and its rank within that pair mod k, and
each pair's sums are then rotated by the number of blocks of the pairs
below it, which is where that pair's round-robin starts.  The
hacker bound is the exact binomial tail probability that a
settings-guessing adversary produces at least the observed number of
per-partition violations.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np
from numpy.typing import ArrayLike

from .counting import CountsTable
from .engine import _block_sums, _int64_totals, block_array
from .errors import ValidationError
from .quantum import MeasurementSettings

SINGLES_MODES = ("pooled", "paired", "conditional")

TSIRELSON_S = 2.0 * math.sqrt(2.0)


def _singles_estimates(n, sa, sb, singles_mode: str):
    """p1(a), p2(b) from float counts whose first axis is the setting pair."""
    if singles_mode == "pooled":
        if (n[0] + n[1] <= 0).any() or (n[0] + n[2] <= 0).any():
            raise ValidationError("zero trials for a singles setting")
        return (sa[0] + sa[1]) / (n[0] + n[1]), (sb[0] + sb[2]) / (n[0] + n[2])
    if singles_mode == "paired":
        if (n[0] <= 0).any():
            raise ValidationError("zero trials in the (a,b) row")
        return sa[0] / n[0], sb[0] / n[0]
    if singles_mode == "conditional":
        if (n[1] <= 0).any() or (n[2] <= 0).any():
            raise ValidationError("zero trials in a conditional singles row")
        return sa[1] / n[1], sb[2] / n[2]
    raise ValidationError(f"singles_mode must be one of {SINGLES_MODES}")


def _coincidence_sum(n, c):
    if (n <= 0).any():
        raise ValidationError("every setting pair needs at least one trial")
    return c[0] / n[0] + c[1] / n[1] + c[2] / n[2] - c[3] / n[3]


def _ch(n, sa, sb, c, singles_mode: str):
    """B from float counts whose first axis is the setting pair."""
    p1a, p2b = _singles_estimates(n, sa, sb, singles_mode)
    return _coincidence_sum(n, c) - p1a - p2b


def _float_counts(table: CountsTable):
    return (table.n_trials.astype(float), table.singles_a.astype(float),
            table.singles_b.astype(float), table.coincidences.astype(float))


def ch_from_counts(table: CountsTable, singles_mode: str = "pooled") -> float:
    """Difference-form Bell value B from a counts table; B > 0 violates."""
    return _ch(*_float_counts(table), singles_mode)


def chprime_from_counts(table: CountsTable, singles_mode: str = "pooled") -> float:
    """Ratio-form Bell value B' from a counts table; B' > 1 violates."""
    n, sa, sb, c = _float_counts(table)
    p1a, p2b = _singles_estimates(n, sa, sb, singles_mode)
    den = p1a + p2b
    if den <= 0:
        raise ValidationError("singles denominator is zero")
    return _coincidence_sum(n, c) / den


@dataclass(frozen=True)
class BellResult:
    """Joint summary of both estimators plus the uncertainty of B."""

    B: float
    B_prime: float
    sigma_B: float | None = None
    singles_mode: str = "pooled"

    @property
    def significance(self) -> float | None:
        if not self.sigma_B:
            return None
        return self.B / self.sigma_B

    def to_json_dict(self) -> dict:
        return {
            "B": self.B,
            "B_prime": self.B_prime,
            "sigma_B": self.sigma_B,
            "significance": self.significance,
            "singles_mode": self.singles_mode,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


def bell_result(
    table: CountsTable, sigma_b: float | None = None, singles_mode: str = "pooled"
) -> BellResult:
    if sigma_b is not None and not (math.isfinite(sigma_b) and sigma_b >= 0):
        raise ValidationError(f"sigma_B must be a finite number >= 0, got {sigma_b!r}")
    return BellResult(
        B=ch_from_counts(table, singles_mode),
        B_prime=chprime_from_counts(table, singles_mode),
        sigma_B=sigma_b,
        singles_mode=singles_mode,
    )


# ---------------------------------------------------------------------------
# partition-based error estimation


def _stratified_sums(batches: Iterable[np.ndarray], k: int):
    """Exact sums of the block counts by (field, slot, setting pair), and
    each pair's number of blocks, in one pass over batches of block arrays
    in run order.

    A block's slot is its rank within its setting pair mod k; the sums
    have shape (4, slots, 4), with as many slots as the ranks reached,
    at most k.  They are int64 where they cannot have wrapped and Python
    ints otherwise (see engine._block_sums); their range is not checked.
    """
    per_pair = np.zeros(4, dtype=np.int64)
    sums, bound = np.zeros((4, 4), dtype=np.int64), 0
    for arr in batches:
        settings = arr[:, 0]
        rank = np.empty(len(arr), dtype=np.int64)
        for s in range(4):
            mine = np.flatnonzero(settings == s)
            rank[mine] = np.arange(per_pair[s], per_pair[s] + mine.size)
            per_pair[s] += mine.size
        grow = 4 * int(min(k, per_pair.max())) - sums.shape[1]
        if grow > 0:
            sums = np.concatenate([sums, np.zeros((4, grow), dtype=sums.dtype)], axis=1)
        batch_sums, bound = _block_sums(arr, rank % k * 4 + settings, sums.shape[1], bound)
        sums = sums + batch_sums
    return sums.reshape(4, -1, 4), per_pair


def _partition_tally(sums: np.ndarray, per_pair: np.ndarray, k: int) -> np.ndarray:
    """int64 sums of the block counts by (field, setting pair, partition),
    from _stratified_sums(..., k).

    The blocks, grouped by setting pair and in run order within a pair,
    are dealt round-robin: with b blocks in the pairs below pair s, the
    block of rank r in pair s goes to partition (b + r) mod k, so a pair
    with m blocks puts floor(m/k) or ceil(m/k) of them in every
    partition.  Pair s's slots, rolled by b, are its partitions.
    """
    slots = np.zeros((4, k, 4), dtype=sums.dtype)
    slots[:, :sums.shape[1]] = sums
    below = np.cumsum(per_pair) - per_pair
    return _int64_totals(np.stack([np.roll(slots[:, :, s], below[s], axis=1)
                                   for s in range(4)], axis=1))


def _partition_values(sums: np.ndarray, per_pair: np.ndarray, k: int,
                      singles_mode: str) -> np.ndarray:
    """B of each of the k partitions, from _stratified_sums(..., k)."""
    n_blocks = int(per_pair.sum())
    if k < 2:
        raise ValidationError("need at least 2 partitions")
    if n_blocks < k:
        raise ValidationError(f"cannot split {n_blocks} blocks into {k} partitions")
    tally = _partition_tally(sums, per_pair, k)
    n, singles_a, singles_b, coincidences = tally
    # CountsTable's rules; neither difference wraps in a partition whose
    # counts are all in 0..n, and any other partition is unusable already
    unusable = ((tally < 0).any(axis=(0, 1)) | (tally[1:] > n).any(axis=(0, 1))
                | (n <= 0).any(axis=0)
                | (coincidences > np.minimum(singles_a, singles_b)).any(axis=0)
                | (singles_a - coincidences > n - singles_b).any(axis=0))
    if unusable.any():
        # the first unusable partition raises exactly what its counts table does
        i = int(np.argmax(unusable))
        try:
            ch_from_counts(CountsTable(*tally[..., i]), singles_mode)
        except ValidationError as exc:
            raise ValidationError(f"partition {i} has insufficient data: {exc}") from None
    return _ch(*tally.astype(float), singles_mode)


def _sigma_of(values: np.ndarray) -> float:
    """Standard error of B: spread of the partition values over sqrt(k-1)."""
    return float(np.std(values, ddof=1) / math.sqrt(values.size - 1))


def partition_values(
    blocks: ArrayLike, k: int, singles_mode: str = "pooled",
) -> np.ndarray:
    """B evaluated on each of the k partitions; every partition covers all
    four setting pairs whenever each pair has at least k blocks."""
    sums, per_pair = _stratified_sums([block_array(blocks)], max(k, 1))
    return _partition_values(sums, per_pair, k, singles_mode)


def partition_sigma(
    blocks: ArrayLike, k: int = 50, singles_mode: str = "pooled",
) -> float:
    """Standard error of B: spread of the k partition values over sqrt(k-1)."""
    return _sigma_of(partition_values(blocks, k, singles_mode))


def violations_by_partition(
    blocks: ArrayLike, ks: Sequence[int], singles_mode: str = "conditional",
) -> list[tuple[int, int]]:
    """(k, number of partitions with B > 0) for each requested k.

    There is no principled optimum for k; report the curve and let the
    caller pick, feeding the counts into hacker_bound.
    """
    out = []
    for k in ks:
        values = partition_values(blocks, k, singles_mode)
        out.append((int(k), int(np.count_nonzero(values > 0))))
    return out


# ---------------------------------------------------------------------------
# adversarial guessing bounds


def hacker_bound(n_cycles: int, n_violations: int) -> float:
    """Exact binomial upper-tail P(X >= n_violations | n_cycles, 1/2).

    The chance that an adversary who can only guess the settings (one
    even-odds guess per cycle) produces at least the observed number of
    per-cycle violations.  Computed by log-domain summation, no normal
    approximation.
    """
    if n_cycles < 0 or not 0 <= n_violations <= n_cycles:
        raise ValidationError("need 0 <= n_violations <= n_cycles")
    if n_violations == 0:
        return 1.0
    log_half = math.log(0.5)
    log_terms = [
        math.lgamma(n_cycles + 1)
        - math.lgamma(m + 1)
        - math.lgamma(n_cycles - m + 1)
        + m * log_half
        + (n_cycles - m) * log_half
        for m in range(n_violations, n_cycles + 1)
    ]
    top = max(log_terms)
    total = math.exp(top) * math.fsum(math.exp(t - top) for t in log_terms)
    return min(1.0, total)  # guard against accumulated rounding above 1


def distribution_floor(n_cycles: int) -> Fraction:
    """(1/2)^n_cycles as an exact rational.

    This is the floor probability with which a guessing adversary can
    force any particular distribution of per-cycle outcomes.  Returned
    exactly because for realistic n (around a thousand cycles) the value
    underflows every float format; its log2 is -n_cycles by construction.
    """
    if n_cycles < 1:
        raise ValidationError("n_cycles must be >= 1")
    return Fraction(1, 2**n_cycles)


@dataclass(frozen=True)
class SuperQuantumBound:
    """Upper limit on beyond-quantum correlation strength from a measured S."""

    s_upper: float
    on_fraction: float


def superquantum_bounds(
    s_measured: float, sigma_s: float, n_sigma: float = 2.0
) -> SuperQuantumBound:
    """Constrain two simple super-quantum models from a measured S value.

    s_upper is the n-sigma upper limit on any constant super-quantum S.
    on_fraction bounds a model that saturates S = 4 but is active only
    part of the time: the duty cycle cannot exceed
    (s_upper - 2*sqrt(2)) / (4 - 2*sqrt(2)), clamped at 0.
    """
    if sigma_s < 0:
        raise ValidationError("sigma_s must be >= 0")
    s_upper = s_measured + n_sigma * sigma_s
    on = max(0.0, (s_upper - TSIRELSON_S) / (4.0 - TSIRELSON_S))
    return SuperQuantumBound(s_upper=float(s_upper), on_fraction=float(on))


# ---------------------------------------------------------------------------
# bundled reference data


def reference_run_counts() -> CountsTable:
    """Accumulated counts of the bundled 4450-block reference run.

    Recorded with r = 0.26, settings (3.8, -25.2, -3.8, 25.2) degrees,
    25,000 trials per one-second block, settings chosen at random per
    block.  Used as the regression dataset for the estimators.
    """
    return CountsTable(
        n_trials=np.array([27_153_020, 28_352_350, 27_827_318, 27_926_994]),
        singles_a=np.array([46_068, 48_076, 150_840, 150_505]),
        singles_b=np.array([46_039, 146_205, 47_447, 144_070]),
        coincidences=np.array([29_173, 34_145, 34_473, 1_862]),
    )


REFERENCE_R = 0.26
REFERENCE_SIGMA_B = 7.0e-6


def reference_settings() -> MeasurementSettings:
    return MeasurementSettings(a=3.8, a_prime=-25.2, b=-3.8, b_prime=25.2)
