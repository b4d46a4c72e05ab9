"""Estimators, partition errors, guessing bounds, super-quantum limits."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bellsim as bs
from bellsim import stats
from bellsim.errors import ValidationError

from conftest import random_strategies


# ---------------------------------------------------------------------------
# estimators on the bundled reference counts


def test_reference_difference_estimator(reference_counts):
    assert bs.ch_from_counts(reference_counts) == pytest.approx(5.4e-5, abs=0.1e-5)


def test_reference_ratio_estimator(reference_counts):
    assert 1.013 <= bs.chprime_from_counts(reference_counts) <= 1.018


def test_reference_significance(reference_counts):
    result = bs.bell_result(reference_counts, sigma_b=bs.REFERENCE_SIGMA_B)
    assert result.significance == pytest.approx(7.7, abs=0.1)


def test_singles_modes_differ_but_agree_in_verdict(reference_counts):
    for mode in ("pooled", "paired", "conditional"):
        b = bs.ch_from_counts(reference_counts, mode)
        bp = bs.chprime_from_counts(reference_counts, mode)
        assert (b > 0) == (bp > 1)


def test_zero_coincidences_never_violates():
    table = bs.CountsTable(
        n_trials=np.full(4, 1000),
        singles_a=np.full(4, 50),
        singles_b=np.full(4, 50),
        coincidences=np.zeros(4, dtype=int),
    )
    assert bs.ch_from_counts(table) < 0


def test_estimator_requires_trials():
    table = bs.CountsTable(
        n_trials=np.array([10, 10, 10, 0]),
        singles_a=np.zeros(4), singles_b=np.zeros(4), coincidences=np.zeros(4),
    )
    with pytest.raises(ValidationError):
        bs.ch_from_counts(table)


def test_verdict_agreement_on_random_tables():
    rng = np.random.default_rng(88)
    for _ in range(1000):
        n = rng.integers(100, 10_000, size=4)
        sa = rng.integers(1, n // 2 + 1)
        sb = rng.integers(1, n // 2 + 1)
        c = rng.integers(0, np.minimum(sa, sb) + 1)
        table = bs.CountsTable(n_trials=n, singles_a=sa, singles_b=sb, coincidences=c)
        b = bs.ch_from_counts(table)
        bp = bs.chprime_from_counts(table)
        assert (b > 0) == (bp > 1)


def test_lhv_strategy_tables_never_violate_either_form():
    rng = np.random.default_rng(4)
    for strat in random_strategies(rng, 200):
        table = bs.counts_from_strategy(strat, max(1, int(strat.sum())))
        assert bs.ch_from_counts(table) <= 1e-12


# ---------------------------------------------------------------------------
# partition-based uncertainty


def synthetic_blocks(rng, n_blocks=408, trials=2451):
    """Counts of independent trials, so the estimator variance is known
    exactly: each trial is one multinomial draw of (both arms click, A
    only, B only, neither), so a block keeps coincidences <= min(singles)."""
    psa = np.array([1.7e-3, 1.7e-3, 5.4e-3, 5.4e-3])
    psb = np.array([1.7e-3, 5.2e-3, 1.7e-3, 5.2e-3])
    pc = np.array([1.07e-3, 1.20e-3, 1.24e-3, 6.7e-5])
    blocks = []
    for i in range(n_blocks):
        s = i % 4
        both, a_only, b_only, _ = rng.multinomial(
            trials, [pc[s], psa[s] - pc[s], psb[s] - pc[s], 1 - psa[s] - psb[s] + pc[s]])
        blocks.append((s, trials, int(both + a_only), int(both + b_only), int(both)))
    return blocks, (psa, psb, pc)


def oracle_sigma(psa, psb, pc, trials_per_setting):
    """sd of pooled B over independent trials: per trial, w_c on a
    coincidence and w_a, w_b on each arm's click."""
    n = float(trials_per_setting)
    w_c = np.array([1.0, 1.0, 1.0, -1.0]) / n
    w_a = -np.array([1.0, 1.0, 0.0, 0.0]) / (2 * n)
    w_b = -np.array([1.0, 0.0, 1.0, 0.0]) / (2 * n)
    mean = w_c * pc + w_a * psa + w_b * psb
    square = pc * (w_c + w_a + w_b) ** 2 + (psa - pc) * w_a**2 + (psb - pc) * w_b**2
    return math.sqrt(float(np.sum(n * (square - mean**2))))


def test_partition_sigma_matches_binomial_oracle():
    rng = np.random.default_rng(1234)
    blocks, (psa, psb, pc) = synthetic_blocks(rng)
    trials_per_setting = 102 * 2451  # 408 blocks / 4 settings
    expected = oracle_sigma(psa, psb, pc, trials_per_setting)
    got = bs.partition_sigma(blocks, k=51)
    assert got == pytest.approx(expected, rel=0.2)


def test_partition_insufficient_data():
    rng = np.random.default_rng(1)
    blocks, _ = synthetic_blocks(rng, n_blocks=12)
    with pytest.raises(ValidationError):
        bs.partition_sigma(blocks, k=50)


def test_partition_values_reject_singles_above_trials():
    # two blocks of each setting pair; the (a,b') block of partition 1 has
    # 20 singles in 10 trials, as its counts table would not accept
    blocks = [(s, 10, 5, 5, 2) for s in range(4) for _ in range(2)]
    blocks[3] = (1, 10, 20, 5, 2)
    with pytest.raises(ValidationError, match="^partition 1 has insufficient data: "
                                              "singles_a exceed trials in some row$"):
        bs.partition_values(blocks, k=2)
    blocks[3] = (1, 10, 10, 5, 5)
    assert bs.partition_values(blocks, k=2).shape == (2,)


def test_violations_by_partition_counts():
    rng = np.random.default_rng(55)
    blocks, _ = synthetic_blocks(rng)
    curve = bs.violations_by_partition(blocks, ks=[17, 51])
    assert len(curve) == 2
    for k, wins in curve:
        assert 0 <= wins <= k


# The list-based partition code that the array code replaced, with the
# estimator and block tally it called, kept as the reference.

def _reference_blocks_to_counts(blocks):
    n_trials, singles_a, singles_b, coinc = (np.zeros(4, dtype=np.int64) for _ in range(4))
    for setting, n, sa, sb, c in blocks:
        if not 0 <= setting <= 3:
            raise ValidationError(f"block setting index {setting} out of range")
        n_trials[setting] += n
        singles_a[setting] += sa
        singles_b[setting] += sb
        coinc[setting] += c
    return bs.CountsTable(n_trials, singles_a, singles_b, coinc)


def _reference_ch(table, singles_mode):
    n = table.n_trials.astype(float)
    sa = table.singles_a.astype(float)
    sb = table.singles_b.astype(float)
    if singles_mode == "pooled":
        if n[0] + n[1] <= 0 or n[0] + n[2] <= 0:
            raise ValidationError("zero trials for a singles setting")
        p1a, p2b = (sa[0] + sa[1]) / (n[0] + n[1]), (sb[0] + sb[2]) / (n[0] + n[2])
    elif singles_mode == "paired":
        if n[0] <= 0:
            raise ValidationError("zero trials in the (a,b) row")
        p1a, p2b = sa[0] / n[0], sb[0] / n[0]
    else:
        if n[1] <= 0 or n[2] <= 0:
            raise ValidationError("zero trials in a conditional singles row")
        p1a, p2b = sa[1] / n[1], sb[2] / n[2]
    if np.any(n <= 0):
        raise ValidationError("every setting pair needs at least one trial")
    c = table.coincidences.astype(float)
    return c[0] / n[0] + c[1] / n[1] + c[2] / n[2] - c[3] / n[3] - p1a - p2b


def _reference_partition_values(blocks, k, singles_mode):
    if k < 2:
        raise ValidationError("need at least 2 partitions")
    if len(blocks) < k:
        raise ValidationError(f"cannot split {len(blocks)} blocks into {k} partitions")
    # grouped by setting, in run order within a setting, dealt round-robin
    by_setting = sorted(blocks, key=lambda rec: rec[0])
    parts = [by_setting[i::k] for i in range(k)]
    values = []
    for i, part in enumerate(parts):
        try:
            values.append(_reference_ch(_reference_blocks_to_counts(part), singles_mode))
        except ValidationError as exc:
            raise ValidationError(f"partition {i} has insufficient data: {exc}") from None
    return np.array(values)


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except ValidationError as exc:
        return "error", str(exc)


# blocks with few trials, so that partitions miss settings and rows stay
# empty.  Each is a block a run can hold, its (coincidence, A only, B only)
# counts at most its trials, or else (setting, -1, -1, -1, -1), so that now
# and then a table has negative counts; sums of such blocks keep a counts
# table's rules except for their signs
def _small_block(values):
    setting, n, a_only, b_only, both = values
    if n < 0:
        return setting, -1, -1, -1, -1
    both %= n + 1
    a_only %= n - both + 1
    b_only %= n - both - a_only + 1
    return setting, n, both + a_only, both + b_only, both


_BLOCK = st.tuples(st.integers(0, 3), st.integers(-1, 40), st.integers(0, 40),
                   st.integers(0, 40), st.integers(0, 41)).map(_small_block)
_BLOCKS = st.one_of(st.lists(_BLOCK, max_size=8), st.lists(_BLOCK, min_size=24, max_size=80))


@settings(max_examples=200)
@given(blocks=_BLOCKS, k=st.integers(1, 10),
       singles_mode=st.sampled_from(["pooled", "paired", "conditional"]))
def test_partition_values_equal_list_reference(blocks, k, singles_mode):
    want = _outcome(_reference_partition_values, blocks, k, singles_mode)
    want_counts = _outcome(_reference_blocks_to_counts, blocks)
    # the same blocks as 5-tuples and as a block array
    for form in (blocks, np.array(blocks, dtype=np.int64).reshape(-1, 5)):
        got = _outcome(bs.partition_values, form, k, singles_mode)
        assert got[0] == want[0]
        if got[0] == "ok":
            assert got[1].tobytes() == want[1].tobytes()  # bit for bit
        else:
            assert got[1] == want[1]
        assert _outcome(bs.blocks_to_counts, form) == want_counts


# a run order of blocks with 0-12 blocks of each setting pair
_PAIR_ORDERS = st.lists(st.integers(0, 12), min_size=4, max_size=4).flatmap(
    lambda counts: st.permutations([s for s in range(4) for _ in range(counts[s])]))


@given(pairs=_PAIR_ORDERS, k=st.integers(2, 8),
       singles_mode=st.sampled_from(["pooled", "paired", "conditional"]))
def test_stratified_partitions_cover_every_setting(pairs, k, singles_mode):
    # two trials per block and one coincidence-free click on each arm: a
    # partition evaluates exactly when it holds a block of every setting
    blocks = [(s, 2, 1, 1, 0) for s in pairs]
    status, result = _outcome(bs.partition_values, blocks, k, singles_mode)
    if np.bincount(pairs, minlength=4).min() >= k:
        assert status == "ok"
        assert np.array_equal(result, np.full(k, -1.0))
    elif len(blocks) >= k:
        assert status == "error" and "insufficient data" in result


def _argsort_partition_tally(blocks, k):
    """The partition rule as an argsort: every block, stably sorted by
    setting pair, dealt round-robin; exact sums as Python ints, shaped
    (field, setting pair, partition)."""
    part = np.empty(len(blocks), dtype=np.int64)
    part[np.argsort(blocks[:, 0], kind="stable")] = np.arange(len(blocks)) % k
    tally = np.zeros((4, 4, k), dtype=object)
    for (setting, *counts), p in zip(blocks.tolist(), part.tolist()):
        tally[:, setting, p] += counts
    return tally


# counts either small or near 2^62, so that some runs' sums pass 2^63-1 and
# the streamed sums switch to Python ints part way through
_COUNT = st.one_of(st.integers(0, 50), st.integers(2**62 - 50, 2**62))


@settings(max_examples=200)
@given(blocks=st.lists(st.tuples(st.integers(0, 3), _COUNT, _COUNT, _COUNT, _COUNT),
                       min_size=1, max_size=60),
       k=st.integers(1, 70), cuts=st.lists(st.integers(0, 60), max_size=5))
def test_streamed_partition_tally_equals_argsort_rule(blocks, k, cuts):
    arr = np.array(blocks, dtype=np.int64)
    batches = np.split(arr, sorted(c % (len(arr) + 1) for c in cuts))
    sums, per_pair = stats._stratified_sums(batches, k)
    assert per_pair.tolist() == np.bincount(arr[:, 0], minlength=4).tolist()
    want = _argsort_partition_tally(arr, k)
    if all(-2**63 <= v < 2**63 for v in want.flat):
        tally = stats._partition_tally(sums, per_pair, k)
        assert tally.dtype == np.int64 and tally.tolist() == want.tolist()
    else:
        with pytest.raises(ValidationError, match="64-bit integer range"):
            stats._partition_tally(sums, per_pair, k)
    # the slots summed are the run's totals, exactly
    assert sums.sum(axis=1).tolist() == want.sum(axis=2).tolist()


@pytest.fixture(scope="module")
def paper_schedule_blocks():
    # the 4450-block random-per-block schedule of seed 6 at 25 000 trials per
    # block
    cfg = bs.ExperimentConfig(
        state=bs.make_eberhard_state(bs.REFERENCE_R), settings=bs.reference_settings(),
        det=bs.DetectionModel(), schedule_kind="random-per-block",
        trials_per_block=25_000, n_blocks=4450, rng_seed=6,
    )
    return bs.simulate_blocks(cfg)


@pytest.mark.parametrize("singles_mode", ["pooled", "conditional"])
def test_stratified_partitions_at_paper_scale(paper_schedule_blocks, singles_mode):
    blocks = paper_schedule_blocks
    fewest = np.bincount(blocks[:, 0], minlength=4).min()
    with pytest.raises(ValidationError, match="insufficient data"):
        bs.partition_values(blocks, int(fewest) + 1, singles_mode)
    ks = [200, 300, 445, 650, 1000]
    curve = bs.violations_by_partition(blocks, ks, singles_mode=singles_mode)
    for (k, wins), k_want in zip(curve, ks):
        values = bs.partition_values(blocks, k, singles_mode=singles_mode)
        assert k == k_want and values.shape == (k,) and np.all(np.isfinite(values))
        assert wins == np.count_nonzero(values > 0)


# ---------------------------------------------------------------------------
# hacker bound and distribution floor


def exact_binomial_tail(n, m):
    # independent oracle: exact integer arithmetic
    total = sum(math.comb(n, k) for k in range(m, n + 1))
    return Fraction(total, 2**n)


@pytest.mark.parametrize("n,m", [(650, 394), (5, 5), (10, 0), (100, 50), (20, 19)])
def test_hacker_bound_exact(n, m):
    assert bs.hacker_bound(n, m) == pytest.approx(float(exact_binomial_tail(n, m)), rel=1e-9)


def test_hacker_bound_reference_values():
    assert bs.hacker_bound(650, 394) == pytest.approx(3.5e-8, rel=0.3)
    assert bs.hacker_bound(5, 5) == pytest.approx(0.03125, abs=1e-12)
    assert bs.hacker_bound(123, 0) == 1.0


def test_hacker_bound_monotone_and_endpoint():
    prev = 1.0
    for m in range(0, 51):
        cur = bs.hacker_bound(50, m)
        assert cur <= prev + 1e-15
        prev = cur
    assert bs.hacker_bound(50, 50) == pytest.approx(2.0**-50, rel=1e-12)


def test_distribution_floor_exact():
    assert bs.distribution_floor(1) == Fraction(1, 2)
    assert float(bs.distribution_floor(5)) == 0.03125
    floor = bs.distribution_floor(1086)
    assert floor == Fraction(1, 2**1086)
    assert floor.denominator.bit_length() - 1 == 1086  # log2 = -1086


# ---------------------------------------------------------------------------
# super-quantum constraints


def test_superquantum_reference():
    bound = bs.superquantum_bounds(2.827, 0.017, 2)
    assert bound.s_upper == pytest.approx(2.861, abs=1e-3)
    assert bound.on_fraction == pytest.approx(0.028, abs=2e-3)


def test_superquantum_clamps():
    assert bs.superquantum_bounds(2 * math.sqrt(2), 0.0).on_fraction == 0.0
    assert bs.superquantum_bounds(2.0, 0.1).on_fraction == 0.0


def test_bell_result_json(reference_counts):
    doc = bs.bell_result(reference_counts, sigma_b=7e-6).to_json_dict()
    assert doc["B"] == pytest.approx(5.44e-5, abs=1e-6)
    assert doc["significance"] == pytest.approx(7.77, abs=0.05)
