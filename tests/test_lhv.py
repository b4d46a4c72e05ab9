"""Instruction-set adversaries, the emission-time attack, and drift attacks."""

import numpy as np
import pytest

import bellsim as bs
from bellsim import lhv
from bellsim.errors import ValidationError

from conftest import random_strategies


# ---------------------------------------------------------------------------
# instruction sets


def test_ideal_instruction_table_counts():
    table = bs.counts_from_strategy(bs.demo_strategy_ideal(), 4000)
    assert table.coincidences.tolist() == [427, 427, 427, 73]
    assert table.singles_a.tolist() == [604, 604, 500, 500]
    assert table.singles_b.tolist() == [604, 500, 604, 500]
    assert table.n_trials.tolist() == [4000] * 4


def test_82pct_instruction_table_counts():
    table = bs.counts_from_strategy(bs.demo_strategy_82pct(), 4000)
    assert table.coincidences.tolist() == [287, 287, 287, 49]
    assert table.singles_a.tolist() == [410] * 4
    assert table.singles_b.tolist() == [410] * 4


def test_single_always_fire_class_saturates_without_violating():
    table = bs.counts_from_strategy(np.eye(16, dtype=np.int64)[15], 1000)
    assert table.coincidences.tolist() == [1, 1, 1, 1]
    assert bs.ch_from_counts(table) == pytest.approx(0.0, abs=1e-15)


def test_strategy_weight_must_fit_trials():
    with pytest.raises(ValidationError):
        bs.counts_from_strategy(bs.demo_strategy_ideal(), 10)


@pytest.mark.parametrize("weights", [
    np.ones(15, dtype=np.int64),
    np.array([-1] + [0] * 15),
    np.ones(16),
    np.ones(16, dtype=bool),
], ids=["length-15", "negative", "float", "bool"])
def test_strategy_weights_must_be_16_non_negative_integers(weights):
    with pytest.raises(ValidationError):
        bs.counts_from_strategy(weights, 1000)


@pytest.mark.parametrize("trials", [0, 2**63, 10**20])
def test_strategy_trials_must_fit_int64(trials):
    with pytest.raises(ValidationError, match="trials_per_combo"):
        bs.counts_from_strategy(np.zeros(16, dtype=np.int64), trials)


def test_mixture_counts_are_sum_of_unit_strategy_counts():
    weights = bs.demo_strategy_82pct()
    total = int(weights.sum())
    mixture = bs.counts_from_strategy(weights, total)
    units = [bs.counts_from_strategy(unit, 1) for unit in np.eye(16, dtype=np.int64)]
    for field in ("singles_a", "singles_b", "coincidences"):
        summed = sum(w * getattr(t, field) for w, t in zip(weights, units))
        assert getattr(mixture, field).tolist() == summed.tolist()


def test_soundness_sweep_1000_random_strategies():
    rng = np.random.default_rng(2024)
    for strat in random_strategies(rng, 1000):
        table = bs.counts_from_strategy(strat, max(1, int(strat.sum())))
        assert bs.ch_from_counts(table) <= 1e-12
        if table.singles_a[[0, 1]].sum() + table.singles_b[[0, 2]].sum() > 0:
            assert bs.chprime_from_counts(table) <= 1.0 + 1e-12


def test_deterministic_enumeration_bounds():
    assert bs.max_deterministic_ch() == 0.0
    assert bs.max_deterministic_ch_ratio() == 1.0


def test_deterministic_enumeration_matches_counts_tables():
    num, den = lhv._deterministic_terms()
    assert num.shape == den.shape == (16,)
    # the 16 strategies are distinct
    assert len({tuple(col) for col in lhv._STRATEGY_COUNTS.reshape(12, 16).T}) == 16
    for s, unit in enumerate(np.eye(16, dtype=np.int64)):
        table = bs.counts_from_strategy(unit, 1)
        assert num[s] - den[s] == bs.ch_from_counts(table, "paired")


# ---------------------------------------------------------------------------
# emission-time attack


def test_default_schedule_shape():
    sched = bs.coincidence_loophole_schedule()
    assert [offset for offset, _, _ in sched] == [1, 2, 3, 4]
    assert [channel for _, channel, _ in sched] == [bs.CHANNEL_ALICE, bs.CHANNEL_BOB,
                                                    bs.CHANNEL_ALICE, bs.CHANNEL_BOB]


def test_stream_unprimed_pair_detections():
    # settings (a, b): one alice detection at 3T, one bob detection at 2T,
    # separated by T, inside any window of radius between T and 3T
    stream = bs.coincidence_time_stream(
        bs.coincidence_loophole_schedule(), [0], T_ns=1000
    )
    alice_t = stream.timestamps[stream.channels == bs.CHANNEL_ALICE]
    bob_t = stream.timestamps[stream.channels == bs.CHANNEL_BOB]
    assert alice_t.tolist() == [3000]
    assert bob_t.tolist() == [2000]


def test_stream_primed_pair_has_distant_detections():
    stream = bs.coincidence_time_stream(
        bs.coincidence_loophole_schedule(), [3], T_ns=1000
    )
    alice_t = stream.timestamps[stream.channels == bs.CHANNEL_ALICE]
    bob_t = stream.timestamps[stream.channels == bs.CHANNEL_BOB]
    assert abs(int(alice_t[0]) - int(bob_t[0])) == 3000  # > any allowed window


def test_empty_schedule_yields_clock_only_stream():
    stream = bs.coincidence_time_stream(
        (), [0, 1], T_ns=1000
    )
    assert stream.n_trials == 2
    assert len(stream) == 2


def test_stream_before_time_zero_is_rejected():
    # trial -2 would start at a negative time, which serialize_timetags
    # cannot write as an unsigned timestamp
    with pytest.raises(ValidationError, match="negative timestamp"):
        bs.coincidence_time_stream(bs.coincidence_loophole_schedule(), [0, 1, 2], T_ns=1000,
                                   first_trial=-2)


@pytest.mark.parametrize("first_trial", [2**62, -(2**62)])
def test_stream_beyond_64_bit_timestamps_is_rejected(first_trial):
    # 2^62 trials of 8000 ns wrap int64; the stream must not wrap silently
    with pytest.raises(ValidationError, match="64-bit timestamp range|negative timestamp"):
        bs.coincidence_time_stream(bs.coincidence_loophole_schedule(), [0, 1, 2], T_ns=1000,
                                   first_trial=first_trial)


def test_stream_reaches_the_last_64_bit_timestamp():
    # the last trial's last emission, at offset 4T, lands on 2^63 - 1
    period, last = 8000, 4000
    first_trial = (2**63 - 1 - last) // period
    stream = bs.coincidence_time_stream(bs.coincidence_loophole_schedule(), [1], T_ns=1000,
                                        first_trial=first_trial)
    assert int(stream.timestamps[-1]) == first_trial * period + last <= 2**63 - 1
    with pytest.raises(ValidationError, match="64-bit timestamp range"):
        bs.coincidence_time_stream(bs.coincidence_loophole_schedule(), [1], T_ns=1000,
                                   first_trial=first_trial + 1)


@pytest.mark.parametrize("settings", [[0.5, 3.9], np.array([1.0, 2.5])])
def test_stream_rejects_non_integer_settings(settings):
    # [0.5, 3.9] played settings [0, 3]
    with pytest.raises(ValidationError, match="setting indices must be integers"):
        bs.coincidence_time_stream(bs.coincidence_loophole_schedule(), settings, T_ns=1000)


@pytest.mark.parametrize("offset", [-1, -2, -4])
def test_negative_schedule_offset_is_rejected(offset):
    # an emission before its own trial's clock mark would be counted in the
    # trial before it, and trial ranges would no longer concatenate in order
    schedule = (*bs.coincidence_loophole_schedule()[:2], (offset, bs.CHANNEL_ALICE, (True, True)))
    with pytest.raises(ValidationError, match=f"schedule row 2 has negative offset {offset}"):
        bs.coincidence_time_stream(schedule, [0, 1, 2], T_ns=1000, first_trial=1)
    stream = bs.coincidence_time_stream(schedule[:2] + ((0, bs.CHANNEL_ALICE, (True, True)),),
                                        [0], T_ns=1000, first_trial=1)
    assert stream.timestamps[:2].tolist() == [6000, 6000]  # the mark, then its detection
    assert stream.channels[:2].tolist() == [bs.CHANNEL_CLOCK, bs.CHANNEL_ALICE]


def test_every_detection_present_per_side():
    rng = np.random.default_rng(5)
    settings = rng.integers(0, 4, size=1000)
    stream = bs.coincidence_time_stream(
        bs.coincidence_loophole_schedule(), settings, T_ns=100
    )
    # exactly one detection per arm per trial, whatever the settings
    assert int(np.count_nonzero(stream.channels == bs.CHANNEL_ALICE)) == 1000
    assert int(np.count_nonzero(stream.channels == bs.CHANNEL_BOB)) == 1000


# ---------------------------------------------------------------------------
# drift attacks


def mixed_hh_vv():
    return bs.density_matrix_state(np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex))


def test_drift_separable_state_fakes_ratio_violation():
    # separable mixture, cyclic order with the primed pair measured last,
    # intensity decaying to 3% through the cycle, singles sampled late:
    # the ratio estimator reports a seemingly impossible 1.17
    table = bs.drifted_counts(
        mixed_hh_vv(),
        bs.MeasurementSettings(a=33.75, a_prime=-11.25, b=-33.75, b_prime=11.25),
        bs.DetectionModel(eta_a=0.762, eta_b=0.762, pair_mean=1.0),
        bs.DriftModel(final_fraction=0.03),
        order=(0, 2, 1, 3),
    )
    assert bs.chprime_from_counts(table, "conditional") == pytest.approx(1.17, abs=0.05)
    # the honest pooled estimator on the same counts does not violate
    assert bs.chprime_from_counts(table, "pooled") < 1.0


def test_drift_noisy_state_fakes_difference_violation():
    # state too noisy to violate legitimately; a gentle decay to 82% with
    # the right cyclic order still pushes the late-singles estimate positive
    state = bs.make_eberhard_state(0.3)
    sett = bs.MeasurementSettings(a=4.4, a_prime=-28.0, b=-5.4, b_prime=25.9)
    det = bs.DetectionModel(
        eta_a=0.762, eta_b=0.762, pair_mean=1.0,
        bg_a=0.006 * 0.762, bg_b=0.006 * 0.762,
    )
    assert bs.ch_value(state, sett, det) < 0  # honestly below threshold
    table = bs.drifted_counts(
        state, sett, det, bs.DriftModel(final_fraction=0.82), order=(0, 3, 1, 2)
    )
    assert bs.ch_from_counts(table, "conditional") == pytest.approx(0.005, abs=0.002)


def test_identity_drift_matches_analytic():
    state = bs.make_eberhard_state(0.4)
    sett = bs.MeasurementSettings(3.8, -25.2, -3.8, 25.2)
    det = bs.DetectionModel(eta_a=0.8, eta_b=0.7, pair_mean=0.5, bg_a=1e-4, bg_b=2e-4)
    table = bs.drifted_counts(state, sett, det, bs.DriftModel(final_fraction=1.0), cycles=3)
    assert bs.ch_from_counts(table) == pytest.approx(bs.ch_value(state, sett, det), abs=1e-12)
    assert bs.chprime_from_counts(table) == pytest.approx(
        bs.ch_prime_value(state, sett, det), abs=1e-12
    )


def test_drift_model_validation():
    state, sett = bs.make_eberhard_state(0.4), bs.MeasurementSettings(0, 45, 0, 45)
    with pytest.raises(ValidationError, match="permutation"):
        bs.drifted_counts(state, sett, bs.DetectionModel(), bs.DriftModel(), order=(0, 1, 2, 2))
    with pytest.raises(ValidationError):
        bs.DriftModel(final_fraction=0.0)
