"""Instruction-set adversaries, the emission-time attack, and drift attacks."""

import numpy as np
import pytest

import bellsim as bs
from bellsim.errors import FormatError, ValidationError

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
    strat = bs.LhvStrategy((bs.LhvClass(1, (True, True), (True, True)),))
    table = bs.counts_from_strategy(strat, 1000)
    assert table.coincidences.tolist() == [1, 1, 1, 1]
    assert bs.ch_from_counts(table) == pytest.approx(0.0, abs=1e-15)


def test_counts_deterministic_and_order_invariant():
    strat = bs.demo_strategy_82pct()
    permuted = bs.LhvStrategy(tuple(reversed(strat.classes)))
    assert bs.counts_from_strategy(strat, 4000) == bs.counts_from_strategy(permuted, 4000)


def test_strategy_weight_must_fit_trials():
    with pytest.raises(ValidationError):
        bs.counts_from_strategy(bs.demo_strategy_ideal(), 10)


def test_strategy_json_round_trip():
    strat = bs.demo_strategy_82pct()
    assert bs.LhvStrategy.from_json(strat.to_json()) == strat


@pytest.mark.parametrize("text", [
    "[1]",
    '[{"weight": 1}]',
    '[{"weight": 1.5, "fires_a": [true, true], "fires_b": [true, false]}]',
    '[{"weight": true, "fires_a": [true, true], "fires_b": [true, false]}]',
    '[{"weight": 1, "fires_a": [true], "fires_b": [true, false]}]',
    '[{"weight": 1, "fires_a": [1, 0], "fires_b": [true, false]}]',
    '[{"weight": 1, "fires_a": "yes", "fires_b": [true, false]}]',
    '{"weight": 1}',
    "[]",
])
def test_strategy_json_malformed_classes(text):
    with pytest.raises(ValidationError):
        bs.LhvStrategy.from_json(text)


def test_strategy_json_unparseable():
    with pytest.raises(FormatError):
        bs.LhvStrategy.from_json("nope")


def test_soundness_sweep_1000_random_strategies():
    rng = np.random.default_rng(2024)
    for strat in random_strategies(rng, 1000):
        table = bs.counts_from_strategy(strat, max(1, strat.total_weight))
        assert bs.ch_from_counts(table) <= 1e-12
        if table.singles_a[[0, 1]].sum() + table.singles_b[[0, 2]].sum() > 0:
            assert bs.chprime_from_counts(table) <= 1.0 + 1e-12


def test_deterministic_enumeration_bounds():
    assert bs.max_deterministic_ch() == 0.0
    assert bs.max_deterministic_ch_ratio() == 1.0


# ---------------------------------------------------------------------------
# emission-time attack


def test_default_schedule_shape():
    sched = bs.coincidence_loophole_schedule()
    assert [e.offset for e in sched.emissions] == [1, 2, 3, 4]
    assert [e.target for e in sched.emissions] == ["alice", "bob", "alice", "bob"]


def test_stream_unprimed_pair_detections():
    # settings (a, b): one alice detection at 3T, one bob detection at 2T,
    # separated by T, inside any window of radius between T and 3T
    stream = bs.coincidence_time_stream(
        bs.coincidence_loophole_schedule(), [0], T_ns=1000, n_trials=1
    )
    alice_t = stream.timestamps[stream.channels == bs.CHANNEL_ALICE]
    bob_t = stream.timestamps[stream.channels == bs.CHANNEL_BOB]
    assert alice_t.tolist() == [3000]
    assert bob_t.tolist() == [2000]


def test_stream_primed_pair_has_distant_detections():
    stream = bs.coincidence_time_stream(
        bs.coincidence_loophole_schedule(), [3], T_ns=1000, n_trials=1
    )
    alice_t = stream.timestamps[stream.channels == bs.CHANNEL_ALICE]
    bob_t = stream.timestamps[stream.channels == bs.CHANNEL_BOB]
    assert abs(int(alice_t[0]) - int(bob_t[0])) == 3000  # > any allowed window


def test_empty_schedule_yields_clock_only_stream():
    stream = bs.coincidence_time_stream(
        bs.TimedEmissionSchedule(()), [0, 1], T_ns=1000, n_trials=2
    )
    assert stream.n_trials == 2
    assert len(stream) == 2


def test_schedule_offsets_must_fit_period():
    with pytest.raises(ValidationError):
        bs.coincidence_time_stream(
            bs.coincidence_loophole_schedule(), [0], T_ns=1000, n_trials=1,
            trial_period_ns=3000,
        )


def test_every_detection_present_per_side():
    rng = np.random.default_rng(5)
    settings = rng.integers(0, 4, size=1000)
    stream = bs.coincidence_time_stream(
        bs.coincidence_loophole_schedule(), settings, T_ns=100, n_trials=1000
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
        bs.DriftModel(setting_order=(0, 2, 1, 3), final_fraction=0.03),
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
        state, sett, det, bs.DriftModel(setting_order=(0, 3, 1, 2), final_fraction=0.82)
    )
    assert bs.ch_from_counts(table, "conditional") == pytest.approx(0.005, abs=0.002)


def test_identity_drift_matches_analytic():
    state = bs.make_eberhard_state(0.4)
    sett = bs.MeasurementSettings(3.8, -25.2, -3.8, 25.2)
    det = bs.DetectionModel(eta_a=0.8, eta_b=0.7, pair_mean=0.5, bg_a=1e-4, bg_b=2e-4)
    for kind in ("piecewise-geometric", "continuous-exponential-integrated"):
        table = bs.drifted_counts(
            state, sett, det, bs.DriftModel(decay_kind=kind, final_fraction=1.0), cycles=3
        )
        assert bs.ch_from_counts(table) == pytest.approx(bs.ch_value(state, sett, det), abs=1e-12)
        assert bs.chprime_from_counts(table) == pytest.approx(
            bs.ch_prime_value(state, sett, det), abs=1e-12
        )


def test_drift_supports_strategy_sources():
    table = bs.drifted_counts(
        bs.demo_strategy_ideal(),
        bs.MeasurementSettings(0, 45, 0, 45),
        bs.DetectionModel.ideal(),
        bs.DriftModel(final_fraction=0.5),
    )
    # a classical source cannot violate no matter the honest estimator,
    # and the drift cannot hide that from the pooled estimator either
    assert table.coincidences[3] > 0


def test_drift_model_validation():
    with pytest.raises(ValidationError):
        bs.DriftModel(setting_order=(0, 1, 2, 2))
    with pytest.raises(ValidationError):
        bs.DriftModel(final_fraction=0.0)
    with pytest.raises(ValidationError):
        bs.DriftModel(decay_kind="linear")
