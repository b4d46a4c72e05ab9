"""State construction, projection probabilities, and Bell combinations,
cross-checked against a standalone 4x4 matrix-algebra oracle."""

import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import bellsim as bs
from bellsim import quantum
from bellsim.errors import ValidationError
from bellsim.quantum import pair_probs

SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# independent oracle: explicit kron-projector algebra, no package code


def oracle_projector(angle_deg):
    x = math.radians(angle_deg)
    v = np.array([math.cos(x), math.sin(x)])
    return np.outer(v, v)


def oracle_state_vector(r, phase=0.0):
    return np.array([r, 0, 0, np.exp(1j * phase)]) / math.sqrt(1 + r * r)


def oracle_singles(r, angle_deg, arm, phase=0.0):
    psi = oracle_state_vector(r, phase)
    p = oracle_projector(angle_deg)
    op = np.kron(p, np.eye(2)) if arm == "A" else np.kron(np.eye(2), p)
    return float((psi.conj() @ op @ psi).real)


def oracle_coincidence(r, a_deg, b_deg, phase=0.0):
    psi = oracle_state_vector(r, phase)
    op = np.kron(oracle_projector(a_deg), oracle_projector(b_deg))
    return float((psi.conj() @ op @ psi).real)


def oracle_E(r, a_deg, b_deg, phase=0.0):
    total = 0.0
    for sa, da in ((1, 0), (-1, 90)):
        for sb, db in ((1, 0), (-1, 90)):
            total += sa * sb * oracle_coincidence(r, a_deg + da, b_deg + db, phase)
    return total


# ---------------------------------------------------------------------------
# state construction


def test_eberhard_state_amplitudes():
    s = bs.make_eberhard_state(1.0)
    assert np.allclose(np.abs(s.amplitudes()[[0, 3]]), 1 / SQRT2)

    s0 = bs.make_eberhard_state(0.0)
    assert np.allclose(s0.amplitudes(), [0, 0, 0, 1])

    s26 = bs.make_eberhard_state(0.26)
    # normalize (0.26, 1) by sqrt(1.0676)
    assert np.abs(s26.amplitudes()[0]) == pytest.approx(0.26 / math.sqrt(1.0676), abs=1e-4)
    assert np.abs(s26.amplitudes()[3]) == pytest.approx(1.0 / math.sqrt(1.0676), abs=1e-4)
    assert np.linalg.norm(s26.amplitudes()) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("bad", [-0.1, float("nan"), float("inf")])
def test_eberhard_state_rejects_bad_r(bad):
    with pytest.raises(ValidationError):
        bs.make_eberhard_state(bad)


def test_density_matrix_validation():
    with pytest.raises(ValidationError):
        bs.density_matrix_state(np.eye(3))
    with pytest.raises(ValidationError):
        bs.density_matrix_state(np.eye(4))  # trace 4
    rho = np.diag([0.5, 0, 0, 0.5]).astype(complex)
    rho[0, 3] = 0.6  # breaks positivity while keeping hermiticity with [3,0]
    rho[3, 0] = 0.6
    with pytest.raises(ValidationError):
        bs.density_matrix_state(rho)


def test_settings_canonical_range():
    s = bs.MeasurementSettings(a=170.0, a_prime=-90.0, b=95.0, b_prime=45.0)
    assert s.a == pytest.approx(-10.0)
    assert s.a_prime == pytest.approx(90.0)
    assert s.b == pytest.approx(-85.0)
    assert s.b_prime == pytest.approx(45.0)


def test_detection_model_validation():
    with pytest.raises(ValidationError):
        bs.DetectionModel(eta_a=1.2)
    with pytest.raises(ValidationError):
        bs.DetectionModel(pulses_per_trial=10_000)  # burst longer than the trial


# ---------------------------------------------------------------------------
# probabilities


def test_singles_examples():
    assert bs.singles_prob(bs.make_eberhard_state(1.0), 37.2) == pytest.approx(0.5)
    assert bs.singles_prob(bs.make_eberhard_state(0.0), 0.0) == pytest.approx(0.0)
    got = bs.singles_prob(bs.make_eberhard_state(0.26), -25.2)
    assert got == pytest.approx(oracle_singles(0.26, -25.2, "A"), abs=1e-12)
    assert got == pytest.approx(0.2216, abs=1e-4)


def test_coincidence_examples():
    assert bs.coincidence_prob(bs.make_eberhard_state(1.0), 0, 0) == pytest.approx(0.5)
    assert bs.coincidence_prob(bs.make_eberhard_state(0.0), 0, 0) == pytest.approx(0.0)
    got = bs.coincidence_prob(bs.make_eberhard_state(0.26), -25.2, 25.2)
    assert got == pytest.approx(oracle_coincidence(0.26, -25.2, 25.2), abs=1e-12)
    assert got == pytest.approx(9.34e-4, abs=1e-5)


def test_correlation_examples():
    s1 = bs.make_eberhard_state(1.0)
    assert bs.correlation_E(s1, 22.5, 0) == pytest.approx(1 / SQRT2, abs=1e-12)
    assert bs.correlation_E(s1, 17.0, 17.0) == pytest.approx(1.0, abs=1e-12)
    s = bs.make_eberhard_state(0.26)
    assert bs.correlation_E(s, 10, -10) == pytest.approx(oracle_E(0.26, 10, -10), abs=1e-12)


def test_pure_and_density_paths_agree():
    rng = np.random.default_rng(42)
    for _ in range(25):
        r = rng.uniform(0, 1)
        phase = rng.uniform(-math.pi, math.pi)
        a, b = rng.uniform(-90, 90, size=2)
        pure = bs.make_eberhard_state(r, phase)
        dens = bs.density_matrix_state(pure.density_matrix())
        assert bs.singles_prob(dens, a) == pytest.approx(bs.singles_prob(pure, a), abs=1e-12)
        assert bs.coincidence_prob(dens, a, b) == pytest.approx(
            bs.coincidence_prob(pure, a, b), abs=1e-12
        )
        assert bs.correlation_E(dens, a, b) == pytest.approx(
            bs.correlation_E(pure, a, b), abs=1e-12
        )
        sett = bs.MeasurementSettings(a, b, -a, -b)
        assert bs.chsh_value(dens, sett) == pytest.approx(bs.chsh_value(pure, sett), abs=1e-12)


@given(
    r=st.floats(0.0, 1.0),
    phase=st.floats(-math.pi, math.pi),
    a=st.floats(-90.0, 90.0),
    b=st.floats(-90.0, 90.0),
)
def test_probability_bounds_property(r, phase, a, b):
    s = bs.make_eberhard_state(r, phase)
    p1 = bs.singles_prob(s, a, "A")
    p2 = bs.singles_prob(s, b, "B")
    p12 = bs.coincidence_prob(s, a, b)
    assert -1e-12 <= p1 <= 1 + 1e-12
    assert -1e-12 <= p12 <= min(p1, p2) + 1e-12


def test_no_signaling_sum_rule():
    rng = np.random.default_rng(7)
    for _ in range(100):
        s = bs.make_eberhard_state(rng.uniform(0, 1), rng.uniform(-math.pi, math.pi))
        a, b = rng.uniform(-90, 90, size=2)
        total = bs.coincidence_prob(s, a, b) + bs.coincidence_prob(s, a, b + 90)
        assert total == pytest.approx(bs.singles_prob(s, a, "A"), abs=1e-10)


# ---------------------------------------------------------------------------
# Bell combinations


def test_chsh_reference_angles():
    s = bs.make_eberhard_state(1.0)
    sett = bs.MeasurementSettings(-11.25, 33.75, 11.25, -33.75)
    assert bs.chsh_value(s, sett) == pytest.approx(2 * SQRT2, abs=1e-9)


def test_chsh_separable_bound():
    s0 = bs.make_eberhard_state(0.0)
    rng = np.random.default_rng(3)
    for _ in range(50):
        sett = bs.MeasurementSettings(*rng.uniform(-90, 90, size=4))
        assert abs(bs.chsh_value(s0, sett)) <= 2 + 1e-9


def test_tsirelson_random_settings():
    s = bs.make_eberhard_state(1.0)
    rng = np.random.default_rng(12)
    worst = -np.inf
    for _ in range(10_000):
        a, ap, b, bp = rng.uniform(-90, 90, size=4)
        val = bs.chsh_value(s, bs.MeasurementSettings(a, ap, b, bp))
        worst = max(worst, val)
    assert worst <= 2 * SQRT2 + 1e-9


def test_chsh_oracle_cross_check():
    s = bs.make_eberhard_state(0.5)
    sett = bs.MeasurementSettings(0.0, 45.0, 22.5, -22.5)
    expected = (
        oracle_E(0.5, 0, 22.5) + oracle_E(0.5, 0, -22.5)
        + oracle_E(0.5, 45, 22.5) - oracle_E(0.5, 45, -22.5)
    )
    assert bs.chsh_value(s, sett) == pytest.approx(expected, abs=1e-12)


def test_ch_value_ideal_maximum_angles():
    s = bs.make_eberhard_state(1.0)
    sett = bs.MeasurementSettings(-11.25, 33.75, 11.25, -33.75)
    got = bs.ch_value(s, sett, bs.DetectionModel.ideal())
    assert got == pytest.approx(1 / SQRT2 - 0.5, abs=1e-12)


def test_ch_value_separable_nonpositive():
    s0 = bs.make_eberhard_state(0.0)
    det = bs.DetectionModel.ideal()
    rng = np.random.default_rng(5)
    for _ in range(100):
        sett = bs.MeasurementSettings(*rng.uniform(-90, 90, size=4))
        assert bs.ch_value(s0, sett, det) <= 1e-12


def test_ch_quantum_max_grid_oracle():
    # brute grid over the reflection-symmetric family, written out longhand
    r = 1.0
    axis = np.deg2rad(np.arange(-45, 45.25, 0.25))
    aa, pp = np.meshgrid(axis, axis, indexing="ij")

    def p12(x, y):
        return (r * np.cos(x) * np.cos(y) + np.sin(x) * np.sin(y)) ** 2 / (1 + r * r)

    def p1(x):
        return (r * r * np.cos(x) ** 2 + np.sin(x) ** 2) / (1 + r * r)

    grid = p12(aa, -aa) + p12(aa, -pp) + p12(pp, -aa) - p12(pp, -pp) - p1(aa) - p1(-aa)
    assert grid.max() == pytest.approx(1 / SQRT2 - 0.5, abs=1e-4)


def test_ch_value_forward_model_reference_regression(calibrated_reference_model):
    # the linearized prediction at the reference operating point is a
    # clear violation of the classical bound
    state, sett, det = calibrated_reference_model
    assert bs.ch_value(state, sett, det) > 0


def test_ch_prime_ideal_maximum():
    s = bs.make_eberhard_state(1.0)
    sett = bs.MeasurementSettings(-11.25, 33.75, 11.25, -33.75)
    got = bs.ch_prime_value(s, sett, bs.DetectionModel.ideal())
    assert got == pytest.approx(0.5 + 1 / SQRT2, abs=1e-12)


# ---------------------------------------------------------------------------
# entanglement measures


def test_concurrence():
    assert bs.concurrence(bs.make_eberhard_state(1.0)) == pytest.approx(1.0)
    assert bs.concurrence(bs.make_eberhard_state(0.0)) == pytest.approx(0.0)
    assert bs.concurrence(bs.make_eberhard_state(0.26)) == pytest.approx(0.487, abs=5e-4)
    # density path agrees with the closed form
    s = bs.make_eberhard_state(0.6, 0.3)
    dens = bs.density_matrix_state(s.density_matrix())
    assert bs.concurrence(dens) == pytest.approx(bs.concurrence(s), abs=1e-10)
    # separable mixture has zero concurrence
    mixed = bs.density_matrix_state(np.diag([0.5, 0, 0, 0.5]).astype(complex))
    assert bs.concurrence(mixed) == pytest.approx(0.0, abs=1e-10)


def test_visibility():
    s1 = bs.make_eberhard_state(1.0)
    assert bs.visibility(s1, "HV") == pytest.approx(1.0, abs=1e-12)
    assert bs.visibility(s1, "DA") == pytest.approx(1.0, abs=1e-12)
    s = bs.make_eberhard_state(0.26)
    assert bs.visibility(s, "HV") == pytest.approx(1.0, abs=1e-12)
    # sweep-style oracle: coincidences at the four DA-basis combinations
    c_par = max(oracle_coincidence(0.26, 45, 45), oracle_coincidence(0.26, -45, -45))
    c_orth = oracle_coincidence(0.26, 45, -45)
    assert bs.visibility(s, "DA") == pytest.approx((c_par - c_orth) / (c_par + c_orth), abs=1e-12)
    assert bs.visibility(s, "DA") == pytest.approx(0.487, abs=5e-4)
    assert bs.visibility(bs.make_eberhard_state(0.0), "DA") == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# forward model


def test_pair_probs_grid_matches_scalar_calls():
    state = bs.make_eberhard_state(0.37, 0.4)
    a, ap = np.meshgrid(np.linspace(-40, 40, 7), np.linspace(-30, 50, 5), indexing="ij")
    b, bp = -0.8 * a + 3.0, 0.5 * ap - 10.0
    p1, p2, p12 = pair_probs(state, a, ap, b, bp)
    for k, (x, y) in enumerate(((a, b), (a, bp), (ap, b), (ap, bp))):
        scalar = [
            (bs.singles_prob(state, u, "A"), bs.singles_prob(state, v, "B"),
             bs.coincidence_prob(state, u, v))
            for u, v in zip(x.ravel().tolist(), y.ravel().tolist())
        ]
        grid = np.stack([np.ravel(p1[k]), np.ravel(p2[k]), np.ravel(p12[k])], axis=1)
        np.testing.assert_allclose(grid, scalar, rtol=0, atol=1e-15)


def test_compound_model_tends_to_linear_at_low_rates():
    state = bs.make_eberhard_state(1.0)
    sett = bs.MeasurementSettings(0.0, 45.0, 22.5, -22.5)

    def relative_gap(mu):
        det = bs.DetectionModel(eta_a=0.8, eta_b=0.7, pair_mean=mu, bg_a=mu / 10, bg_b=mu / 20)
        compound = bs.expected_rates(state, sett, det)
        probs = (np.array(p) for p in pair_probs(state, *astuple(sett)))
        linear = bs.click_probabilities(*probs, det, "linear")
        return max(float(np.max(np.abs(c / lin - 1.0))) for c, lin in zip(compound, linear))

    # first-order agreement: the relative gap shrinks in proportion to pair_mean
    scaled = [relative_gap(mu) / mu for mu in (1e-3, 1e-4, 1e-5)]
    assert 0.1 < scaled[2] < 10.0
    assert scaled[0] == pytest.approx(scaled[2], rel=0.01)
    assert scaled[1] == pytest.approx(scaled[2], rel=0.001)


def monolithic_clicks(p1, p2, p12, det, model, multiplier):
    """Reference: the forward model as one function of both arms, the
    order of IEEE operations that its arm and pair parts must keep."""
    mu = det.pair_mean * multiplier
    bg_a, bg_b = det.bg_a * multiplier, det.bg_b * multiplier
    if model == "linear":
        return (det.eta_a * mu * p1 + bg_a, det.eta_b * mu * p2 + bg_b,
                det.eta_a * det.eta_b * mu * p12)
    dark_a, dark_b = 1.0 - np.minimum(bg_a, 1.0), 1.0 - np.minimum(bg_b, 1.0)
    s1, s2, both = det.eta_a * p1, det.eta_b * p2, det.eta_a * det.eta_b * p12
    pA0, pB0 = dark_a * np.exp(-mu * s1), dark_b * np.exp(-mu * s2)
    pAB0 = dark_a * dark_b * np.exp(-mu * (s1 + s2 - both))
    return 1.0 - pA0, 1.0 - pB0, 1.0 - pA0 - pB0 + pAB0


# (p1, p2, p12) as Python floats, as 1-D arrays over five setting pairs,
# and as the column, row and square tables of the design grid
_STATE = bs.make_eberhard_state(0.26)
_AXIS = np.linspace(-40.0, 40.0, 5)
CLICK_INPUTS = {
    "floats": (0.31, 0.47, 0.12),
    "arrays": tuple(p[1] for p in pair_probs(_STATE, _AXIS, 0.7 * _AXIS, -_AXIS,
                                             0.5 * _AXIS + 3.0)),
    "tables": (bs.singles_prob(_STATE, _AXIS[:, None], "A"),
               bs.singles_prob(_STATE, -_AXIS[None, :], "B"),
               bs.coincidence_prob(_STATE, _AXIS[:, None], -_AXIS[None, :])),
}


@pytest.mark.parametrize("multiplier", [1.0, np.linspace(0.8, 1.3, 5)], ids=["one", "drift"])
@pytest.mark.parametrize("shape", sorted(CLICK_INPUTS))
@pytest.mark.parametrize("model", quantum.MODELS)
def test_click_probabilities_compose_arm_and_pair_parts_bitwise(model, shape, multiplier):
    det = bs.DetectionModel(eta_a=0.8, eta_b=0.7, pair_mean=0.2, bg_a=1e-4, bg_b=3e-4)
    p1, p2, p12 = CLICK_INPUTS[shape]
    composed = quantum._pair_clicks(quantum._arm_clicks(p1, "A", det, model, multiplier),
                                    quantum._arm_clicks(p2, "B", det, model, multiplier),
                                    p12, det, model, multiplier)
    clicks = bs.click_probabilities(p1, p2, p12, det, model, multiplier)
    reference = monolithic_clicks(p1, p2, p12, det, model, multiplier)
    assert len(clicks) == len(composed) == 3
    for got, part, ref in zip(clicks, composed, reference):
        assert np.shape(got) == np.shape(part) == np.shape(ref)
        assert (np.asarray(got).tobytes() == np.asarray(part).tobytes()
                == np.asarray(ref, dtype=float).tobytes())


def test_click_probabilities_rejects_unknown_model():
    with pytest.raises(ValidationError):
        bs.click_probabilities(0.5, 0.5, 0.25, bs.DetectionModel(), model="quadratic")


def test_drifted_counts_equal_per_period_sum():
    state = bs.make_eberhard_state(0.4)
    sett = bs.MeasurementSettings(3.8, -25.2, -3.8, 25.2)
    det = bs.DetectionModel(eta_a=0.8, eta_b=0.7, pair_mean=0.9, bg_a=1e-3, bg_b=2e-3)
    drift, order = bs.DriftModel(final_fraction=0.4), (3, 1, 0, 2)
    n, cycles = 50_000, 3
    table = bs.drifted_counts(state, sett, det, drift, order, cycles=cycles, trials_per_period=n)
    expect = np.zeros((4, 4))
    for period, m in enumerate(drift.multipliers(4 * cycles)):
        combo = order[period % 4]
        x, y = (sett.a, sett.a_prime)[combo >> 1], (sett.b, sett.b_prime)[combo & 1]
        mu = det.pair_mean
        # the multiplier scales the whole linear rate, background included
        expect[:, combo] += n * np.array([
            1.0,
            m * (det.eta_a * mu * bs.singles_prob(state, x, "A") + det.bg_a),
            m * (det.eta_b * mu * bs.singles_prob(state, y, "B") + det.bg_b),
            m * det.eta_a * det.eta_b * mu * bs.coincidence_prob(state, x, y),
        ])
    got = np.array([table.n_trials, table.singles_a, table.singles_b, table.coincidences])
    np.testing.assert_allclose(got, expect, rtol=1e-12, atol=0)
