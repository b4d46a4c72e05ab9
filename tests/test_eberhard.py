"""Optimizer behavior, critical efficiencies, and the B'-vs-r sweep."""

import math

import numpy as np
import pytest

import bellsim as bs
from bellsim.errors import ValidationError

SQRT2 = math.sqrt(2.0)


def canonical(settings: bs.MeasurementSettings) -> bs.MeasurementSettings:
    """Fold out the global sign reflection (a,a',b,b') -> -(a,a',b,b')."""
    if settings.a <= 0:
        return settings
    return bs.MeasurementSettings(-settings.a, -settings.a_prime, -settings.b, -settings.b_prime)


def test_ideal_r1_optimum():
    res = bs.optimize(bs.DetectionModel.ideal(), fix_r=1.0)
    s = canonical(res.settings)
    assert res.value == pytest.approx(1 / SQRT2 - 0.5, abs=1e-6)
    assert s.a == pytest.approx(-11.25, abs=0.1)
    assert s.a_prime == pytest.approx(33.75, abs=0.1)
    assert s.b == pytest.approx(11.25, abs=0.1)
    assert s.b_prime == pytest.approx(-33.75, abs=0.1)


def test_ideal_r1_x_structure():
    # the optimum follows a = -x, a' = 3x, b = x, b' = -3x approximately
    res = bs.optimize(bs.DetectionModel.ideal(), fix_r=1.0)
    s = canonical(res.settings)
    x = -s.a
    assert x > 0
    assert s.a_prime == pytest.approx(3 * x, abs=0.5)
    assert s.b == pytest.approx(x, abs=0.5)
    assert s.b_prime == pytest.approx(-3 * x, abs=0.5)


def test_realistic_optimum_small_r_small_angles():
    det = bs.DetectionModel(eta_a=0.75, eta_b=0.75, pair_mean=1.0,
                            bg_a=0.0015, bg_b=0.0015)
    res = bs.optimize(det)
    assert 0.2 <= res.r <= 0.35
    s = canonical(res.settings)
    # small-magnitude angles, same shape as the reference run's settings
    assert abs(s.a) < 8 and abs(s.b) < 8
    assert 15 < abs(s.a_prime) < 35 and 15 < abs(s.b_prime) < 35


def test_angles_collapse_as_r_shrinks():
    det = bs.DetectionModel(eta_a=0.70, eta_b=0.70, pair_mean=1.0)
    mags = []
    for r in (0.3, 0.1, 0.03):
        res = bs.optimize(det, fix_r=r)
        s = res.settings
        mags.append(max(abs(s.a), abs(s.a_prime), abs(s.b), abs(s.b_prime)))
    assert mags[0] > mags[1] > mags[2]


def test_local_optimality_against_perturbations():
    det = bs.DetectionModel(eta_a=0.8, eta_b=0.8, pair_mean=1.0)
    res = bs.optimize(det, fix_r=0.5)
    state = bs.make_eberhard_state(0.5)
    base = bs.ch_value(state, res.settings, det)
    rng = np.random.default_rng(0)
    for _ in range(50):
        delta = rng.uniform(-0.3, 0.3, size=4)
        nudged = bs.MeasurementSettings(
            res.settings.a + delta[0], res.settings.a_prime + delta[1],
            res.settings.b + delta[2], res.settings.b_prime + delta[3],
        )
        assert bs.ch_value(state, nudged, det) <= base + 1e-10


def test_reflection_symmetry_of_objective():
    state = bs.make_eberhard_state(0.37)
    det = bs.DetectionModel(eta_a=0.8, eta_b=0.75, pair_mean=1.0, bg_a=1e-4, bg_b=1e-4)
    rng = np.random.default_rng(10)
    for _ in range(20):
        a, a_prime, b, b_prime = rng.uniform(-45, 45, size=4)
        sett = bs.MeasurementSettings(a, a_prime, b, b_prime)
        reflected = bs.MeasurementSettings(-a, -a_prime, -b, -b_prime)
        assert bs.ch_value(state, sett, det) == pytest.approx(
            bs.ch_value(state, reflected, det), abs=1e-12
        )


def test_objective_validation():
    with pytest.raises(ValidationError):
        bs.optimize(bs.DetectionModel.ideal(), objective="banana")
    with pytest.raises(ValidationError):
        bs.optimize(bs.DetectionModel.ideal(), model="exotic")


def test_significance_objective_runs():
    det = bs.DetectionModel(eta_a=0.75, eta_b=0.75, pair_mean=0.033, bg_a=5e-5, bg_b=5e-5)
    res = bs.optimize(det, objective="b-over-sigma", fix_r=0.26)
    assert res.value > 0
    assert res.predicted_b > 0


# ---------------------------------------------------------------------------
# critical efficiency


def test_critical_efficiency_maximally_entangled():
    assert bs.critical_efficiency(1.0) == pytest.approx(2 * (SQRT2 - 1), abs=1e-3)


def test_critical_efficiency_weak_state_limit():
    assert bs.critical_efficiency(0.01) == pytest.approx(2.0 / 3.0, abs=0.01)


def test_critical_efficiency_intermediate_and_monotone():
    rs = np.linspace(0.1, 1.0, 10)
    etas = [bs.critical_efficiency(float(r)) for r in rs]
    mid = bs.critical_efficiency(0.26)
    assert 2.0 / 3.0 < mid < 0.8285
    for lo, hi in zip(etas, etas[1:]):
        assert hi >= lo - 2e-3  # non-decreasing in r up to bisection wobble


# ---------------------------------------------------------------------------
# sweep


@pytest.fixture(scope="module")
def reference_sweep():
    mu = 0.033
    bg = 0.002 * 0.75 * mu + 1.6e-5  # fluorescence fraction plus stray floor
    det = bs.DetectionModel(eta_a=0.75, eta_b=0.75, pair_mean=mu, bg_a=bg, bg_b=bg)
    grid = np.round(np.arange(0.04, 1.0001, 0.02), 4)
    return bs.bprime_vs_r_sweep(det, grid)


def test_sweep_violation_window(reference_sweep):
    interval = bs.violation_interval(reference_sweep)
    assert interval is not None
    lo, hi = interval
    assert lo <= 0.26 <= hi
    assert lo == pytest.approx(0.20, abs=0.07)
    assert hi == pytest.approx(0.33, abs=0.07)


def test_sweep_no_violation_at_extremes(reference_sweep):
    by_r = {p.r: p.predicted_b_prime for p in reference_sweep}
    assert by_r[1.0] <= 1.0
    assert by_r[0.04] <= 1.0


def test_sweep_ideal_detection_violates_everywhere():
    det = bs.DetectionModel.ideal()
    pts = bs.bprime_vs_r_sweep(det, [0.1, 0.3, 0.6, 1.0], model="linear")
    for p in pts:
        assert p.predicted_b_prime > 1.0


def test_sweep_subthreshold_never_violates():
    det = bs.DetectionModel(eta_a=0.5, eta_b=0.5, pair_mean=1.0)
    pts = bs.bprime_vs_r_sweep(det, [0.1, 0.3, 0.6, 1.0], model="linear")
    for p in pts:
        assert p.predicted_b_prime <= 1.0


def test_sweep_csv_format(reference_sweep):
    text = bs.sweep_to_csv(reference_sweep[:2])
    lines = text.strip().splitlines()
    assert lines[0] == "r,B_prime,a,a_prime,b,b_prime"
    assert len(lines) == 3
    assert len(lines[1].split(",")) == 6


def test_sweep_empty_grid():
    with pytest.raises(ValidationError):
        bs.bprime_vs_r_sweep(bs.DetectionModel.ideal(), [])
