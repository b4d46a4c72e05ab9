"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines alongside the pytest verdicts.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

import bellsim as bs

from conftest import random_strategies

SQRT2 = math.sqrt(2.0)


def report(criterion: int, detail: str):
    print(f"\n[criterion {criterion:2d}] PASS  {detail}")


# ---------------------------------------------------------------------------


def test_criterion_01_reference_counts_regression(reference_counts):
    bs.ch_from_counts(reference_counts)  # warm any lazy imports before timing
    t0 = time.perf_counter()
    b = bs.ch_from_counts(reference_counts)
    bp = bs.chprime_from_counts(reference_counts)
    elapsed = time.perf_counter() - t0
    significance = b / bs.REFERENCE_SIGMA_B

    assert b == pytest.approx(5.4e-5, abs=0.1e-5)
    assert 1.013 <= bp <= 1.018
    assert significance == pytest.approx(7.7, abs=0.1)
    assert elapsed < 1e-3
    report(1, f"B={b:.3e}, B'={bp:.4f}, significance={significance:.2f}, "
              f"runtime={elapsed*1e6:.0f}us")


def test_criterion_02_lhv_soundness_sweep():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = -np.inf
    checked = 0
    for strat in random_strategies(rng, 1000):
        table = bs.counts_from_strategy(strat, max(1, int(strat.sum())))
        worst = max(worst, bs.ch_from_counts(table))
        checked += 1
    exhaustive = bs.max_deterministic_ch()
    elapsed = time.perf_counter() - t0

    assert worst <= 0.0 + 1e-12
    assert exhaustive == 0.0
    assert elapsed < 1.0
    report(2, f"{checked} random strategies, max B={worst:.2e}, "
              f"exhaustive bound={exhaustive}, runtime={elapsed:.2f}s")


def test_criterion_03_instruction_tables_exact():
    ideal = bs.counts_from_strategy(bs.demo_strategy_ideal(), 4000)
    lossy = bs.counts_from_strategy(bs.demo_strategy_82pct(), 4000)

    assert ideal.coincidences.tolist() == [427, 427, 427, 73]
    assert ideal.singles_a.tolist() == [604, 604, 500, 500]
    assert ideal.singles_b.tolist() == [604, 500, 604, 500]
    assert lossy.coincidences.tolist() == [287, 287, 287, 49]
    assert lossy.singles_a.tolist() == [410, 410, 410, 410]
    assert lossy.singles_b.tolist() == [410, 410, 410, 410]
    report(3, "both instruction tables reproduce byte-exact integer counts")


def test_criterion_04_coincidence_time_loophole_demo():
    t0 = time.perf_counter()
    n = 10_000
    settings = np.random.default_rng(40).integers(0, 4, size=n)
    stream = bs.coincidence_time_stream(
        bs.coincidence_loophole_schedule(), settings, T_ns=1000
    )
    event, clock = bs.WindowPolicy("event", 2000), bs.WindowPolicy("clock")
    b_event = bs.ch_from_counts(bs.windowed_counts(stream, event, settings))
    b_clock = bs.ch_from_counts(bs.windowed_counts(stream, clock, settings))
    elapsed = time.perf_counter() - t0

    assert b_event == pytest.approx(1.0, abs=1e-12)
    assert b_clock <= 0.0
    assert elapsed < 1.0
    report(4, f"event-window B={b_event:.3f} (fake violation), "
              f"clock-window B={b_clock:.3f}, runtime={elapsed:.2f}s")


def test_criterion_05_drift_attacks():
    # separable mixture, decay to 3%: ratio form fakes 1.17
    mixed = bs.density_matrix_state(np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex))
    table1 = bs.drifted_counts(
        mixed,
        bs.MeasurementSettings(a=33.75, a_prime=-11.25, b=-33.75, b_prime=11.25),
        bs.DetectionModel(eta_a=0.762, eta_b=0.762, pair_mean=1.0),
        bs.DriftModel(final_fraction=0.03),
        order=(0, 2, 1, 3),
    )
    bp = bs.chprime_from_counts(table1, "conditional")
    assert bp == pytest.approx(1.17, abs=0.05)

    # noisy weakly entangled state, decay to 82%: difference form fakes 0.005
    state = bs.make_eberhard_state(0.3)
    sett = bs.MeasurementSettings(a=4.4, a_prime=-28.0, b=-5.4, b_prime=25.9)
    det = bs.DetectionModel(eta_a=0.762, eta_b=0.762, pair_mean=1.0,
                            bg_a=0.006 * 0.762, bg_b=0.006 * 0.762)
    table2 = bs.drifted_counts(
        state, sett, det, bs.DriftModel(final_fraction=0.82), order=(0, 3, 1, 2)
    )
    b_faked = bs.ch_from_counts(table2, "conditional")
    assert b_faked == pytest.approx(0.005, abs=0.002)

    # randomizing the settings neutralizes the same drift
    det_mc = bs.DetectionModel(eta_a=0.762, eta_b=0.762, pair_mean=0.02,
                               bg_a=9e-5, bg_b=9e-5)
    drift = bs.DriftModel(final_fraction=0.82)
    pa, pb, pab = bs.expected_rates(state, sett, det_mc)
    b_free = float((pab[0] + pab[1] + pab[2] - pab[3]) - pa[0] - pb[0])
    values = []
    for seed in range(10):
        cfg = bs.ExperimentConfig(
            state=state, settings=sett, det=det_mc, schedule_kind="random-per-block",
            trials_per_block=12_500, n_blocks=40, rng_seed=7000 + seed, drift=drift,
        )
        values.append(bs.ch_from_counts(bs.blocks_to_counts(bs.simulate_blocks(cfg))))
    mean = float(np.mean(values))
    sigma = float(np.std(values, ddof=1) / math.sqrt(len(values)))
    assert mean <= b_free + 3 * sigma
    report(5, f"cyclic drift fakes B'={bp:.3f} and B={b_faked:.4f}; randomized "
              f"settings give mean B={mean:.2e} <= drift-free {b_free:.2e} + 3sigma")


def test_criterion_06_threshold_physics():
    t0 = time.perf_counter()
    eta1 = bs.critical_efficiency(1.0, 0.0)
    eta_weak = bs.critical_efficiency(0.01, 0.0)
    s = bs.chsh_value(
        bs.make_eberhard_state(1.0), bs.MeasurementSettings(-11.25, 33.75, 11.25, -33.75)
    )
    ch_max = bs.optimize(bs.DetectionModel.ideal(), fix_r=1.0).value
    elapsed = time.perf_counter() - t0

    assert eta1 == pytest.approx(0.8284, abs=1e-3)
    assert eta_weak == pytest.approx(2.0 / 3.0, abs=0.01)
    assert s == pytest.approx(2 * SQRT2, abs=1e-9)
    assert ch_max == pytest.approx(0.20711, abs=1e-4)
    assert elapsed < 60.0
    report(6, f"eta_crit(1)={eta1:.4f}, eta_crit(0.01)={eta_weak:.4f}, "
              f"S={s:.9f}, CH max={ch_max:.6f}, runtime={elapsed:.1f}s")


def test_criterion_07_bprime_curve_shape():
    mu = 0.033
    bg = 0.002 * 0.75 * mu + 1.6e-5  # 0.2% fluorescence plus the stray floor
    det = bs.DetectionModel(eta_a=0.75, eta_b=0.75, pair_mean=mu, bg_a=bg, bg_b=bg)
    grid = np.round(np.arange(0.04, 1.0001, 0.02), 4)
    points = bs.bprime_vs_r_sweep(det, grid)
    lo, hi = bs.violation_interval(points)
    by_r = {p.r: p.predicted_b_prime for p in points}

    assert lo <= 0.26 <= hi
    assert lo == pytest.approx(0.20, abs=0.07)
    assert hi == pytest.approx(0.33, abs=0.07)
    assert by_r[1.0] <= 1.0
    report(7, f"violation window r in [{lo:.2f}, {hi:.2f}] "
              f"(contains 0.26), B'(1)={by_r[1.0]:.4f} <= 1")


def test_criterion_08_statistical_pipeline():
    p_hack = bs.hacker_bound(650, 394)
    assert p_hack == pytest.approx(3.5e-8, rel=0.3)
    assert bs.distribution_floor(5) == Fraction(1, 32)
    sq = bs.superquantum_bounds(2.827, 0.017, 2)
    assert sq.s_upper == pytest.approx(2.861, abs=1e-3)
    assert sq.on_fraction == pytest.approx(0.028, abs=2e-3)

    # partition error vs the independent-trial oracle at 1e6 trials: each
    # trial is one multinomial draw of (both click, A only, B only, neither),
    # so a block keeps coincidences <= min(singles) like a measured one
    rng = np.random.default_rng(1234)
    psa = np.array([1.7e-3, 1.7e-3, 5.4e-3, 5.4e-3])
    psb = np.array([1.7e-3, 5.2e-3, 1.7e-3, 5.2e-3])
    pc = np.array([1.07e-3, 1.20e-3, 1.24e-3, 6.7e-5])
    blocks = []
    trials = 2451
    for i in range(408):
        s = i % 4
        both, a_only, b_only, _ = rng.multinomial(
            trials, [pc[s], psa[s] - pc[s], psb[s] - pc[s], 1 - psa[s] - psb[s] + pc[s]])
        blocks.append((s, trials, int(both + a_only), int(both + b_only), int(both)))
    # B is linear in the counts: per trial, w_c on a coincidence and w_a,
    # w_b on each arm's click, with the singles pooled over two rows
    n = 102.0 * trials
    w_c = np.array([1.0, 1.0, 1.0, -1.0]) / n
    w_a = -np.array([1.0, 1.0, 0.0, 0.0]) / (2 * n)
    w_b = -np.array([1.0, 0.0, 1.0, 0.0]) / (2 * n)
    mean = w_c * pc + w_a * psa + w_b * psb
    square = pc * (w_c + w_a + w_b) ** 2 + (psa - pc) * w_a**2 + (psb - pc) * w_b**2
    oracle = math.sqrt(float(np.sum(n * (square - mean**2))))
    got = bs.partition_sigma(blocks, k=51)
    assert got == pytest.approx(oracle, rel=0.2)
    report(8, f"hacker p={p_hack:.2e}, floor(5)=0.03125, "
              f"super-quantum=({sq.s_upper:.3f}, {sq.on_fraction:.3f}), "
              f"partition sigma {got:.2e} vs oracle {oracle:.2e}")


def test_criterion_09_dire_arithmetic(reference_counts):
    n_events = 111_259_682
    raw = n_events * bs.min_entropy(5.4e-5)
    assert raw == pytest.approx(8.7e3, rel=0.02)

    assert bs.extractable_length(8700, "sha-half") == (4350, 0)
    out, seed = bs.extractable_length(8700, "trevisan-sized", epsilon=1e-9,
                                      raw_string_bits=8 * 10**8)
    assert out == 8580
    assert seed == pytest.approx(26_000, abs=500)

    rep = bs.dire_report(reference_counts, acquisition_s=10_800.0, policy="sha-half")
    assert rep.rate_bits_per_s == pytest.approx(0.4, abs=0.02)

    # the min-entropy follows strictly from the guessing bound (7.79e-5 per
    # event at B=5.4e-5); it is what makes the 8.7e3-bit total consistent
    assert bs.min_entropy(5.4e-5) == pytest.approx(7.79e-5, rel=1e-3)
    report(9, f"raw={raw:.0f} bits, sha-half=4350, trevisan={out}/seed {seed}, "
              f"rate={rep.rate_bits_per_s:.3f} bits/s")


def test_criterion_10_end_to_end_simulation(calibrated_reference_model):
    t0 = time.perf_counter()
    state, sett, det = calibrated_reference_model
    cfg = bs.ExperimentConfig(
        state=state, settings=sett, det=det, schedule_kind="random-per-block",
        trials_per_block=25_000, n_blocks=40, rng_seed=6,
    )
    stream = bs.simulate_timetags(cfg)
    table = bs.windowed_counts(stream, bs.WindowPolicy("clock"), stream.meta["trial_settings"])
    b = bs.ch_from_counts(table)
    assert table.total_trials == 1_000_000
    assert b > 0

    pa, pb, pab = bs.expected_rates(state, sett, det)
    n = table.n_trials.astype(float)
    for obs, p in ((table.singles_a, pa), (table.singles_b, pb),
                   (table.coincidences, pab)):
        sd = np.sqrt(np.maximum(p * (1 - p) * n, 1e-30))
        assert np.all(np.abs(obs - p * n) <= 5 * sd)

    rerun = bs.simulate_timetags(cfg)
    assert bs.serialize_timetags(rerun) == bs.serialize_timetags(stream)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    report(10, f"1e6-trial clock-windowed B={b:.2e} > 0, rates within 5 sigma, "
               f"byte-identical rerun, runtime={elapsed:.1f}s")
