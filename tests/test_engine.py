"""Monte-Carlo engine: determinism, statistical soundness, schedules, I/O."""

import dataclasses
import hashlib
from pathlib import Path

import numpy as np
import pytest

import bellsim as bs
from bellsim.counting import serialize_settings
from bellsim.engine import (
    _BLOCK_STREAM,
    _block_schedule,
    _drift_multipliers,
    _rng,
    _timetag_blocks,
    pair_probs,
    timetag_chunks,
)
from bellsim.errors import FormatError, NumericalError, ValidationError


def quick_cfg(**kw):
    base = dict(
        state=bs.make_eberhard_state(0.26),
        settings=bs.reference_settings(),
        det=bs.DetectionModel(),
        trials_per_block=1000,
        n_blocks=8,
        rng_seed=99,
    )
    base.update(kw)
    return bs.ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# schedules


def test_cyclic_schedule():
    assert bs.setting_schedule("cyclic", 8).tolist() == [0, 1, 2, 3, 0, 1, 2, 3]


@pytest.mark.parametrize("order", [(0, 1, 2, 3), (2, 0, 3, 1)])
@pytest.mark.parametrize("n_blocks", [1, 3, 4, 5, 4450])
def test_cyclic_schedule_repeats_its_order(n_blocks, order):
    schedule = bs.setting_schedule("cyclic", n_blocks, order=order)
    assert schedule.dtype == np.int64
    assert schedule.tolist() == [order[i % 4] for i in range(n_blocks)]


def test_random_schedule_reproducible_and_balanced():
    s1 = bs.setting_schedule("random-per-block", 4450, rng_seed=17)
    s2 = bs.setting_schedule("random-per-block", 4450, rng_seed=17)
    assert np.array_equal(s1, s2)
    counts = np.bincount(s1, minlength=4)
    sd = np.sqrt(4450 * 0.25 * 0.75)
    assert np.all(np.abs(counts - 4450 / 4) < 5 * sd)


def test_file_schedule(tmp_path):
    p = tmp_path / "settings.txt"
    p.write_text("0\n3\n1\n")
    assert bs.setting_schedule("file", 3, file=str(p)).tolist() == [0, 3, 1]
    with pytest.raises(ValidationError):
        bs.setting_schedule("file", 4, file=str(p))  # too short
    p.write_text("0\n9\n")
    with pytest.raises(FormatError):
        bs.setting_schedule("file", 2, file=str(p))


def test_file_schedule_reads_settings_files(tmp_path):
    p = tmp_path / "settings.txt"
    p.write_bytes(serialize_settings([2, 0, 3, 1, 1]))
    sched = bs.setting_schedule("file", 4, file=str(p))
    assert sched.dtype == np.int64 and sched.tolist() == [2, 0, 3, 1]
    p.write_text("0 3  1\n\n2\t0\n")
    sched = bs.setting_schedule("file", 5, file=str(p))
    assert sched.dtype == np.int64 and sched.tolist() == [0, 3, 1, 2, 0]
    p.write_text("0 1\n2 -1\n")
    with pytest.raises(FormatError, match="index -1"):
        bs.setting_schedule("file", 2, file=str(p))


# ---------------------------------------------------------------------------
# determinism


def test_blocks_deterministic():
    cfg = quick_cfg()
    assert bs.simulate_blocks(cfg) == bs.simulate_blocks(cfg)


def test_timetags_deterministic_and_serialized_identically():
    cfg = quick_cfg()
    s1, s2 = bs.simulate_timetags(cfg), bs.simulate_timetags(cfg)
    assert s1 == s2
    assert bs.serialize_timetags(s1) == bs.serialize_timetags(s2)


# Digests of runs under version 0.2.0 (blocks) and 0.3.0 (timetags, drawn
# per detection), numpy 2.4.  The same (config, seed) must keep giving the
# same bytes; a change here changes every published run.
FROZEN_BLOCKS = {
    "drift-cyclic": "e286b964f44f18df8df5cd5eca41460319d961954e38cb3caebcf9f5ebc64190",
    "density-matrix": "4b959b26bec13861308140d3f1f9da5c873c4fef93772f91a85ae8ed420185ce",
}
FROZEN_TIMETAGS = "c2cee146194bd9181dfe68adb45671c9e56a09a1f6c7556c2072df3083d203ca"


def frozen_cfg(name):
    if name == "drift-cyclic":
        return quick_cfg(det=bs.DetectionModel(pair_mean=0.5, bg_a=0.01, bg_b=0.02),
                         schedule_kind="cyclic", cyclic_order=(2, 0, 3, 1), n_blocks=12,
                         drift=bs.DriftModel(final_fraction=0.5),
                         rng_seed=2024)
    rho = 0.9 * bs.make_eberhard_state(0.26).density_matrix() + 0.1 * np.eye(4) / 4
    return quick_cfg(state=bs.density_matrix_state(rho), rng_seed=31)


@pytest.mark.parametrize("name", sorted(FROZEN_BLOCKS))
def test_blocks_csv_bytes_frozen(name):
    text = bs.blocks_to_csv(bs.simulate_blocks(frozen_cfg(name)))
    assert hashlib.sha256(text.encode()).hexdigest() == FROZEN_BLOCKS[name]


def test_timetags_bytes_frozen():
    cfg = quick_cfg(det=bs.DetectionModel(pair_mean=0.2, bg_a=0.002, bg_b=0.001), n_blocks=4,
                    trials_per_block=500, rng_seed=8)
    data = bs.serialize_timetags(bs.simulate_timetags(cfg))
    assert hashlib.sha256(data).hexdigest() == FROZEN_TIMETAGS


def whole_run_timetags(cfg):
    """The whole-run timetag writer: every block's records concatenated,
    then one stable sort by (time, clock marks first).  Also returns the
    timestamps of the blocks each sorted on its own and concatenated."""
    blocks = [(t, c) for _, t, c, _ in _timetag_blocks(cfg)]
    t = np.concatenate([t for t, _ in blocks])
    c = np.concatenate([c for _, c in blocks])
    order = np.lexsort((c != bs.CHANNEL_CLOCK, t))
    return bs.TimetagStream(t[order], c[order]), t


def crossing_cfg(trials_per_block):
    """Jitter beyond the trial period and few trials per block: records clamp
    and cross into the neighbouring blocks' time ranges."""
    det = bs.DetectionModel(eta_a=0.9, eta_b=0.8, pair_mean=2.0, bg_a=0.05, bg_b=0.05,
                            pulses_per_trial=2, pulse_period_ns=10.0, trial_period_ns=100.0,
                            jitter_sigma_ns=120.0)
    return quick_cfg(state=bs.make_eberhard_state(1.0),
                     settings=bs.MeasurementSettings(0.0, 45.0, 22.5, -22.5), det=det,
                     trials_per_block=trials_per_block, n_blocks=60, rng_seed=77)


# digests of the whole-run writer's bytes for crossing_cfg under version 0.3.0
FROZEN_CROSSING = {
    1: "89386c11f779007e1118bf4894aaa1605768da04ce0dfe210e946b82c6ae9a93",
    3: "b167d21e9db44a581f9b1c7d8e357bd138ef18ba83efb40a3702914fd08743a1",
}


@pytest.mark.parametrize("trials_per_block", sorted(FROZEN_CROSSING))
def test_chunks_merge_records_that_cross_block_edges(trials_per_block):
    cfg = crossing_cfg(trials_per_block)
    whole, blockwise = whole_run_timetags(cfg)
    # some records sort into a neighbouring block's time range
    assert not np.array_equal(blockwise, whole.timestamps)
    chunks = list(timetag_chunks(cfg))
    stream = bs.simulate_timetags(cfg)
    assert stream == whole
    assert hashlib.sha256(bs.serialize_timetags(stream)).hexdigest() == \
        FROZEN_CROSSING[trials_per_block]
    assert b"".join(bs.serialize_timetags(chunk) for chunk in chunks) == \
        bs.serialize_timetags(whole)
    assert [chunk.meta["trial_settings"].tolist() for chunk in chunks] == \
        [[s] * trials_per_block for s in _block_schedule(cfg).tolist()]
    assert stream.meta["clamped_events"] == sum(c.meta["clamped_events"] for c in chunks) > 0
    assert stream.meta["trial_settings"].dtype == np.uint8


def test_chunked_timetags_equal_whole_run_writer():
    cfg = quick_cfg(det=bs.DetectionModel(pair_mean=0.2, bg_a=0.002, bg_b=0.001), n_blocks=4,
                    trials_per_block=500, rng_seed=8)
    assert bs.simulate_timetags(cfg) == whole_run_timetags(cfg)[0]


def test_seed_changes_output():
    a = bs.simulate_blocks(quick_cfg(rng_seed=1))
    b = bs.simulate_blocks(quick_cfg(rng_seed=2))
    assert a != b


def test_cyclic_prefix_blocks_match_shorter_run():
    # per-block generators: block b depends on (seed, b) only
    long_run = bs.simulate_blocks(quick_cfg(schedule_kind="cyclic", n_blocks=12))
    short_run = bs.simulate_blocks(quick_cfg(schedule_kind="cyclic", n_blocks=5))
    assert long_run[:5] == short_run


# ---------------------------------------------------------------------------
# the block sampler against the per-trial reference


def per_trial_blocks(cfg):
    """Reference block sampler: draws every trial's pair number and click
    outcome.  The multinomial sampler must match it in distribution."""
    schedule = _block_schedule(cfg)
    mult = _drift_multipliers(cfg)
    n = cfg.trials_per_block
    det = cfg.det
    records = []
    for b in range(cfg.n_blocks):
        combo = int(schedule[b])
        sett = cfg.settings
        a_deg, b_deg = (sett.a, sett.a_prime)[combo >> 1], (sett.b, sett.b_prime)[combo & 1]
        p1 = float(bs.singles_prob(cfg.state, a_deg, "A"))
        p2 = float(bs.singles_prob(cfg.state, b_deg, "B"))
        p12 = float(bs.coincidence_prob(cfg.state, a_deg, b_deg))
        m = float(mult[b])
        mu = det.pair_mean * m
        bg_a = min(det.bg_a * m, 1.0)
        bg_b = min(det.bg_b * m, 1.0)

        rng = _rng(cfg.rng_seed, _BLOCK_STREAM, b)
        k = rng.poisson(mu, size=n)
        # per-pair no-detection probabilities, then trial-level joint via k-th powers
        qA0 = 1.0 - det.eta_a * p1
        qB0 = 1.0 - det.eta_b * p2
        q00 = 1.0 - det.eta_a * p1 - det.eta_b * p2 + det.eta_a * det.eta_b * p12
        pA0 = (1.0 - bg_a) * np.power(qA0, k)
        pB0 = (1.0 - bg_b) * np.power(qB0, k)
        pAB0 = (1.0 - bg_a) * (1.0 - bg_b) * np.power(q00, k)

        u = rng.random(n)
        t0 = pAB0                   # no click on either arm
        t1 = t0 + (pA0 - pAB0)      # B only
        t2 = t1 + (pB0 - pAB0)      # A only
        click_a = u >= t1
        click_b = ((u >= t0) & (u < t1)) | (u >= t2)
        coinc = click_a & click_b
        records.append(
            bs.BlockRecord(combo, n, int(click_a.sum()), int(click_b.sum()), int(coinc.sum()))
        )
    return records


def _click_categories(blocks):
    """Per-setting pooled (coincidence, A only, B only) counts."""
    t = bs.blocks_to_counts(blocks)
    return np.stack([t.coincidences, t.singles_a - t.coincidences,
                     t.singles_b - t.coincidences])


SAMPLER_CASES = {
    # multi-pair trials and a per-block intensity multiplier
    "drift": dict(det=bs.DetectionModel(eta_a=0.762, eta_b=0.7, pair_mean=0.5,
                                        bg_a=4e-3, bg_b=2e-3),
                  drift=bs.DriftModel(final_fraction=0.3),
                  cyclic_order=(0, 3, 1, 2)),
    # Alice's background saturates: she clicks on every trial
    "background-at-1": dict(det=bs.DetectionModel(eta_a=0.75, eta_b=0.75, pair_mean=0.2,
                                                  bg_a=1.0, bg_b=1e-3)),
    "vacuum": dict(det=bs.DetectionModel(pair_mean=0.0)),
    # every analyzer at 0 on the maximally entangled state: Alice never
    # clicks alone, and rounding puts that probability at -1.1e-16
    "no-a-only": dict(state=bs.make_eberhard_state(1.0),
                      settings=bs.MeasurementSettings(0, 0, 0, 0),
                      det=bs.DetectionModel(eta_a=1.0, eta_b=1.0,
                                            pair_mean=2.859784245747508,
                                            bg_b=0.31856263668668855)),
}


@pytest.mark.parametrize("case", sorted(SAMPLER_CASES))
def test_multinomial_sampler_matches_per_trial_reference(case):
    cfg = quick_cfg(schedule_kind="cyclic", trials_per_block=4000, n_blocks=200,
                    rng_seed=41, **SAMPLER_CASES[case])
    new = _click_categories(bs.simulate_blocks(cfg))
    # the reference runs on other seeds, so the two samples are independent
    ref = _click_categories(per_trial_blocks(dataclasses.replace(cfg, rng_seed=42)))
    # each pooled count has variance at most its mean: the difference of
    # two independent samples stays within 5 sd of sqrt(x + y)
    assert np.all(np.abs(new - ref) <= 5 * np.sqrt(new + ref))
    if case == "vacuum":
        assert not new.any()
    if case == "background-at-1":
        assert not new[2].any() and not ref[2].any()
    if case == "no-a-only":
        assert not new[1].any() and not ref[1].any()


# ---------------------------------------------------------------------------
# the timetag sampler against the per-trial reference


def per_trial_timetags(cfg):
    """Reference timetag sampler: draws every trial's pair number and each
    arm's background hit, then sorts the whole run.  The per-detection
    sampler must match it in distribution."""
    schedule = _block_schedule(cfg)
    mult = _drift_multipliers(cfg)
    p1, p2, p12 = pair_probs(cfg.state, *dataclasses.astuple(cfg.settings))
    det, n = cfg.det, cfg.trials_per_block
    period = int(round(det.trial_period_ns))
    burst_offset = (det.trial_period_ns - det.pulses_per_trial * det.pulse_period_ns) / 2.0
    ts, cs, clamped = [], [], 0
    for b in range(cfg.n_blocks):
        combo, m = int(schedule[b]), float(mult[b])
        q11 = det.eta_a * det.eta_b * p12[combo]
        q10 = det.eta_a * p1[combo] - q11
        q01 = det.eta_b * p2[combo] - q11
        rng = _rng(cfg.rng_seed, _BLOCK_STREAM, b)
        trial_start = (np.arange(n, dtype=np.int64) + b * n) * period
        pair_trial = np.repeat(np.arange(n), rng.poisson(det.pair_mean * m, size=n))
        u = rng.random(pair_trial.size)
        det_a = u < (q11 + q10)
        det_b = (u < q11) | ((u >= q11 + q10) & (u < q11 + q10 + q01))
        pulse = rng.integers(0, det.pulses_per_trial, size=pair_trial.size)
        bg_a = np.nonzero(rng.random(n) < min(det.bg_a * m, 1.0))[0]
        bg_b = np.nonzero(rng.random(n) < min(det.bg_b * m, 1.0))[0]
        start = trial_start[np.concatenate([pair_trial[det_a], bg_a, pair_trial[det_b], bg_b])]
        pulses = np.concatenate([pulse[det_a], rng.integers(0, det.pulses_per_trial, bg_a.size),
                                 pulse[det_b], rng.integers(0, det.pulses_per_trial, bg_b.size)])
        times = (start + burst_offset + pulses * det.pulse_period_ns
                 + rng.normal(0.0, det.jitter_sigma_ns, size=start.size))
        lo = np.maximum(start - period, 0)
        hi = start + 2 * period - 1
        times = np.rint(np.clip(times, lo - period, hi + period)).astype(np.int64)
        clamped += int(np.count_nonzero((times < lo) | (times > hi)))
        n_a = int(det_a.sum()) + bg_a.size
        ts += [trial_start, np.clip(times, lo, hi)]
        cs += [np.full(n, bs.CHANNEL_CLOCK, dtype=np.uint8),
               np.repeat(np.array([bs.CHANNEL_ALICE, bs.CHANNEL_BOB], dtype=np.uint8),
                         [n_a, start.size - n_a])]
    t, c = np.concatenate(ts), np.concatenate(cs)
    order = np.lexsort((c != bs.CHANNEL_CLOCK, t))
    return bs.TimetagStream(t[order], c[order], meta={"clamped_events": clamped})


def _multiplicities(cfg, stream, channel):
    """How many trials hold 0, 1, 2, ... detections on one arm, each
    detection in the trial whose clock window holds it."""
    trial = stream.timestamps[stream.channels == channel] // int(round(cfg.det.trial_period_ns))
    return np.bincount(np.bincount(trial, minlength=cfg.n_blocks * cfg.trials_per_block))


def _agree_within_5_sd(x, y):
    # independent counts whose variance is at most their mean: the
    # difference stays within 5 sd of sqrt(x + y); missing entries are 0
    size = max(len(x), len(y))
    x, y = (np.pad(np.asarray(v, dtype=float), (0, size - len(v))) for v in (x, y))
    return bool(np.all(np.abs(x - y) <= 5 * np.sqrt(x + y)))


TIMETAG_CASES = {
    **SAMPLER_CASES,
    # background alone: at most one hit per trial per arm, and Bob's on every trial
    "background-only": dict(det=bs.DetectionModel(pair_mean=0.0, bg_a=0.3, bg_b=1.0)),
}


@pytest.mark.parametrize("case", sorted(TIMETAG_CASES) + ["crossing"])
def test_timetag_sampler_matches_per_trial_reference(case):
    if case == "crossing":
        cfg = dataclasses.replace(crossing_cfg(3), schedule_kind="cyclic", n_blocks=1000,
                                  rng_seed=41)
    else:
        cfg = quick_cfg(schedule_kind="cyclic", trials_per_block=2000, n_blocks=40,
                        rng_seed=41, **TIMETAG_CASES[case])
    new = bs.simulate_timetags(cfg)
    # the reference runs on another seed, so the two samples are independent
    ref = per_trial_timetags(dataclasses.replace(cfg, rng_seed=42))
    tables = [bs.windowed_counts(s, bs.WindowPolicy("clock"), new.meta["trial_settings"])
              for s in (new, ref)]
    for f in ("singles_a", "singles_b", "coincidences"):
        assert _agree_within_5_sd(*(getattr(t, f) for t in tables)), f
    for channel in (bs.CHANNEL_ALICE, bs.CHANNEL_BOB):
        assert _agree_within_5_sd(*(_multiplicities(cfg, s, channel) for s in (new, ref)))
    assert _agree_within_5_sd([new.meta["clamped_events"]], [ref.meta["clamped_events"]])
    if case == "crossing":
        assert new.meta["clamped_events"] > 0
    if case == "vacuum":
        assert len(new) == len(ref) == new.n_trials
    if case == "background-only":
        n_trials = cfg.n_blocks * cfg.trials_per_block
        for s in (new, ref):
            assert len(_multiplicities(cfg, s, bs.CHANNEL_ALICE)) == 2
            assert _multiplicities(cfg, s, bs.CHANNEL_BOB).tolist() == [0, n_trials]


def test_block_pair_total_over_the_cap_is_rejected(monkeypatch):
    cfg = quick_cfg(det=bs.DetectionModel(pair_mean=2.0), trials_per_block=50, n_blocks=3)
    monkeypatch.setattr(bs.engine, "MAX_BLOCK_SIZE", 50)
    with pytest.raises(ValidationError, match=r"block 0 draws \d+ pairs, more than the 50"):
        list(timetag_chunks(cfg))


# ---------------------------------------------------------------------------
# physical sanity


def test_vacuum_run_is_silent():
    det = bs.DetectionModel(eta_a=1.0, eta_b=1.0, pair_mean=0.0)
    cfg = quick_cfg(state=bs.make_eberhard_state(0.0),
                    settings=bs.MeasurementSettings(0, 0, 0, 0), det=det)
    for rec in bs.simulate_blocks(cfg):
        assert rec.singles_a == rec.singles_b == rec.coincidences == 0
    stream = bs.simulate_timetags(cfg)
    assert len(stream) == stream.n_trials  # clock markers only


def test_zero_jitter_conjugate_timestamps_coincide():
    # all analyzers at 0 degrees on the maximally entangled state: a pair
    # either passes both or neither, so with zero jitter and unit efficiency
    # the alice and bob timestamp sequences are identical pulse for pulse
    det = bs.DetectionModel(eta_a=1.0, eta_b=1.0, pair_mean=0.01, jitter_sigma_ns=0.0)
    cfg = quick_cfg(det=det, trials_per_block=20_000, n_blocks=1,
                    state=bs.make_eberhard_state(1.0),
                    settings=bs.MeasurementSettings(0, 0, 0, 0))
    stream = bs.simulate_timetags(cfg)
    ta = stream.timestamps[stream.channels == bs.CHANNEL_ALICE]
    tb = stream.timestamps[stream.channels == bs.CHANNEL_BOB]
    assert ta.size > 0
    assert np.array_equal(ta, tb)


def test_statistical_soundness_against_forward_model():
    rng = np.random.default_rng(314)
    for trial in range(20):
        r = rng.uniform(0.05, 1.0)
        angles = rng.uniform(-45, 45, size=4)
        det = bs.DetectionModel(
            eta_a=rng.uniform(0.3, 1.0),
            eta_b=rng.uniform(0.3, 1.0),
            pair_mean=rng.uniform(0.005, 0.1),
            bg_a=rng.uniform(0, 1e-3),
            bg_b=rng.uniform(0, 1e-3),
        )
        state = bs.make_eberhard_state(r)
        sett = bs.MeasurementSettings(*angles)
        cfg = bs.ExperimentConfig(
            state=state, settings=sett, det=det, schedule_kind="cyclic",
            trials_per_block=250_000, n_blocks=4, rng_seed=1000 + trial,
        )
        table = bs.blocks_to_counts(bs.simulate_blocks(cfg))
        pa, pb, pab = bs.expected_rates(state, sett, det)
        n = table.n_trials.astype(float)
        for obs, p in ((table.singles_a, pa), (table.singles_b, pb),
                       (table.coincidences, pab)):
            sd = np.sqrt(np.maximum(p * (1 - p) * n, 1e-30))
            assert np.all(np.abs(obs - p * n) <= 5 * sd + 1e-9)


def test_two_path_consistency_blocks_vs_clock_windows():
    cfg = quick_cfg(trials_per_block=25_000, n_blocks=4, rng_seed=8)
    table_blocks = bs.blocks_to_counts(bs.simulate_blocks(cfg))
    stream = bs.simulate_timetags(cfg)
    table_stream = bs.windowed_counts(stream, bs.WindowPolicy("clock"),
                                      stream.meta["trial_settings"])
    assert table_stream.n_trials.tolist() == table_blocks.n_trials.tolist()
    # same forward model, independent randomness: agreement within 5 sigma
    n = table_blocks.n_trials.astype(float)
    for f in ("singles_a", "singles_b", "coincidences"):
        x = getattr(table_blocks, f).astype(float)
        y = getattr(table_stream, f).astype(float)
        sd = np.sqrt(np.maximum(x + y, 1.0))
        assert np.all(np.abs(x - y) <= 5 * sd)


def test_clamp_diagnostics_counted():
    # absurd jitter larger than the trial period must clamp and be tallied
    det = bs.DetectionModel(
        eta_a=1.0, eta_b=1.0, pair_mean=0.5,
        pulses_per_trial=2, pulse_period_ns=10.0, trial_period_ns=100.0,
        jitter_sigma_ns=400.0,
    )
    cfg = quick_cfg(det=det, trials_per_block=2000, n_blocks=1)
    stream = bs.simulate_timetags(cfg)
    assert stream.meta["clamped_events"] > 0


def test_drift_injection_matches_expected_counts():
    state = bs.make_eberhard_state(0.3)
    sett = bs.MeasurementSettings(4.4, -28.0, -5.4, 25.9)
    det = bs.DetectionModel(eta_a=0.762, eta_b=0.762, pair_mean=0.01,
                            bg_a=4e-5, bg_b=4e-5)
    drift, order = bs.DriftModel(final_fraction=0.82), (0, 3, 1, 2)
    cfg = bs.ExperimentConfig(
        state=state, settings=sett, det=det, schedule_kind="cyclic",
        cyclic_order=order, trials_per_block=200_000, n_blocks=4,
        rng_seed=5, drift=drift,
    )
    sim = bs.blocks_to_counts(bs.simulate_blocks(cfg))
    expected = bs.drifted_counts(state, sett, det, drift, order, trials_per_period=200_000)
    for f in ("singles_a", "singles_b", "coincidences"):
        x = getattr(sim, f).astype(float)
        m = getattr(expected, f)
        sd = np.sqrt(np.maximum(m, 1.0))
        assert np.all(np.abs(x - m) <= 5 * sd), f
    # and with the drift-matched cyclic order the conditional estimator
    # shows the inflation while settings remain deterministic
    assert bs.ch_from_counts(sim, "conditional") > bs.ch_from_counts(sim, "pooled")


def test_randomized_settings_neutralize_drift():
    # same drifting source, but the settings choice is random per block:
    # across seeds the mean estimate must not exceed the drift-free value
    state = bs.make_eberhard_state(0.3)
    sett = bs.MeasurementSettings(4.4, -28.0, -5.4, 25.9)
    det = bs.DetectionModel(eta_a=0.762, eta_b=0.762, pair_mean=0.02,
                            bg_a=9e-5, bg_b=9e-5)
    drift = bs.DriftModel(final_fraction=0.82)
    pa, pb, pab = bs.expected_rates(state, sett, det)
    b_free = (pab[0] + pab[1] + pab[2] - pab[3]) - pa[0] - pb[0]
    values = []
    for seed in range(10):
        cfg = bs.ExperimentConfig(
            state=state, settings=sett, det=det, schedule_kind="random-per-block",
            trials_per_block=12_500, n_blocks=40, rng_seed=7000 + seed, drift=drift,
        )
        values.append(bs.ch_from_counts(bs.blocks_to_counts(bs.simulate_blocks(cfg))))
    mean = float(np.mean(values))
    sigma = float(np.std(values, ddof=1) / np.sqrt(len(values)))
    # randomization leaves at most a rate rescaling: mean tracks the
    # drift-free value and never sits significantly above it
    assert abs(mean - b_free) <= 3 * sigma
    assert mean <= b_free + 3 * sigma


def test_expected_b_positive_at_large_scale(calibrated_reference_model):
    # aggregate estimate converges on the forward model's violation at 1e7 trials
    state, sett, det = calibrated_reference_model
    cfg = bs.ExperimentConfig(
        state=state, settings=sett, det=det, schedule_kind="random-per-block",
        trials_per_block=25_000, n_blocks=400, rng_seed=606,
    )
    blocks = bs.simulate_blocks(cfg)
    table = bs.blocks_to_counts(blocks)
    b = bs.ch_from_counts(table)
    assert b > 0
    # and it sits within 5 sigma of the forward model's expectation, with
    # sigma taken from the run itself by partitioning
    pa, pb, pab = bs.expected_rates(state, sett, det)
    b_model = float((pab[0] + pab[1] + pab[2] - pab[3]) - pa[0] - pb[0])
    # k = 10 keeps 40 random-schedule blocks per partition, enough that
    # every partition is guaranteed to cover all four settings
    sigma = bs.partition_sigma(blocks, k=10)
    assert abs(b - b_model) <= 5 * sigma


# ---------------------------------------------------------------------------
# serialization


def test_blocks_csv_round_trip():
    blocks = bs.simulate_blocks(quick_cfg())
    assert bs.blocks_from_csv(bs.blocks_to_csv(blocks)) == blocks


def test_blocks_csv_malformed():
    with pytest.raises(FormatError):
        bs.blocks_from_csv("1,2,3\n")


@pytest.mark.parametrize("record, message", [
    ((4, 10, 1, 1, 1), "block setting index 4 out of range"),
    ((-1, 10, 1, 1, 1), "block setting index -1 out of range"),
    ((0, 10**30, 1, 1, 1), "outside the 64-bit integer range"),
])
def test_blocks_to_counts_rejects_bad_records(record, message):
    blocks = [bs.BlockRecord(s, 10, 1, 1, 1) for s in range(4)] + [bs.BlockRecord(*record)]
    with pytest.raises(ValidationError, match=message):
        bs.blocks_to_counts(blocks)


def test_config_json_round_trip():
    cfg = quick_cfg(drift=bs.DriftModel(final_fraction=0.5), schedule_kind="cyclic")
    back = bs.ExperimentConfig.from_json(cfg.to_json())
    assert back.to_json() == cfg.to_json()
    # density-matrix states survive the round trip too
    mixed = bs.density_matrix_state(np.diag([0.5, 0, 0, 0.5]).astype(complex))
    cfg2 = quick_cfg(state=mixed)
    back2 = bs.ExperimentConfig.from_json(cfg2.to_json())
    assert np.allclose(back2.state.rho, mixed.rho)


def test_readme_config_example_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    after = readme.split("A minimal simulation config:", 1)[1]
    example = after.split("```json", 1)[1].split("```", 1)[0]
    cfg = bs.ExperimentConfig.from_json(example)
    assert (cfg.n_blocks, cfg.rng_seed, cfg.det.bg_a) == (40, 6, 6.5e-5)


def test_config_validation():
    with pytest.raises(ValidationError):
        quick_cfg(schedule_kind="sometimes")
    with pytest.raises(ValidationError):
        quick_cfg(n_blocks=0)
    with pytest.raises(ValidationError):
        quick_cfg(schedule_kind="file")  # no file given
    for name in ("trials_per_block", "n_blocks"):
        # constructed, never run: 2^63 - 1 blocks of trials cannot be simulated
        assert getattr(quick_cfg(**{name: 2**63 - 1}), name) == 2**63 - 1
        for value in (2**63, 10**20):
            with pytest.raises(ValidationError, match=r"must be in 1\.\.2\^63-1$"):
                quick_cfg(**{name: value})


def test_calibration_recovers_rates():
    state = bs.make_eberhard_state(0.26)
    sett = bs.reference_settings()
    det = bs.DetectionModel(eta_a=0.75, eta_b=0.75, pair_mean=0.04, bg_a=2e-4, bg_b=2e-4)
    pa, _, _ = bs.expected_rates(state, sett, det)
    mu, bg = bs.calibrate_source_rates(
        0.75,
        float(bs.singles_prob(state, sett.a)), float(pa[0]),
        float(bs.singles_prob(state, sett.a_prime)), float(pa[2]),
    )
    assert mu == pytest.approx(0.04, rel=1e-9)
    assert bg == pytest.approx(2e-4, rel=1e-6)


def test_calibration_reference_run_converges(calibrated_reference_model):
    state, sett, det = calibrated_reference_model
    table = bs.reference_run_counts()
    pa, _, _ = bs.expected_rates(state, sett, det)
    observed = table.singles_a / table.n_trials
    assert abs(pa[0] - observed[0]) <= 1e-12
    assert abs(pa[2] - observed[2]) <= 1e-12


def test_calibration_reports_non_convergence():
    # after 200 iterations the high-projection equation is still off by ~8e-6
    with pytest.raises(NumericalError, match="residual"):
        bs.calibrate_source_rates(0.75, 0.3, 0.2, 0.31, 0.2)
