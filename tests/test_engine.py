"""Monte-Carlo engine: determinism, statistical soundness, schedules, I/O."""

import dataclasses
import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bellsim as bs
from bellsim import engine
from bellsim.counting import serialize_settings
from bellsim.engine import (
    _BLOCK_STREAM,
    _block_rngs,
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
    assert np.array_equal(bs.simulate_blocks(cfg), bs.simulate_blocks(cfg))


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


@pytest.mark.parametrize("trials_per_block", [1, 2, 3, 7])
def test_chunks_merge_records_that_cross_block_edges(trials_per_block):
    cfg = crossing_cfg(trials_per_block)
    whole, blockwise = whole_run_timetags(cfg)
    # some records sort into a neighbouring block's time range
    assert not np.array_equal(blockwise, whole.timestamps)
    # and some detections sit exactly on a block's floor, one period before
    # its first trial, where the previous block's last clock mark is
    floors = (np.arange(1, cfg.n_blocks) * trials_per_block - 1) * int(cfg.det.trial_period_ns)
    assert np.isin(whole.timestamps[whole.channels != bs.CHANNEL_CLOCK], floors).any()
    chunks = list(timetag_chunks(cfg))
    stream = bs.simulate_timetags(cfg)
    assert stream == whole
    if trials_per_block in FROZEN_CROSSING:
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


def test_chunks_copy_only_the_blocks_a_record_waits_for(calibrated_reference_model,
                                                       monkeypatch):
    # a chunk is its block's own records, uncopied, unless an earlier block
    # left a record after this block's floor
    state, sett, det = calibrated_reference_model
    cfg = bs.ExperimentConfig(state=state, settings=sett, det=det,
                              schedule_kind="random-per-block", trials_per_block=5,
                              n_blocks=2000, rng_seed=6)
    blocks = []

    def recorded(cfg):
        for block in _timetag_blocks(cfg):
            blocks.append(block[1])
            yield block

    monkeypatch.setattr(engine, "_timetag_blocks", recorded)
    chunks = list(timetag_chunks(cfg))
    period, n = int(round(det.trial_period_ns)), cfg.trials_per_block
    floors = (np.arange(1, cfg.n_blocks) * n - 1) * period
    waited = np.maximum.accumulate([t[-1] for t in blocks])[:-1] > floors
    copied = [not np.shares_memory(chunk.timestamps, t) for chunk, t in zip(chunks, blocks)]
    assert copied == [False, *waited.tolist()]
    assert 0 < sum(copied) < cfg.n_blocks / 50
    assert bs.TimetagStream(np.concatenate([c.timestamps for c in chunks]),
                            np.concatenate([c.channels for c in chunks])) == \
        whole_run_timetags(cfg)[0]


def test_seed_changes_output():
    a = bs.simulate_blocks(quick_cfg(rng_seed=1))
    b = bs.simulate_blocks(quick_cfg(rng_seed=2))
    assert not np.array_equal(a, b)


def test_cyclic_prefix_blocks_match_shorter_run():
    # per-block generators: block b depends on (seed, b) only
    long_run = bs.simulate_blocks(quick_cfg(schedule_kind="cyclic", n_blocks=12))
    short_run = bs.simulate_blocks(quick_cfg(schedule_kind="cyclic", n_blocks=5))
    assert np.array_equal(long_run[:5], short_run)


# ---------------------------------------------------------------------------
# per-block generators


def assert_named_generators(rngs, seed, start, stop):
    rngs = list(rngs)
    assert len(rngs) == stop - start
    for b, rng in zip(range(start, stop), rngs):
        ref = _rng(seed, _BLOCK_STREAM, b)
        assert rng.bit_generator.state == ref.bit_generator.state, b
        assert rng.integers(0, 2**63, size=3).tolist() == ref.integers(0, 2**63, size=3).tolist()
        assert rng.random() == ref.random()


# a seed of one or two 32-bit words, blocks of one word, across 2^32, of two
# words up to the largest index
@pytest.mark.parametrize("start, stop", [(0, 50), (2**32 - 3, 2**32 + 3), (2**63 - 4, 2**63)])
@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 - 1])
def test_block_rngs_equal_named_generators(seed, start, stop):
    assert_named_generators(_block_rngs(seed, start, stop), seed, start, stop)


@pytest.mark.parametrize("seed", [6, 2**63 + 12345])
def test_block_rngs_span_several_batches(monkeypatch, seed):
    monkeypatch.setattr(engine, "_SEED_BATCH", 3)
    # 2^32 falls inside the third batch
    start, stop = 2**32 - 7, 2**32 + 4
    assert_named_generators(_block_rngs(seed, start, stop), seed, start, stop)
    assert_named_generators(_block_rngs(seed, 0, 10), seed, 0, 10)


def test_package_import_leaves_numpy_random_unimported():
    # numpy 2 imports numpy.random on first use; the design commands never use it
    code = ("import sys, numpy; before = 'numpy.random' in sys.modules; import bellsim; "
            "print(before, 'numpy.random' in sys.modules)")
    package_dir = str(Path(bs.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": package_dir}).stdout.split()
    assert out[1] == out[0]


@pytest.mark.parametrize("constant", ["_MULT_A", "_INIT_B", "_MIX_MULT_R"])
def test_block_rngs_check_their_hash_against_seed_sequence(monkeypatch, constant):
    monkeypatch.setattr(engine, constant, getattr(engine, constant) ^ 1)
    with pytest.raises(NumericalError, match=r"block 5's generator differs"):
        next(_block_rngs(6, 5, 9))


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
            (combo, n, int(click_a.sum()), int(click_b.sum()), int(coinc.sum()))
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
        assert rec[2] == rec[3] == rec[4] == 0  # singles_a, singles_b, coincidences
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


def test_blocks_csv_round_trip(monkeypatch):
    cfg = quick_cfg()
    # blocks_to_csv ends its lines in CRLF, which np.loadtxt reads whole
    monkeypatch.setattr(engine, "_located_batch", mock.Mock(side_effect=AssertionError))
    blocks = bs.blocks_from_csv(bs.blocks_to_csv(bs.simulate_blocks(cfg)))
    assert blocks.dtype == np.int64 and blocks.shape == (cfg.n_blocks, 5)
    assert np.array_equal(blocks, bs.simulate_blocks(cfg))


@pytest.mark.parametrize("text", ["", ",".join(engine._BLOCK_HEADER) + "\n"],
                         ids=["empty", "header-only"])
def test_blocks_csv_without_rows_is_empty_array(text):
    blocks = bs.blocks_from_csv(text)
    assert blocks.dtype == np.int64 and blocks.shape == (0, 5)


def test_blocks_csv_malformed():
    with pytest.raises(FormatError):
        bs.blocks_from_csv("1,2,3\n")
    # a CR ends a line only before an LF, on the text's last line too
    with pytest.raises(FormatError, match=r"'0\\r' is not ASCII digits \(at record/line 2\)"):
        bs.blocks_from_csv("0,1,0,0,0\r\n0,1,0,0,0\r")


# ---------------------------------------------------------------------------
# blocks.csv: the batch parser reads exactly what a row-by-row reader of
# the format reads

_HEADER = ",".join(engine._BLOCK_HEADER)


def _row_by_row(text):
    """The rows of blocks.csv text by the format's rules, read a line at a
    time, or the number of its first line that breaks them."""
    *ended, last = text.split("\n")
    lines = [line.removesuffix("\r") for line in ended] + ([last] if last else [])
    rows = []
    for lineno, line in enumerate(lines, 1):
        fields = line.split(",")
        if lineno == 1 and line == _HEADER:
            continue
        if len(fields) != 5 or not all(f.isascii() and f.isdigit() for f in fields):
            return lineno
        s, n, a, b, c = row = [int(f.lstrip("0") or 0) for f in fields]
        if max(row) >= 2**63 or s > 3 or max(a, b, c) > n or c > min(a, b) or a + b - c > n:
            return lineno
        rows.append(row)
    return rows


def _read_outcome(text):
    """blocks_from_csv's rows, or the line its FormatError names."""
    try:
        blocks = bs.blocks_from_csv(text)
    except FormatError as exc:
        return exc.position
    assert blocks.dtype == np.int64 and blocks.shape[1:] == (5,)
    return blocks.tolist()


# lines that a looser reader (np.loadtxt, or the csv module and int())
# would read as a row; of these, the format reads only CRLF and leading zeros
PARSER_CASES = {
    "spaces": " 1, 2 ,1,1,1",
    "tab": "1,\t2,1,1,1",
    "plus": "+1,2,1,1,1",
    "minus-zero": "-0,2,1,1,1",
    "decimal": "1,5.0,1,1,1",
    "exponent": "1,1e3,1,1,1",
    "underscore": "1,1_0,1,1,1",
    "comment-line": "# a comment",
    "trailing-comment": "1,2,1,1,1 #",
    "empty-field": "1,,1,1,1",
    "trailing-comma": "1,2,1,1,1,",
    "quoted": '"1",2,1,1,1',
    "quoted-two-lines": '"1\n",2,1,1,1',
    "quoted-two-lines-then-short-row": '"1\n",2,1,1,1\n1,2,3',
    "whitespace-line": "  \t ",
    "blank-line": "",
    "crlf": "1,2,1,1,1\r",
    "bare-cr": "1,2,1,1,1\r2,2,1,1,1",
    "blank-and-bare-cr": "\n1,2,1,1,1\r2,2,1,1,1",
    "second-header": _HEADER,
    "arabic-indic-digit": "\u0661,2,1,1,1",
    "2^63": f"1,{2**63},1,1,1",
    "2^63-singles": f"1,5,{2**63},1,1",
    "file-separator": "1,\x1c2,1,1,1",
    "latin-letter": "1,\u01fe,1,1,1",
    "5000-leading-zeros": "1," + "0" * 5000 + "2,1,1,1",
    "setting-4": "4,2,1,1,1",
    "coincidences-over-trials": "1,2,1,1,3",
    "coincidences-over-singles": "1,10,1,3,2",
    "clicked-trials-over-trials": "1,10,6,6,1",
    "field-over-csv-limit": "1," + " " * 200_000 + "2,1,1,1",
    "cr-inside-row": "1,5\r2,1,1,1",
}
_GOOD_ROWS = ["0,10,1,2,0", "1,10,3,1,1", "2,10,0,0,0", "3,10,2,2,2"]
# with 4 lines a batch: the case alone, on line 2 (first batch, after the
# header), on line 8 (last of the second batch, before the third) and on
# line 10 (third batch); and the first line of the case's batch
_PLACES = {"alone": (0, 1), "first-batch": (2, 2), "batch-edge": (8, 5), "third-batch": (10, 9)}


def _recorded_starts(monkeypatch):
    """The first line of each batch that is read line by line."""
    starts = []
    located = engine._located_batch

    def spy(lines, start):
        starts.append(start)
        return located(lines, start)

    monkeypatch.setattr(engine, "_located_batch", spy)
    return starts


@pytest.mark.parametrize("place", sorted(_PLACES))
@pytest.mark.parametrize("line", PARSER_CASES.values(), ids=PARSER_CASES)
def test_batch_parser_reads_what_the_row_reader_reads(line, place, monkeypatch):
    lineno, batch_start = _PLACES[place]
    lines = [_HEADER, *_GOOD_ROWS * 3][:lineno - 1] + [line] + _GOOD_ROWS if lineno else [line]
    text = "\n".join(lines) + "\n"
    want = _row_by_row(text)
    # a line the format refuses is named, a quoted field's first line included
    assert isinstance(want, list) or want == max(lineno, 1)
    monkeypatch.setattr(engine, "_PARSE_LINES", 4)
    starts = _recorded_starts(monkeypatch)
    assert _read_outcome(text) == want
    # every batch before the case's, and each batch the format reads, went
    # through np.loadtxt alone
    assert starts == ([] if isinstance(want, list) else [batch_start])


def test_batch_parser_reads_clean_batches_without_the_row_reader(monkeypatch):
    # the header and 23 rows, LF and CRLF ends mixed, in six batches of 4 lines
    lines = [_HEADER, *(_GOOD_ROWS * 6)[:23]]
    text = "".join(line + ("\r\n" if i % 3 else "\n") for i, line in enumerate(lines))
    monkeypatch.setattr(engine, "_PARSE_LINES", 4)
    starts = _recorded_starts(monkeypatch)
    assert bs.blocks_from_csv(text).tolist() == _row_by_row(text)
    assert len(_row_by_row(text)) == 23 and starts == []


# rows of counts up to their trials, some of which break the count rules
_ROW = st.tuples(st.integers(0, 3), st.integers(0, 9), st.integers(0, 9),
                       st.integers(0, 9), st.integers(0, 9)).map(
    lambda r: f"{r[0]},{r[1]},{r[2] % (r[1] + 1)},{r[3] % (r[1] + 1)},{r[4] % (r[1] + 1)}")
_LINE = st.one_of(_ROW, st.text(alphabet="0123456789,\r\n", max_size=14),
                  st.just(_HEADER))


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(_LINE, max_size=12), batch=st.integers(1, 5),
       end=st.sampled_from(["", "\n", "\r\n", "\r"]))
def test_batch_parser_agrees_with_the_row_reader_on_fuzzed_text(lines, batch, end):
    text = "\n".join(lines) + end
    starts = []
    located = engine._located_batch
    with mock.patch.object(engine, "_PARSE_LINES", batch), \
            mock.patch.object(engine, "_located_batch",
                              lambda lines, start: starts.append(start) or located(lines, start)):
        got = _read_outcome(text)
    want = _row_by_row(text)
    assert got == want
    # only a batch with a line the format refuses is read line by line
    assert len(starts) == (not isinstance(want, list))


@pytest.mark.parametrize("record, message", [
    ((4, 10, 1, 1, 1), "block setting index 4 out of range"),
    ((-1, 10, 1, 1, 1), "block setting index -1 out of range"),
    ((0, 10**30, 1, 1, 1), "outside the 64-bit integer range"),
])
def test_blocks_to_counts_rejects_bad_records(record, message):
    blocks = [(s, 10, 1, 1, 1) for s in range(4)] + [record]
    with pytest.raises(ValidationError, match=message):
        bs.blocks_to_counts(blocks)


@pytest.mark.parametrize("tally", [
    bs.blocks_to_counts,
    lambda blocks: bs.partition_values(blocks, k=1),
    lambda blocks: bs.violations_by_partition(blocks, [1]),
], ids=["counts", "partitions", "violations"])
@pytest.mark.parametrize("record, message", [
    ((0.5, 10.7, 1.9, 1, 1), "block counts must be integers"),
    ((0, 10.5, 1, 1, 1), "block counts must be integers"),
    ((0, float("nan"), 1, 1, 1), "rows of 5 integers: cannot convert float NaN"),
], ids=["setting", "trials", "nan"])
def test_non_integer_block_fields_are_rejected(tally, record, message):
    # (0.5, 10.7, 1.9, 1, 1) was counted as 10 trials under setting pair 0
    blocks = [(s, 10, 1, 1, 1) for s in range(4)] + [record]
    with pytest.raises(ValidationError, match=message):
        tally(blocks)
    with pytest.raises(ValidationError, match="block counts must be integers"):
        tally(np.array(blocks))


def test_whole_float_and_narrow_integer_blocks_are_read_as_int64():
    rows = [(s, 10, 1, 1, 1) for s in range(4)]
    want = engine.block_array(rows)
    for blocks in (np.array(rows, dtype=float), np.array(rows, dtype=np.uint8)):
        got = engine.block_array(blocks)
        assert got.dtype == np.int64 and np.array_equal(got, want)


# three blocks of 2^63-1 trials per setting pair: each pair's int64 total
# would wrap to 2^63-3
_INT64_MAX_BLOCKS = np.array([(s, 2**63 - 1, 0, 0, 0) for s in range(4) for _ in range(3)])


@pytest.mark.parametrize("tally", [
    bs.blocks_to_counts,
    lambda blocks: bs.partition_values(blocks, k=2),
    lambda blocks: engine._write_block_batches(io.StringIO(), [blocks]),
    # one block per pair in each batch, so only the running tally passes 2^63-1
    lambda blocks: engine._write_block_batches(io.StringIO(),
                                               [blocks[i::3] for i in range(3)]),
], ids=["counts", "partitions", "csv-one-batch", "csv-running-tally"])
def test_block_totals_beyond_64_bits_are_rejected(tally):
    with pytest.raises(ValidationError, match="64-bit integer range"):
        tally(_INT64_MAX_BLOCKS)


@pytest.mark.parametrize("blocks", [
    [(s, 10, 1, 1) for s in range(4)],
    [(s, 10, 1, 1, 1) for s in range(4)] + [(0, 10, 1, 1)],
    np.zeros((4, 6), dtype=np.int64),
    np.zeros(5, dtype=np.int64),
], ids=["4-fields", "ragged", "6-columns", "1-d"])
def test_block_array_rejects_rows_not_of_5_fields(blocks):
    with pytest.raises(ValidationError, match="rows of 5 integers"):
        engine.block_array(blocks)


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
