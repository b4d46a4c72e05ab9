"""The CLI's simulate, analyze and extraction steps run in memory that barely grows with the run.

Each step's peak traced allocation (tracemalloc, which numpy reports its
arrays to) is taken at N and at 4N trials, with chunks small enough that
both runs span many of them.  On the timetag path only the settings, one
byte per trial, may grow with the run; in block mode only simulate's
schedule and drift multipliers, 16 bytes per block, and analyze holds
nothing per block.  The Toeplitz extractor holds one transform tile
beyond its inputs, and dire --extract each input once, at one byte per bit.
"""

import contextlib
import io
import tracemalloc

import numpy as np

import bellsim as bs
from bellsim import counting, engine, randomness
from bellsim.cli import main

TRIALS_PER_BLOCK = 1000
N_BLOCKS = 50
MAX_BYTES_PER_TRIAL = 3.0
MAX_BYTES_PER_BLOCK = 32.0
MAX_BYTES_PER_RAW_BIT = 2.5


def _peaks(work, steps):
    """Peak traced bytes of each CLI step, run in order with output to work."""
    peaks = []
    for argv in steps:
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                assert main(argv + ["--out", str(work), "--quiet"]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
    return peaks


def _step_peaks(work, n_blocks):
    """Peak traced bytes of simulate --timetags, then clock and event analyze."""
    cfg = bs.ExperimentConfig(
        state=bs.make_eberhard_state(0.26), settings=bs.reference_settings(),
        det=bs.DetectionModel(pair_mean=0.1, bg_a=0.01, bg_b=0.01),
        trials_per_block=TRIALS_PER_BLOCK, n_blocks=n_blocks, rng_seed=5,
    )
    work.mkdir()
    (work / "config.json").write_text(cfg.to_json())
    steps = [["simulate", str(work / "config.json"), "--timetags"]] + [
        ["analyze", str(work / "timetags.bin"), "--window", window,
         "--settings", str(work / "trial_settings.txt")]
        for window in ("clock", "event:2000")
    ]
    return _peaks(work, steps)


def _adversarial_peaks(work, n_blocks):
    """Peak traced bytes of lhv-demo --what timing, then event analyze: a
    stream with a detection on each arm in every trial."""
    work.mkdir()
    return _peaks(work, [
        ["lhv-demo", "--what", "timing", "--trials", str(n_blocks * TRIALS_PER_BLOCK)],
        ["analyze", str(work / "adversarial_timetags.bin"), "--window", "event:2000",
         "--settings", str(work / "adversarial_settings.txt")],
    ])


def _assert_bounded(steps, peaks, tmp_path, name):
    peaks(tmp_path / f"{name}-warm-up", N_BLOCKS)  # first-call allocations
    small = peaks(tmp_path / f"{name}-n", N_BLOCKS)
    large = peaks(tmp_path / f"{name}-4n", 4 * N_BLOCKS)
    extra_trials = 3 * N_BLOCKS * TRIALS_PER_BLOCK
    for step, a, b in zip(steps, small, large):
        assert (b - a) / extra_trials <= MAX_BYTES_PER_TRIAL, \
            f"{step}: peak {a} -> {b} bytes"


def test_timetag_pipeline_peak_does_not_grow_with_trials(tmp_path, monkeypatch):
    monkeypatch.setattr(counting, "CHUNK_RECORDS", 1 << 12)
    _assert_bounded(("simulate", "analyze clock", "analyze event"), _step_peaks,
                    tmp_path, "simulated")


def test_adversarial_pipeline_peak_does_not_grow_with_trials(tmp_path, monkeypatch):
    monkeypatch.setattr(counting, "CHUNK_RECORDS", 1 << 12)
    _assert_bounded(("lhv-demo timing", "analyze event"), _adversarial_peaks,
                    tmp_path, "adversarial")


def _block_peak(work, n_blocks):
    """Peak traced bytes of block-mode simulate."""
    cfg = bs.ExperimentConfig(
        state=bs.make_eberhard_state(0.26), settings=bs.reference_settings(),
        det=bs.DetectionModel(pair_mean=0.1, bg_a=0.01, bg_b=0.01),
        trials_per_block=25_000, n_blocks=n_blocks, rng_seed=5,
        drift=bs.DriftModel(final_fraction=0.5),
    )
    work.mkdir()
    (work / "config.json").write_text(cfg.to_json())
    return _peaks(work, [["simulate", str(work / "config.json")]])[0]


def test_block_simulate_peak_grows_by_at_most_32_bytes_per_block(tmp_path, monkeypatch):
    # blocks are drawn, written and tallied a batch at a time; from two
    # batches on, the peak holds one batch and what the last one left
    monkeypatch.setattr(engine, "_SEED_BATCH", 256)
    _block_peak(tmp_path / "warm-up", 100)
    small = _block_peak(tmp_path / "n", 1024)
    large = _block_peak(tmp_path / "4n", 4 * 1024)
    assert (large - small) / (3 * 1024) <= MAX_BYTES_PER_BLOCK, f"peak {small} -> {large} bytes"


def _block_analyze_peak(work, n_blocks):
    """Peak traced bytes of analyze, partition sigma included, on the
    blocks.csv of a cyclic block run."""
    cfg = bs.ExperimentConfig(
        state=bs.make_eberhard_state(0.26), settings=bs.reference_settings(),
        det=bs.DetectionModel(pair_mean=0.1, bg_a=0.01, bg_b=0.01),
        trials_per_block=25_000, n_blocks=n_blocks, rng_seed=5, schedule_kind="cyclic",
    )
    work.mkdir()
    (work / "config.json").write_text(cfg.to_json())
    assert main(["simulate", str(work / "config.json"), "--out", str(work), "--quiet"]) == 0
    return _peaks(work, [["analyze", str(work / "blocks.csv")]])[0]


def test_block_analyze_peak_grows_by_at_most_32_bytes_per_block(tmp_path, monkeypatch):
    # blocks.csv is read, parsed and tallied a batch of lines at a time
    monkeypatch.setattr(engine, "_PARSE_LINES", 256)
    _block_analyze_peak(tmp_path / "warm-up", 400)
    small = _block_analyze_peak(tmp_path / "n", 1024)
    large = _block_analyze_peak(tmp_path / "4n", 4 * 1024)
    assert (large - small) / (3 * 1024) <= MAX_BYTES_PER_BLOCK, f"peak {small} -> {large} bytes"


def test_short_extraction_peak_is_one_small_tile():
    # 4364 output bits take 2^16-point transforms however long the input,
    # which is checked in place
    rng = np.random.default_rng(61)
    n, m = 2**22, 4364
    raw = rng.integers(0, 2, n, dtype=np.uint8)
    seed = rng.integers(0, 2, n + m - 1, dtype=np.uint8)
    randomness.hash_extract(raw[:2**18], seed[:2**18 + m - 1], m)  # first-call allocations
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        randomness.hash_extract(raw, seed, m)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20, f"peak {peak / 2**20:.2f} MiB"


def _extract_peak(work, raw_bits):
    """Peak traced bytes of dire --extract of the reference run's 4364 bits
    from raw_bits random raw bits."""
    rng = np.random.default_rng(raw_bits)
    work.mkdir()
    (work / "counts.json").write_text(bs.reference_run_counts().to_json())
    (work / "raw.bin").write_bytes(rng.bytes(raw_bits // 8))
    (work / "seed.bin").write_bytes(rng.bytes(raw_bits // 8 + 4364 // 8 + 1))
    return _peaks(work, [["dire", str(work / "counts.json"), "--seconds", "10800",
                          "--extract", str(work / "raw.bin"),
                          "--seed-file", str(work / "seed.bin")]])[0]


def test_dire_extract_peak_grows_by_at_most_2_5_bytes_per_raw_bit(tmp_path):
    # the raw and seed bits, one byte each per raw bit, and nothing else
    # that grows with the input
    _extract_peak(tmp_path / "warm-up", 2**18)
    small = _extract_peak(tmp_path / "n", 2**20)
    large = _extract_peak(tmp_path / "4n", 2**22)
    assert (large - small) / (3 * 2**20) <= MAX_BYTES_PER_RAW_BIT, \
        f"peak {small} -> {large} bytes"
