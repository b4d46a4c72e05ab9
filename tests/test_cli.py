"""Command-line interface: outputs, determinism, exit codes."""

import contextlib
import dataclasses
import hashlib
import io
import json
import runpy
import struct
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import bellsim as bs
from bellsim import cli, counting, engine
from bellsim.cli import main

from conftest import matmul_toeplitz


@pytest.fixture()
def config_path(tmp_path):
    cfg = bs.ExperimentConfig(
        state=bs.make_eberhard_state(0.26),
        settings=bs.reference_settings(),
        det=bs.DetectionModel(),
        trials_per_block=2000,
        n_blocks=8,
        rng_seed=77,
    )
    path = tmp_path / "config.json"
    path.write_text(cfg.to_json())
    return path


def test_simulate_writes_outputs_and_manifest(config_path, tmp_path):
    out = tmp_path / "run"
    assert main(["simulate", str(config_path), "--out", str(out), "--quiet"]) == 0
    assert (out / "blocks.csv").exists()
    assert (out / "counts.json").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["subcommand"] == "simulate"
    assert manifest["tool_version"] == bs.__version__
    assert any(p.endswith("blocks.csv") for p in manifest["outputs"])


def test_simulate_determinism(config_path, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    main(["simulate", str(config_path), "--out", str(out1), "--quiet"])
    main(["simulate", str(config_path), "--out", str(out2), "--quiet"])
    assert (out1 / "blocks.csv").read_bytes() == (out2 / "blocks.csv").read_bytes()


def test_simulate_timetags_then_analyze_clock(config_path, tmp_path):
    out = tmp_path / "run"
    assert main(["simulate", str(config_path), "--timetags", "--out", str(out),
                 "--quiet"]) == 0
    assert (out / "timetags.bin").exists()
    code = main([
        "analyze", str(out / "timetags.bin"), "--window", "clock",
        "--settings", str(out / "trial_settings.txt"), "--out", str(out), "--quiet",
    ])
    assert code == 0
    doc = json.loads((out / "bell_result.json").read_text())
    assert "B" in doc and "B_prime" in doc


# Digests of the settings files written under version 0.2.0.
FROZEN_SETTINGS = {
    "trial_settings.txt": "70e7153b86de43333404a6d63e40dc28533226be22445f32f4d0efecd087cbfc",
    "adversarial_settings.txt":
        "152c385cd6f5108599b623e62792ce76255ecc41b0d0cbf9712cb2d34b5bb9e4",
}


@pytest.mark.parametrize("window", ["clock", "event:2000"])
def test_out_of_range_settings_exit_2_before_reading_the_stream(window, config_path, tmp_path,
                                                                 monkeypatch, capsys):
    assert main(["simulate", str(config_path), "--timetags", "--out", str(tmp_path),
                 "--quiet"]) == 0
    settings = (tmp_path / "trial_settings.txt").read_bytes()
    bad = tmp_path / "bad_settings.txt"
    bad.write_bytes(settings[:-4] + b"7\n" + settings[-2:])
    chunks = mock.Mock(wraps=counting.TimetagFile.chunks)
    monkeypatch.setattr(counting.TimetagFile, "chunks", lambda self: chunks(self))
    for path, code, reads in ((bad, 2, 0), (tmp_path / "trial_settings.txt", 0, 1)):
        assert main(["analyze", str(tmp_path / "timetags.bin"), "--window", window,
                     "--settings", str(path), "--out", str(tmp_path), "--quiet"]) == code
        assert chunks.call_count == reads
    assert "0..3" in capsys.readouterr().err


def test_settings_files_frozen(config_path, tmp_path):
    assert main(["simulate", str(config_path), "--timetags", "--out", str(tmp_path),
                 "--quiet"]) == 0
    assert main(["lhv-demo", "--what", "timing", "--trials", "2000", "--seed", "4",
                 "--out", str(tmp_path), "--quiet"]) == 0
    for name, digest in FROZEN_SETTINGS.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


def test_analyze_counts_json(tmp_path, capsys):
    counts = tmp_path / "counts.json"
    counts.write_text(bs.reference_run_counts().to_json())
    assert main(["analyze", str(counts), "--out", str(tmp_path),
                 "--sigma", "7.0e-6", "--quiet"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["B"] == pytest.approx(5.4e-5, abs=0.1e-5)
    assert doc["significance"] == pytest.approx(7.7, abs=0.1)


def test_analyze_event_window_warns_on_adversarial_stream(tmp_path, capsys):
    out = tmp_path / "demo"
    assert main(["lhv-demo", "--what", "timing", "--trials", "2000",
                 "--seed", "4", "--out", str(out), "--quiet"]) == 0
    code = main([
        "analyze", str(out / "adversarial_timetags.bin"), "--window", "event:2000",
        "--settings", str(out / "adversarial_settings.txt"), "--out", str(out),
        "--quiet",
    ])
    assert code == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["B"] == pytest.approx(1.0, abs=1e-12)
    assert "vulnerable" in captured.err
    # clock windowing on the same stream shows no violation
    main([
        "analyze", str(out / "adversarial_timetags.bin"), "--window", "clock",
        "--settings", str(out / "adversarial_settings.txt"), "--out", str(out),
        "--quiet",
    ])
    assert json.loads(capsys.readouterr().out)["B"] <= 0.0


def test_optimize_reference_angles(tmp_path, capsys):
    assert main(["optimize", "--eta", "1", "--bg", "0", "--fix-r", "1",
                 "--out", str(tmp_path), "--quiet"]) == 0
    doc = json.loads(capsys.readouterr().out)
    angles = sorted(abs(v) for v in doc["settings"].values())
    assert angles[0] == pytest.approx(11.25, abs=0.1)
    assert angles[-1] == pytest.approx(33.75, abs=0.1)


def test_sweep_writes_csv(tmp_path):
    assert main(["sweep", "--eta", "0.75", "--bg", "6.5e-5", "--pair-mean", "0.033",
                 "--r-grid", "0.2:0.3:0.05", "--out", str(tmp_path), "--quiet"]) == 0
    lines = (tmp_path / "bprime_sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "r,B_prime,a,a_prime,b,b_prime"
    assert len(lines) == 4


def test_sweep_through_the_product_state(tmp_path):
    # at r = 0 some grid angles give a zero singles sum and an undefined B'
    assert main(["sweep", "--eta", "0.75", "--r-grid", "0:1:0.1",
                 "--out", str(tmp_path), "--quiet"]) == 0
    rows = (tmp_path / "bprime_sweep.csv").read_text().strip().splitlines()[1:]
    assert len(rows) == 11
    assert rows[0].startswith("0,0.75384332,")


@pytest.mark.parametrize("grid, rs", [("1:20000:19999", ["1", "20000"]),
                                      ("20000:20000:1", ["20000"])])
def test_sweep_grid_keeps_its_stop_above_1e4(grid, rs, tmp_path):
    # the stop's padding must not vanish below the float spacing at 2e4
    assert main(["sweep", "--eta", "0.75", "--r-grid", grid,
                 "--out", str(tmp_path), "--quiet"]) == 0
    rows = (tmp_path / "bprime_sweep.csv").read_text().strip().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == rs


def _reject_constant(name):
    raise ValueError(f"not JSON: {name}")


@pytest.mark.parametrize("objective", ["b", "b-over-sigma"])
def test_optimize_undefined_ratio_is_null(objective, tmp_path, capsys):
    # the product state's optimum has a zero singles sum, so B' = 0/0
    assert main(["optimize", "--eta", "0.8", "--fix-r", "0", "--objective", objective,
                 "--out", str(tmp_path), "--quiet"]) == 0
    doc = json.loads((tmp_path / "optimization.json").read_text(),
                     parse_constant=_reject_constant)
    assert doc["predicted_B"] == 0.0
    assert doc["predicted_B_prime"] is None
    assert json.loads(capsys.readouterr().out, parse_constant=_reject_constant) == doc


def test_sweep_subthreshold_reports_no_violation(tmp_path, capsys):
    assert main(["sweep", "--eta", "0.5", "--bg", "0", "--pair-mean", "1.0",
                 "--model", "linear", "--r-grid", "0.2:1.0:0.2",
                 "--out", str(tmp_path)]) == 0
    assert "no violation" in capsys.readouterr().out


def test_lhv_demo_tables(tmp_path):
    assert main(["lhv-demo", "--what", "tables", "--out", str(tmp_path),
                 "--quiet"]) == 0
    doc = json.loads((tmp_path / "instruction_ideal_counts.json").read_text())
    assert doc["ab"]["coincidences"] == 427
    assert doc["a'b'"]["coincidences"] == 73


def test_dire_command(tmp_path, capsys):
    counts = tmp_path / "counts.json"
    counts.write_text(bs.reference_run_counts().to_json())
    assert main(["dire", str(counts), "--seconds", "10800",
                 "--out", str(tmp_path), "--quiet"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["rate_bits_per_s"] == pytest.approx(0.4, abs=0.02)
    assert main(["dire", str(counts), "--seconds", "10800", "--policy",
                 "trevisan-sized", "--epsilon", "1e-9", "--out", str(tmp_path),
                 "--quiet"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["seed_bits"] > 0


def _dire_extract(tmp_path, counts, raw, seed):
    """Exit code of dire --extract on the counts table and bit files."""
    (tmp_path / "counts.json").write_text(counts.to_json())
    (tmp_path / "raw.bin").write_bytes(raw)
    (tmp_path / "seed.bin").write_bytes(seed)
    return main(["dire", str(tmp_path / "counts.json"), "--seconds", "10800",
                 "--extract", str(tmp_path / "raw.bin"), "--seed-file", str(tmp_path / "seed.bin"),
                 "--out", str(tmp_path), "--quiet"])


def _extracted(tmp_path, raw, seed):
    """(extracted.bits, hash_extract of the bit files to the report's length)."""
    report = json.loads((tmp_path / "dire_report.json").read_text())
    raw_bits, seed_bits = bs.unpack_bits(raw), bs.unpack_bits(seed)
    m = min(report["extractable_bits"], raw_bits.size)
    return (bs.read_extracted_bits(str(tmp_path / "extracted.bits")),
            bs.hash_extract(raw_bits, seed_bits, m), raw_bits, seed_bits, m)


def test_dire_extraction_path(tmp_path, capsys):
    counts = bs.reference_run_counts()
    raw = bytes(range(256)) * 8  # 16384 raw bits
    # the Toeplitz construction needs 16384 + 4364 - 1 = 20747 seed bits
    assert _dire_extract(tmp_path, counts, raw, b"\xa5" * 2000) == 2  # 16000 bits: too short
    seed = b"\xa5" * 2600  # 20800 bits: enough
    assert _dire_extract(tmp_path, counts, raw, seed) == 0
    bits, want, *_, m = _extracted(tmp_path, raw, seed)
    assert m == 4364 and np.array_equal(bits, want)
    # a tenth of the run certifies 438 bits, whose 65 536-point tiles take
    # 65 099 raw bits each: three tiles, the last of 5 802 bits, and four
    # tiles, the last of 44 711 bits, against the dense construction
    tenth = bs.CountsTable(*(np.asarray(field) // 10 for field in (
        counts.n_trials, counts.singles_a, counts.singles_b, counts.coincidences)))
    rng = np.random.default_rng(59)
    for raw_bytes in (17_000, 30_001):
        raw, seed = rng.bytes(raw_bytes), rng.bytes(raw_bytes + 55)
        assert _dire_extract(tmp_path, tenth, raw, seed) == 0
        bits, want, raw_bits, seed_bits, m = _extracted(tmp_path, raw, seed)
        assert m == 438 and np.array_equal(bits, want)
        assert np.array_equal(bits, matmul_toeplitz(raw_bits, seed_bits, m))


def test_exit_code_missing_file(tmp_path):
    assert main(["simulate", str(tmp_path / "nope.json"), "--quiet"]) == 3


def test_exit_code_validation(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["analyze", str(bad), "--quiet", "--out", str(tmp_path)]) == 2


def test_malformed_event_window_is_exit_2(tmp_path, capsys):
    out = tmp_path / "demo"
    assert main(["lhv-demo", "--what", "timing", "--trials", "200",
                 "--out", str(out), "--quiet"]) == 0
    code = main(["analyze", str(out / "adversarial_timetags.bin"), "--window", "event:abc",
                 "--settings", str(out / "adversarial_settings.txt"), "--out", str(out),
                 "--quiet"])
    assert code == 2
    assert "event:abc" in capsys.readouterr().err


@pytest.mark.parametrize("window", ["event:inf", "event:1e400", "event:nan"])
def test_non_finite_event_window_is_exit_2(window, tmp_path, capsys):
    # rejected when the policy is built, before the stream is read
    out = tmp_path / "demo"
    assert main(["lhv-demo", "--what", "timing", "--trials", "200",
                 "--out", str(out), "--quiet"]) == 0
    code = main(["analyze", str(out / "adversarial_timetags.bin"), "--window", window,
                 "--settings", str(out / "adversarial_settings.txt"), "--out", str(out),
                 "--quiet"])
    assert code == 2
    assert "finite" in capsys.readouterr().err


def test_non_integer_settings_line_is_exit_2(tmp_path, capsys):
    out = tmp_path / "demo"
    assert main(["lhv-demo", "--what", "timing", "--trials", "200",
                 "--out", str(out), "--quiet"]) == 0
    settings = out / "adversarial_settings.txt"
    lines = settings.read_text().splitlines()
    lines[6] = "2x"
    settings.write_text("\n".join(lines) + "\n")
    code = main(["analyze", str(out / "adversarial_timetags.bin"), "--window", "clock",
                 "--settings", str(settings), "--out", str(out), "--quiet"])
    assert code == 2
    err = capsys.readouterr().err
    assert "'2x'" in err and "line 7" in err


def _valid_config():
    return bs.ExperimentConfig(
        state=bs.make_eberhard_state(0.26), settings=bs.reference_settings(),
        trials_per_block=100, n_blocks=4,
    ).to_json_dict()


def test_non_integer_schedule_token_is_exit_2(tmp_path, capsys):
    schedule = tmp_path / "schedule.txt"
    schedule.write_text("0 1\n2 x3\n")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**_valid_config(), "schedule_kind": "file",
                                  "schedule_file": str(schedule)}))
    assert main(["simulate", str(config), "--out", str(tmp_path), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "'x3'" in err and "line 2" in err


TIMETAG_GEOMETRY_ERRORS = {
    "trial-period-nan": {"trial_period_ns": float("nan")},
    "trial-period-inf": {"trial_period_ns": float("inf")},
    "trial-period-1e300": {"trial_period_ns": 1e300},
    "trial-period-below-1ns": {"trial_period_ns": 0.3, "pulses_per_trial": 1,
                               "pulse_period_ns": 0.1},
    "pair-mean-1e308": {"pair_mean": 1e308},
    "jitter-nan": {"jitter_sigma_ns": float("nan")},
    "pulse-period-nan": {"pulse_period_ns": float("nan")},
}


def test_oversized_timetag_block_is_exit_2(tmp_path, capsys):
    doc = _valid_config()
    doc.update(trials_per_block=10**12, n_blocks=1, det={**doc["det"], "pair_mean": 0.0})
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    assert main(["simulate", str(config), "--timetags", "--out", str(tmp_path),
                 "--quiet"]) == 2
    assert "trials per block" in capsys.readouterr().err


def test_failed_timetag_write_leaves_no_files(tmp_path):
    doc = _valid_config()
    doc.update(trials_per_block=10**12, n_blocks=1, det={**doc["det"], "pair_mean": 0.0})
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["simulate", str(config), "--timetags", "--out", str(out), "--quiet"]) == 2
    assert not (out / "timetags.bin").exists()
    assert not (out / "trial_settings.txt").exists()


SIMULATE_MODES = {"blocks": [], "timetags": ["--timetags"]}


@pytest.mark.parametrize("mode", sorted(SIMULATE_MODES))
def test_block_count_no_array_can_hold_is_exit_2(mode, tmp_path, capsys):
    # numpy refuses an array of 2^62 entries without allocating it
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**_valid_config(), "n_blocks": 2**62}))
    out = tmp_path / "out"
    assert main(["simulate", str(config), *SIMULATE_MODES[mode], "--out", str(out),
                 "--quiet"]) == 2
    assert "4611686018427387904 blocks do not fit in memory" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def _out_of_memory(*args, **kwargs):
    raise MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000000000000,)")


@pytest.mark.parametrize("mode", sorted(SIMULATE_MODES))
@pytest.mark.parametrize("array", ["schedule", "drift"])
def test_block_arrays_out_of_memory_is_exit_2(array, mode, tmp_path, capsys, monkeypatch):
    if array == "schedule":
        monkeypatch.setattr(engine, "setting_schedule", _out_of_memory)
    else:
        monkeypatch.setattr(bs.DriftModel, "multipliers", _out_of_memory)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**_valid_config(), "drift": {"final_fraction": 0.5}}))
    out = tmp_path / "out"
    assert main(["simulate", str(config), *SIMULATE_MODES[mode], "--out", str(out),
                 "--quiet"]) == 2
    assert "4 blocks do not fit in memory: Unable to allocate" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("case", sorted(TIMETAG_GEOMETRY_ERRORS))
def test_timetag_geometry_out_of_range_is_exit_2(case, tmp_path, capsys):
    doc = _valid_config()
    doc["det"] = {**doc["det"], **TIMETAG_GEOMETRY_ERRORS[case]}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    assert main(["simulate", str(config), "--timetags", "--out", str(tmp_path),
                 "--quiet"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("seed_bytes", [None, b"\xa5\x5a"], ids=["no-seed-file", "16-bit-seed"])
def test_failed_dire_extraction_leaves_no_output(seed_bytes, tmp_path, reference_counts):
    counts = tmp_path / "counts.json"
    counts.write_text(reference_counts.to_json())
    raw = tmp_path / "raw.bin"
    raw.write_bytes(bytes(range(256)) * 8)
    argv = ["dire", str(counts), "--seconds", "10800", "--extract", str(raw)]
    if seed_bytes is not None:  # a 16-bit seed file: far too short
        seed = tmp_path / "seed.bin"
        seed.write_bytes(seed_bytes)
        argv += ["--seed-file", str(seed)]
    out = tmp_path / "out"
    out.mkdir()
    assert main([*argv, "--out", str(out), "--quiet"]) == 2
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("given, missing", [("--seed-file", "--extract"),
                                            ("--extract", "--seed-file")])
def test_dire_bit_file_without_its_pair_is_exit_2(given, missing, tmp_path, capsys,
                                                  reference_counts):
    # the one file given does not exist: the pair is checked before it is read
    counts = tmp_path / "counts.json"
    counts.write_text(reference_counts.to_json())
    out = tmp_path / "out"
    out.mkdir()
    assert main(["dire", str(counts), "--seconds", "10", given, str(tmp_path / "absent.bin"),
                 "--out", str(out), "--quiet"]) == 2
    assert f"error: {given} requires {missing}" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("seconds", ["nan", "inf"])
def test_dire_non_finite_seconds_is_exit_2(seconds, tmp_path, reference_counts):
    counts = tmp_path / "counts.json"
    counts.write_text(reference_counts.to_json())
    assert main(["dire", str(counts), "--seconds", seconds, "--out", str(tmp_path),
                 "--quiet"]) == 2
    assert not (tmp_path / "dire_report.json").exists()


def test_dire_of_a_superquantum_table_is_exit_2(tmp_path, capsys):
    # coincidences 500/500/500/0 in 1000 trials with 500 singles per arm give
    # B = 0.5: dire rejects it and writes nothing, while analyze reports it
    counts = tmp_path / "counts.json"
    counts.write_text(bs.CountsTable(np.full(4, 1000), np.full(4, 500), np.full(4, 500),
                                     np.array([500, 500, 500, 0])).to_json())
    out = tmp_path / "out"
    out.mkdir()
    assert main(["dire", str(counts), "--seconds", "10", "--out", str(out), "--quiet"]) == 2
    assert "B = 0.5 exceeds the quantum maximum 0.207107" in capsys.readouterr().err
    assert list(out.iterdir()) == []
    assert main(["analyze", str(counts), "--out", str(out), "--quiet"]) == 0
    assert json.loads(capsys.readouterr().out)["B"] == pytest.approx(0.5)


_AB_TRIALS = int(bs.reference_run_counts().n_trials[0])


def _reference_counts_with(label, name, value):
    doc = bs.reference_run_counts().to_json_dict()
    doc[label][name] = value
    return doc


def _config_section_with(section, name, value):
    doc = _valid_config()
    doc[section] = {**doc[section], name: value}
    return doc


def _config_without_b_prime():
    doc = _valid_config()
    del doc["settings"]["b_prime"]
    return doc


MALFORMED_INPUTS = {
    "config-unknown-det-field": ("simulate", lambda: {**_valid_config(), "det": {"foo": 1}}),
    "config-top-level-array": ("simulate", lambda: [_valid_config()]),
    "config-string-n-blocks": ("simulate", lambda: {**_valid_config(), "n_blocks": "4"}),
    "config-unknown-top-level-field": ("simulate", lambda: {**_valid_config(), "n_block": 3}),
    "config-unknown-state-field": ("simulate", lambda: _config_section_with("state", "rho", [])),
    "config-unknown-settings-field": (
        "simulate", lambda: _config_section_with("settings", "b_primed", 25.2)),
    "config-unknown-drift-field": (
        "simulate", lambda: {**_valid_config(), "drift": {"final_fracton": 0.5}}),
    "config-missing-settings-b-prime": ("simulate", lambda: _config_without_b_prime()),
    # drift sections of 0.3.0 configs: the order is cyclic_order alone,
    # and the decay has one kind
    "config-drift-setting-order": (
        "simulate", lambda: {**_valid_config(), "schedule_kind": "cyclic",
                             "drift": {"setting_order": [0, 3, 1, 2]}}),
    "config-drift-decay-kind": (
        "simulate", lambda: {**_valid_config(), "drift": {
            "decay_kind": "continuous-exponential-integrated", "final_fraction": 0.5}}),
    # 25 000 trials of 1e6 pairs each would need about 186 GiB per block
    "config-timetag-block-pairs-over-cap": (
        "simulate --timetags", lambda: {**_config_section_with("det", "pair_mean", 1e6),
                                        "trials_per_block": 25_000, "n_blocks": 1}),
    # beyond int64 the samplers would raise OverflowError (trials) or numpy's
    # "Maximum allowed dimension exceeded" (blocks)
    "config-trials-per-block-beyond-int64": (
        "simulate", lambda: {**_valid_config(), "trials_per_block": 10**20}),
    "config-n-blocks-beyond-int64": ("simulate", lambda: {**_valid_config(), "n_blocks": 10**20}),
    "config-n-blocks-beyond-int64-timetags": (
        "simulate --timetags", lambda: {**_valid_config(), "n_blocks": 10**20}),
    "analyze-counts-row-number": (
        "analyze", lambda: {**bs.reference_run_counts().to_json_dict(), "ab": 5}),
    "analyze-counts-top-level-array": (
        "analyze", lambda: [bs.reference_run_counts().to_json_dict()]),
    "dire-counts-row-number": (
        "dire", lambda: {**bs.reference_run_counts().to_json_dict(), "ab": 5}),
    "dire-counts-top-level-array": (
        "dire", lambda: [bs.reference_run_counts().to_json_dict()]),
    "analyze-counts-nan": (
        "analyze", lambda: _reference_counts_with("ab", "coincidences", float("nan"))),
    "dire-counts-infinite-trials": (
        "dire", lambda: _reference_counts_with("a'b", "n_trials", float("inf"))),
    "analyze-counts-singles-over-trials": (
        "analyze", lambda: _reference_counts_with("ab", "singles_a", _AB_TRIALS + 1)),
    "dire-counts-singles-over-trials": (
        "dire", lambda: _reference_counts_with("ab", "singles_a", _AB_TRIALS + 1)),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_is_exit_2(case, tmp_path, capsys):
    # main() catches only the package's documented errors, so any other
    # exception escapes here and fails the test
    command, make_doc = MALFORMED_INPUTS[case]
    command, *flags = command.split()
    path = tmp_path / "input.json"
    path.write_text(json.dumps(make_doc()))
    argv = [command, str(path), *flags, "--out", str(tmp_path), "--quiet"]
    if command == "dire":
        argv += ["--seconds", "10"]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


# case -> argv, with COUNTS standing for a valid counts JSON
NON_FINITE_ARGUMENTS = {
    "analyze-sigma-nan": ["analyze", "COUNTS", "--sigma", "nan"],
    "analyze-sigma-inf": ["analyze", "COUNTS", "--sigma", "inf"],
    "analyze-sigma-negative": ["analyze", "COUNTS", "--sigma=-1"],
    "sweep-grid-stop-nan": ["sweep", "--eta", "0.75", "--r-grid", "0:nan:0.1"],
    "sweep-grid-start-nan": ["sweep", "--eta", "0.75", "--r-grid", "nan:1:0.1"],
    "sweep-grid-stop-inf": ["sweep", "--eta", "0.75", "--r-grid", "0.1:inf:0.1"],
}


@pytest.mark.parametrize("case", sorted(NON_FINITE_ARGUMENTS))
def test_non_finite_number_argument_is_exit_2(case, tmp_path, capsys, reference_counts):
    counts = tmp_path / "counts.json"
    counts.write_text(reference_counts.to_json())
    argv = [str(counts) if arg == "COUNTS" else arg for arg in NON_FINITE_ARGUMENTS[case]]
    assert main(argv + ["--out", str(tmp_path), "--quiet"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize("grid", ["0:1e9:1e-9", "0:1e300:1e-300"])
def test_unbuildable_grid_is_exit_2(grid, tmp_path, capsys):
    # finite, but more points than numpy can allocate or index
    argv = ["sweep", "--eta", "0.75", "--r-grid", grid, "--out", str(tmp_path), "--quiet"]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "manifest.json").exists()


def test_over_fine_grid_is_exit_2_before_it_is_built(tmp_path, capsys, monkeypatch):
    # 10^9 + 1 points would be an 8 GB array and 10^9 optimizations
    def unbuilt(*args, **kwargs):
        raise AssertionError("the grid was built")

    monkeypatch.setattr(cli.np, "arange", unbuilt)
    argv = ["sweep", "--eta", "0.75", "--r-grid", "0:1:1e-9", "--out", str(tmp_path), "--quiet"]
    assert main(argv) == 2
    assert capsys.readouterr().err == ("error: --r-grid '0:1:1e-9' has 1000000001 points, "
                                       f"more than the limit of {cli._MAX_GRID_POINTS}\n")
    assert not (tmp_path / "bprime_sweep.csv").exists()


def test_grid_point_limit_is_inclusive():
    limit = cli._MAX_GRID_POINTS
    assert cli._parse_grid(f"1:{limit}:1").size == limit
    with pytest.raises(bs.ValidationError, match=f"has {limit + 1} points"):
        cli._parse_grid(f"1:{limit + 1}:1")


NON_UTF8 = b"\xff\xfe0\n"


def _timetag_file(tmp_path):
    path = tmp_path / "timetags.bin"
    path.write_bytes(bs.serialize_timetags(bs.TimetagStream([0, 5], [2, 0])))
    return str(path)


def _schedule_file_config(tmp_path, schedule):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**_valid_config(), "schedule_kind": "file",
                                "schedule_file": schedule}))
    return str(path)


# case -> (suffix of the non-UTF-8 file, argv given tmp_path and that file)
NON_UTF8_INPUTS = {
    "simulate-config": (".json", lambda tmp, bad: ["simulate", bad]),
    "simulate-schedule-file": (
        ".txt", lambda tmp, bad: ["simulate", _schedule_file_config(tmp, bad)]),
    "analyze-counts": (".json", lambda tmp, bad: ["analyze", bad]),
    "analyze-blocks": (".csv", lambda tmp, bad: ["analyze", bad]),
    "analyze-settings": (".txt", lambda tmp, bad: [
        "analyze", _timetag_file(tmp), "--window", "clock", "--settings", bad]),
    "dire-counts": (".json", lambda tmp, bad: ["dire", bad, "--seconds", "10"]),
}


@pytest.mark.parametrize("case", sorted(NON_UTF8_INPUTS))
def test_non_utf8_input_is_exit_2(case, tmp_path, capsys):
    suffix, make_argv = NON_UTF8_INPUTS[case]
    bad = tmp_path / f"input{suffix}"
    bad.write_bytes(NON_UTF8)
    assert main(make_argv(tmp_path, str(bad)) + ["--out", str(tmp_path), "--quiet"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def _binary_timetags(records):
    return b"".join(struct.pack("<QB", t, ch) for t, ch in sorted(records))


def _csv_timetags(records):
    return "".join(f"{ch},{t}\n" for t, ch in sorted(records)).encode()


_TIMES = st.one_of(st.integers(0, 300), st.integers(2**63 - 2, 2**64 - 1))
_RECORDS = st.lists(st.tuples(_TIMES, st.sampled_from([0, 1, 2, 2])), min_size=1, max_size=12)
_TIMETAGS = st.one_of(
    _RECORDS.map(lambda records: (".bin", _binary_timetags(records))),
    _RECORDS.map(lambda records: (".csv", _csv_timetags(records))),
    st.binary(max_size=40).map(lambda data: (".bin", data)),
    st.binary(max_size=40).map(lambda data: (".csv", data)),
)
_SETTINGS = st.one_of(
    st.binary(max_size=24),
    st.text(alphabet="0123 \n\r-x", max_size=24).map(str.encode),
    st.lists(st.integers(-(2**70), 2**70), max_size=6).map(
        lambda values: "\n".join(map(str, values)).encode()),
)
# 4-8 trials 100 ns apart with detections in them, and settings that
# cover every pair in the first four trials: input that mostly analyzes
_ANALYZABLE = st.tuples(
    st.builds(
        lambda n, detections: (
            ".bin", _binary_timetags([(100 * i, 2) for i in range(n)] + detections)),
        st.integers(4, 8),
        st.lists(st.tuples(st.integers(0, 800), st.integers(0, 1)), max_size=16)),
    st.tuples(st.permutations(range(4)), st.lists(st.integers(0, 3), min_size=4, max_size=8))
    .map(lambda parts: "".join(f"{v}\n" for v in [*parts[0], *parts[1]]).encode()),
)


@given(inputs=st.one_of(_ANALYZABLE, st.tuples(_TIMETAGS, _SETTINGS)),
       window=st.sampled_from(["clock", "event:8.33", "event:40", "event:1e30", "event:nan",
                               "event:inf"]))
@example(inputs=((".bin", _binary_timetags([(0, 2), (5, 0)])), b"\xff\n"), window="clock")
@example(inputs=((".csv", b"2,0\n0,18446744073709551615\n"), b"0\n"), window="clock")
def test_analyze_fuzzed_timetags_and_settings(tmp_path_factory, inputs, window):
    # main() catches only the package's documented errors, so any other
    # exception escapes here and fails the test
    (suffix, data), settings = inputs
    work = tmp_path_factory.mktemp("fuzz")
    stream = work / f"timetags{suffix}"
    stream.write_bytes(data)
    (work / "settings.txt").write_bytes(settings)
    code = main(["analyze", str(stream), "--window", window,
                 "--settings", str(work / "settings.txt"), "--out", str(work), "--quiet"])
    assert code in (0, 2, 3, 4)


def _analyze_outcome(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@given(inputs=st.one_of(_ANALYZABLE, st.tuples(_TIMETAGS, _SETTINGS)),
       window=st.sampled_from(["clock", "event:8.33", "event:40", "event:1e30", "event:nan",
                               "event:inf"]))
@example(inputs=((".bin", _binary_timetags([(0, 2), (5, 0)])), b"\xff\n"), window="clock")
def test_analyze_fuzzed_timetags_at_small_chunks(tmp_path_factory, inputs, window):
    # records and settings lines read two at a time give the same exit code,
    # result and error as one chunk
    (suffix, data), settings = inputs
    work = tmp_path_factory.mktemp("fuzz")
    stream = work / f"timetags{suffix}"
    stream.write_bytes(data)
    (work / "settings.txt").write_bytes(settings)
    argv = ["analyze", str(stream), "--window", window,
            "--settings", str(work / "settings.txt"), "--out", str(work), "--quiet"]
    one_chunk = _analyze_outcome(argv)
    assert one_chunk[0] in (0, 2, 3, 4)
    with mock.patch.object(counting, "CHUNK_RECORDS", 2):
        assert _analyze_outcome(argv) == one_chunk


def test_simulate_timetags_manifest_records_clamped_events(tmp_path):
    # jitter beyond the trial period clamps some detections
    cfg = bs.ExperimentConfig(
        state=bs.make_eberhard_state(0.26), settings=bs.reference_settings(),
        det=bs.DetectionModel(pair_mean=0.5, pulses_per_trial=2, pulse_period_ns=10.0,
                              trial_period_ns=100.0, jitter_sigma_ns=400.0),
        trials_per_block=500, n_blocks=3, rng_seed=12,
    )
    (tmp_path / "config.json").write_text(cfg.to_json())
    assert main(["simulate", str(tmp_path / "config.json"), "--timetags",
                 "--out", str(tmp_path), "--quiet"]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["clamped_events"] == bs.simulate_timetags(cfg).meta["clamped_events"] > 0


@pytest.mark.parametrize("window", ["clock", "event:2"])
def test_timetag_analyze_manifest_records_dropped_detections(window, tmp_path):
    # four trials 5 ns apart and one detection before the first clock mark
    path = tmp_path / "timetags.bin"
    path.write_bytes(bs.serialize_timetags(
        bs.TimetagStream([0, 5, 6, 10, 15, 20, 21], [0, 2, 1, 2, 2, 2, 0])))
    (tmp_path / "settings.txt").write_bytes(b"0\n1\n2\n3\n")
    assert main(["analyze", str(path), "--window", window, "--settings",
                 str(tmp_path / "settings.txt"), "--out", str(tmp_path), "--quiet"]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["pre_marker_detections_dropped"] == 1


@pytest.mark.parametrize("window", [[], ["--window", "clock"]])
def test_csv_with_settings_is_timetags(window, tmp_path):
    # --settings alone marks a .csv as timetags, counted under the clock window
    path = tmp_path / "stream.csv"
    path.write_text("2,0\n0,100\n1,120\n2,1000\n0,1100\n2,2000\n2,3000\n1,3050\n")
    (tmp_path / "settings.txt").write_text("0\n1\n2\n3\n")
    code, out, err = _analyze_outcome(["analyze", str(path), *window, "--settings",
                                       str(tmp_path / "settings.txt"), "--out", str(tmp_path),
                                       "--quiet"])
    assert (code, err) == (0, "")
    table = bs.windowed_counts(bs.parse_timetags(path.read_bytes()), bs.WindowPolicy("clock"),
                               [0, 1, 2, 3])
    assert json.loads(out)["B"] == bs.ch_from_counts(table)


def test_csv_without_window_or_settings_is_blocks(tmp_path, capsys):
    path = tmp_path / "stream.csv"
    path.write_text("2,0\n0,100\n")
    assert main(["analyze", str(path), "--out", str(tmp_path), "--quiet"]) == 2
    assert "expected 5 fields" in capsys.readouterr().err


def test_blocks_csv_error_names_the_physical_line(tmp_path, capsys):
    # a quote does not join lines: line 2 is the one field '"1', and it is named
    path = tmp_path / "blocks.csv"
    path.write_text('0,10,1,1,1\n"1\n",2,1,1,1\n1,2,3\n')
    assert main(["analyze", str(path), "--out", str(tmp_path), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "expected 5 fields, got '\"1'" in err and "line 2)" in err


def test_counts_analyze_manifest_has_no_timetag_diagnostics(tmp_path, reference_counts):
    (tmp_path / "counts.json").write_text(reference_counts.to_json())
    assert main(["analyze", str(tmp_path / "counts.json"), "--out", str(tmp_path),
                 "--quiet"]) == 0
    assert "pre_marker_detections_dropped" not in json.loads(
        (tmp_path / "manifest.json").read_text())


# Digest of the adversarial stream written by lhv-demo under version 0.2.0.
FROZEN_ADVERSARIAL = "25fcfec51f66e28425199e22b2a902b90a1ba27009a77b5d5f6e292b087b90d2"


@pytest.mark.parametrize("chunk", [None, 8, 13])
def test_lhv_demo_timing_writes_trial_ranges(chunk, tmp_path, monkeypatch):
    if chunk:
        monkeypatch.setattr(counting, "CHUNK_RECORDS", chunk)
    assert main(["lhv-demo", "--what", "timing", "--trials", "2000", "--seed", "4",
                 "--out", str(tmp_path), "--quiet"]) == 0
    data = (tmp_path / "adversarial_timetags.bin").read_bytes()
    assert hashlib.sha256(data).hexdigest() == FROZEN_ADVERSARIAL
    settings = (tmp_path / "adversarial_settings.txt").read_bytes()
    assert hashlib.sha256(settings).hexdigest() == FROZEN_SETTINGS["adversarial_settings.txt"]


def test_lhv_demo_timing_without_trials(tmp_path):
    assert main(["lhv-demo", "--what", "timing", "--trials", "0",
                 "--out", str(tmp_path), "--quiet"]) == 0
    assert (tmp_path / "adversarial_timetags.bin").read_bytes() == b""
    assert (tmp_path / "adversarial_settings.txt").read_bytes() == b"\n"
    assert main(["lhv-demo", "--what", "timing", "--trials", "-1",
                 "--out", str(tmp_path), "--quiet"]) == 2


def test_settings_files_hold_the_serialized_settings(config_path, tmp_path):
    # the writer hands each chunk's setting lines to the file as an array;
    # the file holds serialize_settings' bytes, one newline for no trials
    assert main(["simulate", str(config_path), "--timetags", "--out", str(tmp_path),
                 "--quiet"]) == 0
    cfg = bs.ExperimentConfig.from_json(config_path.read_text())
    assert (tmp_path / "trial_settings.txt").read_bytes() == b"".join(
        counting.serialize_settings(chunk.meta["trial_settings"])
        for chunk in engine.timetag_chunks(cfg))
    assert main(["lhv-demo", "--what", "timing", "--trials", "0",
                 "--out", str(tmp_path), "--quiet"]) == 0
    assert (tmp_path / "adversarial_settings.txt").read_bytes() == \
        counting.serialize_settings([]) == b"\n"


def test_main_shares_one_parser_across_calls(tmp_path, monkeypatch):
    # the parser is built once per process, and a call that exits 2 on a bad
    # argument leaves it as a fresh one: the same calls on a parser built
    # per call write the same files and record the same inputs
    assert cli.build_parser() is cli.build_parser()

    def run(out):
        with pytest.raises(SystemExit) as exc:
            main(["lhv-demo", "--trials", "many", "--out", str(out)])
        assert exc.value.code == 2
        for argv in (["lhv-demo", "--what", "timing", "--trials", "30", "--seed", "3"],
                     ["optimize", "--eta", "0.8", "--fix-r", "0.3"]):
            assert main([*argv, "--out", str(out / argv[0]), "--quiet"]) == 0
        inputs = {argv: json.loads((out / argv / "manifest.json").read_text())["inputs"]
                  for argv in ("lhv-demo", "optimize")}
        files = {path.relative_to(out): path.read_bytes() for path in sorted(out.rglob("*"))
                 if path.name != "manifest.json" and path.is_file()}
        return inputs, files

    shared = run(tmp_path / "shared")
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert cli.build_parser() is not cli.build_parser()
    assert run(tmp_path / "fresh") == shared


# Digest of the drift demo's expected counts written under version 0.3.0.
FROZEN_DRIFT = "46ea023837c8f6602dc3f1ba0f6967e98fbf13109a93d769be364bdd929a7fa2"


def test_lhv_demo_drift_counts_frozen(tmp_path):
    assert main(["lhv-demo", "--what", "drift", "--out", str(tmp_path), "--quiet"]) == 0
    data = (tmp_path / "drift_counts.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == FROZEN_DRIFT


# Digests of the instruction-set tables at the default --trials, written
# under version 0.3.0.
FROZEN_TABLES = {
    "instruction_ideal_counts.json":
        "0eea3fb8b0f89ab155c455edad2c31d1733d5eb29fa042967fb144977e4c3d41",
    "instruction_82pct_counts.json":
        "4d23a2cdfb87d788a78b0916c644dcc46c7ae07fdbeed8b3308571a31ae5caaa",
}


def test_lhv_demo_tables_frozen(tmp_path):
    assert main(["lhv-demo", "--what", "tables", "--out", str(tmp_path), "--quiet"]) == 0
    for name, digest in FROZEN_TABLES.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


def test_lhv_demo_tables_trials_beyond_int64_is_exit_2(tmp_path, capsys):
    argv = ["lhv-demo", "--what", "tables", "--trials", str(10**20), "--out", str(tmp_path)]
    assert main([*argv, "--quiet"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize("seed, nearest_legal", [(-1, 0), (2**64, 2**64 - 1)])
def test_lhv_demo_seed_out_of_range_is_exit_2(seed, nearest_legal, tmp_path, capsys):
    # the range simulate's rng_seed takes
    argv = ["lhv-demo", "--what", "timing", "--trials", "10", "--out", str(tmp_path), "--quiet"]
    assert main([*argv, "--seed", str(seed)]) == 2
    assert "unsigned 64-bit" in capsys.readouterr().err
    assert main([*argv, "--seed", str(nearest_legal)]) == 0


def test_exit_code_numerical(tmp_path):
    # optimizing a fully degenerate model cannot bracket anything useful;
    # force the numerical-error path through a NaN-producing objective
    code = main(["optimize", "--eta", "0", "--bg", "0", "--fix-r", "1",
                 "--objective", "b-prime", "--out", str(tmp_path), "--quiet"])
    assert code == 4


def test_usage_error_is_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["analyze"])  # missing required positional
    assert exc.value.code == 2


def test_optimize_manifest_records_every_input(tmp_path):
    assert main(["optimize", "--eta", "0.8", "--eta-b", "0.7", "--bg", "1e-4",
                 "--pair-mean", "0.5", "--fix-r", "0.4", "--objective", "b-prime",
                 "--model", "compound", "--out", str(tmp_path), "--quiet"]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["inputs"] == {"eta": 0.8, "eta_b": 0.7, "bg": 1e-4, "pair_mean": 0.5,
                                  "fix_r": 0.4, "objective": "b-prime", "model": "compound"}
    assert manifest["exhausted_refinements"] == 0
    assert "exhausted_refinements" not in (tmp_path / "optimization.json").read_text()


def test_sweep_manifest_records_every_input(tmp_path):
    assert main(["sweep", "--eta", "0.75", "--bg", "6.5e-5", "--pair-mean", "0.033",
                 "--r-grid", "0.2:0.3:0.05", "--out", str(tmp_path), "--quiet"]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["inputs"] == {"eta": 0.75, "eta_b": 0.75, "bg": 6.5e-5,
                                  "pair_mean": 0.033, "r_grid": "0.2:0.3:0.05",
                                  "model": "compound"}
    assert isinstance(manifest["exhausted_refinements"], int)


# subcommand -> its arguments, with COUNTS, CONFIG, RAW and SEED standing
# for input files; every option is set that the input does not rule out
MANIFEST_ARGVS = {
    "simulate": ["CONFIG", "--timetags", "--seed", "5"],
    "analyze": ["COUNTS", "--singles-mode", "paired", "--sigma", "0.01",
                "--sigma-partitions", "7"],
    "optimize": ["--eta", "1", "--eta-b", "0.9", "--bg", "0", "--pair-mean", "1",
                 "--model", "linear", "--fix-r", "1", "--objective", "b"],
    "sweep": ["--eta", "0.75", "--eta-b", "0.76", "--bg", "6.55e-5", "--pair-mean", "0.033",
              "--model", "compound", "--r-grid", "0.26:0.26:0.1"],
    "lhv-demo": ["--what", "tables", "--trials", "1000", "--seed", "3"],
    "dire": ["COUNTS", "--seconds", "10800", "--policy", "sha-half", "--epsilon", "1e-9",
             "--extract", "RAW", "--seed-file", "SEED"],
}


@pytest.mark.parametrize("command", sorted(MANIFEST_ARGVS))
def test_manifest_inputs_are_the_parsed_arguments(command, config_path, tmp_path,
                                                  reference_counts):
    files = {"COUNTS": tmp_path / "counts.json", "CONFIG": config_path,
             "RAW": tmp_path / "raw.bin", "SEED": tmp_path / "seed.bin"}
    files["COUNTS"].write_text(reference_counts.to_json())
    files["RAW"].write_bytes(bytes(range(256)) * 8)
    files["SEED"].write_bytes(b"\xa5" * 2600)
    argv = [command, *(str(files.get(a, a)) for a in MANIFEST_ARGVS[command])]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out), "--quiet"]) == 0
    parsed = vars(cli.build_parser().parse_args(argv))
    for name in ("command", "func", "out", "quiet"):
        del parsed[name]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["subcommand"] == command
    assert manifest["inputs"] == parsed
    assert "seed" not in manifest


@pytest.mark.parametrize("argv", [
    ["dire", "counts.json", "--seconds", "10"],
    ["optimize", "--eta", "1"],
    ["sweep", "--eta", "0.75"],
], ids=["dire", "optimize", "sweep"])
def test_seed_is_a_usage_error_where_nothing_reads_it(argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--seed", "1"])
    assert exc.value.code == 2


def test_free_r_optimize_counts_exhausted_refinements(tmp_path):
    # the design-sweep source: one coordinate descent of the free-r search
    # runs out of sweeps
    assert main(["optimize", "--eta", "0.75", "--bg", "6.55e-5", "--pair-mean", "0.033",
                 "--objective", "b-prime", "--model", "compound",
                 "--out", str(tmp_path), "--quiet"]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["exhausted_refinements"] == 1


# ---------------------------------------------------------------------------
# run records: the manifest lists what a command wrote; a failure leaves none of it


def _run_inputs(tmp_path, config_path, reference_counts):
    """Input files of every command, keyed as in RUN_OUTPUTS' argvs."""
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    files = {"CONFIG": config_path, "COUNTS": inputs / "counts.json",
             "BLOCKS": inputs / "blocks.csv", "TIMETAGS": inputs / "timetags.bin",
             "SETTINGS": inputs / "settings.txt", "RAW": inputs / "raw.bin",
             "SEED": inputs / "seed.bin"}
    files["COUNTS"].write_text(reference_counts.to_json())
    files["BLOCKS"].write_text(bs.blocks_to_csv([(s, 100, 20, 20, 5) for s in range(4)] * 2))
    files["TIMETAGS"].write_bytes(bs.serialize_timetags(
        bs.TimetagStream([0, 5, 6, 10, 15, 20, 21], [0, 2, 1, 2, 2, 2, 0])))
    files["SETTINGS"].write_bytes(b"0\n1\n2\n3\n")
    files["RAW"].write_bytes(bytes(range(256)) * 8)
    files["SEED"].write_bytes(b"\xa5" * 2600)
    return files


# command and mode -> (argv, its output files in write order)
RUN_OUTPUTS = {
    "simulate-blocks": (["simulate", "CONFIG"],
                        ["blocks.csv", "counts.json", "config.used.json"]),
    "simulate-timetags": (["simulate", "CONFIG", "--timetags"],
                          ["timetags.bin", "trial_settings.txt", "config.used.json"]),
    "analyze-counts": (["analyze", "COUNTS"], ["bell_result.json"]),
    "analyze-blocks": (["analyze", "BLOCKS", "--sigma-partitions", "2"], ["bell_result.json"]),
    "analyze-timetags": (["analyze", "TIMETAGS", "--settings", "SETTINGS"],
                         ["bell_result.json"]),
    "optimize": (["optimize", "--eta", "0.8", "--fix-r", "0.4"], ["optimization.json"]),
    "sweep": (["sweep", "--eta", "0.75", "--r-grid", "0.2:0.3:0.05"], ["bprime_sweep.csv"]),
    "lhv-demo-tables": (["lhv-demo", "--what", "tables"],
                        ["instruction_ideal_counts.json", "instruction_82pct_counts.json"]),
    "lhv-demo-timing": (["lhv-demo", "--what", "timing", "--trials", "100"],
                        ["adversarial_timetags.bin", "adversarial_settings.txt"]),
    "lhv-demo-drift": (["lhv-demo", "--what", "drift"], ["drift_counts.json"]),
    "dire": (["dire", "COUNTS", "--seconds", "10800"], ["dire_report.json"]),
    "dire-extract": (["dire", "COUNTS", "--seconds", "10800", "--extract", "RAW",
                      "--seed-file", "SEED"], ["dire_report.json", "extracted.bits"]),
}


@pytest.mark.parametrize("case", sorted(RUN_OUTPUTS))
def test_manifest_lists_the_files_written_and_its_failure_leaves_none(
        case, config_path, tmp_path, reference_counts):
    files = _run_inputs(tmp_path, config_path, reference_counts)
    argv, names = RUN_OUTPUTS[case]
    argv = [str(files.get(a, a)) for a in argv]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out), "--quiet"]) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted([*names, "manifest.json"])
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == [str(out / name) for name in names]
    # the manifest is written last: when it cannot be, the run leaves nothing
    failed = tmp_path / "failed"
    (failed / "manifest.json").mkdir(parents=True)
    assert main([*argv, "--out", str(failed), "--quiet"]) == 3
    assert [p.name for p in failed.iterdir()] == ["manifest.json"]


# command -> (argv, the output made a directory so that writing it fails)
BLOCKED_OUTPUTS = {
    "simulate": (["simulate", "CONFIG"], "counts.json"),
    "analyze": (["analyze", "COUNTS"], "manifest.json"),
    "lhv-demo": (["lhv-demo", "--what", "tables"], "instruction_82pct_counts.json"),
    "dire": (["dire", "COUNTS", "--seconds", "10800", "--extract", "RAW",
              "--seed-file", "SEED"], "extracted.bits"),
}


@pytest.mark.parametrize("command", sorted(BLOCKED_OUTPUTS))
def test_failed_write_removes_the_files_the_command_named(command, config_path, tmp_path,
                                                         reference_counts, capsys):
    files = _run_inputs(tmp_path, config_path, reference_counts)
    argv, blocked = BLOCKED_OUTPUTS[command]
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    # a file of an earlier run that this command does not name stays
    (out / "timetags.bin").write_bytes(b"older run")
    assert main([*(str(files.get(a, a)) for a in argv), "--out", str(out), "--quiet"]) == 3
    assert capsys.readouterr().err.startswith("i/o failure: ")
    assert sorted(p.name for p in out.iterdir()) == sorted([blocked, "timetags.bin"])
    assert (out / "timetags.bin").read_bytes() == b"older run"


def test_python_dash_m_bellsim(monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", ["bellsim", "--help"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("bellsim", run_name="__main__")
    assert exc.value.code == 0
    assert "usage: bellsim" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# block analysis: partition sigma


def _write_block_run(tmp_path, **cfg_fields):
    cfg = bs.ExperimentConfig(state=bs.make_eberhard_state(0.26),
                              settings=bs.reference_settings(), **cfg_fields)
    (tmp_path / "config.json").write_text(cfg.to_json())
    assert main(["simulate", str(tmp_path / "config.json"), "--out", str(tmp_path),
                 "--quiet"]) == 0
    return bs.blocks_from_csv((tmp_path / "blocks.csv").read_text())


def test_analyze_short_setting_pair_gives_null_sigma(tmp_path):
    # a legal random-per-block run whose (a',b') pair has 19 blocks, fewer
    # than the 50 partitions of the default sigma
    blocks = _write_block_run(tmp_path, trials_per_block=2000, n_blocks=120, rng_seed=3)
    per_pair = np.bincount(blocks[:, 0], minlength=4)
    assert per_pair.tolist() == [27, 37, 37, 19]
    code, out, err = _analyze_outcome(["analyze", str(tmp_path / "blocks.csv"),
                                       "--out", str(tmp_path), "--quiet"])
    assert code == 0
    doc = json.loads(out)
    assert doc["sigma_B"] is None and doc["significance"] is None
    assert "sigma_B not estimated" in err and "a'b' has 19" in err
    # with as many partitions as the shortest pair has blocks, sigma is estimated
    code, out, _ = _analyze_outcome(["analyze", str(tmp_path / "blocks.csv"),
                                     "--sigma-partitions", "19", "--out", str(tmp_path),
                                     "--quiet"])
    assert code == 0
    assert json.loads(out)["sigma_B"] == bs.partition_sigma(blocks, k=19)


def test_analyze_parses_blocks_once(tmp_path, monkeypatch):
    blocks = _write_block_run(tmp_path, trials_per_block=500, n_blocks=16, rng_seed=2,
                              schedule_kind="cyclic")
    # one streaming read of the file gives the counts, the per-pair block
    # counts and the partition sums; the whole text is never parsed
    parse = mock.Mock(wraps=cli._read_block_batches)
    monkeypatch.setattr(cli, "_read_block_batches", parse)
    monkeypatch.setattr(cli, "blocks_from_csv", mock.Mock(side_effect=AssertionError))
    code, out, _ = _analyze_outcome(["analyze", str(tmp_path / "blocks.csv"),
                                     "--sigma-partitions", "4", "--out", str(tmp_path),
                                     "--quiet"])
    assert code == 0 and parse.call_count == 1
    doc = json.loads(out)
    assert doc["B"] == bs.ch_from_counts(bs.blocks_to_counts(blocks))
    assert doc["sigma_B"] == bs.partition_sigma(blocks, k=4)


def test_analyze_oversized_block_count_is_exit_2(tmp_path, capsys):
    path = tmp_path / "blocks.csv"
    path.write_text("".join(f"{s},10,1,1,1\n" for s in range(4)) + f"0,{10**30},1,1,1\n")
    assert main(["analyze", str(path), "--out", str(tmp_path), "--quiet"]) == 2
    assert "64-bit" in capsys.readouterr().err


def test_analyze_block_totals_beyond_64_bits_is_exit_2(tmp_path, capsys):
    # each row fits, but three of them per setting pair would wrap to 2^63-3
    rows = [f"{s},{2**63 - 1},1000,1000,100\n" for s in range(4) for _ in range(3)]
    path = tmp_path / "blocks.csv"
    path.write_text("".join(rows))
    assert main(["analyze", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 2
    assert "64-bit integer range" in capsys.readouterr().err
    assert not (tmp_path / "out" / "bell_result.json").exists()


def test_simulate_block_totals_beyond_64_bits_is_exit_2(tmp_path, capsys):
    # two cyclic blocks of 2^62 trials per setting pair total 2^63
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**_valid_config(), "schedule_kind": "cyclic",
                                  "trials_per_block": 2**62, "n_blocks": 8}))
    out = tmp_path / "out"
    assert main(["simulate", str(config), "--out", str(out), "--quiet"]) == 2
    assert "64-bit integer range" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_failed_run_removes_the_earlier_manifest_listing_its_files(tmp_path, capsys):
    config = tmp_path / "config.json"
    valid = {**_valid_config(), "schedule_kind": "cyclic", "n_blocks": 8}
    config.write_text(json.dumps(valid))
    out = tmp_path / "out"
    assert main(["simulate", str(config), "--out", str(out), "--quiet"]) == 0
    outputs = ["blocks.csv", "counts.json", "config.used.json"]
    assert json.loads((out / "manifest.json").read_text())["outputs"] == \
        [str(out / name) for name in outputs]
    # a failure that names none of the listed files keeps the manifest
    (out / "instruction_82pct_counts.json").mkdir()
    assert main(["lhv-demo", "--what", "tables", "--out", str(out), "--quiet"]) == 3
    assert sorted(p.name for p in out.iterdir()) == sorted(
        [*outputs, "instruction_82pct_counts.json", "manifest.json"])
    # this one overwrites blocks.csv and removes it: the manifest listing it goes
    config.write_text(json.dumps({**valid, "trials_per_block": 2**62}))
    assert main(["simulate", str(config), "--out", str(out), "--quiet"]) == 2
    assert "64-bit integer range" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == [
        "config.used.json", "counts.json", "instruction_82pct_counts.json"]


@pytest.mark.parametrize("row, message", [
    ("0,10,-5,1,1", "field '-5' is not ASCII digits"),
    ("0,5,10,10,10", "coincidences exceed trials"),
    ("0,10,20,8,9", "singles exceed trials"),
    ("7,10,1,1,1", "block setting index 7 out of range"),
    ("1,99999999999999999999,1,1,1", "block count outside the 64-bit integer range"),
    ("1," + " " * 200_000 + "2,1,1,1", "is not ASCII digits"),
    # a file's lines end at LF only, so a bare CR stays inside its field
    ("1,5\r2,1,1,1", "field '5\\r2' is not ASCII digits"),
], ids=["negative-singles", "coincidences-over-trials", "singles-over-trials",
        "setting-index", "count-over-64-bit", "field-over-csv-limit", "cr-inside-row"])
def test_analyze_malformed_block_row_is_exit_2(row, message, tmp_path, capsys):
    # a given sigma skips the partitions, so only the reader can catch it
    path = tmp_path / "blocks.csv"
    path.write_text("".join(f"{s},10,4,4,1\n" for s in range(4)) + row + "\n")
    assert main(["analyze", str(path), "--sigma", "1e-5", "--out", str(tmp_path),
                 "--quiet"]) == 2
    err = capsys.readouterr().err
    assert message in err and "line 5" in err


# lines the format refuses, each named by its own line
REJECTED_BLOCK_LINES = {
    "space": "1, 10,1,1,1",
    "sign": "+1,10,1,1,1",
    "quote": '"1",10,1,1,1',
    "empty-field": "1,,1,1,1",
    "sixth-field": "1,10,1,1,1,1",
    "blank-line": "",
    "bare-cr-inside-row": "1,10,1,1,1\r2,10,1,1,1",
    "2^63": f"1,{2**63},1,1,1",
    "setting-4": "4,10,1,1,1",
    "coincidences-over-trials": "1,2,1,1,3",
    "coincidences-over-singles": "1,10,1,3,2",
    "clicked-trials-over-trials": "1,10,6,6,1",
}


@pytest.mark.parametrize("lineno", [2, 5], ids=["first-batch", "after-batch-edge"])
@pytest.mark.parametrize("line", REJECTED_BLOCK_LINES.values(), ids=REJECTED_BLOCK_LINES)
def test_analyze_block_line_the_format_refuses_is_exit_2(line, lineno, tmp_path, capsys,
                                                         monkeypatch):
    # with 4 lines a batch, line 5 opens the second batch after a clean first
    monkeypatch.setattr(engine, "_PARSE_LINES", 4)
    rows = ["0,10,1,2,0", "1,10,3,1,1", "2,10,0,0,0", "3,10,2,2,2"]
    lines = [",".join(engine._BLOCK_HEADER), *rows[:lineno - 2], line, *rows]
    path = tmp_path / "blocks.csv"
    path.write_bytes(("\r\n".join(lines) + "\r\n").encode())
    assert main(["analyze", str(path), "--sigma", "1e-5", "--out", str(tmp_path / "out"),
                 "--quiet"]) == 2
    assert capsys.readouterr().err.rstrip().endswith(f"(at record/line {lineno})")
    assert not (tmp_path / "out" / "bell_result.json").exists()


# the four rows of a run whose (a,b) row holds 5 coincidences from 1 single
# per arm: B would be 0.3, above the quantum maximum
IMPOSSIBLE_ROWS = [(0, 10, 1, 1, 5), (1, 10, 1, 1, 0), (2, 10, 1, 1, 0), (3, 10, 1, 1, 0)]


@pytest.mark.parametrize("name", ["blocks.csv", "counts.json"])
def test_analyze_impossible_counts_is_exit_2(name, tmp_path, capsys):
    path = tmp_path / name
    if name == "blocks.csv":
        path.write_text(",".join(engine._BLOCK_HEADER) + "\n"
                        + "".join(",".join(map(str, row)) + "\n" for row in IMPOSSIBLE_ROWS))
        message = "coincidences exceed singles: 5 > min(1, 1) (at record/line 2)"
    else:
        fields = ["n_trials", "singles_a", "singles_b", "coincidences"]
        path.write_text(json.dumps({label: dict(zip(fields, row[1:]))
                                    for label, row in zip(counting.SETTING_LABELS,
                                                          IMPOSSIBLE_ROWS)}))
        message = "coincidences exceed singles in some row"
    assert main(["analyze", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out" / "bell_result.json").exists()


# ---------------------------------------------------------------------------
# fuzzing the other inputs: configs, counts JSON and block CSV

# small integers keep every legal fuzzed config a run of a few thousand
# trials; the block sampler's cost does not depend on the float fields
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                               max_size=4),
    max_leaves=8)


def _json_overrides(keys):
    return st.dictionaries(st.sampled_from(keys), _JSON_VALUES, max_size=3)


def _fuzzed_config(top, state, det):
    doc = _valid_config()
    doc["state"] = {**doc["state"], **state}
    doc["det"] = {**doc["det"], **det}
    return json.dumps({**doc, **top}).encode()


_CONFIG_BYTES = st.one_of(
    st.binary(max_size=40),
    st.builds(_fuzzed_config,
              _json_overrides(["state", "settings", "det", "schedule_kind", "trials_per_block",
                               "n_blocks", "rng_seed", "schedule_file", "cyclic_order",
                               "drift"]),
              _json_overrides(["kind", "r", "phase", "rho"]),
              _json_overrides([f.name for f in dataclasses.fields(bs.DetectionModel)])),
)


def _fuzzed_counts(rows, fields):
    doc = bs.reference_run_counts().to_json_dict()
    for label, values in fields.items():
        doc[label] = {**doc[label], **values} if isinstance(doc[label], dict) else values
    return json.dumps({**doc, **rows}).encode()


_COUNT_VALUES = st.one_of(_JSON_VALUES, st.integers(-(2**70), 2**70))
_COUNTS_BYTES = st.one_of(
    st.binary(max_size=40),
    st.builds(_fuzzed_counts,
              _json_overrides(list(counting.SETTING_LABELS)),
              st.dictionaries(st.sampled_from(counting.SETTING_LABELS),
                              st.dictionaries(st.sampled_from(["n_trials", "singles_a",
                                                               "singles_b", "coincidences"]),
                                              _COUNT_VALUES, max_size=2),
                              max_size=2)),
)


@given(config=_CONFIG_BYTES)
def test_simulate_fuzzed_config(tmp_path_factory, config):
    work = tmp_path_factory.mktemp("fuzz")
    (work / "config.json").write_bytes(config)
    code = main(["simulate", str(work / "config.json"), "--out", str(work), "--quiet"])
    assert code in (0, 2, 3, 4)


_GEOMETRY_FLOATS = st.one_of(st.floats(), st.sampled_from([1e300, -1e300, 0.3, 1e-300]))


@given(top=st.fixed_dictionaries({"n_blocks": st.integers(1, 4),
                                  "trials_per_block": st.integers(1, 50)}),
       det=st.fixed_dictionaries({}, optional={
           "pair_mean": st.floats(),
           "pulses_per_trial": st.one_of(st.integers(-2, 300), st.integers(-(2**70), 2**70)),
           "pulse_period_ns": _GEOMETRY_FLOATS,
           "trial_period_ns": _GEOMETRY_FLOATS,
           "jitter_sigma_ns": _GEOMETRY_FLOATS}))
@example(top={"n_blocks": 4, "trials_per_block": 50},
         det={"pair_mean": 10.0, "pulses_per_trial": 2**70, "pulse_period_ns": 1e-300})
@example(top={"n_blocks": 1, "trials_per_block": 1},
         det={"pulses_per_trial": 10**400, "pulse_period_ns": 1e-300})
def test_simulate_fuzzed_timetag_config(tmp_path_factory, top, det):
    # the config fuzz above stays in block mode; this one bounds the run
    # size, since the timetag sampler allocates per trial and per detection;
    # a block of more trials or pairs than engine.MAX_BLOCK_SIZE exits 2
    work = tmp_path_factory.mktemp("fuzz")
    (work / "config.json").write_bytes(_fuzzed_config(top, {}, det))
    code = main(["simulate", str(work / "config.json"), "--timetags", "--out", str(work),
                 "--quiet"])
    assert code in (0, 2, 3, 4)


@given(counts=_COUNTS_BYTES,
       seconds=st.sampled_from(["10", "0", "-1", "1e-300", "nan", "inf"]),
       policy=st.sampled_from(["sha-half", "trevisan-sized"]))
def test_dire_fuzzed_counts(tmp_path_factory, counts, seconds, policy):
    work = tmp_path_factory.mktemp("fuzz")
    (work / "counts.json").write_bytes(counts)
    code = main(["dire", str(work / "counts.json"), "--seconds", seconds, "--policy", policy,
                 "--out", str(work), "--quiet"])
    assert code in (0, 2, 3, 4)


_BLOCK_ROWS = st.lists(
    st.lists(st.one_of(st.integers(-2, 60), st.integers(-(2**70), 2**70),
                       st.text(alphabet="0123456789-x. ", max_size=4)),
             min_size=4, max_size=6).map(lambda row: ",".join(map(str, row))),
    max_size=30)


@given(rows=_BLOCK_ROWS, partitions=st.sampled_from(["50", "2", "1", "0", "-3"]))
@example(rows=[f"{s},10,1,1,1" for s in range(4)] + [f"0,{2**64},1,1,1"], partitions="2")
def test_analyze_fuzzed_blocks(tmp_path_factory, rows, partitions):
    work = tmp_path_factory.mktemp("fuzz")
    (work / "blocks.csv").write_text("\n".join(rows) + "\n")
    code = main(["analyze", str(work / "blocks.csv"), "--sigma-partitions", partitions,
                 "--out", str(work), "--quiet"])
    assert code in (0, 2, 3, 4)
