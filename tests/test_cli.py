"""Command-line interface: outputs, determinism, exit codes."""

import json
from pathlib import Path

import pytest

import bellsim as bs
from bellsim.cli import main


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


def test_dire_extraction_path(tmp_path, capsys):
    counts = tmp_path / "counts.json"
    counts.write_text(bs.reference_run_counts().to_json())
    raw = tmp_path / "raw.bin"
    raw.write_bytes(bytes(range(256)) * 8)  # 16384 raw bits
    seed = tmp_path / "seed.bin"
    # the Toeplitz construction needs 16384 + 4364 - 1 = 20747 seed bits
    seed.write_bytes(b"\xa5" * 2000)  # 16000 bits: too short
    assert main(["dire", str(counts), "--seconds", "10800",
                 "--extract", str(raw), "--seed-file", str(seed),
                 "--out", str(tmp_path), "--quiet"]) == 2
    seed.write_bytes(b"\xa5" * 2600)  # 20800 bits: enough
    assert main(["dire", str(counts), "--seconds", "10800",
                 "--extract", str(raw), "--seed-file", str(seed),
                 "--out", str(tmp_path), "--quiet"]) == 0
    bits = bs.read_extracted_bits(str(tmp_path / "extracted.bits"))
    assert bits.size > 0


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


MALFORMED_INPUTS = {
    "config-unknown-det-field": ("simulate", lambda: {**_valid_config(), "det": {"foo": 1}}),
    "config-top-level-array": ("simulate", lambda: [_valid_config()]),
    "config-string-n-blocks": ("simulate", lambda: {**_valid_config(), "n_blocks": "4"}),
    "analyze-counts-row-number": (
        "analyze", lambda: {**bs.reference_run_counts().to_json_dict(), "ab": 5}),
    "analyze-counts-top-level-array": (
        "analyze", lambda: [bs.reference_run_counts().to_json_dict()]),
    "dire-counts-row-number": (
        "dire", lambda: {**bs.reference_run_counts().to_json_dict(), "ab": 5}),
    "dire-counts-top-level-array": (
        "dire", lambda: [bs.reference_run_counts().to_json_dict()]),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_is_exit_2(case, tmp_path, capsys):
    # main() catches only the package's documented errors, so any other
    # exception escapes here and fails the test
    command, make_doc = MALFORMED_INPUTS[case]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(make_doc()))
    argv = [command, str(path), "--out", str(tmp_path), "--quiet"]
    if command == "dire":
        argv += ["--seconds", "10"]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


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
