"""The traced benchmark rebinds names inside the package; they must exist."""

from pathlib import Path

import bellsim as bs
from bellsim import cli, eberhard, engine

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_bindings_install_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    names = ("coincidence_prob", "singles_prob", "click_probabilities")
    before = {(m.__name__, n): getattr(m, n) for m in (eberhard, engine) for n in names}
    main = cli.main
    with spans.installed(spans.Tracer()):
        assert eberhard.click_probabilities is not before["bellsim.eberhard", "click_probabilities"]
        assert cli.main is not main
    assert {(m.__name__, n): getattr(m, n) for m in (eberhard, engine) for n in names} == before
    assert cli.main is main


def test_traced_pipeline_hooks_the_timetag_io(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    cfg = bs.ExperimentConfig(state=bs.make_eberhard_state(0.26),
                              settings=bs.reference_settings(), det=bs.DetectionModel(),
                              trials_per_block=200, n_blocks=4, schedule_kind="cyclic",
                              rng_seed=5)
    (tmp_path / "config.json").write_text(cfg.to_json())
    csv_records = ["2,0", "0,100", "1,120", "2,1000", "0,1100", "2,2000", "2,3000", "1,3050"]
    (tmp_path / "stream.csv").write_text("\n".join(csv_records) + "\n")
    (tmp_path / "csv_settings.txt").write_text("0\n1\n2\n3\n")
    sim = tmp_path / "sim"

    tracer = spans.Tracer()
    with spans.installed(tracer):
        assert cli.main(["simulate", str(tmp_path / "config.json"), "--timetags",
                         "--out", str(sim), "--quiet"]) == 0
        assert cli.main(["analyze", str(sim / "timetags.bin"), "--window", "clock",
                         "--settings", str(sim / "trial_settings.txt"),
                         "--out", str(tmp_path / "bin"), "--quiet"]) == 0
        assert cli.main(["analyze", str(tmp_path / "stream.csv"), "--window", "clock",
                         "--settings", str(tmp_path / "csv_settings.txt"),
                         "--out", str(tmp_path / "csv"), "--quiet"]) == 0

    assert {"counting.serialize", "counting.parse"} <= set(tracer.names)
    written = (sim / "timetags.bin").stat().st_size // 9
    assert written > 4 * 200
    assert tracer.counts["counting.timetag_bytes"] == 9 * written + 9 * len(csv_records)


def test_traced_event_count_reads_the_binary_file(monkeypatch, tmp_path):
    # the event-window counter reads TimetagFile.channels
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    cfg = bs.ExperimentConfig(state=bs.make_eberhard_state(0.26),
                              settings=bs.reference_settings(), det=bs.DetectionModel(),
                              trials_per_block=200, n_blocks=4, schedule_kind="cyclic",
                              rng_seed=5)
    (tmp_path / "config.json").write_text(cfg.to_json())
    assert cli.main(["simulate", str(tmp_path / "config.json"), "--timetags",
                     "--out", str(tmp_path), "--quiet"]) == 0
    tracer = spans.Tracer()
    with spans.installed(tracer):
        assert cli.main(["analyze", str(tmp_path / "timetags.bin"), "--window", "event:2",
                         "--settings", str(tmp_path / "trial_settings.txt"),
                         "--out", str(tmp_path / "event"), "--quiet"]) == 0
    records = (tmp_path / "timetags.bin").stat().st_size // 9
    assert tracer.counts["counting.event_detections"] == records - 4 * 200


SOURCE = ["--eta", "0.75", "--bg", "6.55e-5", "--pair-mean", "0.033"]


def _traced(spans, tmp_path, argv):
    tracer = spans.Tracer()
    with spans.installed(tracer):
        assert cli.main([*argv, "--out", str(tmp_path), "--quiet"]) == 0
    return tracer.counts["quantum.calls"], len(tracer.names), tracer.names.count("engine.click_prob")


def test_traced_design_path_opens_spans_per_grid_not_per_step(monkeypatch, tmp_path):
    """The descents evaluate the forward model per step without going
    through the traced names; only each search grid's table calls (one
    coincidence table and four singles vectors) open spans, so the span
    count does not grow with descent length.  r = 0.04, 0.06 and 0.05
    run out of sweeps (1921 evaluations each), r = 0.26..0.30 do not."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    long_sweep = _traced(spans, tmp_path, ["sweep", *SOURCE, "--r-grid", "0.04:0.08:0.02"])
    short_sweep = _traced(spans, tmp_path, ["sweep", *SOURCE, "--r-grid", "0.26:0.30:0.02"])
    # cli.main, bprime_vs_r_sweep, sweep_to_csv, violation_interval and 3 x 5 grid calls
    assert long_sweep == short_sweep == (15, 19, 0)
    for fix_r in ("0.05", "0.26"):
        assert _traced(spans, tmp_path, ["optimize", *SOURCE, "--objective", "b-prime",
                                         "--model", "compound", "--fix-r", fix_r]) == (5, 7, 0)
    # the significance proxy's linear clicks: four grid calls, none per step
    assert _traced(spans, tmp_path, ["optimize", *SOURCE, "--objective", "b-over-sigma",
                                     "--fix-r", "0.26"]) == (5, 11, 4)
