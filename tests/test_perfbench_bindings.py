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
