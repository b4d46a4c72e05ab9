"""The traced benchmark rebinds names inside the package; they must exist."""

from pathlib import Path

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
