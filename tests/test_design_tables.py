"""The design path's table grid and closed-form critical efficiency.

The separable table grid must reproduce the meshgrid evaluation of
`pair_probs` bit for bit, the closed-form critical efficiency must agree
with a bisection over the optimizer, and the design-path outputs are
pinned to the bytes the meshgrid-and-bisection code wrote.
"""

import collections
import hashlib
import itertools
import math

import numpy as np
import pytest

import bellsim as bs
from bellsim import eberhard, quantum
from bellsim.cli import main
from bellsim.errors import NumericalError, ValidationError

DETECTORS = {
    "ideal": bs.DetectionModel.ideal(),
    "symmetric": bs.DetectionModel(eta_a=0.75, eta_b=0.75, pair_mean=0.033,
                                   bg_a=6.55e-5, bg_b=6.55e-5),
    "asymmetric": bs.DetectionModel(eta_a=0.8, eta_b=0.7, pair_mean=0.2,
                                    bg_a=1e-4, bg_b=3e-4),
}


def unmemoized(probs, det, model, objective):
    """The objective from `pair_probs`-shaped (p1, p2, p12), broadcasting."""
    linear = None
    if objective == "b-over-sigma":
        linear = [quantum.click_probabilities(*pair, det, "linear") for pair in zip(*probs)]
    return eberhard._score(quantum.ch_terms(*probs, det, model), linear, objective)


def search_args(objective, state, det, model):
    """The (state, det, model, score, linear) that `eberhard._search`
    takes for an optimizer objective."""
    return (state, det, model, lambda terms, linear: eberhard._score(terms, linear, objective),
            objective == "b-over-sigma")


def search_grid(monkeypatch, args):
    """The grid values `eberhard._search` computes, with its descent stubbed."""
    state, det, model, score, linear = args
    grids = []

    def recorded(terms, clicks):
        grids.append(score(terms, clicks))
        return grids[-1]

    with monkeypatch.context() as m:
        m.setattr(eberhard, "_refine", lambda f, x0: (f(x0), x0, False))
        eberhard._search(state, det, model, recorded, linear)
    return grids[0]


@pytest.mark.parametrize("det_name", sorted(DETECTORS))
# r = 0 gives NaN grid values; 0.05 is the first point of the free-r grid
@pytest.mark.parametrize("r", [0.0, 0.04, 0.05, 0.26, 0.61, 1.0])
def test_table_grid_equals_meshgrid_bitwise(r, det_name, monkeypatch):
    axis = eberhard._angle_axis()
    aa, pp = np.meshgrid(axis, axis, indexing="ij")
    for model in quantum.MODELS:
        state = bs.make_eberhard_state(r)
        meshgrid_probs = quantum.pair_probs(state, aa, pp, -aa, -pp)
        for objective in eberhard.OBJECTIVES:
            with np.errstate(invalid="ignore", divide="ignore"):
                oracle = unmemoized(meshgrid_probs, DETECTORS[det_name], model, objective)
            table = search_grid(monkeypatch,
                                search_args(objective, state, DETECTORS[det_name], model))
            assert table.shape == oracle.shape == (axis.size, axis.size)
            assert table.tobytes() == oracle.tobytes(), (model, objective)


def test_search_never_starts_at_an_undefined_grid_point(monkeypatch):
    """A NaN grid value never starts the descent, -inf is a legal worst
    value, and only a grid that is NaN everywhere raises."""
    state, det = bs.make_eberhard_state(0.26), DETECTORS["ideal"]
    cut = np.median(quantum.ch_terms(*eberhard._grid_probs(state, eberhard._angle_axis()),
                                     det, "linear")[0])

    def score(terms, _):
        return np.where(terms[0] < cut, -np.inf, np.nan)

    grid = search_grid(monkeypatch, (state, det, "linear", score, False))
    assert np.isnan(grid.flat[np.argmax(grid)])  # a plain argmax starts at a NaN
    monkeypatch.setattr(eberhard, "_refine", lambda f, x0: (f(x0), x0, False))
    assert eberhard._search(state, det, "linear", score, False)[0] == -np.inf
    with pytest.raises(NumericalError, match="^objective is undefined everywhere"):
        eberhard._search(state, det, "linear", lambda terms, _: terms[0] * np.nan, False)


def _bits(v):
    return float(v).hex()


def eta_star_search_args(monkeypatch, r, bg):
    """The (state, det, model, score, linear) that `critical_efficiency`
    passes to `eberhard._search`."""
    calls = []
    with monkeypatch.context() as m:
        m.setattr(eberhard, "_search", lambda *args: calls.append(args) or (-0.5, None, False))
        assert bs.critical_efficiency(r, bg) == 0.5
    (args,) = calls
    return args


# the optimizer objectives, then the critical efficiency's score at two backgrounds
SCORES = ([(objective, model, det_name) for objective in eberhard.OBJECTIVES
           for model in quantum.MODELS for det_name in sorted(DETECTORS)]
          + [("eta*", "linear", bg) for bg in (0.0, 1e-3)])


@pytest.mark.parametrize("objective, model, det_name", SCORES)
def test_grid_computes_one_pair_click_table_per_model(objective, model, det_name, monkeypatch):
    """(a', b) is the transpose of (a, b'), so the grid's forward model
    computes one square table; the significance proxy's linear clicks
    add the linear model's two."""
    if objective == "eta*":  # det_name is the background
        args = eta_star_search_args(monkeypatch, 0.26, det_name)
    else:
        args = search_args(objective, bs.make_eberhard_state(0.26), DETECTORS[det_name], model)
    square = (eberhard._angle_axis().size,) * 2
    tables = collections.Counter()
    pair_clicks = quantum._pair_clicks

    def counted(arm_a, arm_b, p12, det, model, *rest):
        tables[model] += np.shape(p12) == square  # not the diagonal's column or row
        return pair_clicks(arm_a, arm_b, p12, det, model, *rest)

    monkeypatch.setattr(quantum, "_pair_clicks", counted)
    monkeypatch.setattr(eberhard, "_refine", lambda f, x0: (0.0, x0, False))
    eberhard._search(*args)
    expected = collections.Counter({model: 1})
    if objective == "b-over-sigma":
        expected["linear"] += 2
    assert tables == expected


@pytest.mark.parametrize("objective, model, det_name", SCORES)
def test_descent_objective_equals_unmemoized_objective_bitwise(objective, model, det_name,
                                                               monkeypatch):
    if objective == "eta*":  # det_name is the background
        args = eta_star_search_args(monkeypatch, 0.26, det_name)
    else:
        args = search_args(objective, bs.make_eberhard_state(0.26), DETECTORS[det_name], model)
    state, det, model, score, linear = args

    def oracle(x):
        probs = quantum.pair_probs(state, *x)
        clicks = [quantum.click_probabilities(*pair, det, "linear") for pair in zip(*probs)]
        with np.errstate(invalid="ignore", divide="ignore"):
            return _bits(score(quantum.ch_terms(*probs, det, model), clicks if linear else None))

    f = eberhard._descent_objective(*args)
    rng = np.random.default_rng(3)
    points = list(rng.uniform(-45.0, 45.0, size=(12, 4)))
    # x + s - s is not always x; x itself is a memo hit
    points += [x + s - s for x in points[:6] for s in (0.25, 1e-3)] + points[:6]
    # 0.0 and -0.0 share a memo key
    points += [np.array([0.0, 1.0, -0.0, -1.0]), np.array([-0.0, 1.0, 0.0, -1.0])]
    with np.errstate(invalid="ignore", divide="ignore"):
        for x in points:
            assert _bits(f(x)) == oracle(x), x

    # along a real descent from the grid argmax, with a fresh memo
    visited = []
    refine = eberhard._refine

    def recorded_refine(f, x0):
        def recorded(x):
            visited.append((x.copy(), f(x)))
            return visited[-1][1]
        return refine(recorded, x0)

    monkeypatch.setattr(eberhard, "_refine", recorded_refine)
    eberhard._search(*args)
    assert len(visited) > 8
    for x, v in visited:
        assert _bits(v) == oracle(x), x


@pytest.mark.parametrize("objective", eberhard.OBJECTIVES)
def test_descent_computes_each_angle_once_without_array_clamps(objective, monkeypatch):
    """Over one descent at r = 0.26 each distinct angle's trig runs once,
    each (angle, arm) pair's arm clicks once per model and each setting
    pair's combination once per model, and no arm, pair or score clamps
    a Python float through numpy."""
    state = bs.make_eberhard_state(0.26)
    args = search_args(objective, state, DETECTORS["symmetric"], "compound")
    starts = []
    with monkeypatch.context() as m:
        m.setattr(eberhard, "_refine", lambda f, x0: starts.append(x0) or (f(x0), x0, False))
        eberhard._search(*args)

    trig_calls, clamp_calls, arm_calls, pair_calls = [], [], [], []
    trig, arm_clicks, pair_clicks = quantum._trig, quantum._arm_clicks, quantum._pair_clicks
    monkeypatch.setattr(quantum, "_trig", lambda x: trig_calls.append(x) or trig(x))
    monkeypatch.setattr(quantum, "_arm_clicks", lambda p, arm, det, model, *rest:
                        arm_calls.append((arm, model, p)) or arm_clicks(p, arm, det, model, *rest))
    monkeypatch.setattr(quantum, "_pair_clicks", lambda *a: pair_calls.append(a[4])
                        or pair_clicks(*a))
    for name in ("minimum", "clip"):
        ufunc = getattr(np, name)
        monkeypatch.setattr(np, name, lambda *a, ufunc=ufunc, **k: clamp_calls.append(a)
                            or ufunc(*a, **k))
    f = eberhard._descent_objective(*args)
    visited = set()
    arm_angles = {"A": set(), "B": set()}
    pairs = set()

    def recorded(x):
        visited.update(x)  # 0.0 and -0.0 are one angle
        a, a_prime, b, b_prime = x
        arm_angles["A"].update((a, a_prime))
        arm_angles["B"].update((b, b_prime))
        pairs.update(itertools.product((a, a_prime), (b, b_prime)))
        return f(x)

    eberhard._refine(recorded, starts[0])
    assert len(visited) > 20
    assert len(trig_calls) == len(visited) and set(trig_calls) == visited
    models = ["compound", "linear"] if objective == "b-over-sigma" else ["compound"]
    # x and -x share a singles probability, so the angles are matched as a multiset
    assert collections.Counter(arm_calls) == collections.Counter(
        (arm, model, quantum._pure_singles(state, float(trig(x)[0])))
        for arm, angles in arm_angles.items() for x in angles for model in models)
    assert collections.Counter(pair_calls) == {model: len(pairs) for model in models}
    quantum.click_probabilities(0.3, 0.4, 0.1, DETECTORS["asymmetric"], "compound")
    assert clamp_calls == []


@pytest.mark.parametrize("r, exhausted", [(0.04, True), (0.26, False)])
def test_descent_scores_each_distinct_point_once(r, exhausted, monkeypatch):
    """Over one design-sweep descent the CH combination runs once per
    distinct point, and the descent takes the path it takes over an
    unmemoized objective."""
    state = bs.make_eberhard_state(r)
    args = search_args("b-prime", state, DETECTORS["symmetric"], "compound")
    starts = []
    with monkeypatch.context() as m:
        m.setattr(eberhard, "_refine", lambda f, x0: starts.append(x0) or (f(x0), x0, False))
        eberhard._search(*args)
    score = args[3]

    def oracle(x):
        with np.errstate(invalid="ignore", divide="ignore"):
            return float(score(quantum.ch_terms(*quantum.pair_probs(state, *x),
                                                DETECTORS["symmetric"], "compound"), None))

    expected = eberhard._refine(oracle, starts[0])

    scored, points = [], []
    ch_from_clicks = quantum.ch_from_clicks
    monkeypatch.setattr(quantum, "ch_from_clicks", lambda c: scored.append(c) or ch_from_clicks(c))
    f = eberhard._descent_objective(*args)

    def recorded(x):
        points.append(tuple(x))  # 0.0 and -0.0 are one point
        return f(x)

    best, x, ran_out = eberhard._refine(recorded, starts[0])
    assert len(points) > len(set(points)) > 100
    assert len(scored) == len(set(points))
    assert (_bits(best), x.tobytes(), ran_out) == (_bits(expected[0]), expected[1].tobytes(),
                                                   expected[2])
    assert ran_out == exhausted


def test_frozen_sweep_exhausts_only_its_two_smallest_r():
    det = bs.DetectionModel(eta_a=0.75, eta_b=0.75, pair_mean=0.033, bg_a=6.55e-5, bg_b=6.55e-5)
    points = bs.bprime_vs_r_sweep(det, np.arange(0.04, 1.0 + 1e-9, 0.02))
    assert len(points) == 49
    assert [(round(p.r, 2), p.exhausted_refinements) for p in points
            if p.exhausted_refinements] == [(0.04, 1), (0.06, 1)]


def bisected_critical_efficiency(r, bg, lo=0.6, hi=1.0, tol=1e-7):
    """Reference: bisection on eta of the optimized linear-model B."""
    def best_b(eta):
        det = bs.DetectionModel(eta_a=eta, eta_b=eta, pair_mean=1.0, bg_a=bg, bg_b=bg)
        return bs.optimize(det, objective="b", fix_r=r, model="linear").value

    assert best_b(lo) < 0.0 < best_b(hi)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if best_b(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("r, bg", [(1.0, 0.0), (0.5, 0.0), (0.1, 0.0), (0.3, 1e-4),
                                   (1.0, 1e-3)])
def test_closed_form_matches_bisection(r, bg):
    assert bs.critical_efficiency(r, bg) == pytest.approx(
        bisected_critical_efficiency(r, bg), abs=1e-4)


def test_closed_form_maximally_entangled_is_exact():
    assert abs(bs.critical_efficiency(1.0) - 2.0 * (math.sqrt(2.0) - 1.0)) <= 1e-6


@pytest.mark.parametrize("bg", [-0.01, 1.5, float("nan"), float("inf")])
def test_critical_efficiency_rejects_a_background_that_is_not_a_probability(bg):
    with pytest.raises(ValidationError):
        bs.critical_efficiency(0.5, bg=bg)


# float.hex of critical_efficiency(r, bg), taken from the search before
# it shared the optimizer's grid and memoized descent
CRITICAL_BITS = {
    (1.0, 0.0): "0x1.a827999fcef34p-1", (1.0, 1e-4): "0x1.a841cee42b0fdp-1",
    (1.0, 1e-3): "0x1.a92d1d402e8eap-1", (0.61, 0.0): "0x1.8a67d6ad2c659p-1",
    (0.61, 1e-4): "0x1.8a964aa63b965p-1", (0.61, 1e-3): "0x1.8c366c79324c5p-1",
    (0.26, 0.0): "0x1.6b54ab42d7562p-1", (0.26, 1e-4): "0x1.6c1752dc42191p-1",
    (0.26, 1e-3): "0x1.72ca2d91d1340p-1", (0.1, 0.0): "0x1.5d55ef1f7a98ep-1",
    (0.1, 1e-4): "0x1.624170875cea7p-1", (0.1, 1e-3): "0x1.8975a003204e4p-1",
    (0.05, 0.0): "0x1.593c790f7e6c9p-1", (0.05, 1e-4): "0x1.6c4a0a68dd819p-1",
    (0.05, 1e-3): "0x1.e6cf2218f3072p-1", (0.01, 0.0): "0x1.5618be354dc65p-1",
}


@pytest.mark.parametrize("r, bg", sorted(CRITICAL_BITS))
def test_critical_efficiency_bits_frozen(r, bg):
    assert _bits(bs.critical_efficiency(r, bg)) == CRITICAL_BITS[r, bg]


@pytest.mark.parametrize("bg, eta", [(1e-4, "1.21417"), (1e-3, "1.00095")])
def test_critical_efficiency_above_one_message_frozen(bg, eta):
    with pytest.raises(NumericalError,
                       match=rf"^no violation at any efficiency up to 1: eta\* = {eta}$"):
        bs.critical_efficiency(0.01, bg)


def test_critical_efficiency_outside_bracket_from_above():
    # background pushes eta* above 1: no efficiency up to 1 violates
    with pytest.raises(NumericalError):
        bs.critical_efficiency(0.3, bg=0.05)


def test_refine_reports_an_exhausted_sweep_budget():
    best, x, exhausted = eberhard._refine(lambda y: float(y[0]), np.zeros(4))
    assert exhausted
    assert best == x[0] > 0.0
    best, x, exhausted = eberhard._refine(lambda y: -float(np.sum((np.array(y) - 1.0) ** 2)),
                                          np.zeros(4))
    assert not exhausted
    assert np.allclose(x, 1.0)


# sha256 of the design-path outputs written by the meshgrid grid
SOURCE = ["--eta", "0.75", "--bg", "6.55e-5", "--pair-mean", "0.033"]
FROZEN_OUTPUTS = {
    "sweep": (["sweep", *SOURCE, "--r-grid", "0.04:1.0:0.02"], "bprime_sweep.csv",
              "90256970968fa46e8a08eabd8e2c619b72b1d6948bf4f67f9981e4a43468639e"),
    "optimize-free": (["optimize", *SOURCE, "--objective", "b-prime", "--model", "compound"],
                      "optimization.json",
                      "e941135988cd22ea484e40004ed00d4aebc00b92e46f254e978f22c5d1f89cf3"),
    "optimize-ideal": (["optimize", "--eta", "1", "--fix-r", "1"], "optimization.json",
                       "3d0f1e33cf0fc5b0d21b7992c2f1847c1e1d8f01ca1b8cc5abf67e2ee644d069"),
    "optimize-b-over-sigma": (["optimize", "--eta", "0.75", "--bg", "5e-5",
                               "--pair-mean", "0.033", "--fix-r", "0.26",
                               "--objective", "b-over-sigma"], "optimization.json",
                              "93a8acc92bb50247789fbb5599d5cd8f0dbc4feeb51b9c9434a526836eaa13b8"),
}


@pytest.mark.parametrize("name", sorted(FROZEN_OUTPUTS))
def test_design_outputs_frozen(name, tmp_path, capsys):
    argv, filename, digest = FROZEN_OUTPUTS[name]
    assert main([*argv, "--out", str(tmp_path), "--quiet"]) == 0
    assert hashlib.sha256((tmp_path / filename).read_bytes()).hexdigest() == digest
