"""Search over state ratio and analyzer angles for the strongest violation.

One search, `_search`, serves every design quantity: each optimizer
objective and the critical efficiency are scores of the CH terms,
maximized over the angles.  It is derivative-free and deterministic: a
coarse grid over (a, a') with the reflection tie b = -a, b' = -a' (exact
for phase-0 states with symmetric arms), then coordinate descent over
all four angles (and r when it is free) with a shrinking step down to
1e-3 degree.  The search runs over the real-amplitude states
r|HH> + |VV> only (phase 0, Eberhard, PRA 47, R747 (1993)), where the
tie holds.  The coarse axis is 0.5-degree pitch over +-45 degrees plus a
0.05-degree fine band around zero, because the optimal angles collapse
toward horizontal as r -> 0 and a plain half-degree grid would miss
them.  The descent starts at the best grid value that is not NaN; -inf
is a legal worst value, and only a grid that is NaN everywhere raises
NumericalError.  So at r = 0 (the product state), where some angles
give a zero singles sum and an undefined B', the search skips them.

The grid is built from separable tables, not from a meshgrid of angles.
With a = axis_i and a' = axis_j, every coincidence probability is an
entry of the one table T[i, j] = p12(axis_i, -axis_j): p12(a, b') = T,
p12(a', b) = T.T, and p12(a, b), p12(a', b') are its diagonal as a
column and as a row.  Every singles probability is a vector over the
axis.  The forward model computes the click probabilities of (a, b),
(a, b') and (a', b') from these; those of (a', b) are the transpose of
(a, b'), since element [i, j] of (a', b) takes the operands of element
[j, i] of (a, b') (arm A at axis_j, arm B at -axis_i and T[j, i]) in
the same order, for asymmetric arms too.  So one square table of pair
clicks per forward model, combined through `quantum.ch_from_clicks`,
gives the same values, bit for bit, as evaluating `pair_probs` at every
grid point.

Each descent keeps four memos, for that descent only: the per-angle
terms of every angle it visits (cos, sin and the singles probability,
as Python floats), each angle's click terms at each arm it is visited
on, the click probabilities of every setting pair it computes, keyed by
the pair's (x, y) angles, and the value of every point it scores, keyed
by the point's four angles.  A move changes one angle and so two of the
four pairs, and a descent revisits its points (after an accepted +step
move the -step trial goes back to the previous point), so a revisited
point is not scored again, most pair lookups are hits, and the computed
pairs share their angles (about three pairs to an angle).  A miss
evaluates the closed forms of `quantum` that `singles_prob`,
`coincidence_prob` and `click_probabilities` evaluate: `_trig` and
`_pure_singles` per angle, `_arm_clicks` per angle and arm, and
`_pure_coincidence` and `_pair_clicks` per pair.  On Python floats
these make the same IEEE operations as on the numpy scalars of
`pair_probs` (cos, sin and exp stay numpy's, and Python's `**` equals
numpy's scalar one), and the pairs combine through
`quantum.ch_from_clicks` as on the grid, so each value equals the
unmemoized objective bit for bit.  The descent itself, `_refine`,
steps the four angles as a list of Python floats.

The objective takes either forward model of `quantum.click_probabilities`:

- "linear": the single-pair analytic combination (backgrounds enter the
  singles only).  This is the model for threshold physics: the critical
  efficiency at r = 1 is 2(sqrt(2)-1), dropping toward 2/3 as r -> 0.
- "compound": exact per-trial click probabilities under Poisson pair
  statistics, so multi-pair and background-signal accidental
  coincidences count against the violation.  This is the model that
  reproduces a measured ratio-form curve over r, because the accidental
  floor is what closes the violation window at larger r.

Objectives: "b" (the difference form), "b-prime" (the ratio form), and
"b-over-sigma" (difference form over its binomial standard error at a
budget of 1 000 000 trials, a significance proxy).

The critical efficiency has a closed form (Eberhard, PRA 47, R747
(1993)).  With symmetric arms of efficiency eta, the linear model, one
pair per trial and a background bg per trial on each arm,
B(eta) = eta^2 C - eta S - 2 bg, where C and S are the coincidence
combination and the singles sum at unit efficiency.  For C > 0 it
crosses zero at eta* = (S + sqrt(S^2 + 8 bg C)) / (2C).  The critical
efficiency is the minimum of eta* over the angles: the search maximizes
-eta*, with -inf where C <= 0.
"""

from __future__ import annotations

import io
from dataclasses import asdict, dataclass
from functools import partial
from typing import Sequence

import numpy as np

from . import quantum
from .errors import NumericalError, ValidationError
from .quantum import (
    MODELS,
    DetectionModel,
    MeasurementSettings,
    ch_terms,
    click_probabilities,
    coincidence_prob,
    make_eberhard_state,
    pair_probs,
    singles_prob,
)

OBJECTIVES = ("b", "b-prime", "b-over-sigma")

_COARSE_PITCH_DEG = 0.5
_FINE_PITCH_DEG = 0.05
_FINE_SPAN_DEG = 2.0
_REFINE_START_DEG = 0.25
_REFINE_STOP_DEG = 1e-3
_R_STEP_START = 0.02
_R_STEP_STOP = 1e-4
# trials behind the binomial error of the "b-over-sigma" objective
_TRIAL_BUDGET = 1_000_000


@dataclass(frozen=True)
class OptimizationResult:
    r: float
    settings: MeasurementSettings
    objective: str
    value: float
    predicted_b: float
    predicted_b_prime: float
    # coordinate descents that ran out of sweeps before their smallest
    # step; a diagnostic, not part of the JSON result
    exhausted_refinements: int = 0

    def to_json_dict(self) -> dict:
        return {
            "r": self.r,
            "settings": asdict(self.settings),
            "objective": self.objective,
            "value": self.value,
            "predicted_B": self.predicted_b,
            # JSON has no NaN: an undefined ratio (zero singles sum) is null
            "predicted_B_prime": self.predicted_b_prime if np.isfinite(self.predicted_b_prime)
            else None,
        }


def _angle_axis() -> np.ndarray:
    coarse = np.arange(-45.0, 45.0 + 1e-9, _COARSE_PITCH_DEG)
    fine = np.arange(-_FINE_SPAN_DEG, _FINE_SPAN_DEG + 1e-9, _FINE_PITCH_DEG)
    return np.unique(np.round(np.concatenate([coarse, fine]), 6))


def _grid_probs(state, axis: np.ndarray):
    """`pair_probs` on the reflection-tied grid a = axis_i, a' = axis_j,
    b = -a, b' = -a', as broadcasting column, row and square tables."""
    a, ap = axis[:, None], axis[None, :]
    table = coincidence_prob(state, a, -ap)
    diag = np.diagonal(table)
    p1_a, p1_ap = singles_prob(state, a, "A"), singles_prob(state, ap, "A")
    p2_b, p2_bp = singles_prob(state, -a, "B"), singles_prob(state, -ap, "B")
    return ((p1_a, p1_a, p1_ap, p1_ap), (p2_b, p2_bp, p2_b, p2_bp),
            (diag[:, None], table, table.T, diag[None, :]))


def _score(terms, linear, objective: str):
    """The objective from the CH (num, den) and, for "b-over-sigma", the
    linear-model clicks at the four setting pairs."""
    num, den = terms
    if objective == "b":
        return num - den
    if objective == "b-prime":
        return num / den
    # significance proxy: independent-binomial error of the linear-model
    # rates at the trial budget

    def binomial_var(p, n):
        p = quantum._clamp(p, 0.0, 1.0)
        return p * (1.0 - p) / n

    pA, pB, _ = linear[0]
    var = (sum(binomial_var(pab, _TRIAL_BUDGET) for _, _, pab in linear)
           + binomial_var(pA, 2.0 * _TRIAL_BUDGET) + binomial_var(pB, 2.0 * _TRIAL_BUDGET))
    return (num - den) / np.sqrt(np.maximum(var, 1e-300))


def _descent_objective(state, det: DetectionModel, model: str, score, linear: bool):
    """The f(x) of one `_refine` descent over a pure state, equal bit for
    bit to score at `pair_probs(state, *x)` as a float, with each angle's
    `quantum._trig` and `quantum._pure_singles`, each angle's
    `quantum._arm_clicks` at each arm, each setting pair's clicks and each
    point's value memoized (module docstring).

    A miss looks the forward model up in `quantum`, as `pair_probs` does:
    the traced benchmark (perfbench/spans.py) wraps this module's imported
    names to time the grid's table calls, and a span per pair would swamp
    it.
    """
    angle_memo = {}
    arm_memos = {"A": {}, "B": {}}
    memo = {}
    point_memo = {}

    def angle(x):
        terms = angle_memo.get(x)
        if terms is None:
            trig = tuple(map(float, quantum._trig(x)))
            terms = angle_memo[x] = trig, quantum._pure_singles(state, trig[0])
        return terms

    def arm(x, side):
        terms = arm_memos[side].get(x)
        if terms is None:
            trig, p = angle(x)
            terms = arm_memos[side][x] = (
                trig, quantum._arm_clicks(p, side, det, model),
                quantum._arm_clicks(p, side, det, "linear") if linear else None)
        return terms

    def pair(x, y):
        clicks = memo.get((x, y))
        if clicks is None:
            (trig_x, arm_x, linear_x), (trig_y, arm_y, linear_y) = arm(x, "A"), arm(y, "B")
            p12 = quantum._pure_coincidence(state, trig_x, trig_y)
            clicks = memo[x, y] = (
                quantum._pair_clicks(arm_x, arm_y, p12, det, model),
                quantum._pair_clicks(linear_x, linear_y, p12, det, "linear") if linear
                else None)
        return clicks

    def f(angles):
        key = tuple(angles)
        value = point_memo.get(key)
        if value is None:
            a, a_prime, b, b_prime = key
            clicks, linear_clicks = zip(pair(a, b), pair(a, b_prime), pair(a_prime, b),
                                        pair(a_prime, b_prime))
            value = point_memo[key] = float(score(quantum.ch_from_clicks(clicks),
                                                  linear_clicks))
        return value

    return f


_REFINE_MAX_SWEEPS = 240


def _refine(f, x0: np.ndarray) -> tuple[float, np.ndarray, bool]:
    """Coordinate ascent of f over the four angles, starting at x0.

    f takes the angles as a list of Python floats.  Returns the best
    value, its angles, and whether the sweep budget ran out before the
    step shrank to its floor.
    """
    x = [float(v) for v in x0]
    best = f(x)
    step = _REFINE_START_DEG
    # the sweep budget bounds plateau walks; a genuine sub-pitch refinement
    # from a coarse-grid optimum converges in a handful of sweeps per step
    sweeps = 0
    while step > _REFINE_STOP_DEG and sweeps < _REFINE_MAX_SWEEPS:
        sweeps += 1
        improved = False
        for k in range(4):
            for s in (step, -step):
                y = x.copy()
                y[k] += s
                v = f(y)
                if v > best:
                    best, x, improved = v, y, True
        if not improved:
            step *= 0.5
    return best, np.array(x), step > _REFINE_STOP_DEG


def _search(state, det: DetectionModel, model: str, score, linear: bool,
            x0: np.ndarray | None = None) -> tuple[float, np.ndarray, bool]:
    """Maximize score, a broadcasting function of the CH (num, den) and,
    if linear, the linear-model clicks at the four setting pairs, from x0
    or else from the best grid value (module docstring).  Returns
    `_refine`'s result."""
    with np.errstate(invalid="ignore", divide="ignore"):
        if x0 is None:
            axis = _angle_axis()
            probs = _grid_probs(state, axis)
            pairs = list(zip(*probs))
            # the clicks of (a', b) at [i, j] are those of (a, b') at [j, i],
            # operand for operand, so they are its transpose
            ab, abp, apbp = (quantum.click_probabilities(*pairs[k], det, model) for k in (0, 1, 3))
            grid = score(quantum.ch_from_clicks((ab, abp, tuple(map(np.transpose, abp)), apbp)),
                         [click_probabilities(*pair, det, "linear") for pair in pairs]
                         if linear else None)
            top = np.fmax.reduce(grid, axis=None)  # NaN only if every value is
            if np.isnan(top):
                raise NumericalError("objective is undefined everywhere on the search grid")
            i, j = divmod(int(np.argmax(grid == top)), axis.size)
            x0 = np.array([axis[i], axis[j], -axis[i], -axis[j]])
        return _refine(_descent_objective(state, det, model, score, linear), x0)


def optimize(
    det: DetectionModel,
    objective: str = "b",
    fix_r: float | None = None,
    model: str = "linear",
) -> OptimizationResult:
    """Maximize the chosen objective over (r, a, a', b, b').

    With fix_r the search is over angles only; otherwise r starts from
    the grid 0.05, 0.10, ..., 1.0.  Deterministic for fixed
    grid parameters; local refinement means local optimality.
    """
    if objective not in OBJECTIVES:
        raise ValidationError(f"objective must be one of {OBJECTIVES}")
    if model not in MODELS:
        raise ValidationError(f"model must be one of {MODELS}")
    score = partial(_score, objective=objective)

    def search(r, x0=None):
        return _search(make_eberhard_state(r), det, model, score, objective == "b-over-sigma", x0)

    rs = [float(fix_r)] if fix_r is not None else list(np.arange(0.05, 1.0 + 1e-9, 0.05))
    searched = [(r, *search(r)) for r in rs]
    exhausted = sum(ran_out for *_, ran_out in searched)
    r, val, x, _ = max(searched, key=lambda point: point[1])  # the first of equal maxima

    # refine r jointly with the angles when it is free
    if fix_r is None:
        step = _R_STEP_START
        while step > _R_STEP_STOP:
            improved = False
            for s in (step, -step):
                r_try = r + s
                if r_try <= 0:
                    continue
                v_try, x_try, ran_out = search(r_try, x)
                exhausted += ran_out
                if v_try > val:
                    val, r, x, improved = v_try, r_try, x_try, True
            if not improved:
                step *= 0.5

    num, den = ch_terms(*pair_probs(make_eberhard_state(r), *x), det, model)
    with np.errstate(invalid="ignore", divide="ignore"):
        b_prime = float(num / den)  # NaN where the singles sum is zero
    return OptimizationResult(
        r=float(r),
        settings=MeasurementSettings(*x),
        objective=objective,
        value=float(val),
        predicted_b=float(num - den),
        predicted_b_prime=b_prime,
        exhausted_refinements=exhausted,
    )


def critical_efficiency(r: float, bg: float = 0.0) -> float:
    """Symmetric-arm efficiency where the best attainable B crosses zero.

    The minimum over angles of the closed-form crossing eta* of the
    linear-model B with one pair per trial and the given per-trial
    background probability on both arms (module docstring).  Raises
    NumericalError when eta* is not below 1: then no efficiency gives a
    violation.
    """
    if not 0.0 < r <= 1.0:
        raise ValidationError("r must be in (0, 1]")
    if not 0.0 <= bg <= 1.0:
        raise ValidationError(f"bg must be a probability in [0,1], got {bg!r}")

    def minus_eta(terms, _):
        c, s = terms
        return -np.where(c > 0.0, (s + np.sqrt(s * s + 8.0 * bg * c)) / (2.0 * c), np.inf)

    best, _, _ = _search(make_eberhard_state(r), DetectionModel.ideal(), "linear", minus_eta,
                         False)
    eta = -best
    if not eta < 1.0:
        raise NumericalError(f"no violation at any efficiency up to 1: eta* = {eta:.6g}")
    return eta


def bprime_vs_r_sweep(
    det: DetectionModel,
    r_grid: Sequence[float],
    model: str = "compound",
) -> list[OptimizationResult]:
    """The ratio-form optimum at each r on the grid."""
    if len(r_grid) == 0:
        raise ValidationError("r_grid must be nonempty")
    return [optimize(det, objective="b-prime", fix_r=float(r), model=model) for r in r_grid]


def sweep_to_csv(points: Sequence[OptimizationResult]) -> str:
    buf = io.StringIO()
    buf.write("r,B_prime,a,a_prime,b,b_prime\n")
    for p in points:
        s = p.settings
        buf.write(f"{p.r:.6g},{p.predicted_b_prime:.8g},"
                  f"{s.a:.4f},{s.a_prime:.4f},{s.b:.4f},{s.b_prime:.4f}\n")
    return buf.getvalue()


def violation_interval(points: Sequence[OptimizationResult]) -> tuple[float, float] | None:
    """Smallest and largest grid r with predicted B' > 1, or None."""
    viol = [p.r for p in points if p.predicted_b_prime > 1.0]
    if not viol:
        return None
    return min(viol), max(viol)
