"""Search over state ratio and analyzer angles for the strongest violation.

The optimizer is deliberately derivative-free and deterministic: a
vectorized coarse grid over (a, a') with the reflection tie b = -a,
b' = -a' (exact for phase-0 states with symmetric arms), followed by
coordinate descent over all four angles (and r when it is free) with a
shrinking step down to 1e-3 degree.  The coarse axis is 0.5-degree
pitch over +-45 degrees plus a 0.05-degree fine band around zero,
because the optimal angles collapse toward horizontal as r -> 0 and a
plain half-degree grid would miss them entirely.

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
given trial budget, a significance proxy).
"""

from __future__ import annotations

import io
import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .errors import NumericalError, ValidationError
from .quantum import (
    MODELS,
    DetectionModel,
    MeasurementSettings,
    ch_terms,
    click_probabilities,
    make_eberhard_state,
    pair_probs,
)
# bound here so that the traced benchmark (perfbench/spans.py) can rebind them
from .quantum import coincidence_prob, singles_prob  # noqa: F401

OBJECTIVES = ("b", "b-prime", "b-over-sigma")

_COARSE_PITCH_DEG = 0.5
_FINE_PITCH_DEG = 0.05
_FINE_SPAN_DEG = 2.0
_REFINE_START_DEG = 0.25
_REFINE_STOP_DEG = 1e-3
_R_STEP_START = 0.02
_R_STEP_STOP = 1e-4


@dataclass(frozen=True)
class OptimizationResult:
    r: float
    settings: MeasurementSettings
    objective: str
    value: float
    predicted_b: float
    predicted_b_prime: float

    def to_json_dict(self) -> dict:
        return {
            "r": self.r,
            "settings": asdict(self.settings),
            "objective": self.objective,
            "value": self.value,
            "predicted_B": self.predicted_b,
            "predicted_B_prime": self.predicted_b_prime,
        }


def _angle_axis() -> np.ndarray:
    coarse = np.arange(-45.0, 45.0 + 1e-9, _COARSE_PITCH_DEG)
    fine = np.arange(-_FINE_SPAN_DEG, _FINE_SPAN_DEG + 1e-9, _FINE_PITCH_DEG)
    return np.unique(np.round(np.concatenate([coarse, fine]), 6))


class _Evaluator:
    """Broadcastable objective for one r; angles in degrees."""

    def __init__(self, r: float, phase: float, det: DetectionModel, model: str,
                 trial_budget: int):
        self.state = make_eberhard_state(r, phase)
        self.det = det
        self.model = model
        self.budget = trial_budget

    def terms(self, a, ap, b, bp):
        """(num, den) of the per-trial Bell combination, broadcasting."""
        return ch_terms(*pair_probs(self.state, a, ap, b, bp), self.det, self.model)

    def value(self, a, ap, b, bp, objective: str):
        num, den = self.terms(a, ap, b, bp)
        if objective == "b":
            return num - den
        if objective == "b-prime":
            return num / den
        # significance proxy: independent-binomial error of the linear-model
        # rates at the trial budget
        probs = pair_probs(self.state, a, ap, b, bp)
        clicks = [click_probabilities(*pair, self.det, "linear") for pair in zip(*probs)]

        def binomial_var(p, n):
            p = np.clip(p, 0.0, 1.0)
            return p * (1.0 - p) / n

        pA, pB, _ = clicks[0]
        var = (sum(binomial_var(pab, self.budget) for _, _, pab in clicks)
               + binomial_var(pA, 2.0 * self.budget) + binomial_var(pB, 2.0 * self.budget))
        return (num - den) / np.sqrt(np.maximum(var, 1e-300))


_REFINE_MAX_SWEEPS = 240


def _refine(ev: _Evaluator, objective: str, x0: np.ndarray) -> tuple[float, np.ndarray]:
    x = x0.copy()
    best = float(ev.value(*x, objective))
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
                v = float(ev.value(*y, objective))
                if v > best:
                    best, x, improved = v, y, True
        if not improved:
            step *= 0.5
    return best, x


def _optimize_angles(r: float, phase: float, det: DetectionModel, objective: str,
                     model: str, trial_budget: int) -> tuple[float, np.ndarray]:
    ev = _Evaluator(r, phase, det, model, trial_budget)
    axis = _angle_axis()
    aa, pp = np.meshgrid(axis, axis, indexing="ij")
    with np.errstate(invalid="ignore", divide="ignore"):
        grid = ev.value(aa, pp, -aa, -pp, objective)
    if not np.all(np.isfinite(grid)):
        raise NumericalError("objective is not finite on the search grid")
    i, j = np.unravel_index(int(np.argmax(grid)), grid.shape)
    x0 = np.array([axis[i], axis[j], -axis[i], -axis[j]])
    best, x = _refine(ev, objective, x0)
    if best < grid[i, j]:
        raise NumericalError("refinement regressed below the coarse grid")
    return best, x


def optimize(
    det: DetectionModel,
    objective: str = "b",
    fix_r: float | None = None,
    phase: float = 0.0,
    model: str = "linear",
    r_grid: Sequence[float] | None = None,
    trial_budget: int = 1_000_000,
) -> OptimizationResult:
    """Maximize the chosen objective over (r, a, a', b, b').

    With fix_r the search is over angles only.  Deterministic for fixed
    grid parameters; local refinement means local optimality.
    """
    if objective not in OBJECTIVES:
        raise ValidationError(f"objective must be one of {OBJECTIVES}")
    if model not in MODELS:
        raise ValidationError(f"model must be one of {MODELS}")
    if fix_r is not None:
        rs = [float(fix_r)]
    elif r_grid is not None:
        rs = [float(v) for v in r_grid]
    else:
        rs = list(np.arange(0.05, 1.0 + 1e-9, 0.05))
    best = None
    for r in rs:
        val, x = _optimize_angles(r, phase, det, objective, model, trial_budget)
        if best is None or val > best[0]:
            best = (val, r, x)
    val, r, x = best

    # refine r jointly with the angles when it is free
    if fix_r is None:
        step = _R_STEP_START
        ev_cache: dict[float, _Evaluator] = {}
        while step > _R_STEP_STOP:
            improved = False
            for s in (step, -step):
                r_try = r + s
                if r_try <= 0:
                    continue
                v_try, x_try = (
                    _refine(
                        ev_cache.setdefault(
                            round(r_try, 12),
                            _Evaluator(r_try, phase, det, model, trial_budget),
                        ),
                        objective,
                        x,
                    )
                )
                if v_try > val:
                    val, r, x, improved = v_try, r_try, x_try, True
            if not improved:
                step *= 0.5

    ev = _Evaluator(r, phase, det, model, trial_budget)
    num, den = ev.terms(*x)
    settings = MeasurementSettings(*x)
    return OptimizationResult(
        r=float(r),
        settings=settings,
        objective=objective,
        value=float(val),
        predicted_b=float(num - den),
        predicted_b_prime=float(num / den),
    )


def critical_efficiency(
    r: float, bg: float = 0.0, tol: float = 1e-4,
    bracket: tuple[float, float] = (0.60, 1.0),
) -> float:
    """Symmetric-arm efficiency where the best attainable B crosses zero.

    Bisection on eta of [max over angles of the linear B] with the given
    per-trial background on both arms; tolerance on eta.
    """
    if not 0.0 < r <= 1.0:
        raise ValidationError("r must be in (0, 1]")

    def best_b(eta: float) -> float:
        det = DetectionModel(
            eta_a=eta, eta_b=eta, pair_mean=1.0, bg_a=bg, bg_b=bg,
        )
        val, _ = _optimize_angles(r, 0.0, det, "b", "linear", 1)
        return val

    lo, hi = bracket
    f_lo, f_hi = best_b(lo), best_b(hi)
    if not (f_lo < 0.0 < f_hi):
        raise NumericalError(
            f"no sign change in bracket: B({lo})={f_lo:.3g}, B({hi})={f_hi:.3g}"
        )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if best_b(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class SweepPoint:
    r: float
    b_prime: float
    settings: MeasurementSettings


def bprime_vs_r_sweep(
    det: DetectionModel,
    r_grid: Sequence[float],
    model: str = "compound",
    objective: str = "b-prime",
) -> list[SweepPoint]:
    """Optimized ratio-form value for each r on the grid."""
    if len(r_grid) == 0:
        raise ValidationError("r_grid must be nonempty")
    points = []
    for r in r_grid:
        res = optimize(det, objective=objective, fix_r=float(r), model=model)
        points.append(SweepPoint(r=float(r), b_prime=res.predicted_b_prime,
                                 settings=res.settings))
    return points


def sweep_to_csv(points: Sequence[SweepPoint]) -> str:
    buf = io.StringIO()
    buf.write("r,B_prime,a,a_prime,b,b_prime\n")
    for p in points:
        s = p.settings
        buf.write(
            f"{p.r:.6g},{p.b_prime:.8g},{s.a:.4f},{s.a_prime:.4f},{s.b:.4f},{s.b_prime:.4f}\n"
        )
    return buf.getvalue()


def violation_interval(points: Sequence[SweepPoint]) -> tuple[float, float] | None:
    """Smallest and largest grid r with b_prime > 1, or None."""
    viol = [p.r for p in points if p.b_prime > 1.0]
    if not viol:
        return None
    return min(viol), max(viol)
