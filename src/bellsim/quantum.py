"""Analytic quantum predictions for polarization-entangled photon pairs.

Conventions used throughout the package:

- Two-qubit basis order is |HH>, |HV>, |VH>, |VV>.
- The non-maximally entangled pure state is
      (r|HH> + e^{i phi}|VV>) / sqrt(1 + r^2),
  with r >= 0 a dimensionless amplitude ratio. r = 1 is maximally
  entangled, r = 0 is the product state |VV>.
- All analyzer angles at the public interfaces are in DEGREES, measured
  from horizontal; conversion to radians happens exactly once, inside
  this module. A polarizer at angle x transmits cos(x)|H> + sin(x)|V>.
- "Singles" probabilities are transmission probabilities at one arm
  irrespective of the other; "coincidence" is joint transmission.

For the pure state with phase 0 the closed forms are

    p_single(x)      = (r^2 cos^2 x + sin^2 x) / (1 + r^2)
    p_coinc(x, y)    = (r cos x cos y + sin x sin y)^2 / (1 + r^2)

and the general density-matrix path evaluates the same quantities as
Tr[rho (P_x (x) P_y)].  Both routes are exposed so they can be checked
against each other.  The pure forms are written once, per analyzer
angle: `_trig` gives an angle's (cos x, sin x), `_pure_singles` the
singles from cos x and `_pure_coincidence` the coincidence from two such
pairs.  `singles_prob` and `coincidence_prob` evaluate them on scalars
and arrays, and each descent of the optimizer evaluates them on Python
floats, once per distinct angle and pair.

Both detection models turning these into per-trial click probabilities
live here too (`click_probabilities`): the single-pair linearization
(pair production enters linearly through the mean pair number, detector
efficiency multiplies once, unpolarized background adds to the singles
only) and the exact Poisson-compounded model, in which multi-pair pileup
and background-signal coincidences count.  Every consumer, from the CH
values below to the optimizer, the Monte-Carlo engine and the drift
adversary, calls `pair_probs` (or, per setting pair, `singles_prob` and
`coincidence_prob`, or per angle the pure forms above) and
`click_probabilities`.  That is the composition of a per-arm part,
`_arm_clicks` (eta*mu*p + bg for the linear model; for the compound
model eta*p and the no-click probability dark*exp(-mu*eta*p), with dark
the background's complement), and a per-pair part, `_pair_clicks`,
which combines two arms' terms with p12.  So the optimizer's descent
computes each angle's arm terms once and every caller gets the same
bits from the one set of formulas.  The compound model saturates a
background at 1 with `_clamp`, which costs builtin comparisons on a
Python float and stays elementwise on the drift multipliers' arrays.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from typing import Literal

import numpy as np

from .counting import _INT64_MAX
from .errors import ValidationError

Arm = Literal["A", "B"]

_HERMITICITY_TOL = 1e-10
_NORM_TOL = 1e-12


def _canonical_angle(angle_deg: float) -> float:
    """Map an analyzer angle to the canonical range (-90, 90] degrees."""
    angle_deg = float(angle_deg)
    if not math.isfinite(angle_deg):
        raise ValidationError(f"analyzer angle must be finite, got {angle_deg!r}")
    x = (angle_deg + 90.0) % 180.0 - 90.0
    return 90.0 if x == -90.0 else x


@dataclass(frozen=True, eq=False)
class PolarizationState:
    """Two-qubit polarization state.

    kind "eberhard-pure" stores (r, phase); kind "density-matrix" stores a
    validated 4x4 density matrix.  Use :func:`make_eberhard_state` or
    :func:`density_matrix_state` instead of the raw constructor.
    """

    kind: Literal["eberhard-pure", "density-matrix"]
    r: float = 1.0
    phase: float = 0.0
    rho: np.ndarray | None = None

    def amplitudes(self) -> np.ndarray:
        """State vector in the |HH>,|HV>,|VH>,|VV> basis (pure kind only)."""
        if self.kind != "eberhard-pure":
            raise ValidationError("amplitudes are defined for the pure kind only")
        norm = math.sqrt(1.0 + self.r * self.r)
        return np.array(
            [self.r / norm, 0.0, 0.0, np.exp(1j * self.phase) / norm],
            dtype=complex,
        )

    def density_matrix(self) -> np.ndarray:
        """The 4x4 density matrix for either kind."""
        if self.kind == "density-matrix":
            return self.rho.copy()
        psi = self.amplitudes()
        return np.outer(psi, psi.conj())


def make_eberhard_state(r: float, phase: float = 0.0) -> PolarizationState:
    """Build the pure state (r|HH> + e^{i phase}|VV>)/sqrt(1+r^2).

    phase is in radians.  Raises ValidationError for negative or
    non-finite r.
    """
    if not (math.isfinite(r) and r >= 0.0):
        raise ValidationError(f"amplitude ratio r must be finite and >= 0, got {r!r}")
    if not math.isfinite(phase):
        raise ValidationError(f"phase must be finite, got {phase!r}")
    state = PolarizationState(kind="eberhard-pure", r=float(r), phase=float(phase))
    # the amplitude vector is normalized by construction; keep the check as
    # a cheap guard against pathological r
    norm = np.linalg.norm(state.amplitudes())
    if abs(norm - 1.0) > _NORM_TOL:
        raise ValidationError(f"state normalization failed: |psi| = {norm}")
    return state


def density_matrix_state(rho: np.ndarray) -> PolarizationState:
    """Wrap a 4x4 density matrix, validating the usual invariants."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValidationError(f"density matrix must be 4x4, got shape {rho.shape}")
    if np.max(np.abs(rho - rho.conj().T)) > _HERMITICITY_TOL:
        raise ValidationError("density matrix is not Hermitian within 1e-10")
    if abs(np.trace(rho).real - 1.0) > _HERMITICITY_TOL:
        raise ValidationError(f"density matrix trace is {np.trace(rho).real}, not 1")
    eigs = np.linalg.eigvalsh(rho)
    if eigs.min() < -_HERMITICITY_TOL:
        raise ValidationError(f"density matrix not positive semidefinite ({eigs.min()})")
    return PolarizationState(kind="density-matrix", rho=rho)


@dataclass(frozen=True)
class MeasurementSettings:
    """The four analyzer angles {a, a', b, b'} in degrees from horizontal.

    Angles are normalized into (-90, 90] on construction; a polarizer is
    180-degree periodic so this loses nothing.
    """

    a: float
    a_prime: float
    b: float
    b_prime: float

    def __post_init__(self):
        for name in ("a", "a_prime", "b", "b_prime"):
            object.__setattr__(self, name, _canonical_angle(getattr(self, name)))


@dataclass(frozen=True)
class DetectionModel:
    """Detector and source parameters for one experimental arm pair.

    eta_a/eta_b are per-arm detection probabilities, pair_mean the mean
    pair number per trial, bg_a/bg_b unpolarized background-count
    probabilities per trial per arm.  The pulse/trial geometry describes
    the gated burst: pulses_per_trial pulses spaced pulse_period_ns inside
    a trial_period_ns trial, detections smeared by Gaussian jitter.
    """

    eta_a: float = 0.75
    eta_b: float = 0.75
    pair_mean: float = 0.033
    bg_a: float = 0.0
    bg_b: float = 0.0
    pulses_per_trial: int = 240
    pulse_period_ns: float = 8.33
    trial_period_ns: float = 40_000.0
    jitter_sigma_ns: float = 500.0

    def __post_init__(self):
        for name in ("eta_a", "eta_b", "bg_a", "bg_b"):
            v = getattr(self, name)
            if not (math.isfinite(v) and 0.0 <= v <= 1.0):
                raise ValidationError(f"{name} must be a probability in [0,1], got {v!r}")
        if not (math.isfinite(self.pair_mean) and self.pair_mean >= 0.0):
            raise ValidationError(f"pair_mean must be >= 0, got {self.pair_mean!r}")
        if not 1 <= self.pulses_per_trial <= _INT64_MAX:
            raise ValidationError(f"pulses_per_trial must be in 1..2**63-1, "
                                  f"got {self.pulses_per_trial!r}")
        for name in ("pulse_period_ns", "trial_period_ns"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise ValidationError(f"{name} must be finite and positive, got {v!r}")
        if self.pulses_per_trial * self.pulse_period_ns > self.trial_period_ns:
            raise ValidationError("pulse burst does not fit inside the trial period")
        if not (math.isfinite(self.jitter_sigma_ns) and self.jitter_sigma_ns >= 0.0):
            raise ValidationError(f"jitter_sigma_ns must be finite and >= 0, "
                                  f"got {self.jitter_sigma_ns!r}")

    @classmethod
    def ideal(cls) -> "DetectionModel":
        """Unit-efficiency, background-free model with one pair per trial
        (analytic references)."""
        return cls(eta_a=1.0, eta_b=1.0, pair_mean=1.0, bg_a=0.0, bg_b=0.0)


# ---------------------------------------------------------------------------
# projection probabilities


def _projector(angle_rad: float) -> np.ndarray:
    c, s = math.cos(angle_rad), math.sin(angle_rad)
    return np.array([[c * c, c * s], [c * s, s * s]])


def _trig(angle_deg):
    """(cos x, sin x) of the analyzer angle x, given in degrees; broadcasts."""
    x = np.deg2rad(angle_deg)
    return np.cos(x), np.sin(x)


def _pure_singles(state: PolarizationState, cos_x):
    """The pure kind's singles probability from its analyzer's cos x."""
    c2 = cos_x ** 2
    return (state.r**2 * c2 + (1.0 - c2)) / (1.0 + state.r**2)


def _pure_coincidence(state: PolarizationState, trig_a, trig_b):
    """The pure kind's coincidence probability from the `_trig` pairs of
    the two analyzers."""
    (ca, sa), (cb, sb) = trig_a, trig_b
    r = state.r
    cross = 2.0 * r * math.cos(state.phase) * ca * cb * sa * sb
    return (r * r * ca * ca * cb * cb + sa * sa * sb * sb + cross) / (1.0 + r * r)


def singles_prob(state: PolarizationState, angle_deg, arm: Arm = "A"):
    """Transmission probability at one arm's analyzer.

    Accepts scalar or ndarray angles for the pure kind; the density-matrix
    kind is evaluated per scalar angle.
    """
    if arm not in ("A", "B"):
        raise ValidationError(f"arm must be 'A' or 'B', got {arm!r}")
    if state.kind == "eberhard-pure":
        return _pure_singles(state, np.cos(np.deg2rad(angle_deg)))
    p = _projector(math.radians(float(angle_deg)))
    op = np.kron(p, np.eye(2)) if arm == "A" else np.kron(np.eye(2), p)
    return float(np.trace(state.rho @ op).real)


def coincidence_prob(state: PolarizationState, alpha_deg, beta_deg):
    """Joint transmission probability with analyzers at alpha (A) and beta (B)."""
    if state.kind == "eberhard-pure":
        return _pure_coincidence(state, _trig(alpha_deg), _trig(beta_deg))
    op = np.kron(_projector(math.radians(float(alpha_deg))),
                 _projector(math.radians(float(beta_deg))))
    return float(np.trace(state.rho @ op).real)


def correlation_E(state: PolarizationState, alpha_deg: float, beta_deg: float) -> float:
    """Two-output correlation E = p(++)+p(--)-p(+-)-p(-+) at unit efficiency.

    Uses the identity E = 4 p12 - 2 p1 - 2 p2 + 1, which holds because the
    two analyzer outputs are complementary projectors.
    """
    p12 = coincidence_prob(state, alpha_deg, beta_deg)
    p1 = singles_prob(state, alpha_deg, "A")
    p2 = singles_prob(state, beta_deg, "B")
    return float(4.0 * p12 - 2.0 * p1 - 2.0 * p2 + 1.0)


def chsh_value(state: PolarizationState, settings: MeasurementSettings) -> float:
    """S = E(a,b) + E(a,b') + E(a',b) - E(a',b')."""
    return (
        correlation_E(state, settings.a, settings.b)
        + correlation_E(state, settings.a, settings.b_prime)
        + correlation_E(state, settings.a_prime, settings.b)
        - correlation_E(state, settings.a_prime, settings.b_prime)
    )


# ---------------------------------------------------------------------------
# forward model: transmission probabilities -> per-trial click probabilities

MODELS = ("linear", "compound")


def _clamp(v, lo: float = -math.inf, hi: float = math.inf):
    """np.clip(v, lo, hi) at builtin cost on a Python float, NaN passed
    through; elementwise on arrays."""
    if isinstance(v, float):
        return lo if v < lo else hi if v > hi else v
    return np.clip(v, lo, hi)


def pair_probs(state: PolarizationState, a, a_prime, b, b_prime):
    """Transmission probabilities at the four setting pairs.

    Returns (p1, p2, p12): Alice's singles, Bob's singles and the joint
    transmission, each a tuple over the pairs (a,b), (a,b'), (a',b),
    (a',b').  Angles in degrees; ndarray angles broadcast for the pure
    kind.
    """
    p1_a, p1_ap = singles_prob(state, a, "A"), singles_prob(state, a_prime, "A")
    p2_b, p2_bp = singles_prob(state, b, "B"), singles_prob(state, b_prime, "B")
    p12 = (
        coincidence_prob(state, a, b),
        coincidence_prob(state, a, b_prime),
        coincidence_prob(state, a_prime, b),
        coincidence_prob(state, a_prime, b_prime),
    )
    return (p1_a, p1_a, p1_ap, p1_ap), (p2_b, p2_bp, p2_b, p2_bp), p12


def click_probabilities(p1, p2, p12, det: DetectionModel, model: str = "compound",
                        multiplier=1.0):
    """Per-trial click probabilities (pA, pB, pAB) from transmission probabilities.

    "compound" is exact under Poisson pair statistics, so two pairs in one
    trial and background meeting signal count as coincidences.  "linear"
    is the single-pair linearization: singles mu*eta*p + bg, coincidences
    mu*eta_a*eta_b*p12, background in the singles only.  `multiplier`
    scales the pair rate and the backgrounds in both models (drift
    support).  Broadcasts over ndarray inputs.  The composition of
    `_arm_clicks` at each arm and `_pair_clicks`.
    """
    return _pair_clicks(_arm_clicks(p1, "A", det, model, multiplier),
                        _arm_clicks(p2, "B", det, model, multiplier), p12, det, model, multiplier)


def _arm_clicks(p, arm: Arm, det: DetectionModel, model: str = "compound", multiplier=1.0):
    """One arm's part of `click_probabilities` from its singles probability
    p: a tuple led by the arm's click probability.  For "compound" the
    tuple goes on with eta*p, the background's complement dark and the
    no-click probability dark*exp(-mu*eta*p), which `_pair_clicks` takes."""
    eta, bg = (det.eta_a, det.bg_a) if arm == "A" else (det.eta_b, det.bg_b)
    mu = det.pair_mean * multiplier
    bg = bg * multiplier
    if model == "linear":
        return (eta * mu * p + bg,)
    if model != "compound":
        raise ValidationError(f"model must be one of {MODELS}, got {model!r}")
    # a background probability saturates at 1
    dark = 1.0 - _clamp(bg, hi=1.0)
    s = eta * p
    no_click = dark * np.exp(-mu * s)
    return 1.0 - no_click, s, dark, no_click


def _pair_clicks(arm_a, arm_b, p12, det: DetectionModel, model: str = "compound",
                 multiplier=1.0):
    """(pA, pB, pAB) from the `_arm_clicks` of arms A and B and the joint
    transmission probability p12."""
    mu = det.pair_mean * multiplier
    if model == "linear":
        return arm_a[0], arm_b[0], det.eta_a * det.eta_b * mu * p12
    click_a, s1, dark_a, pA0 = arm_a
    click_b, s2, dark_b, pB0 = arm_b
    both = det.eta_a * det.eta_b * p12
    pAB0 = dark_a * dark_b * np.exp(-mu * (s1 + s2 - both))
    return click_a, click_b, 1.0 - pA0 - pB0 + pAB0


def ch_terms(p1, p2, p12, det: DetectionModel, model: str = "compound"):
    """(num, den) of the per-trial CH combination from `pair_probs` output.

    num is the coincidence combination pAB(a,b) + pAB(a,b') + pAB(a',b)
    - pAB(a',b') and den the singles pA(a) + pB(b), so B = num - den and
    B' = num / den.  Broadcasts like `click_probabilities`.
    """
    return ch_from_clicks([click_probabilities(*pair, det, model) for pair in zip(p1, p2, p12)])


def ch_from_clicks(clicks):
    """(num, den) of the CH combination from the (pA, pB, pAB) of
    `click_probabilities` at the pairs (a,b), (a,b'), (a',b), (a',b')."""
    pA, pB, c_ab = clicks[0]
    return c_ab + clicks[1][2] + clicks[2][2] - clicks[3][2], pA + pB


def expected_rates(state: PolarizationState, settings: MeasurementSettings,
                   det: DetectionModel):
    """(pA, pB, pAB) arrays over the four setting pairs (compound model)."""
    p1, p2, p12 = (np.array(p) for p in pair_probs(state, *astuple(settings)))
    return click_probabilities(p1, p2, p12, det)


def ch_value(state: PolarizationState, settings: MeasurementSettings,
             det: DetectionModel) -> float:
    """Expected per-trial CH value B (linear model); B > 0 is unreachable classically."""
    num, den = ch_terms(*pair_probs(state, *astuple(settings)), det, "linear")
    return float(num - den)


def ch_prime_value(state: PolarizationState, settings: MeasurementSettings,
                   det: DetectionModel) -> float:
    """Expected ratio-form Bell parameter B' (linear model); B' > 1 is the violation condition."""
    num, den = ch_terms(*pair_probs(state, *astuple(settings)), det, "linear")
    return float(num / den)


# ---------------------------------------------------------------------------
# entanglement measures


def concurrence(state: PolarizationState) -> float:
    """Concurrence in [0,1]; 2r/(1+r^2) for the pure family, Wootters otherwise."""
    if state.kind == "eberhard-pure":
        return 2.0 * state.r / (1.0 + state.r**2)
    rho = state.rho
    sy = np.array([[0, -1j], [1j, 0]])
    yy = np.kron(sy, sy)
    rho_tilde = yy @ rho.conj() @ yy
    eigs = np.linalg.eigvals(rho @ rho_tilde)
    lam = np.sort(np.sqrt(np.clip(eigs.real, 0.0, None)))[::-1]
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


_BASIS_ANGLE = {"HV": 0.0, "DA": 45.0}


def visibility(state: PolarizationState, basis: str = "HV") -> float:
    """Two-photon interference visibility in the HV or DA basis.

    With both analyzers locked to the basis, compares coincidences at the
    parallel orientation against the orthogonal one,
    (C_par - C_orth)/(C_par + C_orth), taking the brighter of the two
    parallel orientations.  A fringe with no coincidences at all reports 0.
    """
    try:
        chi = _BASIS_ANGLE[basis.upper()]
    except KeyError:
        raise ValidationError(f"basis must be 'HV' or 'DA', got {basis!r}") from None
    best = 0.0
    seen_fringe = False
    for theta in (chi, chi + 90.0):
        c_par = coincidence_prob(state, theta, theta)
        c_orth = coincidence_prob(state, theta, theta + 90.0)
        tot = c_par + c_orth
        if tot > 1e-300:
            seen_fringe = True
            best = max(best, (c_par - c_orth) / tot)
    return best if seen_fringe else 0.0
