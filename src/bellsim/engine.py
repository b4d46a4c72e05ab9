"""Monte-Carlo simulation of the pulsed two-arm experiment.

Trial model: each trial gates a burst of pump pulses.  The number of
produced pairs is Poisson with mean pair_mean; each pair's joint
analyzer outcome is drawn from the quantum joint distribution for the
trial's setting pair, each transmitted photon is detected with the arm
efficiency, and each arm additionally suffers a Bernoulli background
count.  An arm "clicks" when it has at least one detection in the trial;
a coincidence is both arms clicking.  That collapse to one click per arm
matches one-detector-per-arm counting; accidental coincidences (two
pairs in one trial, or background meeting signal) arise naturally and
are not modeled separately.

Block mode draws each block's counts in one step.  The trials of a block
are iid, and marginalizing the per-trial Poisson pair number gives the
closed-form click probabilities (pA, pB, pAB) of the compound model in
`quantum.click_probabilities`, so the block's (coincidence, A only,
B only, neither) counts are exactly Multinomial(n; pAB, pA - pAB,
pB - pAB, 1 - pA - pB + pAB).  Its cost does not grow with the trials
per block.  Timetag mode samples individual pair and background
detections, places them on pulses inside the gated burst, applies
Gaussian timing jitter, and emits a clock marker per trial.  Both modes
draw from per-block generators derived from (seed, block index), so
blocks are independent and any run is bit-reproducible from its config.

The burst is centered inside the trial period so that realistic jitter
cannot push a detection across a trial boundary.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, astuple, dataclass, field, fields
from typing import NamedTuple, Sequence

import numpy as np

from .counting import CHANNEL_ALICE, CHANNEL_BOB, CHANNEL_CLOCK, CountsTable, TimetagStream
from .errors import FormatError, NumericalError, ValidationError
from .lhv import DriftModel
from .quantum import (
    DetectionModel,
    MeasurementSettings,
    PolarizationState,
    click_probabilities,
    density_matrix_state,
    make_eberhard_state,
    pair_probs,
)
# bound here so that the traced benchmark (perfbench/spans.py) can rebind them
from .quantum import coincidence_prob, singles_prob  # noqa: F401

SCHEDULE_KINDS = ("random-per-block", "cyclic", "file")


class BlockRecord(NamedTuple):
    """Counts for one block of trials at a fixed setting pair."""

    setting_pair: int
    n_trials: int
    singles_a: int
    singles_b: int
    coincidences: int


def _json_object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ValidationError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def _json_number(value, what: str, integer: bool = False):
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        kind = "an integer" if integer else "a number"
        raise ValidationError(f"{what} must be {kind}, got {value!r}")
    return value


def _json_ints(value, what: str) -> tuple:
    if not isinstance(value, (list, tuple)):
        raise ValidationError(f"{what} must be an array of integers, got {value!r}")
    return tuple(_json_number(v, what, integer=True) for v in value)


def _rho_from_json(rows) -> np.ndarray:
    """4x4 complex matrix from rows of [re, im] pairs."""
    try:
        parts = np.array(rows, dtype=float)
    except (TypeError, ValueError):
        parts = None
    if parts is None or parts.shape != (4, 4, 2):
        raise ValidationError("state.rho must be 4 rows of 4 [re, im] pairs")
    return parts.view(complex)[..., 0]


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one simulated run bit-for-bit."""

    state: PolarizationState
    settings: MeasurementSettings
    det: DetectionModel = field(default_factory=DetectionModel)
    schedule_kind: str = "random-per-block"
    trials_per_block: int = 25_000
    n_blocks: int = 1
    rng_seed: int = 0
    schedule_file: str | None = None
    cyclic_order: tuple[int, int, int, int] = (0, 1, 2, 3)
    drift: DriftModel | None = None

    def __post_init__(self):
        if self.schedule_kind not in SCHEDULE_KINDS:
            raise ValidationError(f"schedule_kind must be one of {SCHEDULE_KINDS}")
        if self.trials_per_block < 1 or self.n_blocks < 1:
            raise ValidationError("trials_per_block and n_blocks must be >= 1")
        if not (0 <= self.rng_seed < 2**64):
            raise ValidationError("rng_seed must fit in an unsigned 64-bit integer")
        if self.schedule_kind == "file" and not self.schedule_file:
            raise ValidationError("schedule_kind 'file' requires schedule_file")

    def to_json_dict(self) -> dict:
        if self.state.kind == "eberhard-pure":
            state_doc = {"kind": "eberhard-pure", "r": self.state.r, "phase": self.state.phase}
        else:
            rho = self.state.rho
            state_doc = {
                "kind": "density-matrix",
                "rho": [[[z.real, z.imag] for z in row] for row in rho],
            }
        doc = {
            "state": state_doc,
            "settings": asdict(self.settings),
            "det": asdict(self.det),
            "schedule_kind": self.schedule_kind,
            "trials_per_block": self.trials_per_block,
            "n_blocks": self.n_blocks,
            "rng_seed": self.rng_seed,
            "cyclic_order": list(self.cyclic_order),
        }
        if self.schedule_file:
            doc["schedule_file"] = self.schedule_file
        if self.drift is not None:
            doc["drift"] = asdict(self.drift)
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ExperimentConfig":
        doc = _json_object(doc, "config")
        try:
            sdoc = _json_object(doc["state"], "state")
            if sdoc["kind"] == "eberhard-pure":
                state = make_eberhard_state(_json_number(sdoc["r"], "state.r"),
                                            _json_number(sdoc.get("phase", 0.0), "state.phase"))
            elif sdoc["kind"] == "density-matrix":
                state = density_matrix_state(_rho_from_json(sdoc["rho"]))
            else:
                raise ValidationError(f"unknown state kind {sdoc['kind']!r}")
            mdoc = _json_object(doc["settings"], "settings")
            settings = MeasurementSettings(
                *(_json_number(mdoc[k], f"settings.{k}") for k in ("a", "a_prime", "b", "b_prime"))
            )
            det_doc = _json_object(doc.get("det", {}), "det")
            unknown = sorted(set(det_doc) - {f.name for f in fields(DetectionModel)})
            if unknown:
                raise ValidationError(f"det has unknown field(s) {unknown}")
            det = DetectionModel(**{
                k: _json_number(v, f"det.{k}", integer=k == "pulses_per_trial")
                for k, v in det_doc.items()
            })
            drift = None
            if "drift" in doc:
                ddoc = _json_object(doc["drift"], "drift")
                drift = DriftModel(
                    setting_order=_json_ints(ddoc.get("setting_order", (0, 1, 2, 3)),
                                             "drift.setting_order"),
                    decay_kind=ddoc.get("decay_kind", "continuous-exponential-integrated"),
                    final_fraction=_json_number(ddoc.get("final_fraction", 1.0),
                                                "drift.final_fraction"),
                )
            schedule_file = doc.get("schedule_file")
            if not isinstance(schedule_file, (str, type(None))):
                raise ValidationError(f"schedule_file must be a path, got {schedule_file!r}")
            return cls(
                state=state,
                settings=settings,
                det=det,
                schedule_kind=doc.get("schedule_kind", "random-per-block"),
                trials_per_block=_json_number(doc.get("trials_per_block", 25_000),
                                              "trials_per_block", integer=True),
                n_blocks=_json_number(doc.get("n_blocks", 1), "n_blocks", integer=True),
                rng_seed=_json_number(doc.get("rng_seed", 0), "rng_seed", integer=True),
                schedule_file=schedule_file,
                cyclic_order=_json_ints(doc.get("cyclic_order", (0, 1, 2, 3)), "cyclic_order"),
                drift=drift,
            )
        except KeyError as exc:
            raise ValidationError(f"config is missing required field {exc}") from None

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FormatError(f"config JSON does not parse: {exc}") from None
        return cls.from_json_dict(doc)


def _rng(seed: int, *path: int) -> np.random.Generator:
    """Named sub-generator: the same (seed, path) always yields the same stream."""
    return np.random.default_rng([int(seed)] + [int(p) for p in path])


_SCHEDULE_STREAM = 1
_BLOCK_STREAM = 2


def setting_schedule(
    kind: str,
    n_blocks: int,
    rng_seed: int | None = None,
    file: str | None = None,
    order: Sequence[int] = (0, 1, 2, 3),
) -> np.ndarray:
    """Per-block setting-pair indices for the requested schedule kind."""
    if kind == "cyclic":
        order = tuple(order)
        if sorted(order) != [0, 1, 2, 3]:
            raise ValidationError("cyclic order must be a permutation of 0..3")
        return np.array([order[i % 4] for i in range(n_blocks)], dtype=np.int64)
    if kind == "random-per-block":
        if rng_seed is None:
            raise ValidationError("random schedule requires rng_seed")
        return _rng(rng_seed, _SCHEDULE_STREAM).integers(0, 4, size=n_blocks)
    if kind == "file":
        if file is None:
            raise ValidationError("file schedule requires a path")
        try:
            with open(file, "r", encoding="ascii") as fh:
                lines = list(fh)
        except UnicodeDecodeError as exc:
            raise FormatError(f"settings file {file} is not ASCII text: {exc}") from None
        idx = []
        for lineno, line in enumerate(lines, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                v = int(line)
            except ValueError:
                raise FormatError(f"settings file: non-integer line {line!r}", lineno) from None
            if not 0 <= v <= 3:
                raise FormatError(f"settings file: index {v} out of range 0..3", lineno)
            idx.append(v)
        if len(idx) < n_blocks:
            raise ValidationError(
                f"settings file provides {len(idx)} entries, need {n_blocks}"
            )
        return np.array(idx[:n_blocks], dtype=np.int64)
    raise ValidationError(f"unknown schedule kind {kind!r}")


_CALIBRATION_TOL = 1e-12


def calibrate_source_rates(
    eta: float, p1_low: float, rate_low: float, p1_high: float, rate_high: float,
    iterations: int = 200,
) -> tuple[float, float]:
    """Fit (pair_mean, background) so the compounded singles model matches
    two observed per-trial singles rates at known projection probabilities.

    Raises NumericalError when the fixed-point iteration leaves either
    singles equation unsolved.
    """
    if not 0 < eta <= 1:
        raise ValidationError("eta must be in (0, 1]")
    mu, bg = 0.03, 1e-4
    for _ in range(iterations):
        mu = -math.log((1.0 - rate_high) / (1.0 - bg)) / (eta * p1_high)
        bg = 1.0 - (1.0 - rate_low) / math.exp(-mu * eta * p1_low)
    if not (mu > 0 and 0 <= bg < 1):
        raise ValidationError("calibration did not converge to a valid model")
    for p1, rate in ((p1_low, rate_low), (p1_high, rate_high)):
        residual = rate - (1.0 - (1.0 - bg) * math.exp(-mu * eta * p1))
        if not abs(residual) <= _CALIBRATION_TOL:
            raise NumericalError(
                f"calibration did not converge: singles residual {residual:.3g} "
                f"at projection probability {p1}"
            )
    return mu, bg


def _block_schedule(cfg: ExperimentConfig) -> np.ndarray:
    return setting_schedule(
        cfg.schedule_kind, cfg.n_blocks, rng_seed=cfg.rng_seed,
        file=cfg.schedule_file, order=cfg.cyclic_order,
    )


def _drift_multipliers(cfg: ExperimentConfig) -> np.ndarray:
    if cfg.drift is None:
        return np.ones(cfg.n_blocks)
    return cfg.drift.multipliers(cfg.n_blocks)


def simulate_blocks(cfg: ExperimentConfig) -> list[BlockRecord]:
    """Simulate the run block by block, returning per-block click counts.

    Each block is one multinomial draw of its (coincidence, A only,
    B only, neither) counts from the closed-form click probabilities at
    its setting pair and drift multiplier.
    """
    schedule = _block_schedule(cfg)
    p1, p2, p12 = (np.array(p)[schedule] for p in pair_probs(cfg.state, *astuple(cfg.settings)))
    pa, pb, pab = click_probabilities(p1, p2, p12, cfg.det, multiplier=_drift_multipliers(cfg))
    # rounding can leave a category a few ulp below zero
    categories = np.clip(np.stack([pab, pa - pab, pb - pab, 1.0 - pa - pb + pab], axis=1),
                         0.0, None)
    n = cfg.trials_per_block
    records = []
    for b in range(cfg.n_blocks):
        coinc, a_only, b_only, _ = _rng(cfg.rng_seed, _BLOCK_STREAM, b).multinomial(
            n, categories[b])
        records.append(BlockRecord(int(schedule[b]), n, int(coinc + a_only),
                                   int(coinc + b_only), int(coinc)))
    return records


def blocks_to_counts(blocks: Sequence[BlockRecord]) -> CountsTable:
    """Aggregate block records into a four-row counts table."""
    n_trials = np.zeros(4, dtype=np.int64)
    singles_a = np.zeros(4, dtype=np.int64)
    singles_b = np.zeros(4, dtype=np.int64)
    coinc = np.zeros(4, dtype=np.int64)
    for rec in blocks:
        if not 0 <= rec.setting_pair <= 3:
            raise ValidationError(f"block setting index {rec.setting_pair} out of range")
        n_trials[rec.setting_pair] += rec.n_trials
        singles_a[rec.setting_pair] += rec.singles_a
        singles_b[rec.setting_pair] += rec.singles_b
        coinc[rec.setting_pair] += rec.coincidences
    return CountsTable(n_trials, singles_a, singles_b, coinc)


def simulate_timetags(cfg: ExperimentConfig) -> TimetagStream:
    """Simulate the run as a timetag stream with per-trial clock markers.

    Detections sit on individual pulses of the gated burst (a pair's two
    photons share a pulse), smeared with Gaussian jitter; the burst is
    centered in the trial so realistic jitter stays inside the trial.
    Events jittered outside trial +- one period are clamped and tallied
    in stream.meta["clamped_events"].
    """
    schedule = _block_schedule(cfg)
    mult = _drift_multipliers(cfg)
    p1, p2, p12 = pair_probs(cfg.state, *astuple(cfg.settings))
    det = cfg.det
    n = cfg.trials_per_block
    period = int(round(det.trial_period_ns))
    burst_ns = det.pulses_per_trial * det.pulse_period_ns
    burst_offset = (det.trial_period_ns - burst_ns) / 2.0

    all_t: list[np.ndarray] = []
    all_c: list[np.ndarray] = []
    clamped = 0
    for b in range(cfg.n_blocks):
        combo = int(schedule[b])
        # per-pair joint detection probabilities; no detection is implicit
        q11 = det.eta_a * det.eta_b * p12[combo]
        q10 = det.eta_a * p1[combo] - q11
        q01 = det.eta_b * p2[combo] - q11
        m = float(mult[b])
        mu = det.pair_mean * m
        bg_a = min(det.bg_a * m, 1.0)
        bg_b = min(det.bg_b * m, 1.0)

        rng = _rng(cfg.rng_seed, _BLOCK_STREAM, b)
        trial_start = (np.arange(n, dtype=np.int64) + b * n) * period

        k = rng.poisson(mu, size=n)
        pair_trial = np.repeat(np.arange(n), k)
        npairs = pair_trial.size
        u = rng.random(npairs)
        det_a = u < (q11 + q10)
        det_b = (u < q11) | ((u >= q11 + q10) & (u < q11 + q10 + q01))
        pulse = rng.integers(0, det.pulses_per_trial, size=npairs)

        bg_hit_a = rng.random(n) < bg_a
        bg_hit_b = rng.random(n) < bg_b
        bg_pulse_a = rng.integers(0, det.pulses_per_trial, size=int(bg_hit_a.sum()))
        bg_pulse_b = rng.integers(0, det.pulses_per_trial, size=int(bg_hit_b.sum()))

        def place(trials_idx, pulses):
            base = (
                trial_start[trials_idx].astype(np.float64)
                + burst_offset
                + pulses * det.pulse_period_ns
            )
            if det.jitter_sigma_ns > 0:
                base = base + rng.normal(0.0, det.jitter_sigma_ns, size=base.size)
            lo = np.maximum(trial_start[trials_idx] - period, 0)
            hi = trial_start[trials_idx] + 2 * period - 1
            t = np.rint(base).astype(np.int64)
            out_of_range = (t < lo) | (t > hi)
            t = np.clip(t, lo, hi)
            return t, int(out_of_range.sum())

        ta, c1 = place(pair_trial[det_a], pulse[det_a])
        tb, c2 = place(pair_trial[det_b], pulse[det_b])
        tba, c3 = place(np.nonzero(bg_hit_a)[0], bg_pulse_a)
        tbb, c4 = place(np.nonzero(bg_hit_b)[0], bg_pulse_b)
        clamped += c1 + c2 + c3 + c4

        all_t.extend([trial_start, ta, tba, tb, tbb])
        all_c.extend([
            np.full(n, CHANNEL_CLOCK, dtype=np.uint8),
            np.full(ta.size, CHANNEL_ALICE, dtype=np.uint8),
            np.full(tba.size, CHANNEL_ALICE, dtype=np.uint8),
            np.full(tb.size, CHANNEL_BOB, dtype=np.uint8),
            np.full(tbb.size, CHANNEL_BOB, dtype=np.uint8),
        ])

    t_all = np.concatenate(all_t)
    c_all = np.concatenate(all_c)
    order = np.lexsort((c_all != CHANNEL_CLOCK, t_all))
    stream = TimetagStream(
        t_all[order], c_all[order],
        trial_period_ns=float(period),
        meta={
            "clamped_events": clamped,
            "trial_settings": np.repeat(schedule, n),
        },
    )
    return stream


def trial_settings(cfg: ExperimentConfig) -> np.ndarray:
    """Per-trial setting indices implied by the per-block schedule."""
    return np.repeat(_block_schedule(cfg), cfg.trials_per_block)


# ---------------------------------------------------------------------------
# block CSV round trip

_BLOCK_HEADER = ["setting_index", "n_trials", "singles_a", "singles_b", "coincidences"]


def blocks_to_csv(blocks: Sequence[BlockRecord]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(_BLOCK_HEADER)
    for rec in blocks:
        writer.writerow([rec.setting_pair, rec.n_trials, rec.singles_a,
                         rec.singles_b, rec.coincidences])
    return buf.getvalue()


def blocks_from_csv(text: str) -> list[BlockRecord]:
    records = []
    for lineno, row in enumerate(csv.reader(io.StringIO(text)), start=1):
        if not row or row == _BLOCK_HEADER:
            continue
        if len(row) != 5:
            raise FormatError(f"expected 5 fields, got {row!r}", lineno)
        try:
            vals = [int(v) for v in row]
        except ValueError:
            raise FormatError(f"non-integer field in {row!r}", lineno) from None
        records.append(BlockRecord(*vals))
    return records
