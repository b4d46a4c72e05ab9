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
Gaussian timing jitter, and emits a clock marker per trial; its draws
scale with the detections, not the trials (`_timetag_blocks`).  Both modes
draw from per-block generators derived from (seed, block index), so
blocks are independent and any run is bit-reproducible from its config.

The burst is centered inside the trial period so that realistic jitter
cannot push a detection across a trial boundary.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from dataclasses import MISSING, astuple, dataclass, field, fields, is_dataclass, replace
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .counting import (
    CHANNEL_ALICE,
    CHANNEL_BOB,
    CHANNEL_CLOCK,
    _INT64_MAX,
    CountsTable,
    TimetagStream,
    _first_bad_setting,
    read_settings,
    sort_records,
)
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


# field annotation (a string, as annotations are postponed) -> what its JSON
# value must be and the check; string fields are checked by their dataclass
_FIELD_CHECKS = {
    "int": ("an integer", lambda v: type(v) is int),
    "float": ("a number", lambda v: type(v) in (int, float)),
    "tuple[int, int, int, int]": ("an array of 4 integers",
                                  lambda v: type(v) is list and list(map(type, v)) == [int] * 4),
    "str | None": ("a path or null", lambda v: v is None or type(v) is str),
}


def _checked_fields(doc, annotations: dict, required, what: str) -> dict:
    """doc's values checked against the annotations of the fields they name,
    arrays as tuples; unknown names and a missing required field raise."""
    doc = _json_object(doc, what)
    unknown = sorted(set(doc) - set(annotations))
    if unknown:
        raise ValidationError(f"{what} has unknown field(s) {unknown}")
    for name in required:
        if name not in doc:
            raise ValidationError(f"{what} is missing required field {name!r}")
    for name, value in doc.items():
        kind, ok = _FIELD_CHECKS.get(annotations[name], (None, None))
        if ok is not None and not ok(value):
            raise ValidationError(f"{what}.{name} must be {kind}, got {value!r}")
    return {name: tuple(v) if type(v) is list else v for name, v in doc.items()}


def _from_fields(cls, doc, what: str, **parsed):
    """cls from a JSON object keyed by its field names, absent fields at
    their defaults; parsed holds the nested fields, already read."""
    fs = fields(cls)
    required = [f.name for f in fs if f.default is MISSING and f.default_factory is MISSING]
    return cls(**{**_checked_fields(doc, {f.name: f.type for f in fs}, required, what),
                  **parsed})


def _to_fields(obj) -> dict:
    """A dataclass as a JSON object of its fields in order, None omitted."""
    doc = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, PolarizationState):
            value = _state_to_json(value)
        elif is_dataclass(value):
            value = _to_fields(value)
        if value is not None:
            doc[f.name] = value
    return doc


def _state_from_json(doc) -> PolarizationState:
    """An eberhard-pure state from r and an optional phase, or a
    density-matrix state from rho as 4 rows of 4 [re, im] pairs."""
    kind = _json_object(doc, "state").get("kind")
    if kind == "eberhard-pure":
        args = _checked_fields(doc, {"kind": "str", "r": "float", "phase": "float"}, ["r"], "state")
        del args["kind"]
        return make_eberhard_state(**args)
    if kind != "density-matrix":
        raise ValidationError(f"state.kind must be 'eberhard-pure' or 'density-matrix', "
                              f"got {kind!r}")
    _checked_fields(doc, {"kind": "str", "rho": "np.ndarray"}, ["rho"], "state")
    try:
        parts = np.array(doc["rho"], dtype=float)
    except (TypeError, ValueError):
        parts = None
    if parts is None or parts.shape != (4, 4, 2):
        raise ValidationError("state.rho must be 4 rows of 4 [re, im] pairs")
    return density_matrix_state(parts.view(complex)[..., 0])


def _state_to_json(state: PolarizationState) -> dict:
    if state.kind == "eberhard-pure":
        return {"kind": state.kind, "r": state.r, "phase": state.phase}
    return {"kind": state.kind, "rho": [[[z.real, z.imag] for z in row] for row in state.rho]}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one simulated run bit-for-bit.

    cyclic_order is the one measurement order of a cyclic schedule; drift,
    when set, scales each block's intensity by its block index under any
    schedule.
    """

    state: PolarizationState
    settings: MeasurementSettings
    det: DetectionModel = field(default_factory=DetectionModel)
    schedule_kind: str = "random-per-block"
    trials_per_block: int = 25_000
    n_blocks: int = 1
    rng_seed: int = 0
    # the writer walks the fields in this order
    cyclic_order: tuple[int, int, int, int] = (0, 1, 2, 3)
    schedule_file: str | None = None
    drift: DriftModel | None = None

    def __post_init__(self):
        if self.schedule_kind not in SCHEDULE_KINDS:
            raise ValidationError(f"schedule_kind must be one of {SCHEDULE_KINDS}")
        if not (1 <= self.trials_per_block < 2**63 and 1 <= self.n_blocks < 2**63):
            raise ValidationError("trials_per_block and n_blocks must be in 1..2^63-1")
        if not (0 <= self.rng_seed < 2**64):
            raise ValidationError("rng_seed must fit in an unsigned 64-bit integer")
        if self.schedule_kind == "file" and not self.schedule_file:
            raise ValidationError("schedule_kind 'file' requires schedule_file")

    def to_json_dict(self) -> dict:
        return _to_fields(self)

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ExperimentConfig":
        doc = _json_object(doc, "config")
        parsed = {name: _from_fields(section, doc[name], name)
                  for name, section in (("settings", MeasurementSettings),
                                        ("det", DetectionModel), ("drift", DriftModel))
                  if name in doc}
        if "state" in doc:
            parsed["state"] = _state_from_json(doc["state"])
        return _from_fields(cls, doc, "config", **parsed)

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
        return np.tile(np.array(order, dtype=np.int64), -(-n_blocks // 4))[:n_blocks]
    if kind == "random-per-block":
        if rng_seed is None:
            raise ValidationError("random schedule requires rng_seed")
        return _rng(rng_seed, _SCHEDULE_STREAM).integers(0, 4, size=n_blocks)
    if kind == "file":
        if file is None:
            raise ValidationError("file schedule requires a path")
        idx = read_settings(file).astype(np.int64)
        bad = _first_bad_setting(idx)
        if bad < idx.size:
            raise FormatError(f"settings file: index {idx[bad]} out of range 0..3", bad + 1)
        if idx.size < n_blocks:
            raise ValidationError(f"settings file provides {idx.size} entries, need {n_blocks}")
        return idx[:n_blocks]
    raise ValidationError(f"unknown schedule kind {kind!r}")


_CALIBRATION_TOL = 1e-12
_CALIBRATION_ITERATIONS = 200


def calibrate_source_rates(
    eta: float, p1_low: float, rate_low: float, p1_high: float, rate_high: float,
) -> tuple[float, float]:
    """Fit (pair_mean, background) so the compounded singles model matches
    two observed per-trial singles rates at known projection probabilities.

    Raises NumericalError when the fixed-point iteration leaves either
    singles equation unsolved.
    """
    if not 0 < eta <= 1:
        raise ValidationError("eta must be in (0, 1]")
    mu, bg = 0.03, 1e-4
    for _ in range(_CALIBRATION_ITERATIONS):
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


def block_array(blocks: Sequence[BlockRecord]) -> np.ndarray:
    """Block records as an (n, 5) int64 array, columns in BlockRecord order."""
    try:
        arr = np.fromiter(itertools.chain.from_iterable(blocks), dtype=np.int64,
                          count=5 * len(blocks)).reshape(-1, 5)
    except OverflowError:
        raise ValidationError("block count outside the 64-bit integer range") from None
    settings = arr[:, 0]
    bad = _first_bad_setting(settings)
    if bad < settings.size:
        raise ValidationError(f"block setting index {settings[bad]} out of range")
    return arr


def tally_blocks(arr: np.ndarray, part: np.ndarray | int, k: int) -> np.ndarray:
    """Sums of the block counts by (field, setting pair, partition).

    arr is a block_array; part gives each block's partition in 0..k-1.
    The four fields are n_trials, singles_a, singles_b and coincidences.
    The sums stay int64, exactly as accumulating the records one by one.
    """
    tally = np.zeros((k, 4, 4), dtype=np.int64)
    np.add.at(tally, (part, arr[:, 0]), arr[:, 1:])
    return tally.transpose(2, 1, 0)


def blocks_to_counts(blocks: Sequence[BlockRecord]) -> CountsTable:
    """Aggregate block records into a four-row counts table."""
    return CountsTable(*tally_blocks(block_array(blocks), 0, 1)[..., 0])


# A timetag block takes up to about 100 bytes per trial and per pair, so a
# block of more trials, or a pair total (drawn before any per-pair array) of
# more pairs, than this is rejected rather than let it exhaust memory.
MAX_BLOCK_SIZE = 4_000_000


def _timetag_blocks(cfg: ExperimentConfig) -> Iterator[tuple]:
    """Each block's (setting pair, timestamps, channels, clamped events),
    its records sorted on their own.

    The work grows with the detections, not the trials.  A block's pair
    total is one Poisson(n mu) draw and its pairs fall on uniform trials,
    the joint law of n iid Poisson(mu) pair numbers.  Each arm's
    background is a Binomial(n, bg) count on distinct trials, so a trial
    holds at most one hit per arm.  Only the detections are sorted; they
    are merged after the clock marks at equal times.
    """
    schedule = _block_schedule(cfg)
    mult = _drift_multipliers(cfg)
    det = cfg.det
    # one pair's detection probabilities at each setting pair, without background
    pA, pB, q11s = click_probabilities(
        *(np.array(p) for p in pair_probs(cfg.state, *astuple(cfg.settings))),
        replace(det, pair_mean=1.0, bg_a=0.0, bg_b=0.0), "linear")
    n = cfg.trials_per_block
    if n > MAX_BLOCK_SIZE:
        raise ValidationError(f"{n} trials per block, more than the {MAX_BLOCK_SIZE} "
                              "one timetag block may hold")
    period = int(round(det.trial_period_ns))
    if period < 1 or (cfg.n_blocks * n + 2) * period > _INT64_MAX:
        raise ValidationError(f"{cfg.n_blocks * n} trials of {det.trial_period_ns!r} ns do not "
                              "fit whole-nanosecond 64-bit timestamps")
    burst_ns = det.pulses_per_trial * det.pulse_period_ns
    burst_offset = (det.trial_period_ns - burst_ns) / 2.0

    for b in range(cfg.n_blocks):
        combo = int(schedule[b])
        # per-pair joint detection probabilities; no detection is implicit
        q11 = q11s[combo]
        q10 = pA[combo] - q11
        q01 = pB[combo] - q11
        m = float(mult[b])
        mu = det.pair_mean * m
        rng = _rng(cfg.rng_seed, _BLOCK_STREAM, b)

        try:
            npairs = int(rng.poisson(n * mu))
        except ValueError as exc:
            raise ValidationError(f"pair mean {mu!r} is out of range: {exc}") from None
        if npairs > MAX_BLOCK_SIZE:
            raise ValidationError(f"block {b} draws {npairs} pairs, more than the "
                                  f"{MAX_BLOCK_SIZE} one block may hold")
        pair_trial = rng.integers(0, n, size=npairs)
        u = rng.random(npairs)
        det_a = u < (q11 + q10)
        det_b = (u < q11) | ((u >= q11 + q10) & (u < q11 + q10 + q01))
        pulse = rng.integers(0, det.pulses_per_trial, size=npairs)

        bg_trial_a = rng.choice(n, rng.binomial(n, min(det.bg_a * m, 1.0)), replace=False)
        bg_trial_b = rng.choice(n, rng.binomial(n, min(det.bg_b * m, 1.0)), replace=False)
        bg_pulse_a = rng.integers(0, det.pulses_per_trial, size=bg_trial_a.size)
        bg_pulse_b = rng.integers(0, det.pulses_per_trial, size=bg_trial_b.size)

        # one jitter draw, in record order: A pairs, A background, B pairs, B background
        n_a = int(np.count_nonzero(det_a)) + bg_trial_a.size
        start = (np.concatenate([pair_trial[det_a], bg_trial_a, pair_trial[det_b], bg_trial_b])
                 + b * n) * period
        times = (start.astype(np.float64) + burst_offset
                 + np.concatenate([pulse[det_a], bg_pulse_a, pulse[det_b], bg_pulse_b])
                 * det.pulse_period_ns)
        if det.jitter_sigma_ns > 0:
            times = times + rng.normal(0.0, det.jitter_sigma_ns, size=times.size)
        lo = np.maximum(start - period, 0)
        hi = start + 2 * period - 1
        # a period's margin beyond the clamp keeps huge jitter inside int64
        times = np.rint(np.clip(times, lo - period, hi + period)).astype(np.int64)
        clamped = int(np.count_nonzero((times < lo) | (times > hi)))
        times = np.clip(times, lo, hi)

        order = np.argsort(times, kind="stable")
        trial_start = (np.arange(n, dtype=np.int64) + b * n) * period
        # each detection goes after the clock marks at or before its time
        at = np.searchsorted(trial_start, times[order], side="right")
        t = np.insert(trial_start, at, times[order])
        c = np.insert(np.full(n, CHANNEL_CLOCK, dtype=np.uint8), at,
                      np.where(order < n_a, CHANNEL_ALICE, CHANNEL_BOB))
        yield combo, t, c, clamped


def timetag_chunks(cfg: ExperimentConfig) -> Iterator[TimetagStream]:
    """The timetag stream of the run as ordered chunks, one per block.

    Detections sit on individual pulses of the gated burst (a pair's two
    photons share a pulse), smeared with Gaussian jitter; the burst is
    centered in the trial so realistic jitter stays inside the trial.
    Events jittered outside trial +- one period are clamped.  Each chunk
    carries its block's per-trial setting indices (one byte per trial) in
    meta["trial_settings"] and its clamped events in
    meta["clamped_events"].  A block of more than MAX_BLOCK_SIZE
    trials, or that would draw more pairs, raises ValidationError.

    Each block is sorted on its own.  Records of a block at or after the
    next block's lowest possible time, one period before its first
    trial, wait and are merged into the next chunk, ahead of that
    block's records at equal keys; so the chunks concatenate to the one
    stable sort of the whole run by (time, clock marks first).
    """
    n = cfg.trials_per_block
    period = int(round(cfg.det.trial_period_ns))
    carry_t = np.empty(0, dtype=np.int64)
    carry_c = np.empty(0, dtype=np.uint8)
    for b, (combo, t, c, clamped) in enumerate(_timetag_blocks(cfg)):
        if carry_t.size:
            head = int(np.searchsorted(t, carry_t[-1], side="right"))
            # stable, so the carry goes first at equal keys
            head_t, head_c = sort_records(np.concatenate([carry_t, t[:head]]),
                                          np.concatenate([carry_c, c[:head]]))
            t = np.concatenate([head_t, t[head:]])
            c = np.concatenate([head_c, c[head:]])
        last = b == cfg.n_blocks - 1
        cut = t.size if last else int(np.searchsorted(t, (b + 1) * n * period - period))
        carry_t, carry_c = t[cut:], c[cut:]
        yield TimetagStream(
            t[:cut], c[:cut],
            meta={"clamped_events": clamped,
                  "trial_settings": np.full(n, combo, dtype=np.uint8)},
        )


def simulate_timetags(cfg: ExperimentConfig) -> TimetagStream:
    """Simulate the run as one timetag stream: the concatenation of
    timetag_chunks(cfg), with their clamped events summed in
    stream.meta["clamped_events"] and their settings in
    stream.meta["trial_settings"]."""
    chunks = list(timetag_chunks(cfg))
    return TimetagStream(
        np.concatenate([chunk.timestamps for chunk in chunks]),
        np.concatenate([chunk.channels for chunk in chunks]),
        meta={
            "clamped_events": sum(chunk.meta["clamped_events"] for chunk in chunks),
            "trial_settings": np.concatenate([chunk.meta["trial_settings"] for chunk in chunks]),
        },
    )


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
            setting, n, singles_a, singles_b, coinc = map(int, row)
        except ValueError:
            raise FormatError(f"non-integer field in {row!r}", lineno) from None
        # the rules CountsTable applies to a row
        if n < 0 or singles_a < 0 or singles_b < 0 or coinc < 0:
            raise FormatError(f"negative count in {row!r}", lineno)
        if coinc > n:
            raise FormatError(f"coincidences exceed trials in {row!r}", lineno)
        if singles_a > n or singles_b > n:
            raise FormatError(f"singles exceed trials in {row!r}", lineno)
        records.append(BlockRecord(setting, n, singles_a, singles_b, coinc))
    return records
