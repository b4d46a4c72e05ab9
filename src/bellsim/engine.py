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
draw from per-block generators: block b's is PCG64 seeded by
SeedSequence([rng_seed, 2, b]), so blocks are independent and any run is
bit-reproducible from its config.  `_block_rngs` hashes those seed
sequences for a batch of blocks at once in uint32 array arithmetic and
checks its first generator against numpy's own.

The burst is centered inside the trial period so that realistic jitter
cannot push a detection across a trial boundary.

A blocks.csv file is read a batch of lines at a time
(`_read_block_batches`).  Its grammar is strict: ASCII digits, commas and
LF or CRLF line ends.  np.loadtxt parses each batch, whose rows are then
checked as arrays; a batch that fails is read line by line to name its
first bad line (`_located_batch`).
Block counts are summed with one 1-D `np.add.at` per count field, in
int64 while the sums cannot wrap and in Python ints otherwise
(`_block_sums`).
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
import reprlib
import warnings
from dataclasses import MISSING, astuple, dataclass, field, fields, is_dataclass, replace
from typing import Iterable, Iterator, Sequence

import numpy as np
from numpy.typing import ArrayLike

from .counting import (
    CHANNEL_ALICE,
    CHANNEL_BOB,
    CHANNEL_CLOCK,
    _INT64_MAX,
    _INT64_MIN,
    CountsTable,
    TimetagStream,
    _first_bad_setting,
    _integer_array,
    read_settings,
    sort_records,
)
from .errors import BellSimError, FormatError, NumericalError, ValidationError
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
    """Named sub-generator: the same (seed, path) always yields the same stream,
    PCG64 seeded by SeedSequence([seed, *path]).  Block b's stream is
    _rng(rng_seed, _BLOCK_STREAM, b); _block_rngs builds the same generators
    for a range of blocks with their seeds hashed at once."""
    return np.random.default_rng([int(seed)] + [int(p) for p in path])


_SCHEDULE_STREAM = 1
_BLOCK_STREAM = 2

# SeedSequence's hash of its entropy (O'Neill's seed_seq with a pool of four
# 32-bit words, as numpy implements it), restated over arrays of blocks
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_SEED_BATCH = 4096


def _hash_steps(const: int, mult: int) -> Iterator[tuple[np.uint32, np.uint32]]:
    """The hash constant before and after each step that advances it."""
    while True:
        after = const * mult & 0xFFFFFFFF
        yield np.uint32(const), np.uint32(after)
        const = after


def _hashmix(value: np.ndarray, step: tuple[np.uint32, np.uint32]) -> np.ndarray:
    value = (value ^ step[0]) * step[1]
    return value ^ (value >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    value = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return value ^ (value >> np.uint32(16))


def _block_seed_words(seed: int, blocks: np.ndarray) -> np.ndarray:
    """SeedSequence([seed, _BLOCK_STREAM, b]).generate_state(4, np.uint64)
    for each b of a uint64 array, as rows of four words."""
    n = blocks.size
    # each int is split into little-endian 32-bit words; the seed takes one or two
    seed_words = [seed] if seed < 2**32 else [seed & 0xFFFFFFFF, seed >> 32]
    high = (blocks >> np.uint64(32)).astype(np.uint32)
    entropy = [np.full(n, w, dtype=np.uint32) for w in seed_words + [_BLOCK_STREAM]]
    entropy += [(blocks & np.uint64(0xFFFFFFFF)).astype(np.uint32), high]
    # entropy shorter than the pool is padded with zero words, so a block
    # below 2^32 hashes its zero high word as padding
    steps = _hash_steps(_INIT_A, _MULT_A)
    pool = [_hashmix(word, next(steps)) for word in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], next(steps)))
    if len(entropy) == 5:
        # after a two-word seed, a block at or above 2^32 has a fifth word
        steps = [next(steps) for _ in range(4)]
        pool = [np.where(high > 0, _mix(word, _hashmix(high, step)), word)
                for word, step in zip(pool, steps)]
    steps = _hash_steps(_INIT_B, _MULT_B)
    state = np.stack([_hashmix(pool[i % 4], next(steps)) for i in range(8)], axis=1)
    # each pair of words is read as one little-endian uint64
    return state.astype("<u4").view("<u8").astype(np.uint64)


def _block_rngs(seed: int, start: int, stop: int) -> Iterator[np.random.Generator]:
    """_rng(seed, _BLOCK_STREAM, b) for b in start..stop-1, their seeds
    hashed _SEED_BATCH blocks at a time; PCG64 still seeds itself from them.

    Raises NumericalError when the first generator's state is not _rng's,
    so that a numpy that hashes otherwise fails instead of changing streams.
    """
    # defined here, not at module level, so that importing the package does
    # not import numpy.random (about 6 MiB) for commands that draw nothing
    class _SeedWords(np.random.bit_generator.ISeedSequence):
        """A seed sequence whose state, four uint64 words, was hashed already."""

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    expected = _rng(seed, _BLOCK_STREAM, start).bit_generator.state
    for lo in range(start, stop, _SEED_BATCH):
        blocks = np.arange(lo, min(lo + _SEED_BATCH, stop), dtype=np.uint64)
        for words in _block_seed_words(seed, blocks):
            rng = np.random.Generator(np.random.PCG64(_SeedWords(words)))
            if expected is not None:
                if rng.bit_generator.state != expected:
                    raise NumericalError(f"block {start}'s generator differs from "
                                         f"SeedSequence([{seed}, {_BLOCK_STREAM}, {start}])'s")
                expected = None
            yield rng


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


@contextlib.contextmanager
def _per_block_arrays(n_blocks: int):
    """Turns numpy's refusal to allocate an array of one entry per block,
    a MemoryError or "array is too big", into a ValidationError."""
    try:
        yield
    except BellSimError:
        raise
    except (MemoryError, ValueError) as exc:
        raise ValidationError(f"{n_blocks} blocks do not fit in memory: {exc}") from None


def _block_schedule(cfg: ExperimentConfig) -> np.ndarray:
    return setting_schedule(
        cfg.schedule_kind, cfg.n_blocks, rng_seed=cfg.rng_seed,
        file=cfg.schedule_file, order=cfg.cyclic_order,
    )


def _drift_multipliers(cfg: ExperimentConfig) -> np.ndarray:
    if cfg.drift is None:
        return np.ones(cfg.n_blocks)
    return cfg.drift.multipliers(cfg.n_blocks)


def _block_batches(cfg: ExperimentConfig) -> Iterator[np.ndarray]:
    """The run's blocks as block arrays, _SEED_BATCH blocks at a time.

    Each block is one multinomial draw of its (coincidence, A only,
    B only, neither) counts from the closed-form click probabilities at
    its setting pair and drift multiplier.  Only the schedule and the
    drift multipliers, 16 bytes per block, are held for the whole run.
    """
    with _per_block_arrays(cfg.n_blocks):
        schedule = _block_schedule(cfg)
        multipliers = _drift_multipliers(cfg)
    probs = [np.array(p) for p in pair_probs(cfg.state, *astuple(cfg.settings))]
    rngs = _block_rngs(cfg.rng_seed, 0, cfg.n_blocks)
    n = cfg.trials_per_block
    for lo in range(0, cfg.n_blocks, _SEED_BATCH):
        settings = schedule[lo:lo + _SEED_BATCH]
        pa, pb, pab = click_probabilities(*(p[settings] for p in probs), cfg.det,
                                          multiplier=multipliers[lo:lo + _SEED_BATCH])
        # rounding can leave a category a few ulp below zero
        categories = np.clip(np.stack([pab, pa - pab, pb - pab, 1.0 - pa - pb + pab], axis=1),
                             0.0, None)
        coinc, a_only, b_only, _ = np.stack(
            [rng.multinomial(n, row) for row, rng in zip(categories, rngs)], axis=1)
        yield np.stack([settings, np.full_like(coinc, n), coinc + a_only, coinc + b_only, coinc],
                       axis=1)


def simulate_blocks(cfg: ExperimentConfig) -> np.ndarray:
    """Simulate the run block by block, returning its block array
    (see _block_batches)."""
    return np.concatenate(list(_block_batches(cfg)))


def block_array(blocks: ArrayLike) -> np.ndarray:
    """Blocks as an (n, 5) int64 array, columns in blocks.csv order
    (_BLOCK_HEADER), from such an array or a sequence of 5-int rows."""
    try:
        arr = np.asarray(blocks)
        if arr.dtype.kind not in "iu" and not isinstance(blocks, np.ndarray):
            # rows of Python ints that int64 cannot hold make a float or
            # object array; converted to int64, they raise OverflowError
            np.asarray(blocks, dtype=np.int64)
    except OverflowError:
        raise ValidationError("block count outside the 64-bit integer range") from None
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"blocks must be rows of 5 integers: {exc}") from None
    arr = _integer_array(arr, "block counts", np.int64)
    if arr.shape == (0,):  # an empty sequence of rows
        arr = arr.reshape(0, 5)
    if arr.ndim != 2 or arr.shape[1] != 5:
        raise ValidationError(f"blocks must be rows of 5 integers, got shape {arr.shape}")
    settings = arr[:, 0]
    bad = _first_bad_setting(settings)
    if bad < settings.size:
        raise ValidationError(f"block setting index {settings[bad]} out of range")
    return arr


def _int64_totals(totals: np.ndarray) -> np.ndarray:
    """Exact block totals (see _block_sums) as int64, which they must fit."""
    if totals.dtype == object and ((totals > _INT64_MAX) | (totals < _INT64_MIN)).any():
        raise ValidationError("a setting pair's block total is outside the 64-bit integer range")
    return totals.astype(np.int64, copy=False)


def _block_sums(arr: np.ndarray, key: np.ndarray, size: int, bound: int = 0):
    """Sums of a block array's four count fields by key in 0..size-1,
    shape (4, size), and the largest magnitude a running sum can then have:
    bound plus the number of blocks times their largest count.  The sums
    are int64 while that fits, so that they cannot wrap, and Python ints
    otherwise; their range is not checked.
    """
    counts = arr[:, 1:]
    bound += len(arr) * max(int(counts.max(initial=0)), -int(counts.min(initial=0)))
    dtype = np.int64 if bound <= _INT64_MAX else object
    sums = np.zeros((4, size), dtype=dtype)
    for field_sums, column in zip(sums, counts.T):
        np.add.at(field_sums, key, column.astype(dtype, copy=False))
    return sums, bound


def tally_blocks(arr: np.ndarray, part: np.ndarray | int, k: int) -> np.ndarray:
    """Sums of the block counts by (field, setting pair, partition).

    arr is a block array; part gives each block's partition in 0..k-1.
    The four fields are n_trials, singles_a, singles_b and coincidences.
    The sums are int64, exactly as accumulating the records one by one;
    a sum outside the int64 range is a ValidationError.
    """
    sums, _ = _block_sums(arr, np.asarray(part) * 4 + arr[:, 0], 4 * k)
    return _int64_totals(sums).reshape(4, k, 4).transpose(0, 2, 1)


def blocks_to_counts(blocks: ArrayLike) -> CountsTable:
    """Aggregate blocks (see block_array) into a four-row counts table."""
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
    with _per_block_arrays(cfg.n_blocks):
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
    # each block's clock marks are this grid shifted by its first trial's start
    grid = np.arange(n, dtype=np.int64) * period

    for b, rng in enumerate(_block_rngs(cfg.rng_seed, 0, cfg.n_blocks)):
        combo = int(schedule[b])
        # per-pair joint detection probabilities; no detection is implicit
        q11 = q11s[combo]
        q10 = pA[combo] - q11
        q01 = pB[combo] - q11
        m = float(mult[b])
        mu = det.pair_mean * m

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
        times = times[order]
        trial_start = grid + b * n * period
        # each detection goes after the clock marks at or before its time,
        # so its record position is those marks plus the detections ahead of it
        pos = np.searchsorted(trial_start, times, side="right")
        pos += np.arange(pos.size)
        clock = np.ones(n + pos.size, dtype=bool)
        clock[pos] = False
        t = np.empty(clock.size, dtype=np.int64)
        t[clock] = trial_start
        t[pos] = times
        c = np.full(clock.size, CHANNEL_CLOCK, dtype=np.uint8)
        c[pos] = np.where(order < n_a, CHANNEL_ALICE, CHANNEL_BOB)
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

    Each block is sorted on its own.  Records of a block after the next
    block's floor, its lowest possible time one period before its first
    trial, wait and are merged into the next chunk, ahead of that
    block's records at equal keys.  A record at the floor stays: it is
    the block's last clock mark or a detection, and the next block holds
    only detections there, which the whole run sorts after it.  So the
    chunks concatenate to the one stable sort of the whole run by (time,
    clock marks first), and a block is copied into a merged chunk only
    when a record waits for it.
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
        cut = t.size if last else int(np.searchsorted(t, (b + 1) * n * period - period,
                                                      side="right"))
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


def blocks_to_csv(blocks: ArrayLike) -> str:
    """blocks.csv text of blocks (see block_array)."""
    buf = io.StringIO()
    _write_block_batches(buf, [block_array(blocks)])
    return buf.getvalue()


def _write_block_batches(fh, batches: Iterable[np.ndarray]) -> CountsTable:
    """Write batches of block arrays to a text file as blocks.csv rows, and
    return their counts table."""
    writer = csv.writer(fh)
    writer.writerow(_BLOCK_HEADER)
    tally = np.zeros((4, 4, 1), dtype=object)  # Python ints: the running sums cannot wrap
    for rows in batches:
        writer.writerows(rows.tolist())
        tally += tally_blocks(rows, 0, 1).astype(object)
    return CountsTable(*_int64_totals(tally)[..., 0])


def blocks_from_csv(text: str) -> np.ndarray:
    """The block array of blocks.csv text, shape (0, 5) when it has no rows."""
    return np.concatenate([np.empty((0, 5), dtype=np.int64),
                           *_read_block_batches(io.StringIO(text))])


# lines of blocks.csv per parsed batch
_PARSE_LINES = 1 << 14
_HEADER_LINE = ",".join(_BLOCK_HEADER)
# a block row's rules, each a message over its five values and a test of
# them (a block array's columns or one row's ints) that is true where the
# row breaks it; every count is a count of the row's trials
_BLOCK_RULES = (
    ("block setting index {0} out of range", lambda s, n, a, b, c: s > 3),
    ("coincidences exceed trials: {4} > {1}", lambda s, n, a, b, c: c > n),
    ("singles exceed trials: {2} or {3} > {1}", lambda s, n, a, b, c: (a > n) | (b > n)),
    ("coincidences exceed singles: {4} > min({2}, {3})",
     lambda s, n, a, b, c: (c > a) | (c > b)),
    # a - c and n - b cannot wrap: every value is in 0..2^63-1
    ("trials with a click exceed trials: {2} + {3} - {4} > {1}",
     lambda s, n, a, b, c: a - c > n - b),
)


def _read_block_batches(lines: Iterable[str]) -> Iterator[np.ndarray]:
    """The block array of blocks.csv lines, one batch of up to _PARSE_LINES
    lines at a time.

    The format is an optional header line (_HEADER_LINE), then one row per
    line of five fields of ASCII digits and commas, each line ending in LF
    or CRLF (the last may end the text instead) and keeping _BLOCK_RULES.
    np.loadtxt reads a batch (_parsed_batch); a batch it cannot is read
    line by line, to name its first bad line (_located_batch).
    """
    lines, lineno = iter(lines), 1
    while batch := list(itertools.islice(lines, _PARSE_LINES)):
        start, lineno = lineno, lineno + len(batch)
        if start == 1 and _line_body(batch[0]) == _HEADER_LINE:
            batch, start = batch[1:], 2
        arr = _parsed_batch(batch)
        yield _located_batch(batch, start) if arr is None else arr


def _line_body(line: str) -> str:
    """A line without its LF or CRLF ending; a bare CR stays."""
    return line[:-2] if line.endswith("\r\n") else line.removesuffix("\n")


def _parsed_batch(lines: list[str]) -> np.ndarray | None:
    """The block array of blocks.csv rows by np.loadtxt, or None unless
    they keep the format.  np.loadtxt skips a blank line, which leaves a
    row fewer than lines."""
    if not lines:
        return np.empty((0, 5), dtype=np.int64)
    text = "".join(lines)
    if (not text.isascii() or text.encode().translate(None, b"0123456789,\r\n")
            or text.count("\r") != text.count("\r\n")):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            arr = np.loadtxt(lines, delimiter=",", dtype=np.int64, comments=None, ndmin=2)
    except (ValueError, OverflowError, Warning):  # a Warning: only blank lines
        return None
    if arr.shape != (len(lines), 5) or any(broken(*arr.T).any() for _, broken in _BLOCK_RULES):
        return None
    return arr


def _located_batch(lines: list[str], start: int) -> np.ndarray:
    """The block array of blocks.csv rows read line by line, the first of
    lines being line `start`; the first line that breaks the format is a
    FormatError naming it and why."""
    rows = []
    for lineno, line in enumerate(lines, start):
        fields = _line_body(line).split(",")
        if len(fields) != 5:
            raise FormatError(f"expected 5 fields, got {reprlib.repr(_line_body(line))}", lineno)
        for f in fields:
            if not (f.isascii() and f.isdigit()):
                raise FormatError(f"field {reprlib.repr(f)} is not ASCII digits", lineno)
        # 20 significant digits already exceed 2^63 - 1, so int() reads no more
        values = [int(f.lstrip("0")[:20] or 0) for f in fields]
        if max(values) > _INT64_MAX:
            raise FormatError("block count outside the 64-bit integer range", lineno)
        for message, broken in _BLOCK_RULES:
            if broken(*values):
                raise FormatError(message.format(*values), lineno)
        rows.append(values)
    return np.array(rows, dtype=np.int64).reshape(-1, 5)
