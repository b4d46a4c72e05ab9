"""Timetag streams, parsing, and the two coincidence-counting disciplines.

A timetag stream is an ordered list of (timestamp_ns, channel) records,
channel 0 = alice, 1 = bob, 2 = trial clock.  Exactly one clock record
marks the start of each trial.

Two counting disciplines are provided:

- clock windowing: every detection belongs to the trial of the most
  recent clock marker.  A trial yields at most one click per arm and a
  coincidence when both arms click.  This discipline cannot be inflated
  by shifting detection times inside a trial.
- event windowing: a coincidence is any alice/bob detection pair within
  |dt| <= window_ns, paired greedily earliest-first with each detection
  used at most once.  This is the discipline that a hostile source with
  an emission-time schedule can exploit, and it is provided exactly so
  that the exploit can be demonstrated.

Serialized formats:

- CSV: one record per line, "channel,timestamp_ns".
- binary: repeated 9-byte records, little-endian uint64 timestamp_ns
  followed by one channel byte.
- settings file: the setting-pair index (0-3) of each trial, one per
  line.  The reader accepts any whitespace-separated integers.
- counts JSON: object with rows keyed "ab", "ab'", "a'b", "a'b'", each
  carrying n_trials, singles_a, singles_b, coincidences.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, ValidationError

CHANNEL_ALICE = 0
CHANNEL_BOB = 1
CHANNEL_CLOCK = 2

SETTING_LABELS = ("ab", "ab'", "a'b", "a'b'")

_BINARY_DTYPE = np.dtype([("t", "<u8"), ("ch", "u1")])

_INT64_MIN, _INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)


@dataclass(eq=False)
class TimetagStream:
    """Ordered detection/clock records plus trial-geometry header fields."""

    timestamps: np.ndarray
    channels: np.ndarray
    trial_period_ns: float | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.timestamps = np.asarray(self.timestamps, dtype=np.int64)
        self.channels = np.asarray(self.channels, dtype=np.uint8)
        if self.timestamps.shape != self.channels.shape or self.timestamps.ndim != 1:
            raise ValidationError("timestamps and channels must be 1-D and equal length")
        if self.timestamps.size and np.any(np.diff(self.timestamps) < 0):
            idx = int(np.argmax(np.diff(self.timestamps) < 0))
            raise ValidationError(f"timestamps regress at record {idx + 1}")
        if self.channels.size and self.channels.max() > CHANNEL_CLOCK:
            raise ValidationError("unknown channel id in stream")

    def __len__(self) -> int:
        return int(self.timestamps.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TimetagStream):
            return NotImplemented
        return (
            np.array_equal(self.timestamps, other.timestamps)
            and np.array_equal(self.channels, other.channels)
        )

    @property
    def n_trials(self) -> int:
        return int(np.count_nonzero(self.channels == CHANNEL_CLOCK))

    def clock_times(self) -> np.ndarray:
        return self.timestamps[self.channels == CHANNEL_CLOCK]

    def inferred_trial_period_ns(self, clocks: np.ndarray | None = None) -> float:
        """Header trial period, or the median clock spacing as a fallback.

        `clocks` is `clock_times()` when the caller already holds it.
        """
        if self.trial_period_ns is not None:
            return float(self.trial_period_ns)
        if clocks is None:
            clocks = self.clock_times()
        if clocks.size < 2:
            raise ValidationError("cannot infer trial period from fewer than 2 clock marks")
        return float(np.median(np.diff(clocks)))


def parse_timetags(data: bytes | str, fmt: str = "csv") -> TimetagStream:
    """Parse a serialized stream; rejects malformed records and time regressions."""
    if fmt == "csv":
        if isinstance(data, bytes):
            try:
                text = data.decode("ascii")
            except UnicodeDecodeError as exc:
                raise FormatError(f"timetag CSV is not ASCII: {exc}") from None
        else:
            text = data
        chans: list[int] = []
        times: list[int] = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise FormatError(f"expected 'channel,timestamp_ns', got {line!r}", lineno)
            try:
                ch, ts = int(parts[0]), int(parts[1])
            except ValueError:
                raise FormatError(f"non-integer field in {line!r}", lineno) from None
            if ch not in (CHANNEL_ALICE, CHANNEL_BOB, CHANNEL_CLOCK):
                raise FormatError(f"unknown channel {ch}", lineno)
            if ts < 0:
                raise FormatError(f"negative timestamp {ts}", lineno)
            if ts > _INT64_MAX:
                raise FormatError("timestamp exceeds signed 64-bit range", lineno)
            chans.append(ch)
            times.append(ts)
        t = np.array(times, dtype=np.int64)
        c = np.array(chans, dtype=np.uint8)
    elif fmt == "binary":
        if isinstance(data, str):
            raise FormatError("binary format requires bytes input")
        if len(data) % _BINARY_DTYPE.itemsize:
            raise FormatError(
                f"binary stream length {len(data)} is not a multiple of 9 bytes",
                len(data) // _BINARY_DTYPE.itemsize,
            )
        rec = np.frombuffer(data, dtype=_BINARY_DTYPE)
        if rec.size and rec["t"].max() > _INT64_MAX:
            raise FormatError("timestamp exceeds signed 64-bit range")
        bad = np.nonzero(rec["ch"] > CHANNEL_CLOCK)[0]
        if bad.size:
            raise FormatError(f"unknown channel {int(rec['ch'][bad[0]])}", int(bad[0]))
        t = rec["t"].astype(np.int64)
        c = rec["ch"].astype(np.uint8)
    else:
        raise ValidationError(f"unknown timetag format {fmt!r}")

    if t.size and np.any(np.diff(t) < 0):
        idx = int(np.argmax(np.diff(t) < 0)) + 1
        raise FormatError("timestamp regression", idx)
    return TimetagStream(t, c)


def serialize_timetags(stream: TimetagStream, fmt: str = "binary") -> bytes:
    if fmt == "csv":
        lines = [f"{int(c)},{int(t)}" for c, t in zip(stream.channels, stream.timestamps)]
        return ("\n".join(lines) + ("\n" if lines else "")).encode("ascii")
    if fmt == "binary":
        rec = np.empty(len(stream), dtype=_BINARY_DTYPE)
        rec["t"] = stream.timestamps.astype(np.uint64)
        rec["ch"] = stream.channels
        return rec.tobytes()
    raise ValidationError(f"unknown timetag format {fmt!r}")


def serialize_settings(settings) -> bytes:
    """Settings-file bytes: each trial's index 0..3 as one ASCII digit per line."""
    idx = np.asarray(settings)
    if idx.size == 0:
        return b"\n"
    if idx.min() < 0 or idx.max() > 3:
        raise ValidationError("setting indices must be in 0..3")
    lines = np.empty((idx.size, 2), dtype=np.uint8)
    lines[:, 0] = idx
    lines[:, 0] += ord("0")
    lines[:, 1] = ord("\n")
    return lines.tobytes()


def parse_settings(data: bytes) -> np.ndarray:
    """Setting indices of a settings file of whitespace-separated integers.

    The format serialize_settings writes, one digit and a newline per
    line, is read as an array; any other file token by token.  A token
    that is not an integer, or not a 64-bit one, raises a FormatError
    naming its line.
    """
    raw = np.frombuffer(data, dtype=np.uint8)
    if raw.size and raw.size % 2 == 0:
        digits = raw[0::2] - np.uint8(ord("0"))  # non-digits wrap above 9
        if np.all(raw[1::2] == ord("\n")) and np.all(digits <= 9):
            return digits.astype(np.int64)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"settings file is not UTF-8 text: {exc}") from None
    try:
        return np.array([int(token) for token in text.split()], dtype=np.int64)
    except (ValueError, OverflowError):
        raise _settings_format_error(text) from None


def _settings_format_error(text: str) -> FormatError:
    """The error for the first entry of a settings file that is not a 64-bit integer."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        for token in line.split():
            try:
                value = int(token)
            except ValueError:
                return FormatError(f"settings file: non-integer entry {token!r}", lineno)
            if not _INT64_MIN <= value <= _INT64_MAX:
                return FormatError(f"settings file: entry {token!r} is out of range", lineno)
    return FormatError("settings file: non-integer entry")


# ---------------------------------------------------------------------------
# counts tables


_COUNT_FIELDS = ("n_trials", "singles_a", "singles_b", "coincidences")


@dataclass(eq=False)
class CountsTable:
    """Per setting-pair trial, singles, and coincidence counts (4 rows).

    Rows follow SETTING_LABELS order: (a,b), (a,b'), (a',b), (a',b').
    Counts are integers for measured data; tables of expected values
    (drift predictions) may carry floats.
    """

    n_trials: np.ndarray
    singles_a: np.ndarray
    singles_b: np.ndarray
    coincidences: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in _COUNT_FIELDS:
            arr = np.asarray(getattr(self, name))
            if arr.shape != (4,):
                raise ValidationError(f"{name} must have exactly 4 rows, got {arr.shape}")
            if np.issubdtype(arr.dtype, np.integer):
                arr = arr.astype(np.int64)
            else:
                arr = arr.astype(np.float64)
            if np.any(arr < 0):
                raise ValidationError(f"{name} contains negative entries")
            setattr(self, name, arr)
        if np.any(self.coincidences > np.maximum(self.n_trials, 0) + 1e-9):
            raise ValidationError("coincidences exceed trials in some row")

    def __eq__(self, other) -> bool:
        if not isinstance(other, CountsTable):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, f), getattr(other, f))
            for f in _COUNT_FIELDS
        )

    @property
    def total_trials(self):
        return self.n_trials.sum()

    def to_json_dict(self) -> dict:
        def num(x):
            return int(x) if float(x).is_integer() else float(x)

        return {
            label: {name: num(getattr(self, name)[i]) for name in _COUNT_FIELDS}
            for i, label in enumerate(SETTING_LABELS)
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    @classmethod
    def from_json_dict(cls, doc: dict) -> "CountsTable":
        if not isinstance(doc, dict):
            raise FormatError("counts JSON must be an object keyed by setting label")
        try:
            rows = [doc[label] for label in SETTING_LABELS]
            if not all(isinstance(row, dict) for row in rows):
                raise FormatError("each counts row must be an object of counts")
            columns = {name: [row[name] for row in rows] for name in _COUNT_FIELDS}
        except KeyError as exc:
            raise FormatError(f"counts JSON is missing key {exc}") from None
        for name, column in columns.items():
            if any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in column):
                raise FormatError(f"counts field {name!r} must be numeric, got {column!r}")
        return cls(**{name: np.array(column) for name, column in columns.items()})

    @classmethod
    def from_json(cls, text: str) -> "CountsTable":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FormatError(f"counts JSON does not parse: {exc}") from None
        return cls.from_json_dict(doc)


@dataclass(frozen=True)
class WindowPolicy:
    """Which coincidence-counting discipline to apply."""

    kind: str  # "clock" | "event"
    window_ns: float | None = None

    def __post_init__(self):
        if self.kind not in ("clock", "event"):
            raise ValidationError(f"window kind must be 'clock' or 'event', got {self.kind!r}")
        if self.kind == "event" and not (self.window_ns and self.window_ns > 0):
            raise ValidationError("event windowing requires window_ns > 0")


def _prepare(stream: TimetagStream, clocks: np.ndarray, schedule) -> tuple:
    """Split one stream, whose clock marks are `clocks`, into markers and
    trial-assigned detections."""
    if clocks.size == 0:
        raise ValidationError("stream has no trial-clock markers")
    schedule = np.asarray(schedule, dtype=np.int64)
    if schedule.ndim != 1 or schedule.size < clocks.size:
        raise ValidationError(
            f"settings schedule covers {schedule.size} trials, stream has {clocks.size}"
        )
    if schedule.size and (schedule.min() < 0 or schedule.max() > 3):
        raise ValidationError("setting indices must be in 0..3")
    det_mask = stream.channels != CHANNEL_CLOCK
    det_t = stream.timestamps[det_mask]
    det_ch = stream.channels[det_mask]
    trial = np.searchsorted(clocks, det_t, side="right") - 1
    early = trial < 0
    n_early = int(np.count_nonzero(early))
    return clocks, schedule[: clocks.size], det_t[~early], det_ch[~early], trial[~early], n_early


def clock_windowed_counts(stream: TimetagStream, schedule) -> CountsTable:
    """Count clicks per trial interval defined by the clock markers.

    A detection belongs to the trial of the most recent marker; detections
    before the first marker are excluded and tallied in table.meta.
    """
    clocks, sched, _, det_ch, trial, n_early = _prepare(stream, stream.clock_times(), schedule)
    n = clocks.size
    a_click = np.zeros(n, dtype=bool)
    b_click = np.zeros(n, dtype=bool)
    a_click[trial[det_ch == CHANNEL_ALICE]] = True
    b_click[trial[det_ch == CHANNEL_BOB]] = True
    coinc = a_click & b_click

    n_trials = np.bincount(sched, minlength=4)
    singles_a = np.bincount(sched[a_click], minlength=4)
    singles_b = np.bincount(sched[b_click], minlength=4)
    coincidences = np.bincount(sched[coinc], minlength=4)
    return CountsTable(
        n_trials, singles_a, singles_b, coincidences,
        meta={"window": "clock", "pre_marker_detections_dropped": n_early},
    )


def event_windowed_counts(stream: TimetagStream, window_ns: float, schedule) -> CountsTable:
    """Count coincidences as detection pairs within |dt| <= window_ns.

    Pairing is greedy earliest-first with each detection used once; a
    coincidence is attributed to the trial of its earlier member.  Singles
    are raw detection counts per trial.  The window must stay below half
    the trial period, otherwise this discipline is rejected outright.
    """
    if window_ns <= 0:
        raise ValidationError("window_ns must be positive")
    clocks = stream.clock_times()
    period = stream.inferred_trial_period_ns(clocks)
    if window_ns >= period / 2.0:
        raise ValidationError(
            f"event window {window_ns} ns >= half the trial period {period} ns; "
            "use clock windowing instead"
        )
    clocks, sched, det_t, det_ch, trial, n_early = _prepare(stream, clocks, schedule)

    singles_a = np.bincount(sched[trial[det_ch == CHANNEL_ALICE]], minlength=4)
    singles_b = np.bincount(sched[trial[det_ch == CHANNEL_BOB]], minlength=4)

    # A detection only queues when no opposite-arm detection is waiting,
    # so the unpaired detections pending at any time all share one channel.
    # On integer timestamps dt > int(w) exactly when dt > w.
    w = int(window_ns)
    times = det_t.tolist()
    queue: deque = deque()  # indices of unpaired detections on channel queue_ch
    queue_ch = -1
    first = []  # the earlier member of each coincidence
    for i, ch in enumerate(det_ch.tolist()):
        if queue and ch != queue_ch:
            t = times[i]
            while queue and t - times[queue[0]] > w:
                queue.popleft()
            if queue:
                first.append(queue.popleft())
                continue
        queue.append(i)
        queue_ch = ch
    coincidences = np.bincount(sched[trial[np.array(first, dtype=np.intp)]], minlength=4)

    n_trials = np.bincount(sched, minlength=4)
    return CountsTable(
        n_trials, singles_a, singles_b, coincidences,
        meta={"window": f"event:{window_ns}", "pre_marker_detections_dropped": n_early},
    )


def windowed_counts(stream: TimetagStream, policy: WindowPolicy, schedule) -> CountsTable:
    if policy.kind == "clock":
        return clock_windowed_counts(stream, schedule)
    return event_windowed_counts(stream, policy.window_ns, schedule)
