"""Timetag streams, parsing, and the two coincidence-counting disciplines.

A timetag stream is an ordered list of (timestamp_ns, channel) records,
channel 0 = alice, 1 = bob, 2 = trial clock.  Exactly one clock record
marks the start of each trial.  Records are ordered by time, clock marks
first at equal times (sort_records).  No stream carries a trial period:
the period is the median spacing of the stream's clock marks.

windowed_counts is the one function that counts a stream, under one of
two disciplines (WindowPolicy):

- clock windowing: every detection belongs to the trial of the most
  recent clock marker.  A trial yields at most one click per arm and a
  coincidence when both arms click.  This discipline cannot be inflated
  by shifting detection times inside a trial.
- event windowing: a coincidence is any alice/bob detection pair within
  |dt| <= window_ns, paired greedily earliest-first with each detection
  used at most once.  This is the discipline that a hostile source with
  an emission-time schedule can exploit, and it is provided exactly so
  that the exploit can be demonstrated.  The window must stay below half
  the period, which is known, and so checked, only after the pass.

windowed_counts takes a TimetagStream in memory, or a binary file
(TimetagFile) that it counts chunk by chunk, carrying its state across
chunk edges, so that memory does not grow with the length of the run.
A read never splits a timestamp: its trailing run of equal times waits
for the next read.  Trials are counted once, from the schedule, after
the pass.  A schedule index outside 0..3 is rejected before the pass;
after it, a schedule that does not cover every trial, and then an
event window at or above half the period.

Both disciplines assign a detection to its trial by record position:
its trial index is the number of clock marks ahead of it in the
stream, less one, so no clock timestamp is read for it.  The reader checks time order
but not the clock-first order at equal times, so a file may write a
detection ahead of a clock mark at its own time.  That detection still
belongs to the mark's trial: one whose next record shares its
timestamp counts the marks at or before its time instead.  Only event
windowing reads the clock timestamps, for the period.

Serialized formats:

- CSV: one record per line, "channel,timestamp_ns", read whole by
  parse_timetags; a format for small hand-made files.
- binary: repeated 9-byte records, little-endian uint64 timestamp_ns
  followed by one channel byte, written by serialize_timetags and read
  chunk by chunk by TimetagFile.
- settings file: the setting-pair index (0-3) of each trial, or of each
  block in a config's schedule file, one per line.  The reader accepts
  any whitespace-separated integers.
- counts JSON: object with rows keyed "ab", "ab'", "a'b", "a'b'", each
  carrying n_trials, singles_a, singles_b, coincidences.
"""

from __future__ import annotations

import json
import math
import os
from collections import Counter, deque
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, ValidationError

CHANNEL_ALICE = 0
CHANNEL_BOB = 1
CHANNEL_CLOCK = 2

SETTING_LABELS = ("ab", "ab'", "a'b", "a'b'")

_BINARY_DTYPE = np.dtype([("t", "<u8"), ("ch", "u1")])
# the same records with signed timestamps: those beyond the signed range read negative
_SIGNED_DTYPE = np.dtype([("t", "<i8"), ("ch", "u1")])

_INT64_MIN, _INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)

# records per chunk when binary timetags and settings files are read and counted
CHUNK_RECORDS = 1 << 18

# a settings line "0\n" read as one little-endian 16-bit word; "k\n" is k more
_DIGIT_LINE = ord("0") | ord("\n") << 8


@dataclass(eq=False)
class TimetagStream:
    """Ordered detection/clock records."""

    timestamps: np.ndarray
    channels: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.timestamps = _integer_array(self.timestamps, "timestamps", np.int64)
        self.channels = _integer_array(self.channels, "channels", np.uint8)
        if self.timestamps.shape != self.channels.shape or self.timestamps.ndim != 1:
            raise ValidationError("timestamps and channels must be 1-D and equal length")
        idx = _first_regression(self.timestamps)
        if idx < self.timestamps.size:
            raise ValidationError(f"timestamps regress at record {idx}")
        if self.timestamps.size and self.timestamps[0] < 0:  # sorted, so the least
            raise ValidationError(f"negative timestamp {self.timestamps[0]} at record 0")
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

    def chunks(self):
        """The stream as ordered chunks of records: here the whole stream."""
        yield self


def _integer_array(values, name: str, dtype=None) -> np.ndarray:
    """values as an integer array, of dtype when one is given (else of
    their own integer dtype, or int64); a ValidationError that names them
    when the cast would change them.  Integers that need no cast are only
    looked at for their dtype, so that a long array costs no pass."""
    arr = np.asarray(values)
    if arr.dtype.kind in "iu" and (dtype is None or arr.dtype == dtype):
        return arr
    info = np.iinfo(np.int64 if dtype is None else dtype)
    whole = arr.dtype.kind in "iu" or (
        arr.dtype.kind == "f" and bool(np.all(np.isfinite(arr) & (np.trunc(arr) == arr))))
    if arr.size and not (whole and info.min <= int(arr.min()) and int(arr.max()) <= info.max):
        sign = "signed" if info.min else "unsigned"
        raise ValidationError(f"{name} must be integers" + (
            "" if dtype is None else f" in the {sign} {info.bits}-bit range"))
    return arr.astype(info.dtype, copy=False)


def _records(timestamps: np.ndarray, channels: np.ndarray) -> TimetagStream:
    """A stream of records that the caller has already checked."""
    stream = object.__new__(TimetagStream)
    stream.timestamps, stream.channels, stream.meta = timestamps, channels, {}
    return stream


def sort_records(timestamps: np.ndarray, channels: np.ndarray) -> tuple:
    """(timestamps, channels) in record order: stably by time, clock marks
    ahead of detections at equal times."""
    order = np.lexsort((channels != CHANNEL_CLOCK, timestamps))
    return timestamps[order], channels[order]


def _first(mask: np.ndarray) -> int:
    """Index of the first true entry of a 1-D mask, or its length if none is."""
    idx = int(np.argmax(mask)) if mask.size else 0
    return idx if mask.size and mask[idx] else mask.size


def _first_bad_setting(idx: np.ndarray) -> int:
    """Index of the first entry of a 1-D array of setting indices outside
    0..3, or its length if none is."""
    if idx.size and (idx.min() < 0 or idx.max() > 3):
        return _first((idx < 0) | (idx > 3))
    return idx.size


def _first_regression(t: np.ndarray, prev=None) -> int:
    """Index of the first timestamp below the one before it (`prev` comes
    before t[0]), or len(t) if time never runs backwards."""
    if t.size and prev is not None and t[0] < prev:
        return 0
    return min(t.size, 1 + _first(t[1:] < t[:-1]))


def _first_bad_record(t: np.ndarray, ch: np.ndarray, start: int, prev) -> FormatError:
    """The error naming the first bad one of records (t, ch), the first
    of which is record `start` of its stream and follows a record at time
    `prev`; t is the signed view of the timestamps, so one beyond the
    signed 64-bit range reads as negative.

    A record is bad for a timestamp beyond that range, an unknown channel
    or a time regression, in that order of precedence.
    """
    faults = (
        (_first(t < 0), "timestamp exceeds signed 64-bit range"),
        (_first(ch > CHANNEL_CLOCK), "unknown channel"),
        (_first_regression(t, prev), "timestamp regression"),
    )
    idx, what = min(faults, key=lambda fault: fault[0])
    if what == "unknown channel":
        what = f"unknown channel {int(ch[idx])}"
    return FormatError(what, start + idx)


def _records_ok(t: np.ndarray, ch: np.ndarray, prev) -> bool:
    """Whether binary records, their timestamps in the signed view, hold no
    bad record (see _first_bad_record), in three passes that locate nothing."""
    return (t.min() >= 0 and ch.max() <= CHANNEL_CLOCK
            and (prev is None or prev <= t[0]) and not (t[1:] < t[:-1]).any())


class TimetagFile:
    """A binary timetag file, read CHUNK_RECORDS records at a time.

    This is the one reader of the binary format.  windowed_counts takes
    it in place of a TimetagStream.  Each chunk is checked for
    timestamps beyond the signed 64-bit range, unknown channels and time
    regressions, time order across chunk edges included, and an error
    names the record's index in the file.
    """

    def __init__(self, path):
        self.path = path
        size = os.path.getsize(path)
        if size % _BINARY_DTYPE.itemsize:
            raise FormatError(
                f"binary stream length {size} is not a multiple of 9 bytes",
                size // _BINARY_DTYPE.itemsize,
            )
        self._n_records = size // _BINARY_DTYPE.itemsize

    def __len__(self) -> int:
        return self._n_records

    @property
    def channels(self) -> np.ndarray:
        """Every record's channel, mapped from the file rather than read."""
        if not self._n_records:
            return np.empty(0, dtype=np.uint8)
        return np.memmap(self.path, dtype=_BINARY_DTYPE, mode="r")["ch"]

    def chunks(self):
        """The file as ordered chunks; none splits a timestamp, since each
        read but the last holds back its trailing run of equal times for the next.

        Each read's columns are copied once, behind the records held back,
        and checked there (see _first_bad_record)."""
        prev = None
        held_t, held_c = np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint8)
        with open(self.path, "rb") as fh:
            for start in range(0, self._n_records, CHUNK_RECORDS):
                rec = np.fromfile(fh, dtype=_SIGNED_DTYPE, count=CHUNK_RECORDS)
                h = held_t.size
                t, c = np.empty(h + rec.size, dtype=np.int64), np.empty(h + rec.size, np.uint8)
                t[:h], c[:h] = held_t, held_c
                t[h:], c[h:] = rec["t"], rec["ch"]
                if not _records_ok(t[h:], c[h:], prev):
                    raise _first_bad_record(t[h:], c[h:], start, prev)
                prev = t[-1]
                last = start + CHUNK_RECORDS >= self._n_records
                cut = t.size if last else int(np.searchsorted(t, t[-1]))
                held_t, held_c = t[cut:], c[cut:]
                yield _records(t[:cut], c[:cut])


def parse_timetags(data: bytes | str) -> TimetagStream:
    """Parse a CSV stream; rejects malformed records and time regressions."""
    if isinstance(data, bytes):
        try:
            text = data.decode("ascii")
        except UnicodeDecodeError as exc:
            raise FormatError(f"timetag CSV is not ASCII: {exc}") from None
    else:
        text = data
    chans: list[int] = []
    times: list[int] = []
    linenos: list[int] = []
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
        linenos.append(lineno)
    t = np.array(times, dtype=np.int64)
    idx = _first_regression(t)
    if idx < t.size:
        raise FormatError("timestamp regression", linenos[idx])
    return _records(t, np.array(chans, dtype=np.uint8))


def serialize_timetags(stream: TimetagStream) -> bytes:
    """The stream as binary records."""
    rec = np.empty(len(stream), dtype=_BINARY_DTYPE)
    rec["t"] = stream.timestamps  # non-negative, so the same in unsigned bits
    rec["ch"] = stream.channels
    return rec.tobytes()


def serialize_settings(settings) -> bytes:
    """Settings-file bytes: each trial's index 0..3 as one ASCII digit per line."""
    return _setting_lines(settings).tobytes()


def _setting_lines(settings) -> np.ndarray:
    """serialize_settings' bytes as an array, for a file to write through
    the buffer protocol: one little-endian word per line, or one newline
    byte for no trials."""
    idx = _integer_array(settings, "setting indices")
    if idx.size == 0:
        return np.frombuffer(b"\n", dtype=np.uint8)
    if _first_bad_setting(idx) < idx.size:
        raise ValidationError("setting indices must be in 0..3")
    # each line, a digit and then a newline, is one little-endian word
    lines = idx.astype("<u2")
    lines += _DIGIT_LINE
    return lines


def parse_settings(data: bytes) -> np.ndarray:
    """Setting indices of a settings file of whitespace-separated integers,
    read token by token.  A token that is not an integer, or not a 64-bit
    one, raises a FormatError naming its line.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"settings file is not UTF-8 text: {exc}") from None
    try:
        return np.array([int(token) for token in text.split()], dtype=np.int64)
    except (ValueError, OverflowError):
        raise _settings_format_error(text) from None


def read_settings(path) -> np.ndarray:
    """parse_settings of a file.  A file in the format serialize_settings
    writes, one digit and a newline per line, is read CHUNK_RECORDS lines
    at a time into one byte per trial; any other file by parse_settings."""
    size = os.path.getsize(path)
    if size and size % 2 == 0:
        settings = np.empty(size // 2, dtype=np.uint8)
        with open(path, "rb") as fh:
            for start in range(0, settings.size, CHUNK_RECORDS):
                digits = np.fromfile(fh, dtype="<u2", count=CHUNK_RECORDS)
                digits -= _DIGIT_LINE  # any word but a digit and a newline wraps above 9
                if digits.max() > 9:
                    break
                settings[start:start + digits.size] = digits
            else:
                return settings
    with open(path, "rb") as fh:
        return parse_settings(fh.read())


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
    (drift predictions) may carry floats.  A row counts trials, so its
    singles and coincidences are at most its trials, its coincidences at
    most either singles, and singles_a + singles_b - coincidences, the
    trials with a click, at most its trials; only an event-windowed table
    (meta["window"] "event:...") is exempt, since it counts detections and
    detection pairs, several of which can fall in one trial.
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
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"{name} contains non-finite entries")
            if np.any(arr < 0):
                raise ValidationError(f"{name} contains negative entries")
            setattr(self, name, arr)
        if not str(self.meta.get("window", "")).startswith("event:"):
            for name in ("coincidences", "singles_a", "singles_b"):
                if np.any(getattr(self, name) > self.n_trials + 1e-9):
                    raise ValidationError(f"{name} exceed trials in some row")
            if np.any(self.coincidences > np.minimum(self.singles_a, self.singles_b) + 1e-9):
                raise ValidationError("coincidences exceed singles in some row")
            # neither difference can wrap: every count is in 0..n_trials
            if np.any(self.singles_a - self.coincidences > self.n_trials - self.singles_b + 1e-9):
                raise ValidationError("trials with a click exceed trials in some row")

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
        if self.kind == "event" and not (
                self.window_ns and math.isfinite(self.window_ns) and self.window_ns > 0):
            raise ValidationError("event windowing requires a finite window_ns > 0")


class _TrialWalk:
    """The detections of a chunked stream, assigned to trials.

    Iterating yields, per chunk of the stream, (start, chunk, det_t,
    det_ch, trial): the index of the chunk's first clock mark in the
    whole stream, the chunk itself, and its detections with the index of
    their trial, the one of the most recent mark at or before them.
    Detections before the first mark are dropped and counted in n_early;
    n_clocks counts the marks walked so far.
    """

    def __init__(self, source):
        self.source = source
        self.n_clocks = 0
        self.n_early = 0

    def __iter__(self):
        for chunk in self.source.chunks():
            start = self.n_clocks
            det_t, det_ch, trial = _detection_trials(chunk, start)
            self.n_clocks += len(chunk) - det_t.size
            if start == 0:
                kept = trial >= 0
                self.n_early += int(kept.size - np.count_nonzero(kept))
                det_t, det_ch, trial = det_t[kept], det_ch[kept], trial[kept]
            yield start, chunk, det_t, det_ch, trial


def _detection_trials(chunk: TimetagStream, start: int) -> tuple:
    """(det_t, det_ch, trial) of the chunk's detections, the chunk's first
    clock mark being mark `start` of the stream.

    A detection's trial comes from its record position: the marks ahead
    of it in the chunk are its position less the detections ahead of
    it.  A detection whose next record shares its timestamp, which may
    be a mark written after it, counts the marks at or before its time
    instead; no chunk splits a timestamp, so that count needs only the chunk.
    """
    t = chunk.timestamps
    pos = np.flatnonzero(chunk.channels != CHANNEL_CLOCK)
    det_t = t[pos]
    # a detection in the last record meets itself; the count is exact for any detection
    tie = np.flatnonzero(t[np.minimum(pos + 1, t.size - 1)] == det_t)
    # pos[i] - i, built in place so that few arrays of the detections' size live at once
    trial = np.arange(start - 1, start - 1 - pos.size, -1)
    trial += pos
    trial[tie] = (np.searchsorted(t, det_t[tie], side="right")
                  - np.searchsorted(det_t, det_t[tie], side="right") + (start - 1))
    return det_t, chunk.channels[pos], trial


def _setting_tally(idx: np.ndarray) -> np.ndarray:
    """np.bincount(idx, minlength=4) of setting indices in 0..3, counted
    without widening idx to intp."""
    return np.array([np.count_nonzero(idx == k) for k in range(4)], dtype=np.int64)


def _clock_tally(tally: np.ndarray, walk: _TrialWalk, sched: np.ndarray) -> None:
    """Add to tally's click rows the clock-windowed counts of the walk's
    trials; a trial open at the end of a chunk carries its clicks into the next."""

    def close(trials, a_click, b_click):
        for row, clicked in enumerate((a_click, b_click, a_click & b_click), start=1):
            tally[row] += _setting_tally(trials[clicked])

    open_clicks = np.zeros(2, dtype=bool)  # alice, bob in the trial open between chunks
    for start, _, _, det_ch, trial in walk:
        if not 0 < walk.n_clocks <= sched.size:
            continue
        # slot j holds the clicks of trial start - 1 + j: the open trial, then one per mark
        clicks = np.zeros((2, walk.n_clocks - start + 1), dtype=bool)
        clicks[det_ch, trial - (start - 1)] = True
        clicks[:, 0] |= open_clicks
        open_clicks = clicks[:, -1]
        first = 0 if start else 1  # before the first mark no trial is open
        close(sched[start - 1 + first:walk.n_clocks - 1], *clicks[:, first:-1])
    if 0 < walk.n_clocks <= sched.size:
        close(sched[walk.n_clocks - 1:walk.n_clocks], *open_clicks[:, None])


def _median_spacing(spacings: Counter) -> float:
    """np.median of the clock spacings tallied as {spacing: count}."""
    total = sum(spacings.values())
    if total < 1:
        raise ValidationError("cannot infer trial period from fewer than 2 clock marks")
    values = sorted(spacings)
    ranks = np.cumsum([spacings[v] for v in values])
    middle = [values[int(np.searchsorted(ranks, rank, side="right"))]
              for rank in ((total - 1) // 2, total // 2)]
    return float(np.mean(np.array(middle)))


def _add_spacings(spacings: Counter, clocks: np.ndarray, before: np.ndarray) -> None:
    """Add to spacings the gaps between consecutive clock times, the first
    one from `before`, the mark ahead of them if any."""
    if before.size:
        spacings[int(clocks[0] - before[0])] += 1
    gaps = clocks[1:] - clocks[:-1]
    if gaps.size and gaps.min() == gaps.max():
        spacings[int(gaps[0])] += gaps.size
    else:
        values, counts = np.unique(gaps, return_counts=True)
        spacings.update(dict(zip(values.tolist(), counts.tolist())))


def _event_tally(tally: np.ndarray, walk: _TrialWalk, window_ns: float,
                 sched: np.ndarray) -> Counter:
    """Add to tally's click rows the event-windowed counts of the walk's
    detections and return the spacings of its clock marks, as {spacing: count}.

    Pairing is greedy earliest-first with each detection used once; a
    coincidence is attributed to the trial of its earlier member, so a
    trial can hold several.  Singles are raw detection counts per trial.
    Detections still waiting for a partner carry across chunk edges.

    Splitting the time-ordered detections wherever consecutive times
    differ by more than the window cuts them into clusters that pair
    independently: no pair spans two clusters, and a detection left
    waiting from an earlier cluster has expired for every later one, so
    it is dropped from the queue before any live entry is looked at.  A
    cluster of one detection pairs with nothing and a cluster of two is
    one coincidence exactly when it holds both arms.  Only larger
    clusters, the last cluster of a chunk (it may go on in the next) and
    the cluster holding detections carried from earlier chunks walk the
    queue.
    """
    spacings: Counter = Counter()
    last_clock = np.empty(0, dtype=np.int64)
    # A detection only queues when no opposite-arm detection is waiting,
    # so the unpaired detections pending at any time all share one channel.
    # On integer timestamps dt > int(w) exactly when dt > w.
    w = int(window_ns)
    pending_t = pending_trial = np.empty(0, dtype=np.int64)
    queue_ch = -1
    for start, chunk, det_t, det_ch, trial in walk:
        if walk.n_clocks > start:
            clocks = chunk.clock_times()
            _add_spacings(spacings, clocks, last_clock)
            last_clock = clocks[-1:]
        if walk.n_clocks > sched.size:
            continue
        tally[1] += _setting_tally(sched[trial[det_ch == CHANNEL_ALICE]])
        tally[2] += _setting_tally(sched[trial[det_ch == CHANNEL_BOB]])

        # clusters: runs of detections, the pending ones first, split where
        # consecutive times differ by more than w
        times = np.concatenate([pending_t, det_t])
        trials = np.concatenate([pending_trial, trial])
        bounds = np.concatenate(([0], np.flatnonzero(np.diff(times) > w) + 1, [times.size]))
        sizes = np.diff(bounds)
        walked = sizes >= 3
        walked[-1] = True  # it may continue into the next chunk
        walked[0] |= pending_t.size > 0
        # a two-detection cluster on both arms is one coincidence; a cluster
        # that is not walked holds no pending detection, so it indexes det_*
        pairs = bounds[:-1][~walked & (sizes == 2)] - pending_t.size
        pairs = pairs[det_ch[pairs] != det_ch[pairs + 1]]
        tally[3] += _setting_tally(sched[trial[pairs]])

        # the queue walks the rest: its entries index the pending detections
        # followed by this chunk's walked ones
        kept = np.repeat(walked, sizes)
        times, trials, det_ch = times[kept], trials[kept], det_ch[kept[pending_t.size:]]
        tl = times.tolist()
        queue = deque(range(pending_t.size))
        first = []  # the earlier member of each coincidence
        for i, ch in enumerate(det_ch.tolist(), start=pending_t.size):
            if queue and ch != queue_ch:
                t = tl[i]
                while queue and t - tl[queue[0]] > w:
                    queue.popleft()
                if queue:
                    first.append(queue.popleft())
                    continue
            queue.append(i)
            queue_ch = ch
        tally[3] += _setting_tally(sched[trials[np.array(first, dtype=np.intp)]])
        # later detections are no earlier than this chunk's last one
        while queue and tl[-1] - tl[queue[0]] > w:
            queue.popleft()
        waiting = np.fromiter(queue, dtype=np.intp, count=len(queue))
        pending_t, pending_trial = times[waiting], trials[waiting]
    return spacings


def windowed_counts(stream, policy: WindowPolicy, schedule) -> CountsTable:
    """Count a TimetagStream or a TimetagFile under the policy's discipline.

    A detection belongs to the trial of the most recent clock mark at or
    before it; detections before the first mark are excluded and tallied
    in table.meta["pre_marker_detections_dropped"].  Each trial's row is
    its setting index in the schedule.  The schedule's indices are checked
    to lie in 0..3 before the pass; after it, that the schedule covers
    every trial, and then that an event window lies below half the median
    clock spacing.
    """
    sched = _integer_array(schedule, "setting indices")
    if sched.ndim != 1:
        raise ValidationError(f"settings schedule must be 1-D, got shape {sched.shape}")
    if _first_bad_setting(sched) < sched.size:
        raise ValidationError("setting indices must be in 0..3")
    walk = _TrialWalk(stream)
    tally = np.zeros((4, 4), dtype=np.int64)  # n_trials, singles_a, singles_b, coincidences
    if policy.kind == "clock":
        _clock_tally(tally, walk, sched)
    else:
        spacings = _event_tally(tally, walk, policy.window_ns, sched)
    if walk.n_clocks == 0:
        raise ValidationError("stream has no trial-clock markers")
    if sched.size < walk.n_clocks:
        raise ValidationError(
            f"settings schedule covers {sched.size} trials, stream has {walk.n_clocks}")
    tally[0] = sum(_setting_tally(sched[i:min(i + CHUNK_RECORDS, walk.n_clocks)])
                   for i in range(0, walk.n_clocks, CHUNK_RECORDS))  # no run-sized temporary
    if policy.kind == "event":
        period = _median_spacing(spacings)
        if policy.window_ns >= period / 2.0:
            raise ValidationError(
                f"event window {policy.window_ns} ns >= half the trial period {period} ns; "
                "use clock windowing instead")
    window = "clock" if policy.kind == "clock" else f"event:{policy.window_ns}"
    return CountsTable(*tally, meta={"window": window,
                                     "pre_marker_detections_dropped": walk.n_early})
