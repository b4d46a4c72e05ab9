"""Timetag parsing, serialization, and the two counting disciplines."""

from collections import deque
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import bellsim as bs
from bellsim import counting
from bellsim.cli import main
from bellsim.counting import TimetagFile, parse_settings, read_settings, serialize_settings
from bellsim.errors import FormatError, ValidationError


def small_stream():
    # two trials of period 1000: both channels in trial 0, alice only in trial 1
    t = np.array([0, 100, 120, 1000, 1100])
    c = np.array([2, 0, 1, 2, 0])
    return bs.TimetagStream(t, c)


def clock_counts(stream, schedule):
    return bs.windowed_counts(stream, bs.WindowPolicy("clock"), schedule)


def event_counts(stream, window_ns, schedule):
    return bs.windowed_counts(stream, bs.WindowPolicy("event", window_ns), schedule)


# ---------------------------------------------------------------------------
# parsing and round trips


def csv_text(stream):
    """The stream as timetag CSV, one "channel,timestamp_ns" line per record."""
    return "".join(f"{c},{t}\n" for c, t in zip(stream.channels.tolist(),
                                                 stream.timestamps.tolist()))


def test_parse_csv_example():
    stream = bs.parse_timetags(b"2,0\n0,1000\n1,1010\n")
    assert len(stream) == 3
    assert list(stream.channels) == [2, 0, 1]


def test_parse_empty(tmp_path):
    assert len(bs.parse_timetags(b"")) == 0
    path = tmp_path / "empty.bin"
    path.write_bytes(bs.serialize_timetags(bs.TimetagStream([], [])))
    assert len(TimetagFile(path)) == 0
    assert list(TimetagFile(path).chunks()) == []


@pytest.mark.parametrize(
    "payload",
    [b"2,0\n0\n", b"abc,5\n", b"7,100\n", b"0,100\n1,50\n", b"0,-4\n"],
)
def test_parse_csv_malformed(payload):
    with pytest.raises(FormatError):
        bs.parse_timetags(payload)


@pytest.mark.parametrize("payload, line", [(b"2,10\n2,5\n", 2),
                                           (b"\n\n2,10\n0,11\n2,5\n", 5)],
                         ids=["adjacent", "after-blank-lines"])
def test_parse_csv_regression_names_its_line(payload, line):
    with pytest.raises(FormatError, match="timestamp regression") as info:
        bs.parse_timetags(payload)
    assert info.value.position == line


def test_parse_binary_malformed(tmp_path):
    path = tmp_path / "stream.bin"
    path.write_bytes(b"\x00" * 10)  # not a multiple of 9
    with pytest.raises(FormatError):
        TimetagFile(path)
    path.write_bytes(b"\x00" * 8 + b"\x09")  # channel 9
    with pytest.raises(FormatError):
        list(TimetagFile(path).chunks())


def test_round_trips(tmp_path):
    stream = small_stream()
    assert bs.parse_timetags(csv_text(stream).encode()) == stream
    path = tmp_path / "stream.bin"
    path.write_bytes(bs.serialize_timetags(stream))
    assert list(TimetagFile(path).chunks()) == [stream]


def test_stream_invariants():
    with pytest.raises(ValidationError):
        bs.TimetagStream(np.array([5, 4]), np.array([0, 0]))
    with pytest.raises(ValidationError):
        bs.TimetagStream(np.array([1]), np.array([9]))


# ---------------------------------------------------------------------------
# settings files


@pytest.mark.parametrize("settings", [[], [0], [3, 1, 2, 0, 0, 3]])
def test_settings_round_trip(settings):
    data = serialize_settings(np.array(settings, dtype=np.int64))
    assert data == ("\n".join(str(i) for i in settings) + "\n").encode()
    assert parse_settings(data).tolist() == settings


@pytest.mark.parametrize("settings", [[0, 4], [-1]])
def test_serialize_settings_rejects_out_of_range_indices(settings):
    with pytest.raises(ValidationError):
        serialize_settings(np.array(settings))


def _int_tokens_or_error_line(text):
    """[int(t) for t in text.split()], or the line of the first token that
    is not an integer or does not fit in 64 bits."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        for token in line.split():
            try:
                value = int(token)
            except ValueError:
                return None, lineno
            if not -(2**63) <= value < 2**63:
                return None, lineno
    return [int(t) for t in text.split()], None


@given(st.text(alphabet="0123456789+-abxZ \t\n\r\x0b\x0c", max_size=60))
@example("0\n1\n2\n3\n9\n")
@example("0\n1\n2\n3\n9")
@example("3\r\n1\r\n")
@example("1\n\n")
@example("1\na\n")
@example("12345678901234567890\n")
@example("")
def test_parse_settings_matches_int_tokens(text):
    values, bad_line = _int_tokens_or_error_line(text)
    if bad_line is None:
        assert parse_settings(text.encode()).tolist() == values
    else:
        with pytest.raises(FormatError) as exc:
            parse_settings(text.encode())
        assert exc.value.position == bad_line


# ---------------------------------------------------------------------------
# clock windowing


def test_clock_window_single_trial():
    stream = bs.TimetagStream(np.array([0, 10, 20]), np.array([2, 0, 1]))
    table = clock_counts(stream, [0])
    assert table.n_trials.tolist() == [1, 0, 0, 0]
    assert table.singles_a.tolist() == [1, 0, 0, 0]
    assert table.singles_b.tolist() == [1, 0, 0, 0]
    assert table.coincidences.tolist() == [1, 0, 0, 0]


def test_clock_window_rows_keyed_by_schedule():
    table = clock_counts(small_stream(), [3, 1])
    assert table.n_trials.tolist() == [0, 1, 0, 1]
    assert table.coincidences.tolist() == [0, 0, 0, 1]
    assert table.singles_a.tolist() == [0, 1, 0, 1]
    assert table.singles_b.tolist() == [0, 0, 0, 1]


def test_clock_window_drops_pre_marker_detections():
    t = np.array([5, 10, 50])
    c = np.array([0, 2, 1])
    table = clock_counts(bs.TimetagStream(t, c), [0])
    assert table.meta["pre_marker_detections_dropped"] == 1
    assert table.singles_a.tolist() == [0, 0, 0, 0]
    assert table.singles_b.tolist() == [1, 0, 0, 0]


def test_clock_window_requires_schedule_cover():
    with pytest.raises(ValidationError):
        clock_counts(small_stream(), [0])


@pytest.mark.parametrize("policy", [bs.WindowPolicy("clock"), bs.WindowPolicy("event", 100)])
def test_out_of_range_schedule_is_rejected_before_the_pass(policy):
    stream = small_stream()
    stream.chunks = mock.Mock(wraps=stream.chunks)
    with pytest.raises(ValidationError, match="0..3"):
        bs.windowed_counts(stream, policy, [0, 4])
    assert stream.chunks.call_count == 0
    bs.windowed_counts(stream, policy, [0, 3])
    assert stream.chunks.call_count == 1


def test_schedule_cover_is_checked_before_the_event_window():
    stream, schedule, _ = _marks_1000_ns_apart()
    with pytest.raises(ValidationError, match="covers 1 trials, stream has 2"):
        event_counts(stream, 500, schedule[:1])


def test_clock_window_invariant_to_subboundary_perturbation():
    stream = small_stream()
    base = clock_counts(stream, [2, 0])
    rng = np.random.default_rng(0)
    t = stream.timestamps.copy()
    det = stream.channels != bs.CHANNEL_CLOCK
    # shifts keep every detection strictly inside its original trial
    t[det] += rng.integers(-50, 400, size=det.sum())
    order = np.argsort(t, kind="stable")
    moved = bs.TimetagStream(t[order], stream.channels[order])
    assert clock_counts(moved, [2, 0]) == base


def test_clock_window_click_collapse():
    # three alice detections in one trial still count as one click
    t = np.array([0, 10, 11, 12, 15])
    c = np.array([2, 0, 0, 0, 1])
    table = clock_counts(bs.TimetagStream(t, c), [0])
    assert table.singles_a.tolist() == [1, 0, 0, 0]
    assert table.coincidences.tolist() == [1, 0, 0, 0]


# ---------------------------------------------------------------------------
# event windowing


def test_event_window_pairs_within_radius():
    stream = small_stream()
    table = event_counts(stream, 100, [0, 1])
    assert table.coincidences.tolist() == [1, 0, 0, 0]
    # singles are raw detections
    assert table.singles_a.tolist() == [1, 1, 0, 0]
    assert table.singles_b.tolist() == [1, 0, 0, 0]


def test_event_window_rejects_wide_windows():
    with pytest.raises(ValidationError):
        event_counts(small_stream(), 500, [0, 1])


def test_event_window_each_event_used_once():
    # one alice detection flanked by two bob detections within the window:
    # only the earlier bob event pairs; the second clock mark sets the period
    t = np.array([0, 100, 140, 180, 1000])
    c = np.array([2, 1, 0, 1, 2])
    stream = bs.TimetagStream(t, c)
    table = event_counts(stream, 60, [0, 0])
    assert int(table.coincidences.sum()) == 1


def test_event_window_adversarial_inflation_and_clock_sanity():
    rng = np.random.default_rng(11)
    settings = rng.integers(0, 4, size=4000)
    stream = bs.coincidence_time_stream(
        bs.coincidence_loophole_schedule(), settings, T_ns=1000
    )
    inflated = event_counts(stream, 2000, settings)
    assert bs.ch_from_counts(inflated) == pytest.approx(1.0, abs=1e-12)
    sound = clock_counts(stream, settings)
    assert bs.ch_from_counts(sound) <= 1e-12
    # window below T pairs nothing at all
    narrow = event_counts(stream, 900, settings)
    assert int(narrow.coincidences.sum()) == 0


def test_event_window_matches_clock_when_events_simultaneous():
    # zero jitter, at most one pair per trial, no background: alice and bob
    # timestamps coincide, so a one-pulse-period window matches clock counting
    # exactly; at higher pair rates the disciplines genuinely differ, because
    # clock windows also count cross-pair accidentals within a trial
    det = bs.DetectionModel(eta_a=1.0, eta_b=1.0, pair_mean=5e-4, jitter_sigma_ns=0.0)
    cfg = bs.ExperimentConfig(
        state=bs.make_eberhard_state(0.7),
        settings=bs.MeasurementSettings(-11.25, 33.75, 11.25, -33.75),
        det=det, trials_per_block=20_000, n_blocks=4, rng_seed=21,
    )
    stream = bs.simulate_timetags(cfg)
    sched = stream.meta["trial_settings"]
    clock = clock_counts(stream, sched)
    event = event_counts(stream, det.pulse_period_ns, sched)
    assert event == clock
    assert int(event.coincidences.sum()) > 0  # nontrivial comparison


def reference_trials(stream):
    """Each detection's time, channel and trial, the one of the most recent
    clock mark at or before its time (-1 before the first mark)."""
    det = stream.channels != bs.CHANNEL_CLOCK
    t = stream.timestamps[det]
    return t, stream.channels[det], np.searchsorted(stream.clock_times(), t, side="right") - 1


def reference_clock_counts(stream, schedule):
    """The clock-windowed rows (n_trials, singles_a, singles_b,
    coincidences) and the count of detections before the first mark."""
    _, ch, trial = reference_trials(stream)
    keep = trial >= 0
    sched = np.asarray(schedule)[:stream.n_trials]
    clicks = np.zeros((2, sched.size), dtype=bool)
    clicks[ch[keep], trial[keep]] = True
    rows = [np.bincount(sched[clicked], minlength=4).tolist()
            for clicked in (slice(None), clicks[0], clicks[1], clicks[0] & clicks[1])]
    return rows, int(np.count_nonzero(~keep))


def reference_event_counts(stream, window_ns, schedule):
    """The event-windowed rows, singles as raw detections, and the count of
    detections before the first mark."""
    _, ch, trial = reference_trials(stream)
    keep = trial >= 0
    sched = np.asarray(schedule)[:stream.n_trials]
    singles = [np.bincount(sched[trial[keep & (ch == arm)]], minlength=4).tolist()
               for arm in (bs.CHANNEL_ALICE, bs.CHANNEL_BOB)]
    rows = [np.bincount(sched, minlength=4).tolist(), *singles,
            reference_event_coincidences(stream, window_ns, schedule)]
    return rows, int(np.count_nonzero(~keep))


def _rows(table):
    return [getattr(table, name).tolist()
            for name in ("n_trials", "singles_a", "singles_b", "coincidences")]


def reference_event_coincidences(stream, window_ns, schedule):
    """Greedy earliest-first pairing with one pending queue per arm."""
    det_t, det_ch, trial = reference_trials(stream)
    keep = trial >= 0
    coincidences = np.zeros(4, dtype=np.int64)
    pending = (deque(), deque())  # alice, bob queues of (t, trial)
    w = int(window_ns)
    for t, ch, tr in zip(det_t[keep].tolist(), det_ch[keep].tolist(), trial[keep].tolist()):
        other = pending[1 - ch]
        while other and t - other[0][0] > w:
            other.popleft()
        if other:
            t0, tr0 = other.popleft()
            coincidences[schedule[tr0]] += 1
        else:
            pending[ch].append((t, tr))
    return coincidences.tolist()


def bursty_stream(seed, n_trials=300, period=100, max_detections=3):
    """Trials with 0 to max_detections detections each, same-arm bursts and
    early detections."""
    rng = np.random.default_rng(seed)
    per_trial = rng.integers(0, max_detections + 1, size=n_trials)
    trial = np.repeat(np.arange(n_trials), per_trial)
    det_t = 20 + trial * period + rng.integers(0, period, size=trial.size)
    burst_ch = rng.integers(0, 2, size=n_trials)[trial]
    det_ch = np.where(rng.random(trial.size) < 0.7, burst_ch, 1 - burst_ch)
    t = np.concatenate([det_t, 30 + np.arange(n_trials) * period, rng.integers(0, 30, size=3)])
    c = np.concatenate([det_ch, np.full(n_trials, bs.CHANNEL_CLOCK), rng.integers(0, 2, size=3)])
    order = np.argsort(t, kind="stable")
    schedule = rng.integers(0, 4, size=n_trials)
    return bs.TimetagStream(t[order], c[order]), schedule


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("window_ns", [1, 8.33, 9, 25, 49.5])
def test_event_window_matches_two_queue_reference(seed, window_ns):
    stream, schedule = bursty_stream(seed)
    table = event_counts(stream, window_ns, schedule)
    expected = reference_event_coincidences(stream, window_ns, schedule)
    assert table.coincidences.tolist() == expected
    assert sum(expected) > 0


@pytest.mark.parametrize("seed", range(6))
def test_dense_event_window_matches_two_queue_reference(seed):
    # 0-6 detections per trial: a trial can hold several event-window pairs
    stream, schedule = bursty_stream(seed, max_detections=6)
    table = event_counts(stream, 49.5, schedule)
    assert table.coincidences.tolist() == reference_event_coincidences(stream, 49.5, schedule)


@pytest.mark.parametrize("chunk", [None, 2])
def test_dense_event_stream_analyzes_through_the_cli(chunk, tmp_path, monkeypatch):
    if chunk:
        monkeypatch.setattr(counting, "CHUNK_RECORDS", chunk)
    stream, schedule = bursty_stream(3, max_detections=6)
    table = event_counts(stream, 49.5, schedule)
    assert np.any(table.coincidences > table.n_trials)  # a row with more pairs than trials
    (tmp_path / "s.bin").write_bytes(bs.serialize_timetags(stream))
    (tmp_path / "s.txt").write_bytes(serialize_settings(schedule))
    assert main(["analyze", str(tmp_path / "s.bin"), "--window", "event:49.5",
                 "--settings", str(tmp_path / "s.txt"), "--out", str(tmp_path),
                 "--quiet"]) == 0


def test_event_window_fractional_ns_is_exact():
    # window 8.33 ns: a pair 8 ns apart is within it, a pair 9 ns apart is not
    t = np.array([0, 10, 18, 100, 110, 119])
    c = np.array([2, 0, 1, 2, 0, 1])
    stream = bs.TimetagStream(t, c)
    table = event_counts(stream, 8.33, [0, 1])
    assert table.coincidences.tolist() == [1, 0, 0, 0]
    assert reference_event_coincidences(stream, 8.33, [0, 1]) == [1, 0, 0, 0]


@pytest.mark.parametrize("window_ns", [float("nan"), float("inf"), 1e400, 0, -1])
def test_event_window_must_be_finite_and_positive(window_ns):
    with pytest.raises(ValidationError):
        bs.WindowPolicy("event", window_ns)


def _clustered_stream(window_ns, clusters, joins, splits, clock_offset, seed):
    """Detections in clusters whose members follow each other by a gap from
    `joins` (at most the window) and whose clusters follow by one from
    `splits` (beyond it); clock marks every 4w + 3 ns from clock_offset
    to past the last detection."""
    w = int(window_ns)
    times, chans = [], []
    t = 0
    for k, arms in enumerate(clusters):
        for j, arm in enumerate(arms):
            if times:
                t += joins[(k + j) % len(joins)] if j else splits[k % len(splits)]
            times.append(t)
            chans.append(arm)
    period = 4 * w + 3
    clocks = [clock_offset + period * k for k in range(t // period + 2)]
    order = np.argsort(np.array(times + clocks), kind="stable")
    stream = bs.TimetagStream(np.array(times + clocks)[order],
                              np.array(chans + [bs.CHANNEL_CLOCK] * len(clocks))[order])
    schedule = np.random.default_rng(seed).integers(0, 4, size=len(clocks))
    return stream, schedule


@given(window_ns=st.sampled_from([1, 8.33, 25]),
       clusters=st.lists(st.lists(st.integers(0, 1), min_size=1, max_size=6),
                         min_size=1, max_size=12),
       joins=st.lists(st.sampled_from(["w-1", "w"]), min_size=1, max_size=5),
       splits=st.lists(st.sampled_from(["w+1", "50w"]), min_size=1, max_size=5),
       clock_offset=st.integers(0, 60), seed=st.integers(0, 3))
def test_event_window_clusters_match_two_queue_reference(tmp_path_factory, window_ns,
                                                         clusters, joins, splits,
                                                         clock_offset, seed):
    # cluster edges fall exactly on the window, and on chunk edges
    w = int(window_ns)
    gap = {"w-1": w - 1, "w": w, "w+1": w + 1, "50w": 50 * w}
    stream, schedule = _clustered_stream(window_ns, clusters, [gap[g] for g in joins],
                                         [gap[g] for g in splits], clock_offset, seed)
    expected = event_counts(stream, window_ns, schedule)
    assert expected.coincidences.tolist() == reference_event_coincidences(
        stream, window_ns, schedule)
    path = tmp_path_factory.mktemp("clusters") / "stream.bin"
    path.write_bytes(bs.serialize_timetags(stream))
    for chunk in (1, 2, 7, counting.CHUNK_RECORDS):
        with mock.patch.object(counting, "CHUNK_RECORDS", chunk):
            table = event_counts(TimetagFile(path), window_ns, schedule)
        assert (table.to_json_dict(), table.meta) == (expected.to_json_dict(), expected.meta)


def test_row_totals_conservation():
    rng = np.random.default_rng(2)
    settings = rng.integers(0, 4, size=500)
    stream = bs.coincidence_time_stream(
        bs.coincidence_loophole_schedule(), settings, T_ns=500
    )
    table = clock_counts(stream, settings)
    n_alice = int(np.count_nonzero(stream.channels == bs.CHANNEL_ALICE))
    n_bob = int(np.count_nonzero(stream.channels == bs.CHANNEL_BOB))
    # the adversarial stream emits exactly one detection per arm per trial,
    # so click collapse loses nothing and totals must match exactly
    assert int(table.singles_a.sum()) == n_alice
    assert int(table.singles_b.sum()) == n_bob


# ---------------------------------------------------------------------------
# counts table serialization


def test_counts_json_round_trip(reference_counts):
    back = bs.CountsTable.from_json(reference_counts.to_json())
    assert back == reference_counts


def test_counts_json_missing_key():
    with pytest.raises(FormatError):
        bs.CountsTable.from_json('{"ab": {"n_trials": 1}}')


def test_counts_validation():
    with pytest.raises(ValidationError):
        bs.CountsTable(
            n_trials=np.array([1, 1, 1, 1]),
            singles_a=np.zeros(4),
            singles_b=np.zeros(4),
            coincidences=np.array([2, 0, 0, 0]),
        )


def test_only_event_tables_may_hold_more_pairs_than_trials():
    rows = dict(n_trials=[1, 1, 1, 1], singles_a=[2, 0, 0, 0], singles_b=[2, 0, 0, 0],
                coincidences=[2, 0, 0, 0])
    table = bs.CountsTable(**rows, meta={"window": "event:25"})
    assert table.coincidences.tolist() == [2, 0, 0, 0]
    with pytest.raises(ValidationError):
        bs.CountsTable(**rows, meta={"window": "clock"})
    with pytest.raises(ValidationError):
        bs.CountsTable.from_json(table.to_json())


def test_only_event_tables_may_hold_more_singles_than_trials():
    rows = dict(n_trials=[10, 10, 10, 10], singles_a=[0, 0, 0, 0], singles_b=[0, 20, 0, 0],
                coincidences=[0, 0, 0, 0])
    assert bs.CountsTable(**rows, meta={"window": "event:25"}).singles_b[1] == 20
    with pytest.raises(ValidationError, match="singles_b exceed trials"):
        bs.CountsTable(**rows)
    # an expected-value table may sit within rounding above its trials
    bs.CountsTable(n_trials=[0.5] * 4, singles_a=[0.5 + 1e-12] * 4, singles_b=[0.5] * 4,
                   coincidences=[0.5] * 4)


def test_window_policy_validation():
    with pytest.raises(ValidationError):
        bs.WindowPolicy("event")
    with pytest.raises(ValidationError):
        bs.WindowPolicy("banana")
    assert bs.WindowPolicy("clock").kind == "clock"


def test_event_window_extracts_clock_marks_once(monkeypatch):
    stream, schedule = bursty_stream(3)
    expected = reference_event_coincidences(stream, 25, schedule)
    calls = []
    clock_times = bs.TimetagStream.clock_times
    monkeypatch.setattr(bs.TimetagStream, "clock_times",
                        lambda self: calls.append(1) or clock_times(self))
    table = event_counts(stream, 25, schedule)
    assert len(calls) == 1
    assert table.coincidences.tolist() == expected


def test_clock_window_extracts_no_clock_marks(monkeypatch):
    stream, schedule = bursty_stream(3)
    expected = reference_clock_counts(stream, schedule)
    calls = []
    clock_times = bs.TimetagStream.clock_times
    monkeypatch.setattr(bs.TimetagStream, "clock_times",
                        lambda self: calls.append(1) or clock_times(self))
    table = clock_counts(stream, schedule)
    assert calls == []
    assert (_rows(table), table.meta["pre_marker_detections_dropped"]) == expected


@pytest.mark.parametrize("idx", [
    np.array([3, 0, 0, 2, 3, 3], dtype=np.uint8), np.arange(1000, dtype=np.int64) % 7 % 4,
    np.empty(0, dtype=np.uint8), np.empty(0, dtype=np.int64),
], ids=["uint8", "int64", "empty-uint8", "empty-int64"])
def test_setting_tally_equals_bincount(idx):
    tally = counting._setting_tally(idx)
    assert tally.dtype == np.int64
    assert tally.tolist() == np.bincount(idx, minlength=4).tolist()


@pytest.mark.parametrize("chunk", [2, 3, 5, counting.CHUNK_RECORDS])
def test_clock_spacings_tally_alike_when_equal_and_when_not(chunk, tmp_path, monkeypatch):
    # equal spacings, then spacings that vary within a chunk and across its
    # edges: pieces of equal gaps take one Counter entry, the rest np.unique.
    # The median, 150, falls between the two middle spacings, so a spacing
    # counted once too often or too rarely moves it.
    gaps = [100] * 8 + [300, 200, 300, 200, 200, 300, 200, 200]
    clocks = np.concatenate([[0], np.cumsum(gaps)])
    t = np.sort(np.concatenate([clocks, clocks[::3] + 7]))
    c = np.where(np.isin(t, clocks), bs.CHANNEL_CLOCK, bs.CHANNEL_ALICE)
    stream = bs.TimetagStream(t, c)
    period = float(np.median(gaps))
    path = tmp_path / "stream.bin"
    path.write_bytes(bs.serialize_timetags(stream))
    monkeypatch.setattr(counting, "CHUNK_RECORDS", chunk)
    schedule = np.zeros(clocks.size, dtype=np.uint8)
    for source in (stream, TimetagFile(path)):
        with mock.patch.object(counting.np, "unique", wraps=np.unique) as unique:
            with pytest.raises(ValidationError, match=f"half the trial period {period} ns"):
                event_counts(source, period / 2, schedule)
        clock_pieces = sum(piece.n_trials > 0 for piece in counting._pieces(source))
        # one piece holds every spacing; several take both paths
        if clock_pieces == 1:
            assert unique.call_count == 1
        else:
            assert 0 < unique.call_count < clock_pieces


def _marks_1000_ns_apart():
    t = np.array([0, 5, 10, 1000, 1005])
    c = np.array([2, 0, 1, 2, 0])
    return bs.TimetagStream(t, c), [0, 1], 25


def test_event_window_period_is_the_median_clock_spacing():
    stream, schedule, window = _marks_1000_ns_apart()
    table = event_counts(stream, window, schedule)
    assert table.coincidences.tolist() == [1, 0, 0, 0]
    with pytest.raises(ValidationError, match="half the trial period 1000.0 ns"):
        event_counts(stream, 500, schedule)


# ---------------------------------------------------------------------------
# chunked reading and counting


def _simulated():
    det = bs.DetectionModel(pair_mean=0.3, bg_a=0.01, bg_b=0.01)
    cfg = bs.ExperimentConfig(state=bs.make_eberhard_state(0.26),
                              settings=bs.reference_settings(), det=det,
                              trials_per_block=40, n_blocks=5, rng_seed=3)
    stream = bs.simulate_timetags(cfg)
    return stream, stream.meta["trial_settings"], 2000


def _adversarial():
    settings = np.random.default_rng(5).integers(0, 4, size=40)
    stream = bs.coincidence_time_stream(bs.coincidence_loophole_schedule(), settings,
                                        T_ns=1000)
    return stream, settings, 2000


# name -> (stream, schedule, event window) of the generated streams above
GENERATED = {
    "small": lambda: (small_stream(), [2, 1], 100),
    "simulated": _simulated,
    "adversarial": _adversarial,
    **{f"bursty-{seed}": (lambda seed=seed: (*bursty_stream(seed), 25)) for seed in range(3)},
    "dense": lambda: (*bursty_stream(4, max_detections=6), 49.5),
}


def _outcome(source, policy, schedule):
    """The table counted from source, as JSON and meta, or the message of
    the ValidationError that counting raises."""
    try:
        table = bs.windowed_counts(source, policy, schedule)
    except ValidationError as exc:
        return str(exc)
    return table.to_json_dict(), table.meta


@pytest.mark.parametrize("window", ["clock", "legal", "half-spacing", "wide"])
@pytest.mark.parametrize("name", ["marks-1000-ns-apart", "adversarial", "simulated"])
def test_memory_and_disk_count_alike(name, window, tmp_path):
    # the same records in memory and in a file: same table, or same error
    stream, schedule, legal = {"marks-1000-ns-apart": _marks_1000_ns_apart,
                               "adversarial": _adversarial, "simulated": _simulated}[name]()
    half_spacing = float(np.median(np.diff(stream.clock_times()))) / 2
    policy = {"clock": bs.WindowPolicy("clock"), "legal": bs.WindowPolicy("event", legal),
              "half-spacing": bs.WindowPolicy("event", half_spacing),
              "wide": bs.WindowPolicy("event", 3 * half_spacing)}[window]
    path = tmp_path / "stream.bin"
    path.write_bytes(bs.serialize_timetags(stream))
    in_memory = _outcome(stream, policy, schedule)
    assert _outcome(TimetagFile(path), policy, schedule) == in_memory
    assert isinstance(in_memory, str) == (window in ("half-spacing", "wide"))


def _counted(stream, schedule, window):
    tables = [clock_counts(stream, schedule),
              event_counts(stream, window, schedule)]
    return [(t.to_json_dict(), t.meta) for t in tables]


@pytest.mark.parametrize("chunk", [1, 2, 7])
@pytest.mark.parametrize("name", sorted(GENERATED))
def test_chunked_counts_equal_one_chunk(name, chunk, tmp_path, monkeypatch):
    stream, schedule, window = GENERATED[name]()
    path = tmp_path / "stream.bin"
    path.write_bytes(bs.serialize_timetags(stream))
    one_chunk = _counted(stream, schedule, window)
    assert _counted(TimetagFile(path), schedule, window) == one_chunk
    monkeypatch.setattr(counting, "CHUNK_RECORDS", chunk)
    assert _counted(TimetagFile(path), schedule, window) == one_chunk
    assert np.array_equal(TimetagFile(path).channels, stream.channels)


def test_chunks_keep_a_detection_with_the_clock_mark_it_shares_a_time_with(tmp_path,
                                                                            monkeypatch):
    # the detection at t = 10 precedes the clock mark at t = 10 in the file,
    # which starts its trial; chunk edges fall between them
    stream = bs.TimetagStream([0, 5, 10, 10, 10, 12], [2, 0, 1, 2, 0, 1])
    path = tmp_path / "stream.bin"
    path.write_bytes(bs.serialize_timetags(stream))
    monkeypatch.setattr(counting, "CHUNK_RECORDS", 3)
    table = clock_counts(TimetagFile(path), [0, 3])
    assert table.singles_b.tolist() == [0, 0, 0, 1]
    assert table == clock_counts(stream, [0, 3])


def _tied_by_hand():
    """Detections written ahead of a clock mark at their own time: one
    ahead of the first mark, one across the edge after record 5 (an edge
    at chunks of 2 and of 3), runs of equal-time detections, and one
    detection that precedes every mark."""
    records = [(2, 0), (5, 1), (5, 2), (40, 0), (40, 1), (100, 0), (100, 2), (100, 1),
               (150, 0), (150, 0), (150, 1), (200, 1), (200, 0), (200, 2), (200, 0),
               (300, 2), (310, 1), (400, 2)]
    t, c = zip(*records)
    return bs.TimetagStream(t, c), [0, 1, 2, 3, 1]


def _tied_at_random(seed, n_trials=60, period=100):
    """Detections on a few instants per trial, one of them the trial's
    clock mark, with the records at each time in random order."""
    rng = np.random.default_rng(seed)
    clocks = 10 + period * np.arange(n_trials)
    instants = np.concatenate([clocks, clocks + 13, clocks + period - 1])
    det_t = rng.choice(instants, size=3 * n_trials)
    det_t = np.concatenate([det_t, rng.integers(0, 11, size=3)])  # the last at the first mark
    t = np.concatenate([clocks, det_t])
    c = np.concatenate([np.full(n_trials, bs.CHANNEL_CLOCK), rng.integers(0, 2, size=det_t.size)])
    order = np.lexsort((rng.random(t.size), t))
    return bs.TimetagStream(t[order], c[order]), rng.integers(0, 4, size=n_trials)


TIED = {"by-hand": _tied_by_hand,
        **{f"random-{seed}": (lambda seed=seed: _tied_at_random(seed)) for seed in range(4)}}


@pytest.mark.parametrize("chunk", [2, 3, 1 << 18])
@pytest.mark.parametrize("name", sorted(TIED))
def test_detections_ahead_of_a_mark_at_their_time_count_in_its_trial(name, chunk, tmp_path,
                                                                      monkeypatch):
    # a file need not put clock marks first at equal times; a detection
    # belongs to the trial of the last mark at or before its time, whatever
    # the record order
    stream, schedule = TIED[name]()
    t, clock = stream.timestamps, stream.channels == bs.CHANNEL_CLOCK
    assert np.any(~clock[:-1] & clock[1:] & (t[:-1] == t[1:]))
    path = tmp_path / "stream.bin"
    path.write_bytes(bs.serialize_timetags(stream))
    monkeypatch.setattr(counting, "CHUNK_RECORDS", chunk)
    expected = {"clock": reference_clock_counts(stream, schedule),
                "event": reference_event_counts(stream, 25, schedule)}
    for source in (stream, TimetagFile(path)):
        for kind, table in (("clock", clock_counts(source, schedule)),
                            ("event", event_counts(source, 25, schedule))):
            got = (_rows(table), table.meta["pre_marker_detections_dropped"])
            assert got == expected[kind], (kind, type(source).__name__)


def _error(fn):
    try:
        fn()
    except FormatError as exc:
        return str(exc), exc.position
    return None


def _corrupted(data, faults):
    rec = np.frombuffer(data, dtype=counting._BINARY_DTYPE).copy()
    for kind, k in faults:
        if kind == "channel":
            rec["ch"][k] = 7
        elif kind == "range":
            rec["t"][k] = 2**63 + 5
        else:  # the record after k runs back in time
            rec["t"][k] = rec["t"][k + 1] + 1
    return rec.tobytes()


@pytest.mark.parametrize("chunk", [1, 2, 7])
@pytest.mark.parametrize("faults", [
    [("channel", 0)], [("channel", 7)], [("channel", 13)], [("range", 6)], [("range", 14)],
    [("regression", 6)], [("regression", 13)], [("channel", 9), ("range", 3)],
    [("regression", 2), ("channel", 12)], [("range", 8), ("channel", 8)],
])
def test_reader_errors_equal_one_chunk(faults, chunk, tmp_path, monkeypatch):
    path = tmp_path / "stream.bin"
    path.write_bytes(_corrupted(bs.serialize_timetags(bursty_stream(1)[0]), faults))
    expected = _error(lambda: list(TimetagFile(path).chunks()))  # one chunk
    assert expected is not None
    assert expected[1] == min(k + (kind == "regression") for kind, k in faults)
    monkeypatch.setattr(counting, "CHUNK_RECORDS", chunk)
    assert _error(lambda: list(TimetagFile(path).chunks())) == expected
    assert _error(lambda: clock_counts(TimetagFile(path), np.zeros(300))) == expected


def test_reader_rejects_a_partial_record(tmp_path):
    path = tmp_path / "stream.bin"
    path.write_bytes(b"\x00" * 20)
    assert _error(lambda: TimetagFile(path)) == (
        "binary stream length 20 is not a multiple of 9 bytes (at record/line 2)", 2)


@pytest.mark.parametrize("chunk", [1, None])
def test_reader_boundary_at_two_to_the_63(chunk, tmp_path, monkeypatch):
    # 2^63 - 1 is the last timestamp the signed view reads back unchanged
    if chunk:
        monkeypatch.setattr(counting, "CHUNK_RECORDS", chunk)
    path = tmp_path / "stream.bin"

    def write(last):
        path.write_bytes(
            np.array([(0, 2), (5, 0), (last, 1)], dtype=counting._BINARY_DTYPE).tobytes())

    write(2**63 - 1)
    streams = list(TimetagFile(path).chunks())
    assert all(s.timestamps.dtype == np.int64 for s in streams)
    assert np.concatenate([s.timestamps for s in streams]).tolist() == [0, 5, 2**63 - 1]

    write(2**63)
    expected = ("timestamp exceeds signed 64-bit range (at record/line 2)", 2)
    assert _error(lambda: list(TimetagFile(path).chunks())) == expected


@pytest.mark.parametrize("chunk", [1, 2, 7])
@pytest.mark.parametrize("data", [b"", b"0\n3\n1\n2\n", b"0\n3\n1\n2", b"3\r\n1\r\n",
                                  b"0\n1\n4\n9\n", b"1\n\n", b"1\nx\n"])
def test_read_settings_equals_parse_settings(data, chunk, tmp_path, monkeypatch):
    path = tmp_path / "settings.txt"
    path.write_bytes(data)
    monkeypatch.setattr(counting, "CHUNK_RECORDS", chunk)
    try:
        expected = parse_settings(data).tolist()
    except FormatError as exc:
        with pytest.raises(FormatError) as got:
            read_settings(path)
        assert got.value.position == exc.position
    else:
        settings = read_settings(path)
        assert settings.tolist() == expected
        if data.endswith(b"3\n1\n2\n"):  # the format serialize_settings writes
            assert settings.dtype == np.uint8
