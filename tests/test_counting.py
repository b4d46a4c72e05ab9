"""Timetag parsing, serialization, and the two counting disciplines."""

from collections import deque

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import bellsim as bs
from bellsim.counting import parse_settings, serialize_settings
from bellsim.errors import FormatError, ValidationError


def small_stream():
    # two trials of period 1000: both channels in trial 0, alice only in trial 1
    t = np.array([0, 100, 120, 1000, 1100])
    c = np.array([2, 0, 1, 2, 0])
    return bs.TimetagStream(t, c, trial_period_ns=1000.0)


# ---------------------------------------------------------------------------
# parsing and round trips


def test_parse_csv_example():
    stream = bs.parse_timetags(b"2,0\n0,1000\n1,1010\n", "csv")
    assert len(stream) == 3
    assert list(stream.channels) == [2, 0, 1]


def test_parse_empty():
    assert len(bs.parse_timetags(b"", "csv")) == 0
    assert len(bs.parse_timetags(b"", "binary")) == 0


@pytest.mark.parametrize(
    "payload",
    [b"2,0\n0\n", b"abc,5\n", b"7,100\n", b"0,100\n1,50\n", b"0,-4\n"],
)
def test_parse_csv_malformed(payload):
    with pytest.raises(FormatError):
        bs.parse_timetags(payload, "csv")


def test_parse_binary_malformed():
    with pytest.raises(FormatError):
        bs.parse_timetags(b"\x00" * 10, "binary")  # not a multiple of 9
    bad_channel = b"\x00" * 8 + b"\x09"
    with pytest.raises(FormatError):
        bs.parse_timetags(bad_channel, "binary")


def test_round_trips():
    stream = small_stream()
    for fmt in ("csv", "binary"):
        data = bs.serialize_timetags(stream, fmt)
        assert bs.parse_timetags(data, fmt) == stream


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
    table = bs.clock_windowed_counts(stream, [0])
    assert table.n_trials.tolist() == [1, 0, 0, 0]
    assert table.singles_a.tolist() == [1, 0, 0, 0]
    assert table.singles_b.tolist() == [1, 0, 0, 0]
    assert table.coincidences.tolist() == [1, 0, 0, 0]


def test_clock_window_rows_keyed_by_schedule():
    table = bs.clock_windowed_counts(small_stream(), [3, 1])
    assert table.n_trials.tolist() == [0, 1, 0, 1]
    assert table.coincidences.tolist() == [0, 0, 0, 1]
    assert table.singles_a.tolist() == [0, 1, 0, 1]
    assert table.singles_b.tolist() == [0, 0, 0, 1]


def test_clock_window_drops_pre_marker_detections():
    t = np.array([5, 10, 50])
    c = np.array([0, 2, 1])
    table = bs.clock_windowed_counts(bs.TimetagStream(t, c), [0])
    assert table.meta["pre_marker_detections_dropped"] == 1
    assert table.singles_a.tolist() == [0, 0, 0, 0]
    assert table.singles_b.tolist() == [1, 0, 0, 0]


def test_clock_window_requires_schedule_cover():
    with pytest.raises(ValidationError):
        bs.clock_windowed_counts(small_stream(), [0])


def test_clock_window_invariant_to_subboundary_perturbation():
    stream = small_stream()
    base = bs.clock_windowed_counts(stream, [2, 0])
    rng = np.random.default_rng(0)
    t = stream.timestamps.copy()
    det = stream.channels != bs.CHANNEL_CLOCK
    # shifts keep every detection strictly inside its original trial
    t[det] += rng.integers(-50, 400, size=det.sum())
    order = np.argsort(t, kind="stable")
    moved = bs.TimetagStream(t[order], stream.channels[order], trial_period_ns=1000.0)
    assert bs.clock_windowed_counts(moved, [2, 0]) == base


def test_clock_window_click_collapse():
    # three alice detections in one trial still count as one click
    t = np.array([0, 10, 11, 12, 15])
    c = np.array([2, 0, 0, 0, 1])
    table = bs.clock_windowed_counts(bs.TimetagStream(t, c), [0])
    assert table.singles_a.tolist() == [1, 0, 0, 0]
    assert table.coincidences.tolist() == [1, 0, 0, 0]


# ---------------------------------------------------------------------------
# event windowing


def test_event_window_pairs_within_radius():
    stream = small_stream()
    table = bs.event_windowed_counts(stream, 100, [0, 1])
    assert table.coincidences.tolist() == [1, 0, 0, 0]
    # singles are raw detections
    assert table.singles_a.tolist() == [1, 1, 0, 0]
    assert table.singles_b.tolist() == [1, 0, 0, 0]


def test_event_window_rejects_wide_windows():
    with pytest.raises(ValidationError):
        bs.event_windowed_counts(small_stream(), 500, [0, 1])


def test_event_window_each_event_used_once():
    # one alice detection flanked by two bob detections within the window:
    # only the earlier bob event pairs
    t = np.array([0, 100, 140, 180])
    c = np.array([2, 1, 0, 1])
    stream = bs.TimetagStream(t, c, trial_period_ns=1000.0)
    table = bs.event_windowed_counts(stream, 60, [0])
    assert int(table.coincidences.sum()) == 1


def test_event_window_adversarial_inflation_and_clock_sanity():
    rng = np.random.default_rng(11)
    settings = rng.integers(0, 4, size=4000)
    stream = bs.coincidence_time_stream(
        bs.coincidence_loophole_schedule(), settings, T_ns=1000, n_trials=4000
    )
    inflated = bs.event_windowed_counts(stream, 2000, settings)
    assert bs.ch_from_counts(inflated) == pytest.approx(1.0, abs=1e-12)
    sound = bs.clock_windowed_counts(stream, settings)
    assert bs.ch_from_counts(sound) <= 1e-12
    # window below T pairs nothing at all
    narrow = bs.event_windowed_counts(stream, 900, settings)
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
    sched = bs.trial_settings(cfg)
    clock = bs.clock_windowed_counts(stream, sched)
    event = bs.event_windowed_counts(stream, det.pulse_period_ns, sched)
    assert event == clock
    assert int(event.coincidences.sum()) > 0  # nontrivial comparison


def reference_event_coincidences(stream, window_ns, schedule):
    """Greedy earliest-first pairing with one pending queue per arm."""
    clocks = stream.clock_times()
    det = stream.channels != bs.CHANNEL_CLOCK
    trial = np.searchsorted(clocks, stream.timestamps[det], side="right") - 1
    keep = trial >= 0
    coincidences = np.zeros(4, dtype=np.int64)
    pending = (deque(), deque())  # alice, bob queues of (t, trial)
    w = int(window_ns)
    for t, ch, tr in zip(stream.timestamps[det][keep].tolist(),
                         stream.channels[det][keep].tolist(), trial[keep].tolist()):
        other = pending[1 - ch]
        while other and t - other[0][0] > w:
            other.popleft()
        if other:
            t0, tr0 = other.popleft()
            coincidences[schedule[tr0]] += 1
        else:
            pending[ch].append((t, tr))
    return coincidences.tolist()


def bursty_stream(seed, n_trials=300, period=100):
    """Trials with 0-3 detections each, same-arm bursts and early detections."""
    rng = np.random.default_rng(seed)
    per_trial = rng.integers(0, 4, size=n_trials)
    trial = np.repeat(np.arange(n_trials), per_trial)
    det_t = 20 + trial * period + rng.integers(0, period, size=trial.size)
    burst_ch = rng.integers(0, 2, size=n_trials)[trial]
    det_ch = np.where(rng.random(trial.size) < 0.7, burst_ch, 1 - burst_ch)
    t = np.concatenate([det_t, 30 + np.arange(n_trials) * period, rng.integers(0, 30, size=3)])
    c = np.concatenate([det_ch, np.full(n_trials, bs.CHANNEL_CLOCK), rng.integers(0, 2, size=3)])
    order = np.argsort(t, kind="stable")
    schedule = rng.integers(0, 4, size=n_trials)
    return bs.TimetagStream(t[order], c[order], trial_period_ns=float(period)), schedule


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("window_ns", [1, 8.33, 9, 25, 49.5])
def test_event_window_matches_two_queue_reference(seed, window_ns):
    stream, schedule = bursty_stream(seed)
    table = bs.event_windowed_counts(stream, window_ns, schedule)
    expected = reference_event_coincidences(stream, window_ns, schedule)
    assert table.coincidences.tolist() == expected
    assert sum(expected) > 0


def test_event_window_fractional_ns_is_exact():
    # window 8.33 ns: a pair 8 ns apart is within it, a pair 9 ns apart is not
    t = np.array([0, 10, 18, 100, 110, 119])
    c = np.array([2, 0, 1, 2, 0, 1])
    stream = bs.TimetagStream(t, c, trial_period_ns=100.0)
    table = bs.event_windowed_counts(stream, 8.33, [0, 1])
    assert table.coincidences.tolist() == [1, 0, 0, 0]
    assert reference_event_coincidences(stream, 8.33, [0, 1]) == [1, 0, 0, 0]


def test_row_totals_conservation():
    rng = np.random.default_rng(2)
    settings = rng.integers(0, 4, size=500)
    stream = bs.coincidence_time_stream(
        bs.coincidence_loophole_schedule(), settings, T_ns=500, n_trials=500
    )
    table = bs.clock_windowed_counts(stream, settings)
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


def test_window_policy_validation():
    with pytest.raises(ValidationError):
        bs.WindowPolicy("event")
    with pytest.raises(ValidationError):
        bs.WindowPolicy("banana")
    assert bs.WindowPolicy("clock").kind == "clock"
