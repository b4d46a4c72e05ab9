"""Spans and counters for the traced benchmark run.

The program is not instrumented.  Instead `installed()` rebinds, for the
length of one traced pipeline, the layer entry points as their callers
look them up at call time: `bellsim.cli.main`, the names `bellsim.cli`
imported from the other modules, the library functions the benchmark
calls through the `bellsim` package, `coincidence_prob` and
`singles_prob` as bound in `bellsim.eberhard` and `bellsim.engine`, and
`click_probabilities` as bound in `bellsim.eberhard`.  The benchmark
also opens a span around each of its own output checks.

Each span keeps its name, start, end and parent index.  Spans stay in
memory, are moved onto the speed clock's time after the run, and are
written out when the benchmark exits.  A layer's self
time is the duration of its spans minus the part covered by their child
spans.  Counters are taken from return values and input sizes at the
same boundaries; record, byte and bit-operation counts are computed
from array and file sizes, not measured.
"""

from __future__ import annotations

import collections
import contextlib
import time

import numpy as np

import bellsim
from bellsim import cli, counting, eberhard, engine

# span name -> per-layer self-time metric
SELF_TIME_METRICS = {
    "cli.main": "cli.self_s",
    "engine.simulate_blocks": "engine.simulate_blocks_s",
    "engine.simulate_timetags": "engine.simulate_timetags_s",
    "engine.blocks_io": "engine.blocks_io_s",
    "engine.click_prob": "engine.click_prob_s",
    "counting.serialize": "counting.serialize_s",
    "counting.parse": "counting.parse_s",
    "counting.clock": "counting.clock_s",
    "counting.event": "counting.event_s",
    "lhv.timing_stream": "lhv.timing_stream_s",
    "stats.estimate": "stats.estimate_s",
    "stats.partition": "stats.partition_s",
    "randomness.dire": "randomness.dire_s",
    "randomness.extract": "randomness.extract_s",
    "eberhard.sweep": "eberhard.sweep_s",
    "eberhard.optimize": "eberhard.optimize_s",
    "eberhard.critical_eff": "eberhard.critical_eff_s",
    "quantum": "quantum.self_s",
    "bench.check": "bench.check_s",
}

COUNTERS = (
    "cli.bytes_written",
    "cli.bytes_read",
    "engine.trials",
    "engine.timetag_records",
    "engine.clamped_events",
    "engine.click_prob_calls",
    "counting.timetag_bytes",
    "counting.event_detections",
    "counting.pre_marker_dropped",
    "stats.partition_ops",
    "stats.partition_failed",
    "randomness.extract_bitops",
    "quantum.calls",
    "quantum.elems",
)

# counters derived from array and file sizes rather than measured
COMPUTED_COUNTERS = (
    "cli.bytes_written", "cli.bytes_read", "counting.timetag_bytes",
    "counting.event_detections", "randomness.extract_bitops",
)

_TIMETAG_RECORD_BYTES = 9  # binary format: u64 timestamp + u8 channel


class NullTracer:
    """Untraced runs: spans cost nothing and nothing is counted."""

    @contextlib.contextmanager
    def span(self, name):
        yield

    def count(self, key, n=1):
        pass


class Tracer:
    """In-memory span list for one traced pipeline run."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: collections.Counter = collections.Counter()
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def count(self, key, n=1):
        self.counts[key] += n

    def retime(self, reference) -> None:
        """Map the perf_counter span times onto the speed clock's
        reference time (see speedclock.py)."""
        self.starts = [reference(t) for t in self.starts]
        self.ends = [reference(t) for t in self.ends]

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        covered = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                covered[parent] += self.ends[i] - self.starts[i]
        out: dict[str, float] = collections.defaultdict(float)
        for i, name in enumerate(self.names):
            out[name] += self.ends[i] - self.starts[i] - covered[i]
        return dict(out)

    def dump(self) -> dict:
        return {
            "fields": ["name", "start_s", "end_s", "parent"],
            "spans": [list(row) for row in zip(self.names, self.starts, self.ends, self.parents)],
        }

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of this traced pipeline run."""
        self_s = self.self_times()
        out = {metric: self_s.get(name, 0.0) for name, metric in SELF_TIME_METRICS.items()}
        out.update({key: self.counts[key] for key in COUNTERS if key != "quantum.elems"})
        calls = self.counts["quantum.calls"]
        out["quantum.elems_per_call"] = self.counts["quantum.elems"] / calls if calls else 0.0
        out["trace.wall_s"] = wall_s
        out["trace.accounted_frac"] = sum(self_s.values()) / wall_s
        out["trace.spans"] = len(self.names)
        return out


# ---------------------------------------------------------------------------
# rebinding the layer entry points


@contextlib.contextmanager
def rebound(bindings):
    """Replace each `module.attr` by `wrap(module.attr)` for the duration of
    the block, then restore the originals."""
    saved = []
    try:
        for module, attr, wrap in bindings:
            fn = getattr(module, attr)
            saved.append((module, attr, fn))
            setattr(module, attr, wrap(fn))
        yield
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


def _wrap(tracer: Tracer, fn, name, after=None, failed=None):
    def traced(*args, **kwargs):
        idx = tracer.open(name(args) if callable(name) else name)
        try:
            result = fn(*args, **kwargs)
        except Exception:
            if failed is not None:
                failed(tracer)
            raise
        finally:
            tracer.close(idx)
        if after is not None:
            after(tracer, args, result)
        return result

    return traced


def _after_simulate_blocks(tr, args, blocks):
    tr.count("engine.trials", sum(rec.n_trials for rec in blocks))


def _after_simulate_timetags(tr, args, stream):
    tr.count("engine.timetag_records", len(stream))
    tr.count("engine.clamped_events", int(stream.meta["clamped_events"]))


def _after_timetag_io(tr, args, result):
    stream = args[0] if isinstance(result, bytes) else result
    tr.count("counting.timetag_bytes", _TIMETAG_RECORD_BYTES * len(stream))


def _window_span(args) -> str:
    return "counting.clock" if args[1].kind == "clock" else "counting.event"


def _after_windowed_counts(tr, args, table):
    stream, policy = args[0], args[1]
    tr.count("counting.pre_marker_dropped", int(table.meta["pre_marker_detections_dropped"]))
    if policy.kind == "event":
        tr.count("counting.event_detections",
                 int(np.count_nonzero(stream.channels != counting.CHANNEL_CLOCK)))


def _after_partition(tr, args, result):
    tr.count("stats.partition_ops")


def _partition_failed(tr):
    tr.count("stats.partition_ops")
    tr.count("stats.partition_failed")


def _after_extract(tr, args, bits):
    tr.count("randomness.extract_bitops", int(np.size(args[0])) * int(bits.size))


def _after_quantum(tr, args, result):
    tr.count("quantum.calls")
    tr.count("quantum.elems", int(np.size(result)))


def _after_click(tr, args, result):
    tr.count("engine.click_prob_calls")


_PARTITION = ("stats.partition", _after_partition, _partition_failed)

# name in bellsim.cli -> (span name or function of the call args, counter hook[, failure hook])
_CLI_ENTRY_POINTS = {
    "main": ("cli.main", None),
    "simulate_blocks": ("engine.simulate_blocks", _after_simulate_blocks),
    "simulate_timetags": ("engine.simulate_timetags", _after_simulate_timetags),
    "blocks_to_csv": ("engine.blocks_io", None),
    "blocks_from_csv": ("engine.blocks_io", None),
    "blocks_to_counts": ("engine.blocks_io", None),
    "serialize_timetags": ("counting.serialize", _after_timetag_io),
    "parse_timetags": ("counting.parse", _after_timetag_io),
    "windowed_counts": (_window_span, _after_windowed_counts),
    "coincidence_loophole_schedule": ("lhv.timing_stream", None),
    "coincidence_time_stream": ("lhv.timing_stream", None),
    "bell_result": ("stats.estimate", None),
    "ch_from_counts": ("stats.estimate", None),
    "partition_sigma": _PARTITION,
    "dire_report": ("randomness.dire", None),
    "unpack_bits": ("randomness.dire", None),
    "write_extracted_bits": ("randomness.dire", None),
    "hash_extract": ("randomness.extract", _after_extract),
    "bprime_vs_r_sweep": ("eberhard.sweep", None),
    "sweep_to_csv": ("eberhard.sweep", None),
    "violation_interval": ("eberhard.sweep", None),
    "optimize": ("eberhard.optimize", None),
}

# library calls the workloads make through the bellsim package
_LIBRARY_CALLS = {
    "blocks_from_csv": ("engine.blocks_io", None),
    "partition_values": _PARTITION,
    "violations_by_partition": _PARTITION,
    "hacker_bound": ("stats.partition", None),
    "critical_efficiency": ("eberhard.critical_eff", None),
}


def installed(tracer: Tracer):
    """Rebind the traced entry points for the duration of the block."""
    def binding(module, attr, name, after=None, failed=None):
        return module, attr, lambda fn: _wrap(tracer, fn, name, after, failed)

    bindings = [binding(cli, attr, *spec) for attr, spec in _CLI_ENTRY_POINTS.items()]
    bindings += [binding(bellsim, attr, *spec) for attr, spec in _LIBRARY_CALLS.items()]
    for module in (eberhard, engine):
        for attr in ("coincidence_prob", "singles_prob"):
            bindings.append(binding(module, attr, "quantum", _after_quantum))
    bindings.append(binding(eberhard, "click_probabilities", "engine.click_prob", _after_click))
    return rebound(bindings)
