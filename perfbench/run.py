"""bellsim benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload paper-blocks --seed 6 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a source checkout; the package is imported from
its `src/` directory, never from an installed copy.  A run times the
import of the package and the benchmark's modules in this process and
in six fresh ones, sets up the workload nine times (inputs from
`--seed`, then a small warm-up run), and reports the median import time
plus the median set-up time as `setup_s`.
It then repeats the workload's pipeline for about `--seconds` (at least
twice, so that every run also checks that a rerun with the same seed
reproduces its output files byte for byte) and reports the median
pipeline time as `wall_s`, and as `peak_rss_mb` the process's peak RSS
over set-up and the first pipeline run.

Every time is taken on the speed clock of speedclock.py: wall time
with the host's speed drift taken out, in seconds at a fixed reference
speed.  The plain wall times are kept in the run's record beside them
(`raw_wall_s`).

With `--trace 1` untraced and traced pipeline runs alternate, and the
run reports the per-layer metrics of `BENCHMARK.json` from the traced
ones (see spans.py), with `trace.overhead_frac` = traced over untraced
median wall time, minus 1.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  `failed` counts every operation
that exits non-zero, raises, writes no output or fails its output check.
`correct` is false when any of these failures is not a known defect of
the program; the one known defect is the partition calls that raise on a
partition without all four settings (see workloads.py).  Each run also
writes `perfbench/out/<workload>-seed<n>-trace<t>.json` with the
environment, every pipeline time and every failure, and a traced run
writes its spans next to it.

`--workload all` runs every workload in its own process, one after the
other, and prints the end-to-end metrics and `ops_failed_frac` of each.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speedclock

# one pipeline at a time on a 2-CPU machine: no library thread pools
THREAD_CAPS = {
    var: "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}
os.environ.update(THREAD_CAPS)

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("paper-blocks", "timetag-stream", "design-sweep")
SETUP_REPEATS = 9
IMPORT_PROBES = 6
# the imports a run makes before it sets up, timed in a fresh interpreter
IMPORT_PROBE = """
import sys, time
sys.path[:0] = sys.argv[1:]
import speedclock
clock = speedclock.SpeedClock(0.02).start()
t0 = time.perf_counter()
import bellsim, spans, workloads
t1 = time.perf_counter()
time.sleep(0.05)  # samples after the import too
clock.stop()
print(clock.elapsed(t0, t1))
"""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=6)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must be a non-negative 64-bit integer")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def declared_metrics(kind: str) -> dict[str, str]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[kind]}


def environment(workload) -> dict:
    import numpy as np

    def first_line(path: Path, prefix: str) -> str | None:
        try:
            for line in path.read_text().splitlines():
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return None

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    revision = None  # an exported checkout has no .git; the source digest still identifies it
    if (ROOT / ".git").exists():
        try:
            revision = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                      text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "bellsim").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total": first_line(Path("/proc/meminfo"), "MemTotal"),
        "cpu_model": first_line(Path("/proc/cpuinfo"), "model name"),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_revision": revision,
        "source_sha256": source.hexdigest(),
        "thread_caps": THREAD_CAPS,
        "workload": workload.name,
        "seed": workload.seed,
        "input_sizes": workload.sizes,
        "why": workload.why,
    }


def run_workload(args) -> int:
    if not (ROOT / "src" / "bellsim" / "__init__.py").is_file():
        print(f"error: no bellsim source under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    clock = speedclock.SpeedClock().start()
    try:
        return measure(args, clock)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)


def measure(args, clock) -> int:
    t0 = time.perf_counter()
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    import bellsim
    import spans
    import workloads

    import_span = (t0, time.perf_counter())
    if Path(bellsim.__file__).resolve().parent != ROOT / "src" / "bellsim":
        print(f"error: imported bellsim from {bellsim.__file__}", file=sys.stderr)
        return 2
    probe_times = []
    for _ in range(IMPORT_PROBES):
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src"),
                                str(BENCH_DIR)], capture_output=True, text=True, timeout=60)
        if probe.returncode != 0:
            print(f"import probe failed: {probe.stderr}", file=sys.stderr)
            return 1
        probe_times.append(float(probe.stdout))

    work = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](args.seed, work)
    try:
        setup_spans = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(work, ignore_errors=True)
            t0 = time.perf_counter()
            workload.setup()
            warm = workloads.Ops(spans.NullTracer())
            workload.warm_up(warm)
            setup_spans.append((t0, time.perf_counter()))
            if warm.failed:
                print(f"warm-up failed: {warm.failures}", file=sys.stderr)
                return 1

        ops = workloads.Ops(spans.NullTracer())
        runs, tracers = [], []  # (start, end, tracer or None) of each pipeline run
        t_loop = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(runs) > 2 * len(tracers)
            tracer = spans.Tracer() if traced else spans.NullTracer()
            ops.tracer = tracer
            workload.clean()
            with (workload.observed(),
                  spans.installed(tracer) if traced else contextlib.nullcontext()):
                t0 = time.perf_counter()
                workload.pipeline(ops)
                t1 = time.perf_counter()
            runs.append((t0, t1, tracer if traced else None))
            if traced:
                tracers.append(tracer)
            if len(runs) == 1:
                # later runs only add allocator fragmentation, not memory the pipeline needs
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            # stop at the pipeline end nearest to --seconds, after at least two
            # runs (the second checks reproducibility) and one traced run if asked
            if (t1 - t_loop + (t1 - t0) / 2 >= args.seconds and len(runs) >= 2
                    and (tracers or not args.trace)):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    clock.stop()
    import_times = [clock.elapsed(*import_span), *probe_times]
    setup_times = [clock.elapsed(t0, t1) for t0, t1 in setup_spans]
    walls = [clock.elapsed(t0, t1) for t0, t1, tracer in runs if tracer is None]
    raw_walls = [clock.wall(t0, t1) for t0, t1, tracer in runs if tracer is None]
    traced_walls, layer_runs, dumps = [], [], []
    for t0, t1, tracer in runs:
        if tracer is not None:
            tracer.retime(clock.reference)
            traced_walls.append(clock.elapsed(t0, t1))
            layer_runs.append(tracer.metrics(traced_walls[-1]))
            dumps.append(tracer.dump())

    e2e = {
        "wall_s": statistics.median(walls),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(import_times) + statistics.median(setup_times),
    }
    if args.trace:
        declared = declared_metrics("per_layer")
        # times vary from run to run, counts repeat exactly
        layer = {name: layer_runs[-1][name] if unit == "count"
                 else statistics.median([run[name] for run in layer_runs])
                 for name, unit in declared.items() if name != "trace.overhead_frac"}
        overhead = statistics.median(traced_walls) / statistics.median(walls) - 1.0
        layer["trace.overhead_frac"] = overhead
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in declared.items()}
    else:
        declared = declared_metrics("end_to_end")
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in declared.items()}

    result = {
        "correct": ops.unexpected == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "result": result,
        "end_to_end": e2e,
        "ops_failed_frac": ops.failed / ops.attempted,
        "wall_s_runs": walls,
        "raw_wall_s": statistics.median(raw_walls),
        "raw_wall_s_runs": raw_walls,
        "speed_samples": len(clock.starts),
        "traced_wall_s_runs": traced_walls,
        "import_s_runs": import_times,
        "setup_s_runs": setup_times,
        "failures": ops.failures,
        "computed_counters": spans.COMPUTED_COUNTERS,
        "environment": environment(workload),
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=2))
    if dumps:
        (OUT_DIR / f"{stem}-spans.json").write_text(json.dumps({"runs": dumps}))

    print(f"{args.workload}: wall_s median {e2e['wall_s']:.4f} s over {len(walls)} runs "
          f"(min {min(walls):.4f}, max {max(walls):.4f}); plain wall time median "
          f"{record['raw_wall_s']:.4f} s")
    for name, metric in metrics.items():
        print(f"{args.workload}: {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"{args.workload}: ops_failed_frac = {record['ops_failed_frac']:.4f} "
          f"({ops.failed} failed of {ops.attempted} attempted)")
    for failure in sorted(ops.failures, key=lambda f: f["known_defect"])[:3]:
        print(f"{args.workload}: failed {failure['op']}: {failure['reason'].splitlines()[-1]}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    status = 0
    rows = []
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        failed_frac = result["failed"] / result["attempted"]
        for metric, value in result["metrics"].items():
            rows.append((name, metric, f"{value['value']:.6g}", value["unit"]))
        rows.append((name, "ops_failed_frac", f"{failed_frac:.4f}",
                     f"fraction ({result['failed']} of {result['attempted']} ops failed)"))
        status |= not result["correct"]
    width = max(len(r[1]) for r in rows) if rows else 0
    for name, metric, value, unit in rows:
        print(f"{name:15} {metric:{width}} {value:>12} {unit}")
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
