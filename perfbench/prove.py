"""Check that the benchmark is steady: run it on several seeds per workload.

    python3 perfbench/prove.py --seeds 201-210 [--workloads paper-blocks,design-sweep]
        [--seconds 30] [--out perfbench/baseline.json]

Runs `run.py` once per workload and seed, one run at a time, and prints
for every end-to-end metric the median, the quartiles and their distance
over the median (IQR/median), next to the metric's bound in
BENCHMARK.json.  A spread below a third of the bound is marked steady,
one below the bound within bound, and a wider one unresolved.  With
`--out` it also writes the summary, every run's result and the plain
wall times to that file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "iqr_over_median": (q3 - q1) / median}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=seed_list, required=True)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    summary, ok = {}, True
    for name in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            record = json.loads((BENCH_DIR / "out" / f"{name}-seed{seed}-trace0.json").read_text())
            runs.append({"seed": seed, **{k: v["value"] for k, v in result["metrics"].items()},
                         "raw_wall_s": record["raw_wall_s"], "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         "pipeline_runs": len(record["wall_s_runs"])})
            ok &= result["correct"]
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k} {runs[-1][k]:.4g}" for k in (*bounds, "raw_wall_s")), flush=True)
        metrics = {}
        for metric, bound in bounds.items():
            s = spread([run[metric] for run in runs])
            s["status"] = ("steady" if s["iqr_over_median"] < bound / 3 else
                           "within bound" if s["iqr_over_median"] <= bound else "unresolved")
            metrics[metric] = s
            print(f"{name:15} {metric:12} median {s['median']:.4g}  IQR/median "
                  f"{s['iqr_over_median']:.3f}  bound {bound}  {s['status']}")
        raw = spread([run["raw_wall_s"] for run in runs])
        print(f"{name:15} {'raw_wall_s':12} median {raw['median']:.4g}  IQR/median "
              f"{raw['iqr_over_median']:.3f}  (plain wall time, not gated)")
        summary[name] = {"end_to_end": metrics, "raw_wall_s": raw, "runs": runs}

    if args.out:
        args.out.write_text(json.dumps({
            "note": ("One run per workload and seed, --seconds %d, --trace 0. IQR/median per "
                     "end-to-end metric against its bound: 'steady' below a third of it, "
                     "'within bound' below it, 'unresolved' above it. raw_wall_s is the plain "
                     "wall time, kept to show the host drift the speed clock takes out."
                     % args.seconds),
            "bounds": bounds, "seeds": args.seeds, "workloads": summary,
            "environment": {k: v for k, v in record["environment"].items()
                            if k not in ("workload", "seed", "input_sizes", "why")},
        }, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
