"""Command-line front end.

Subcommands: simulate, analyze, optimize, sweep, lhv-demo, dire.
Structured results are JSON, plot-ready curves are CSV, and every run
writes a manifest.json next to its outputs recording the subcommand,
inputs, seed, output paths, tool version, and timestamp.

Exit codes: 0 success, 2 validation failure, 3 I/O failure,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .counting import (
    CountsTable,
    WindowPolicy,
    parse_settings,
    parse_timetags,
    serialize_settings,
    serialize_timetags,
    windowed_counts,
)
from .engine import (
    ExperimentConfig,
    blocks_from_csv,
    blocks_to_counts,
    blocks_to_csv,
    simulate_blocks,
    simulate_timetags,
)
from .eberhard import bprime_vs_r_sweep, optimize, sweep_to_csv, violation_interval
from .errors import FormatError, NumericalError, ValidationError
from .lhv import (
    DriftModel,
    coincidence_loophole_schedule,
    coincidence_time_stream,
    counts_from_strategy,
    demo_strategy_82pct,
    demo_strategy_ideal,
    drifted_counts,
)
from .quantum import DetectionModel, MeasurementSettings, density_matrix_state, make_eberhard_state
from .randomness import (
    dire_report,
    extractable_length,
    hash_extract,
    read_extracted_bits,
    unpack_bits,
    write_extracted_bits,
)
from .stats import bell_result, ch_from_counts, partition_sigma, reference_settings

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def _write_manifest(args, subcommand: str, inputs: dict, outputs: list[Path]) -> None:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "subcommand": subcommand,
        "inputs": inputs,
        "seed": getattr(args, "seed", None),
        "outputs": [str(p) for p in outputs],
        "tool_version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2))


def _read_text(path) -> str:
    """A text input file; bytes that are not UTF-8 are a format error."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not UTF-8 text: {exc}") from None


def _out_path(args, name: str) -> Path:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir / name


# ---------------------------------------------------------------------------
# simulate


def _cmd_simulate(args) -> int:
    cfg = ExperimentConfig.from_json(_read_text(args.config))
    if args.seed is not None:
        cfg = ExperimentConfig.from_json_dict({**cfg.to_json_dict(), "rng_seed": args.seed})
    outputs = []

    if args.timetags:
        stream = simulate_timetags(cfg)
        stream_path = _out_path(args, "timetags.bin")
        stream_path.write_bytes(serialize_timetags(stream, "binary"))
        outputs.append(stream_path)
        sched_path = _out_path(args, "trial_settings.txt")
        sched_path.write_bytes(serialize_settings(stream.meta["trial_settings"]))
        outputs.append(sched_path)
        _say(args, f"wrote {len(stream)} records over {stream.n_trials} trials")
    else:
        blocks = simulate_blocks(cfg)
        blocks_path = _out_path(args, "blocks.csv")
        blocks_path.write_text(blocks_to_csv(blocks))
        outputs.append(blocks_path)
        counts_path = _out_path(args, "counts.json")
        counts_path.write_text(blocks_to_counts(blocks).to_json())
        outputs.append(counts_path)
        _say(args, f"wrote {len(blocks)} blocks")

    cfg_path = _out_path(args, "config.used.json")
    cfg_path.write_text(cfg.to_json())
    outputs.append(cfg_path)
    _write_manifest(args, "simulate", {"config": str(args.config)}, outputs)
    return EXIT_OK


# ---------------------------------------------------------------------------
# analyze


def _load_counts_for_analysis(args) -> CountsTable:
    path = Path(args.input)
    suffix = path.suffix.lower()
    if suffix == ".json":
        return CountsTable.from_json(_read_text(path))
    if suffix == ".csv" and args.window is None:
        return blocks_to_counts(blocks_from_csv(_read_text(path)))
    # timetag input: needs a window policy and a settings schedule
    policy_text = args.window or "clock"
    if policy_text == "clock":
        policy = WindowPolicy("clock")
    elif policy_text.startswith("event:"):
        try:
            window_ns = float(policy_text.split(":", 1)[1])
        except ValueError:
            raise ValidationError(
                f"--window event:NS needs a number of ns, got {policy_text!r}"
            ) from None
        policy = WindowPolicy("event", window_ns)
    else:
        raise ValidationError(f"--window must be 'clock' or 'event:NS', got {policy_text!r}")
    if not args.settings:
        raise ValidationError("timetag analysis requires --settings")
    fmt = "binary" if suffix in (".bin", ".dat") else "csv"
    stream = parse_timetags(path.read_bytes(), fmt)
    table = windowed_counts(stream, policy, parse_settings(Path(args.settings).read_bytes()))
    if policy.kind == "event" and ch_from_counts(table, args.singles_mode) > 0:
        print(
            "warning: event-windowed counting is vulnerable to emission-time "
            "manipulation; a violation under this discipline is not trustworthy "
            "(re-run with --window clock)",
            file=sys.stderr,
        )
    return table


def _cmd_analyze(args) -> int:
    path = Path(args.input)
    table = _load_counts_for_analysis(args)
    sigma = args.sigma
    if sigma is None and path.suffix.lower() == ".csv" and args.window is None:
        blocks = blocks_from_csv(_read_text(path))
        if len(blocks) >= 2 * args.sigma_partitions:
            sigma = partition_sigma(blocks, k=args.sigma_partitions,
                                    singles_mode=args.singles_mode)
    result = bell_result(table, sigma_b=sigma, singles_mode=args.singles_mode)
    text = result.to_json()
    print(text)
    out_path = _out_path(args, "bell_result.json")
    out_path.write_text(text + "\n")
    _write_manifest(args, "analyze", {"input": str(args.input),
                                      "window": args.window,
                                      "singles_mode": args.singles_mode}, [out_path])
    return EXIT_OK


# ---------------------------------------------------------------------------
# optimize / sweep


def _det_from_args(args) -> DetectionModel:
    eta_b = args.eta_b if args.eta_b is not None else args.eta
    return DetectionModel(
        eta_a=args.eta, eta_b=eta_b, pair_mean=args.pair_mean,
        bg_a=args.bg, bg_b=args.bg,
    )


def _cmd_optimize(args) -> int:
    det = _det_from_args(args)
    result = optimize(det, objective=args.objective, fix_r=args.fix_r, model=args.model)
    text = json.dumps(result.to_json_dict(), indent=2)
    print(text)
    out_path = _out_path(args, "optimization.json")
    out_path.write_text(text + "\n")
    _write_manifest(args, "optimize", {"eta": args.eta, "bg": args.bg,
                                       "fix_r": args.fix_r, "model": args.model}, [out_path])
    return EXIT_OK


def _parse_grid(spec: str) -> np.ndarray:
    try:
        start, stop, step = (float(v) for v in spec.split(":"))
    except ValueError:
        raise ValidationError(f"--r-grid must be 'start:stop:step', got {spec!r}") from None
    if step <= 0 or stop < start:
        raise ValidationError("--r-grid needs step > 0 and stop >= start")
    return np.arange(start, stop + 1e-12, step)


def _cmd_sweep(args) -> int:
    det = _det_from_args(args)
    points = bprime_vs_r_sweep(det, _parse_grid(args.r_grid), model=args.model)
    csv_text = sweep_to_csv(points)
    out_path = _out_path(args, "bprime_sweep.csv")
    out_path.write_text(csv_text)
    interval = violation_interval(points)
    if interval:
        _say(args, f"violation (B' > 1) for r in [{interval[0]:.3f}, {interval[1]:.3f}]")
    else:
        _say(args, "no violation anywhere on the grid")
    _write_manifest(args, "sweep", {"eta": args.eta, "bg": args.bg,
                                    "pair_mean": args.pair_mean,
                                    "r_grid": args.r_grid, "model": args.model}, [out_path])
    return EXIT_OK


# ---------------------------------------------------------------------------
# lhv-demo


def _cmd_lhv_demo(args) -> int:
    outputs = []
    if args.what == "tables":
        for name, strat in (("instruction_ideal", demo_strategy_ideal()),
                            ("instruction_82pct", demo_strategy_82pct())):
            table = counts_from_strategy(strat, args.trials)
            p = _out_path(args, f"{name}_counts.json")
            p.write_text(table.to_json())
            outputs.append(p)
            _say(args, f"{name}: B = {ch_from_counts(table):.6g} (never > 0)")
    elif args.what == "timing":
        rng = np.random.default_rng(args.seed or 0)
        settings = rng.integers(0, 4, size=args.trials)
        stream = coincidence_time_stream(
            coincidence_loophole_schedule(), settings, T_ns=1000, n_trials=args.trials
        )
        p = _out_path(args, "adversarial_timetags.bin")
        p.write_bytes(serialize_timetags(stream, "binary"))
        outputs.append(p)
        sp = _out_path(args, "adversarial_settings.txt")
        sp.write_bytes(serialize_settings(settings))
        outputs.append(sp)
        _say(
            args,
            "wrote an emission-time attack stream; analyze with "
            "--window event:2000 (fake violation) vs --window clock (none)",
        )
    elif args.what == "drift":
        mixed = density_matrix_state(np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex))
        table = drifted_counts(
            mixed,
            MeasurementSettings(a=33.75, a_prime=-11.25, b=-33.75, b_prime=11.25),
            DetectionModel(eta_a=0.762, eta_b=0.762, pair_mean=1.0),
            DriftModel(setting_order=(0, 2, 1, 3), final_fraction=0.03),
        )
        p = _out_path(args, "drift_counts.json")
        p.write_text(table.to_json())
        outputs.append(p)
        from .stats import chprime_from_counts

        _say(
            args,
            "separable state + cyclic settings + intensity decay: "
            f"B' = {chprime_from_counts(table, 'conditional'):.3f} with late-sampled "
            "singles (a fake violation; randomized settings remove it)",
        )
    _write_manifest(args, "lhv-demo", {"what": args.what, "trials": args.trials}, outputs)
    return EXIT_OK


# ---------------------------------------------------------------------------
# dire


def _cmd_dire(args) -> int:
    table = CountsTable.from_json(_read_text(args.counts))
    report = dire_report(
        table, acquisition_s=args.seconds, policy=args.policy, epsilon=args.epsilon,
        bits_per_event=args.bits_per_event,
    )
    text = report.to_json()
    print(text)
    outputs = [_out_path(args, "dire_report.json")]
    outputs[0].write_text(text + "\n")

    if args.extract:
        raw = unpack_bits(Path(args.extract).read_bytes())
        if args.seed_file:
            seed_bits = unpack_bits(Path(args.seed_file).read_bytes())
        else:
            raise ValidationError("--extract requires --seed-file")
        out_len = min(report.extractable_bits, raw.size)
        bits = hash_extract(raw, seed_bits, out_len)
        bits_path = _out_path(args, "extracted.bits")
        write_extracted_bits(str(bits_path), bits)
        outputs.append(bits_path)
        _say(args, f"extracted {out_len} bits -> {bits_path}")

    _write_manifest(args, "dire", {"counts": str(args.counts), "policy": args.policy,
                                   "seconds": args.seconds, "epsilon": args.epsilon}, outputs)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellsim",
        description="Simulate and analyze detection-probability Bell tests",
    )
    parser.add_argument("--version", action="version", version=f"bellsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None, help="override the RNG seed")
        p.add_argument("--out", default=".", help="output directory (default: .)")
        p.add_argument("--quiet", action="store_true", help="suppress progress text")

    p = sub.add_parser("simulate", help="run the Monte-Carlo experiment")
    p.add_argument("config", help="experiment config JSON")
    p.add_argument("--timetags", action="store_true",
                   help="emit a timetag stream instead of block counts")
    common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("analyze", help="Bell estimates from counts, blocks, or timetags")
    p.add_argument("input", help="counts .json, blocks .csv, or timetag .bin/.csv")
    p.add_argument("--window", default=None,
                   help="'clock' or 'event:NS' (timetag inputs only)")
    p.add_argument("--settings", default=None,
                   help="per-trial settings file (timetag inputs)")
    p.add_argument("--singles-mode", default="pooled",
                   choices=("pooled", "paired", "conditional"))
    p.add_argument("--sigma", type=float, default=None,
                   help="externally determined sigma_B")
    p.add_argument("--sigma-partitions", type=int, default=50,
                   help="partitions for sigma when analyzing blocks (default 50)")
    common(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("optimize", help="best state/settings for a detection model")
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--eta-b", type=float, default=None, help="Bob-arm efficiency if different")
    p.add_argument("--bg", type=float, default=0.0, help="background probability per trial/arm")
    p.add_argument("--pair-mean", type=float, default=1.0)
    p.add_argument("--fix-r", type=float, default=None)
    p.add_argument("--objective", default="b", choices=("b", "b-prime", "b-over-sigma"))
    p.add_argument("--model", default="linear", choices=("linear", "compound"))
    common(p)
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("sweep", help="optimized B' as a function of r")
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--eta-b", type=float, default=None)
    p.add_argument("--bg", type=float, default=0.0)
    p.add_argument("--pair-mean", type=float, default=0.033)
    p.add_argument("--r-grid", default="0.05:1.0:0.05", help="start:stop:step")
    p.add_argument("--model", default="compound", choices=("linear", "compound"))
    common(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("lhv-demo", help="emit the classical-adversary demonstrations")
    p.add_argument("--what", default="tables", choices=("tables", "timing", "drift"))
    p.add_argument("--trials", type=int, default=4000)
    common(p)
    p.set_defaults(func=_cmd_lhv_demo)

    p = sub.add_parser("dire", help="randomness certification from a counts table")
    p.add_argument("counts", help="counts table JSON")
    p.add_argument("--seconds", type=float, required=True, help="acquisition time")
    p.add_argument("--policy", default="sha-half",
                   choices=("sha-half", "trevisan-sized", "hash-extract"))
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--bits-per-event", type=int, default=8)
    p.add_argument("--extract", default=None, help="raw bit file to extract from")
    p.add_argument("--seed-file", default=None, help="seed bit file for extraction")
    common(p)
    p.set_defaults(func=_cmd_dire)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
