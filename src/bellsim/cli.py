"""Command-line front end.

Subcommands: simulate, analyze, optimize, sweep, lhv-demo, dire.
Structured results are JSON, plot-ready curves are CSV, and every run
that succeeds writes a manifest.json next to its outputs, last, recording
the subcommand, output paths in write order, tool version and timestamp,
and as its inputs every parsed argument but the subcommand, --out and
--quiet, so the parser is the one list of a command's inputs; each
command returns the manifest's diagnostics, such as how many coordinate
descents of optimize and sweep ran out of sweeps (`exhausted_refinements`).
A command that fails removes every output file it had named.

Exit codes: 0 success, 2 validation failure, 3 I/O failure,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, counting
from .counting import (
    SETTING_LABELS,
    CountsTable,
    TimetagFile,
    WindowPolicy,
    parse_timetags,
    read_settings,
    serialize_timetags,
    windowed_counts,
)
from .engine import (
    ExperimentConfig,
    _block_batches,
    _int64_totals,
    _read_block_batches,
    _write_block_batches,
    # bound here for the traced benchmark (perfbench/spans.py)
    blocks_from_csv,  # noqa: F401
    blocks_to_counts,  # noqa: F401
    blocks_to_csv,  # noqa: F401
    simulate_blocks,  # noqa: F401
    simulate_timetags,  # noqa: F401
    timetag_chunks,
)
from .eberhard import OBJECTIVES, bprime_vs_r_sweep, optimize, sweep_to_csv, violation_interval
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
from .quantum import MODELS, DetectionModel, MeasurementSettings, density_matrix_state
from .randomness import (
    POLICIES,
    dire_report,
    hash_extract,
    unpack_bits,
    write_extracted_bits,
)
from .stats import (
    SINGLES_MODES,
    _partition_values,
    _sigma_of,
    _stratified_sums,
    bell_result,
    ch_from_counts,
    chprime_from_counts,
    partition_sigma,  # noqa: F401  (bound for the traced benchmark)
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


# parsed arguments that are not inputs of the run, and the run's outputs
_NOT_INPUTS = ("command", "func", "out", "quiet", "written")


def _write_manifest(args, **diagnostics) -> None:
    manifest = {
        "subcommand": args.command,
        "inputs": {k: v for k, v in vars(args).items() if k not in _NOT_INPUTS},
        "outputs": [str(p) for p in args.written],
        "tool_version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        **diagnostics,
    }
    _out_path(args, "manifest.json").write_text(json.dumps(manifest, indent=2))


def _remove_stale_manifest(args) -> None:
    """Remove an earlier run's manifest.json in --out when it lists a file
    that this failed run named, and so overwrote or removed."""
    path = Path(args.out) / "manifest.json"
    try:
        listed = {Path(p).name for p in json.loads(path.read_text())["outputs"]}
    except (OSError, ValueError, KeyError, TypeError):
        return  # none there, or not a manifest of this tool
    if listed & {p.name for p in args.written}:
        path.unlink()


def _read_text(path) -> str:
    """A text input file; bytes that are not UTF-8 are a format error."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not UTF-8 text: {exc}") from None


def _out_path(args, name: str) -> Path:
    """The path of output file `name`.  Every output is named here, so
    args.written lists the run's outputs in write order: main writes
    that list into the manifest, or removes its files when the run fails."""
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    args.written.append(out_dir / name)
    return out_dir / name


def _write_timetags(args, chunks, stream_name: str, settings_name: str):
    """Write timetag chunks as they come: their records to a binary file
    and their meta["trial_settings"] to a settings file.  Returns the
    records written and the chunks' clamped events."""
    records = clamped = 0
    with (open(_out_path(args, stream_name), "wb") as stream_file,
          open(_out_path(args, settings_name), "wb") as settings_file):
        for chunk in chunks:
            stream_file.write(serialize_timetags(chunk))
            settings_file.write(counting._setting_lines(chunk.meta["trial_settings"]))
            records += len(chunk)
            clamped += chunk.meta.get("clamped_events", 0)
    return records, clamped


# ---------------------------------------------------------------------------
# simulate


def _cmd_simulate(args) -> dict:
    cfg = ExperimentConfig.from_json(_read_text(args.config))
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, rng_seed=args.seed)
    diagnostics = {}

    if args.timetags:
        # each block's records and settings are written as they are drawn
        records, diagnostics["clamped_events"] = _write_timetags(
            args, timetag_chunks(cfg), "timetags.bin", "trial_settings.txt")
        _say(args, f"wrote {records} records over {cfg.n_blocks * cfg.trials_per_block} trials")
    else:
        # each batch of blocks is written and counted as it is drawn
        # untranslated, so that every line ends in the CRLF the csv writer puts
        with open(_out_path(args, "blocks.csv"), "w", newline="") as fh:
            table = _write_block_batches(fh, _block_batches(cfg))
        _out_path(args, "counts.json").write_text(table.to_json())
        _say(args, f"wrote {cfg.n_blocks} blocks")

    _out_path(args, "config.used.json").write_text(cfg.to_json())
    return diagnostics


# ---------------------------------------------------------------------------
# analyze


def _load_counts_for_analysis(args) -> CountsTable:
    path = Path(args.input)
    suffix = path.suffix.lower()
    if suffix == ".json":
        return CountsTable.from_json(_read_text(path))
    # timetag input: a window policy, clock by default, and a settings schedule
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
    if suffix in (".bin", ".dat"):
        stream = TimetagFile(path)  # counted chunk by chunk
    else:
        stream = parse_timetags(path.read_bytes())  # a small-file format, read whole
    table = windowed_counts(stream, policy, read_settings(args.settings))
    if policy.kind == "event" and ch_from_counts(table, args.singles_mode) > 0:
        print(
            "warning: event-windowed counting is vulnerable to emission-time "
            "manipulation; a violation under this discipline is not trustworthy "
            "(re-run with --window clock)",
            file=sys.stderr,
        )
    return table


def _block_file_batches(path):
    """The block array of a blocks.csv file, a batch at a time, in one
    pass over its text, whose lines end at LF only, as in blocks_from_csv.
    A file with bytes that are not UTF-8 anywhere fails as _read_text
    fails, before any format error of its rows."""
    try:
        with open(path, encoding="utf-8", newline="\n") as fh:
            yield from _read_block_batches(fh)
    except ValueError:
        _read_text(path)
        raise


def _blocks_sigma(args, sums, per_pair) -> float | None:
    """Partition sigma of a block run from its _stratified_sums, or None
    when some setting pair has fewer blocks than partitions (a partition
    would then miss that pair)."""
    k = args.sigma_partitions
    short = [f"{label} has {m}" for label, m in zip(SETTING_LABELS, per_pair) if m < k]
    if short:
        print(f"note: sigma_B not estimated: {', '.join(short)} blocks, "
              f"fewer than --sigma-partitions {k}", file=sys.stderr)
        return None
    return _sigma_of(_partition_values(sums, per_pair, k, args.singles_mode))


def _cmd_analyze(args) -> dict:
    path = Path(args.input)
    sigma = args.sigma
    if path.suffix.lower() == ".csv" and args.window is None and args.settings is None:
        # one pass gives the counts, each pair's blocks and the partition sums
        slots = max(args.sigma_partitions, 1) if sigma is None else 1
        sums, per_pair = _stratified_sums(_block_file_batches(path), slots)
        table = CountsTable(*_int64_totals(sums.sum(axis=1)))
        if sigma is None:
            sigma = _blocks_sigma(args, sums, per_pair)
    else:
        table = _load_counts_for_analysis(args)
    result = bell_result(table, sigma_b=sigma, singles_mode=args.singles_mode)
    text = result.to_json()
    print(text)
    _out_path(args, "bell_result.json").write_text(text + "\n")
    dropped = "pre_marker_detections_dropped"
    return {dropped: table.meta[dropped]} if dropped in table.meta else {}


# ---------------------------------------------------------------------------
# optimize / sweep


def _det_from_args(args) -> DetectionModel:
    if args.eta_b is None:  # the manifest records the efficiency used
        args.eta_b = args.eta
    return DetectionModel(
        eta_a=args.eta, eta_b=args.eta_b, pair_mean=args.pair_mean,
        bg_a=args.bg, bg_b=args.bg,
    )


def _cmd_optimize(args) -> dict:
    det = _det_from_args(args)
    result = optimize(det, objective=args.objective, fix_r=args.fix_r, model=args.model)
    text = json.dumps(result.to_json_dict(), indent=2)
    print(text)
    _out_path(args, "optimization.json").write_text(text + "\n")
    return {"exhausted_refinements": result.exhausted_refinements}


# a sweep runs one optimization per grid point and holds every result
# until its CSV is written; a finer grid is refused before it is built
_MAX_GRID_POINTS = 10_000


def _parse_grid(spec: str) -> np.ndarray:
    try:
        start, stop, step = (float(v) for v in spec.split(":"))
    except ValueError:
        raise ValidationError(f"--r-grid must be 'start:stop:step', got {spec!r}") from None
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise ValidationError(f"--r-grid needs finite numbers, got {spec!r}")
    if step <= 0 or stop < start:
        raise ValidationError("--r-grid needs step > 0 and stop >= start")
    # a stop on the grid stays on it: pad it by a tolerance on the grid's
    # scale, since an absolute 1e-12 is below float spacing above about 1e4
    pad = 1e-12 * max(1.0, abs(start), abs(stop))
    # np.arange's own length, ceil((stop - start) / step), inf when it overflows
    count = (stop + pad - start) / step
    if count > _MAX_GRID_POINTS:
        shown = math.ceil(count) if math.isfinite(count) else "too many"
        raise ValidationError(f"--r-grid {spec!r} has {shown} points, "
                              f"more than the limit of {_MAX_GRID_POINTS}")
    return np.arange(start, stop + pad, step)


def _cmd_sweep(args) -> dict:
    det = _det_from_args(args)
    points = bprime_vs_r_sweep(det, _parse_grid(args.r_grid), model=args.model)
    csv_text = sweep_to_csv(points)
    _out_path(args, "bprime_sweep.csv").write_text(csv_text)
    interval = violation_interval(points)
    if interval:
        _say(args, f"violation (B' > 1) for r in [{interval[0]:.3f}, {interval[1]:.3f}]")
    else:
        _say(args, "no violation anywhere on the grid")
    return {"exhausted_refinements": sum(p.exhausted_refinements for p in points)}


# ---------------------------------------------------------------------------
# lhv-demo


def _cmd_lhv_demo(args) -> dict:
    # the range ExperimentConfig.rng_seed takes, so --seed means one range
    if not 0 <= args.seed < 2**64:
        raise ValidationError("--seed must fit in an unsigned 64-bit integer")
    if args.what == "tables":
        for name, strat in (("instruction_ideal", demo_strategy_ideal()),
                            ("instruction_82pct", demo_strategy_82pct())):
            table = counts_from_strategy(strat, args.trials)
            _out_path(args, f"{name}_counts.json").write_text(table.to_json())
            _say(args, f"{name}: B = {ch_from_counts(table):.6g} (never > 0)")
    elif args.what == "timing":
        if args.trials < 0:
            raise ValidationError("--trials must be >= 0")
        rng = np.random.default_rng(args.seed)
        schedule = coincidence_loophole_schedule()
        # trials never interleave, so ranges of trials are written one after another
        per_range = max(counting.CHUNK_RECORDS // (1 + len(schedule)), 1)

        def ranges():
            # no trials is one empty range, whose settings file is one empty line
            for first in range(0, max(args.trials, 1), per_range):
                settings = rng.integers(0, 4, size=min(per_range, args.trials - first))
                yield coincidence_time_stream(schedule, settings, T_ns=1000, first_trial=first)

        _write_timetags(args, ranges(), "adversarial_timetags.bin", "adversarial_settings.txt")
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
            DriftModel(final_fraction=0.03),
            order=(0, 2, 1, 3),
        )
        _out_path(args, "drift_counts.json").write_text(table.to_json())
        _say(
            args,
            "separable state + cyclic settings + intensity decay: "
            f"B' = {chprime_from_counts(table, 'conditional'):.3f} with late-sampled "
            "singles (a fake violation; randomized settings remove it)",
        )
    return {}


# ---------------------------------------------------------------------------
# dire


def _cmd_dire(args) -> dict:
    # the two bit files come together; neither is read when one is missing
    if args.extract and not args.seed_file:
        raise ValidationError("--extract requires --seed-file")
    if args.seed_file and not args.extract:
        raise ValidationError("--seed-file requires --extract")
    table = CountsTable.from_json(_read_text(args.counts))
    report = dire_report(table, acquisition_s=args.seconds, policy=args.policy,
                         epsilon=args.epsilon)
    if args.extract:
        raw = unpack_bits(Path(args.extract).read_bytes())
        seed_bits = unpack_bits(Path(args.seed_file).read_bytes())
        out_len = min(report.extractable_bits, raw.size)
        bits = hash_extract(raw, seed_bits, out_len)

    text = report.to_json()
    print(text)
    _out_path(args, "dire_report.json").write_text(text + "\n")

    if args.extract:
        bits_path = _out_path(args, "extracted.bits")
        write_extracted_bits(str(bits_path), bits)
        _say(args, f"extracted {out_len} bits -> {bits_path}")
    return {}


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    as it was, so every call of main can share it."""
    parser = argparse.ArgumentParser(
        prog="bellsim",
        description="Simulate and analyze detection-probability Bell tests",
    )
    parser.add_argument("--version", action="version", version=f"bellsim {__version__}")
    # options are spelled in full, so an option one command lacks is an
    # error there, not a prefix of another (dire's --seed of --seed-file)
    sub = parser.add_subparsers(
        dest="command", required=True,
        parser_class=functools.partial(argparse.ArgumentParser, allow_abbrev=False))

    def common(p):
        p.add_argument("--out", default=".", help="output directory (default: .)")
        p.add_argument("--quiet", action="store_true", help="suppress progress text")

    p = sub.add_parser("simulate", help="run the Monte-Carlo experiment")
    p.add_argument("config", help="experiment config JSON")
    p.add_argument("--timetags", action="store_true",
                   help="emit a timetag stream instead of block counts")
    p.add_argument("--seed", type=int, default=None, help="override the config's rng_seed")
    common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("analyze", help="Bell estimates from counts, blocks, or timetags")
    p.add_argument("input", help="counts .json, timetag .bin/.dat, or a .csv: blocks, "
                   "or timetags when --window or --settings is given")
    p.add_argument("--window", default=None,
                   help="'clock' or 'event:NS' (timetag inputs only)")
    p.add_argument("--settings", default=None,
                   help="per-trial settings file (timetag inputs)")
    p.add_argument("--singles-mode", default="pooled", choices=SINGLES_MODES)
    p.add_argument("--sigma", type=float, default=None,
                   help="externally determined sigma_B")
    p.add_argument("--sigma-partitions", type=int, default=50,
                   help="partitions for sigma when analyzing blocks (default 50)")
    common(p)
    p.set_defaults(func=_cmd_analyze)

    def source(p, pair_mean, model):
        p.add_argument("--eta", type=float, required=True)
        p.add_argument("--eta-b", type=float, default=None,
                       help="Bob-arm efficiency if different")
        p.add_argument("--bg", type=float, default=0.0,
                       help="background probability per trial/arm")
        p.add_argument("--pair-mean", type=float, default=pair_mean)
        p.add_argument("--model", default=model, choices=MODELS)

    p = sub.add_parser("optimize", help="best state/settings for a detection model")
    source(p, pair_mean=1.0, model="linear")
    p.add_argument("--fix-r", type=float, default=None)
    p.add_argument("--objective", default="b", choices=OBJECTIVES)
    common(p)
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("sweep", help="optimized B' as a function of r")
    source(p, pair_mean=0.033, model="compound")
    p.add_argument("--r-grid", default="0.05:1.0:0.05", help="start:stop:step")
    common(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("lhv-demo", help="emit the classical-adversary demonstrations")
    p.add_argument("--what", default="tables", choices=("tables", "timing", "drift"))
    p.add_argument("--trials", type=int, default=4000)
    p.add_argument("--seed", type=int, default=0, help="RNG seed of the timing stream")
    common(p)
    p.set_defaults(func=_cmd_lhv_demo)

    p = sub.add_parser("dire", help="randomness certification from a counts table")
    p.add_argument("counts", help="counts table JSON")
    p.add_argument("--seconds", type=float, required=True, help="acquisition time")
    p.add_argument("--policy", default="sha-half", choices=POLICIES)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--extract", default=None, help="raw bit file to extract from")
    p.add_argument("--seed-file", default=None, help="seed bit file for extraction")
    common(p)
    p.set_defaults(func=_cmd_dire)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.written = []
    try:
        try:
            _write_manifest(args, **args.func(args))
        except BaseException:
            # a failed run leaves none of its output files; a path that is
            # not a file (a directory in an output's place) was not written
            for path in args.written:
                if path.is_file():
                    path.unlink()
            _remove_stale_manifest(args)
            raise
    except (ValidationError, FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
