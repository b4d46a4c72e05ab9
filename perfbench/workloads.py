"""The benchmark workloads.

Each workload is a batch job in a closed loop with one client: one
pipeline at a time, driven through `bellsim.cli.main(argv)` in-process
as a user runs it, plus the library calls a user makes on its outputs.
Every CLI invocation and every library call is one operation.  An
operation fails when it exits non-zero, raises, or its output fails its
check.  The checks use tolerances that a correct program misses with
negligible probability (5 sigma on binomial counts) and that do not
depend on the exact random stream.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import shutil
import traceback
from pathlib import Path

import numpy as np

import bellsim as bs
import spans
from bellsim import cli

N_SIGMA = 5.0
TRIALS_PER_BLOCK = 25_000


class CheckFailed(Exception):
    """An operation's output is wrong."""


class ExitNonZero(Exception):
    """A CLI invocation returned a non-zero exit code."""


def expect(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class Ops:
    """Runs operations, counts attempts and failures, checks reproducibility.

    A failure is unexpected unless the operation names it as a known
    defect of the program; `unexpected` makes the run's result incorrect.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.failures: list[dict] = []
        self.digests: dict[str, str] = {}

    def _fail(self, name: str, reason: str, known: bool = False) -> None:
        self.failed += 1
        self.unexpected += not known
        self.failures.append({"op": name, "reason": reason[-400:], "known_defect": known})

    def call(self, name: str, fn, check=None, known=None):
        """One operation: run fn, then check its result.

        `known(exc)` tells whether an exception is a known defect of the
        program.  Returns the result, or None when the operation failed.
        """
        self.attempted += 1
        try:
            result = fn()
        except Exception as exc:  # a crash on legal input is a failed operation, not a dead run
            if isinstance(exc, ExitNonZero):
                reason = str(exc)
            elif isinstance(exc, bs.BellSimError):
                reason = f"{type(exc).__name__}: {exc}"
            else:
                reason = traceback.format_exc()
            self._fail(name, reason, known=known is not None and known(exc))
            return None
        if check is not None:
            try:
                with self.tracer.span("bench.check"):
                    check(result)
            except CheckFailed as exc:
                self._fail(name, f"check: {exc}")
                return None
        return result

    def cli(self, name: str, argv: list[str], check=None) -> None:
        def invoke():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:  # argparse rejects the command line
                    code = exc.code
            if code != 0:
                raise ExitNonZero(f"exit {code}: {err.getvalue().strip()}")
            return code

        # computed: the sizes of the input files named on the command line
        # and of the files in the --out directory, which starts empty
        read = sum(os.path.getsize(a) for a in argv if os.path.isabs(a) and os.path.isfile(a))
        self.call(name, invoke, (lambda _: check()) if check else None)
        out = Path(argv[argv.index("--out") + 1])
        self.tracer.count("cli.bytes_read", read)
        self.tracer.count("cli.bytes_written",
                          sum(f.stat().st_size for f in out.iterdir() if f.is_file())
                          if out.is_dir() else 0)

    def reproduced(self, label: str, path: Path) -> None:
        """One operation: compare a file with the same output of the first
        pipeline run, which records its digest.  It fails when the bytes
        differ or the file is missing.  Every pipeline run makes the same
        number of operations, so the share that fails does not depend on
        how many runs fit in a benchmark run.
        """
        def same(_):
            expect(path.is_file(), f"{path.name} was not written")
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            first = self.digests.setdefault(label, digest)
            expect(digest == first, f"{path.name} differs from the first run")

        self.call(f"reproduce {label}", lambda: None, check=same)


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def check_rates(table, expected, what: str) -> None:
    """Per-setting singles and coincidences within N_SIGMA binomial sd."""
    n = table.n_trials.astype(float)
    for label, observed, p in zip(("singles_a", "singles_b", "coincidences"),
                                  (table.singles_a, table.singles_b, table.coincidences),
                                  expected):
        sd = np.sqrt(np.maximum(p * (1.0 - p) * n, 1e-30))
        dev = np.abs(observed - p * n) / sd
        expect(np.all(dev <= N_SIGMA), f"{what} {label} off by {dev.max():.1f} sd")


def reference_model():
    """(state, settings, det) of the reference run: r = 0.26, eta = 0.75,
    pair mean and background calibrated against its singles rates."""
    state = bs.make_eberhard_state(bs.REFERENCE_R)
    sett = bs.reference_settings()
    table = bs.reference_run_counts()
    n = table.n_trials.astype(float)
    mu, bg = bs.calibrate_source_rates(
        0.75,
        float(bs.singles_prob(state, sett.a)), float(table.singles_a[0] / n[0]),
        float(bs.singles_prob(state, sett.a_prime)), float(table.singles_a[2] / n[2]),
    )
    det = bs.DetectionModel(eta_a=0.75, eta_b=0.75, pair_mean=mu, bg_a=bg, bg_b=bg)
    return state, sett, det


def _write_config(path: Path, n_blocks: int, seed: int, schedule: str = "random-per-block",
                  schedule_file: Path | None = None):
    state, sett, det = reference_model()
    cfg = bs.ExperimentConfig(
        state=state, settings=sett, det=det, schedule_kind=schedule,
        trials_per_block=TRIALS_PER_BLOCK, n_blocks=n_blocks, rng_seed=seed,
        schedule_file=str(schedule_file) if schedule_file else None,
    )
    path.write_text(cfg.to_json())
    return bs.expected_rates(state, sett, det)


class Workload:
    name = ""
    why = ""
    sizes: dict = {}

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.inputs = work / "inputs"

    def dir(self, name: str) -> str:
        return str(self.work / name)

    def setup(self) -> None:
        """Generate the inputs; called several times, so it must be idempotent."""

    def observed(self):
        """Context that lets the checks see values the CLI computes but does
        not write; held around every pipeline run and undone after it."""
        return contextlib.nullcontext()

    def clean(self) -> None:
        """Remove the outputs of earlier pipeline runs, so that an operation
        that fails to write a file cannot pass on an old copy."""
        for child in self.work.iterdir() if self.work.is_dir() else ():
            if child != self.inputs:
                shutil.rmtree(child)

    def warm_up(self, ops: Ops) -> None:
        pass

    def pipeline(self, ops: Ops) -> None:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# paper-blocks


class PaperBlocks(Workload):
    name = "paper-blocks"
    why = ("The paper's own scale end to end: 4450 x 25 000 trials through simulate, "
           "analyze, dire, partition statistics and a Toeplitz extraction pinned to "
           "the reference run.")
    N_BLOCKS = 4450
    # The setting schedule is the random-per-block schedule of seed 6, the
    # same on every workload seed; the trial outcomes come from the seed.
    # Which partitions miss a setting pair depends on the schedule alone:
    # on this one every k >= 200 does (the known defect, 16 failed
    # operations per pipeline run) and every k <= 150 does not.  A seeded
    # schedule would fail k = 200 on some seeds only, so the failed share
    # would change from seed to seed.
    SCHEDULE_SEED = 6
    KS = (50, 100, 150, 200, 300, 445, 650)
    SINGLES_MODES = ("pooled", "conditional")
    RAW_BITS = 2**18
    # floor(raw entropy / 2) of the bundled reference counts under sha-half
    REFERENCE_OUT_BITS = 4364
    REFERENCE_SECONDS = 10_800
    ORACLE_ROWS = 64
    # partition sigma (k = 50) against the independent-trial sigma of B; with
    # 49 degrees of freedom a 5-sigma excursion of the estimate stays inside
    SIGMA_FACTOR = 2.0
    sizes = {
        "n_blocks": N_BLOCKS, "trials_per_block": TRIALS_PER_BLOCK,
        "trials": N_BLOCKS * TRIALS_PER_BLOCK, "schedule_seed": SCHEDULE_SEED,
        "partition_ks": list(KS),
        "extract_raw_bits": RAW_BITS, "extract_out_bits": REFERENCE_OUT_BITS,
    }

    def setup(self) -> None:
        self.inputs.mkdir(parents=True, exist_ok=True)
        schedule = bs.setting_schedule("random-per-block", self.N_BLOCKS,
                                       rng_seed=self.SCHEDULE_SEED)
        (self.inputs / "schedule.txt").write_text("".join(f"{i}\n" for i in schedule))
        self.expected = _write_config(self.inputs / "config.json", self.N_BLOCKS, self.seed,
                                      "file", self.inputs / "schedule.txt")
        (self.inputs / "reference_counts.json").write_text(bs.reference_run_counts().to_json())
        rng = np.random.default_rng([self.seed, 1])
        seed_len = self.RAW_BITS + self.REFERENCE_OUT_BITS - 1
        self.raw = rng.integers(0, 2, size=self.RAW_BITS, dtype=np.uint8)
        self.seed_bits = rng.integers(0, 2, size=-(-seed_len // 8) * 8, dtype=np.uint8)
        (self.inputs / "raw.bin").write_bytes(bs.pack_bits(self.raw))
        (self.inputs / "seed.bin").write_bytes(bs.pack_bits(self.seed_bits))
        self.oracle_rows = rng.choice(self.REFERENCE_OUT_BITS, self.ORACLE_ROWS, replace=False)
        _write_config(self.inputs / "warmup.json", 4, self.seed, "cyclic")

    def warm_up(self, ops: Ops) -> None:
        d = self.dir("warmup")
        ops.cli("simulate", ["simulate", str(self.inputs / "warmup.json"), "--out", d, "--quiet"])
        ops.cli("analyze", ["analyze", f"{d}/blocks.csv", "--sigma", "1e-5", "--out", d, "--quiet"])
        ops.cli("dire", ["dire", f"{d}/counts.json", "--seconds", "8", "--out", d, "--quiet"])

    def pipeline(self, ops: Ops) -> None:
        sim, ana, dire, ref = (self.work / n for n in ("simulate", "analyze", "dire", "reference"))
        total = self.N_BLOCKS * TRIALS_PER_BLOCK

        def check_simulated():
            table = bs.CountsTable.from_json((sim / "counts.json").read_text())
            expect(int(table.total_trials) == total, f"total trials {table.total_trials}")
            check_rates(table, self.expected, "simulated")
            self.counts = table

        self.counts = None
        ops.cli("simulate", ["simulate", str(self.inputs / "config.json"),
                             "--out", str(sim), "--quiet"], check_simulated)
        ops.reproduced("blocks.csv", sim / "blocks.csv")

        def check_analyzed():
            doc = _read_json(ana / "bell_result.json")
            expect(self.counts is not None, "no simulated counts to compare with")
            b = bs.ch_from_counts(self.counts)
            expect(abs(doc["B"] - b) <= 1e-12, f"B {doc['B']} != {b} from counts.json")
            ratio = doc["sigma_B"] / self._trial_sigma(self.counts)
            expect(1.0 / self.SIGMA_FACTOR <= ratio <= self.SIGMA_FACTOR,
                   f"partition sigma is {ratio:.2f} x the independent-trial sigma")

        ops.cli("analyze", ["analyze", str(sim / "blocks.csv"), "--sigma-partitions", "50",
                            "--out", str(ana), "--quiet"], check_analyzed)
        ops.reproduced("bell_result.json", ana / "bell_result.json")

        def check_dire():
            doc = _read_json(dire / "dire_report.json")
            expect(doc["n_events"] == total, f"n_events {doc['n_events']}")
            expect(self.counts is not None, "no simulated counts to compare with")
            b = bs.ch_from_counts(self.counts)
            expect(abs(doc["B"] - b) <= 1e-12, f"B {doc['B']} != {b}")
            expect(doc["extractable_bits"] == _sha_half_bits(b, total),
                   f"extractable bits {doc['extractable_bits']}")

        ops.cli("dire", ["dire", str(sim / "counts.json"), "--seconds", str(self.N_BLOCKS),
                         "--out", str(dire), "--quiet"], check_dire)

        blocks = ops.call("blocks_from_csv",
                          lambda: bs.blocks_from_csv((sim / "blocks.csv").read_text()),
                          check=lambda b: expect(len(b) == self.N_BLOCKS, f"{len(b)} blocks"))
        if blocks is not None:
            for mode in self.SINGLES_MODES:
                for k in self.KS:
                    self._partition_ops(ops, blocks, k, mode)

        def check_extracted():
            bits = bs.read_extracted_bits(str(ref / "extracted.bits"))
            expect(bits.size == self.REFERENCE_OUT_BITS, f"{bits.size} extracted bits")
            rev = self.raw[::-1]
            n = self.raw.size
            for i in self.oracle_rows:
                parity = np.count_nonzero(self.seed_bits[i:i + n] & rev) & 1
                expect(bits[i] == parity, f"extracted bit {i} != parity oracle")

        ops.cli("dire reference --extract",
                ["dire", str(self.inputs / "reference_counts.json"),
                 "--seconds", str(self.REFERENCE_SECONDS), "--policy", "sha-half",
                 "--extract", str(self.inputs / "raw.bin"),
                 "--seed-file", str(self.inputs / "seed.bin"), "--out", str(ref), "--quiet"],
                check_extracted)
        ops.reproduced("extracted.bits", ref / "extracted.bits")

    def _partition_ops(self, ops: Ops, blocks, k: int, mode: str) -> None:
        def check_values(values):
            expect(values.shape == (k,) and np.all(np.isfinite(values)),
                   f"{values.shape} partition values")

        values = ops.call(f"partition_values k={k} {mode}",
                          lambda: bs.partition_values(blocks, k, singles_mode=mode),
                          check_values, known=_insufficient_partition)

        def check_violations(result):
            expect(len(result) == 1 and result[0][0] == k and 0 <= result[0][1] <= k,
                   f"violations {result}")
            if values is not None:
                expect(result[0][1] == int(np.count_nonzero(values > 0)),
                       "violation count disagrees with the partition values")

        viol = ops.call(f"violations_by_partition k={k} {mode}",
                        lambda: bs.violations_by_partition(blocks, [k], singles_mode=mode),
                        check_violations, known=_insufficient_partition)
        if viol is not None:
            ops.call(f"hacker_bound k={k} {mode}", lambda: bs.hacker_bound(k, viol[0][1]),
                     lambda p: expect(0.0 <= p <= 1.0, f"hacker bound {p}"))

    def _trial_sigma(self, table) -> float:
        """sd of B for independent trials at the expected click rates.

        B is linear in the counts; within a trial a coincidence is also a
        click on both arms, so each trial contributes one multinomial
        (coincidence, A only, B only, none) draw, not three independent
        binomials.
        """
        pa, pb, pab = self.expected
        n = table.n_trials.astype(float)
        w_c = np.array([1.0, 1.0, 1.0, -1.0]) / n
        w_a = -np.array([1.0, 1.0, 0.0, 0.0]) / (n[0] + n[1])
        w_b = -np.array([1.0, 0.0, 1.0, 0.0]) / (n[0] + n[2])
        mean = w_c * pab + w_a * pa + w_b * pb
        square = pab * (w_c + w_a + w_b) ** 2 + (pa - pab) * w_a**2 + (pb - pab) * w_b**2
        return math.sqrt(float(np.sum(n * (square - mean**2))))


def _sha_half_bits(b: float, n_events: int) -> int:
    """Closed form of the sha-half budget: floor(n * -log2(p_guess(B)) / 2)."""
    if b <= 0:
        return 0
    p_guess = (1.0 + math.sqrt(max(2.0 - (1.0 + 2.0 * b) ** 2, 0.0))) / 2.0
    return int(n_events * -math.log2(p_guess) // 2)


def _insufficient_partition(exc: Exception) -> bool:
    """The known partition defect: with a random setting per block, a
    partition of few blocks can miss a setting pair, and the partition
    functions then raise instead of stratifying.  On the seed-6 schedule
    every k >= 200 hits it under both singles modes.
    """
    return isinstance(exc, bs.ValidationError) and "insufficient data" in str(exc)


# ---------------------------------------------------------------------------
# timetag-stream


class Timetags(Workload):
    name = "timetag-stream"
    why = ("The memory-bound timetag path: a 10 M-trial sparse simulated stream and a "
           "dense adversarial stream through binary I/O, settings files, and clock and "
           "event windowing.")
    N_BLOCKS = 400
    ADVERSARY_TRIALS = 1_000_000
    EVENT_WINDOW = "event:2000"
    sizes = {
        "n_blocks": N_BLOCKS, "trials_per_block": TRIALS_PER_BLOCK,
        "trials": N_BLOCKS * TRIALS_PER_BLOCK, "adversary_trials": ADVERSARY_TRIALS,
        "event_window_ns": 2000,
    }

    def setup(self) -> None:
        self.inputs.mkdir(parents=True, exist_ok=True)
        self.expected = _write_config(self.inputs / "config.json", self.N_BLOCKS, self.seed)
        _write_config(self.inputs / "warmup.json", 4, self.seed, "cyclic")
        self.tables: list = []

    def observed(self):
        # analyze writes B but not the counts table; keep the table from the call
        def capture(fn):
            def windowed_counts(*args, **kwargs):
                table = fn(*args, **kwargs)
                self.tables.append(table)
                return table
            return windowed_counts

        return spans.rebound([(cli, "windowed_counts", capture)])

    def warm_up(self, ops: Ops) -> None:
        d = self.dir("warmup")
        ops.cli("simulate", ["simulate", str(self.inputs / "warmup.json"), "--timetags",
                             "--out", d, "--quiet"])
        ops.cli("analyze", ["analyze", f"{d}/timetags.bin", "--window", self.EVENT_WINDOW,
                            "--settings", f"{d}/trial_settings.txt", "--out", d, "--quiet"])
        ops.cli("lhv-demo", ["lhv-demo", "--what", "timing", "--trials", "1000",
                             "--seed", str(self.seed), "--out", d, "--quiet"])

    def _analyze(self, ops: Ops, label: str, stream: Path, settings: Path, window: str,
                 out: Path, check) -> None:
        def checked():
            expect(self.tables, "no counts table was computed")
            table = self.tables[-1]
            doc = _read_json(out / "bell_result.json")
            b = bs.ch_from_counts(table)
            expect(abs(doc["B"] - b) <= 1e-12, f"B {doc['B']} != {b} from the counts")
            check(table, doc["B"])

        self.tables.clear()
        ops.cli(f"analyze {label} {window}",
                ["analyze", str(stream), "--window", window, "--settings", str(settings),
                 "--out", str(out), "--quiet"], checked)
        ops.reproduced(f"bell_result.json {label} {window}", out / "bell_result.json")

    def pipeline(self, ops: Ops) -> None:
        sim, adv = self.work / "simulate", self.work / "adversary"
        trials = self.N_BLOCKS * TRIALS_PER_BLOCK

        def check_simulated():
            size = (sim / "timetags.bin").stat().st_size
            expect(size % 9 == 0 and size // 9 > trials, f"timetags.bin has {size} bytes")

        ops.cli("simulate --timetags", ["simulate", str(self.inputs / "config.json"),
                                        "--timetags", "--out", str(sim), "--quiet"],
                check_simulated)
        ops.reproduced("timetags.bin", sim / "timetags.bin")

        def check_clock(table, b):
            expect(int(table.total_trials) == trials, f"{table.total_trials} trials")
            check_rates(table, self.expected, "clock-windowed")

        def check_event(table, b):
            # raw detection counts: at least one per clicking trial, so the
            # event-window singles sit at or above the clock-window rates
            expect(int(table.total_trials) == trials, f"{table.total_trials} trials")
            pa, pb, _ = self.expected
            n = table.n_trials.astype(float)
            for label, observed, p in (("singles_a", table.singles_a, pa),
                                       ("singles_b", table.singles_b, pb)):
                floor = p * n - N_SIGMA * np.sqrt(p * (1 - p) * n)
                expect(np.all(observed >= floor), f"event-window {label} below the clock rate")
            expect(math.isfinite(b), "B is not finite")

        for window, check in (("clock", check_clock), (self.EVENT_WINDOW, check_event)):
            self._analyze(ops, "simulated", sim / "timetags.bin", sim / "trial_settings.txt",
                          window, self.work / f"analyze-{window.split(':')[0]}", check)

        def check_adversary():
            size = (adv / "adversarial_timetags.bin").stat().st_size
            # one clock marker and exactly one detection per arm in every trial
            expect(size == 9 * 3 * self.ADVERSARY_TRIALS, f"adversarial stream has {size} bytes")

        ops.cli("lhv-demo timing", ["lhv-demo", "--what", "timing",
                                    "--trials", str(self.ADVERSARY_TRIALS),
                                    "--seed", str(self.seed), "--out", str(adv), "--quiet"],
                check_adversary)

        def fake_violation(table, b):
            expect(b == 1.0, f"event windowing gives B = {b}, expected the fake B = 1")

        def no_violation(table, b):
            expect(b <= 0.0, f"clock windowing gives B = {b} > 0 on a classical stream")

        for window, check in ((self.EVENT_WINDOW, fake_violation), ("clock", no_violation)):
            self._analyze(ops, "adversarial", adv / "adversarial_timetags.bin",
                          adv / "adversarial_settings.txt", window,
                          self.work / f"adversary-{window.split(':')[0]}", check)


# ---------------------------------------------------------------------------
# design-sweep


class DesignSweep(Workload):
    name = "design-sweep"
    why = ("The experiment-design path: a 49-point compound-model B'(r) sweep, two "
           "optimizations and three critical efficiencies, deterministic and nearly "
           "memory-free; the seed does not enter it.")
    SOURCE = ["--eta", "0.75", "--bg", "6.55e-5", "--pair-mean", "0.033"]
    R_GRID = "0.04:1.0:0.02"
    CRITICAL_RS = (1.0, 0.26, 0.05)
    sizes = {"r_grid": R_GRID, "sweep_points": 49, "critical_rs": list(CRITICAL_RS)}

    def warm_up(self, ops: Ops) -> None:
        ops.cli("sweep", ["sweep", *self.SOURCE, "--r-grid", "0.26:0.26:0.1",
                          "--out", self.dir("warmup"), "--quiet"])

    def pipeline(self, ops: Ops) -> None:
        sweep, free, ideal = (self.work / n for n in ("sweep", "optimize-free", "optimize-ideal"))
        window = None

        def check_sweep():
            nonlocal window
            with open(sweep / "bprime_sweep.csv", newline="") as fh:
                rows = [(float(r["r"]), float(r["B_prime"])) for r in csv.DictReader(fh)]
            expect(len(rows) == 49, f"{len(rows)} sweep points")
            viol = [r for r, bp in rows if bp > 1.0]
            expect(viol, "no violation anywhere on the grid")
            lo, hi = min(viol), max(viol)
            expect(lo <= bs.REFERENCE_R <= hi, f"violation window [{lo}, {hi}] misses r = 0.26")
            expect(abs(lo - 0.20) <= 0.07 and abs(hi - 0.33) <= 0.07,
                   f"violation window [{lo}, {hi}] is not near [0.20, 0.33]")
            expect(rows[-1][0] == 1.0 and rows[-1][1] <= 1.0, f"B'(1) = {rows[-1][1]}")
            window = (lo, hi)

        ops.cli("sweep", ["sweep", *self.SOURCE, "--r-grid", self.R_GRID,
                          "--out", str(sweep), "--quiet"], check_sweep)
        ops.reproduced("bprime_sweep.csv", sweep / "bprime_sweep.csv")

        def check_free():
            doc = _read_json(free / "optimization.json")
            expect(doc["predicted_B_prime"] > 1.0, f"B' = {doc['predicted_B_prime']}")
            expect(window is not None and window[0] <= doc["r"] <= window[1],
                   f"optimum r = {doc['r']} outside the violation window {window}")

        ops.cli("optimize free r", ["optimize", *self.SOURCE, "--objective", "b-prime",
                                    "--model", "compound", "--out", str(free), "--quiet"],
                check_free)
        ops.reproduced("optimization.json free r", free / "optimization.json")

        def check_ideal():
            b = _read_json(ideal / "optimization.json")["predicted_B"]
            expect(abs(b - (math.sqrt(2) - 1) / 2) <= 1e-4, f"ideal CH maximum {b}")

        ops.cli("optimize ideal", ["optimize", "--eta", "1", "--fix-r", "1",
                                   "--out", str(ideal), "--quiet"], check_ideal)
        ops.reproduced("optimization.json ideal", ideal / "optimization.json")

        etas: list[float] = []

        def check_eta(r):
            def check(eta):
                if r == 1.0:
                    expect(abs(eta - 2 * (math.sqrt(2) - 1)) <= 1e-3, f"eta_crit(1) = {eta}")
                # eta_crit falls toward 2/3 as r -> 0
                expect(2 / 3 < eta and all(eta < e for e in etas),
                       f"eta_crit({r}) = {eta} after {etas}")
                if r == self.CRITICAL_RS[-1]:
                    expect(eta - 2 / 3 < 0.02, f"eta_crit({r}) = {eta} is not near 2/3")
                etas.append(eta)
            return check

        for r in self.CRITICAL_RS:
            ops.call(f"critical_efficiency r={r}", lambda r=r: bs.critical_efficiency(r),
                     check_eta(r))


WORKLOADS = {w.name: w for w in (PaperBlocks, Timetags, DesignSweep)}
