"""Layered benchmark for pentagram-lab.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload orbit-large --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json``):

* ``orbit-large``  -- direct verifier calls on long orbits (big-integer kernel);
* ``lift``         -- ``lift_report`` batteries (``linalg`` elimination);
* ``batch-serial`` -- in-process CLI commands on small instances, one process;
* ``batch-pool``   -- the same commands with a two-worker process pool.

Each workload is a closed loop with one client.  Set-up imports the package
and builds every input from ``--seed``.  Then whole passes over the inputs
run until the next one would end after ``--seconds``, and at least
``MIN_PASSES`` of them.  After the passes, set-up is repeated
``SETUP_REPEATS`` times in fresh interpreters (``--setup-only``) and
``setup_s`` is their median; running them last keeps their memory out of
``peak_rss_mb``.
Every pass must produce byte-identical canonical output.  Its SHA-256 digest
is also compared with the one recorded in ``digests.json`` for that workload
and seed.  For a seed with no recorded digest, one untimed pass over the
inputs of ``ANCHOR_SEED`` is compared with that seed's digest instead, so a
change of output shows on every seed.

End-to-end metrics (tracing off): ``setup_s``, ``claims_per_s`` (claim
checks per second of timed unit time, median over passes), ``claim_p50_ms``
and ``claim_tail_ms`` (over every timed unit of every pass; the tail is the
highest order statistic with ten samples beyond it, or the maximum below 21
samples), ``failed_frac``, ``degenerate_frac`` and ``peak_rss_mb`` (peak
resident memory of this process plus that of its largest child process, as
``getrusage`` reports it).

The times behind ``setup_s``, ``claims_per_s``, ``claim_p50_ms`` and
``claim_tail_ms`` are scaled to a reference speed.  On a shared host the
speed of one core drifts by up to 1.5x over tens of seconds, which swamps the
differences a benchmark must resolve.  So a fixed calibration round, which
uses only the standard library (``calibration_round``), runs right before
every timed unit.  Each unit's time is multiplied by ``CALIBRATION_REF_S``
over the median time of the five calibration rounds nearest to it: it reads
as the time on a machine where one round takes ``CALIBRATION_REF_S``.  The
program cannot change the calibration round, so a slower program still
reads slower.  The summary lines also print the unscaled figures.

The last output line is the JSON result; with ``--trace 0`` it carries the
bounded end-to-end metrics of ``BENCHMARK.json``, and with ``--trace 1`` the
per-layer metrics of a traced run (per pass; the sampling and serialization
metrics also include one traced set-up).  In a traced run every unit also
runs once untraced right after its traced run; the two give
``trace.overhead_frac``.  Spans of the traced run are written to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"
PACKAGE = "pentagram_lab"
SETUP_REPEATS = 7
MIN_PASSES = 5
ANCHOR_SEED = 1
CALIBRATION_REF_S = 0.003
CALIBRATION_WINDOW = 5

import tracing  # noqa: E402 - sibling module of this script
import workloads  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "claims_per_s": "1/s",
    "claim_p50_ms": "ms",
    "claim_tail_ms": "ms",
    "failed_frac": "fraction",
    "degenerate_frac": "fraction",
    "peak_rss_mb": "MB",
}


def digest_key(workload: str) -> str:
    """Both batch workloads run the same commands, so they share digests."""
    return "batch" if workload.startswith("batch-") else workload


def calibration_round() -> int:
    """Fixed work of about 3 ms on a 2-core x86-64 VM with CPython 3.11:
    rational arithmetic and dict updates, like the package's own work, but
    only from the standard library."""
    x = Fraction(1, 3)
    table: dict[int, tuple[Fraction, int]] = {}
    total = 0
    for i in range(1, 300):
        x = x * Fraction(i, i + 7) + Fraction(1, i)
        if x.denominator > 10**40:
            x = Fraction(x.numerator % 1009 + 1, x.denominator % 997 + 1)
        table[i % 17] = (x, i)
        total += len(table)
    return total


def timed_calibration() -> float:
    start = perf_counter()
    calibration_round()
    return perf_counter() - start


def speed_factor(rounds: list[float]) -> float:
    """Multiplier that turns a time measured beside ``rounds`` into
    reference time."""
    return CALIBRATION_REF_S / statistics.median(rounds)


def set_up(workload: str, seed: int, scale: str, workdir: Path):
    """Import the package and build every input; returns the time it took too."""
    start = perf_counter()
    lib = importlib.import_module(PACKAGE)
    importlib.import_module(PACKAGE + ".cli")
    units = workloads.generate(lib, workload, seed, scale, workdir)
    return lib, units, perf_counter() - start


def repeated_setup_s(args) -> float:
    """Median set-up time over ``SETUP_REPEATS`` fresh interpreters, each
    scaled to reference speed by calibration rounds around it."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", "0", "--scale", args.scale, "--setup-only"],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


class Record:
    """Durations and outcomes of every pass."""

    def __init__(self, units):
        self.units = units
        self.durations = [[] for _ in units]
        self.bits = [0 for _ in units]
        self.digests: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.degenerate: Counter[tuple[str, str]] = Counter()
        self.failures: list[str] = []
        self.stdout_bytes = 0
        self.passes = 0
        self.timed = 0.0
        self.pass_checks: list[int] = []
        # one entry per timed unit, in run order: (pass, raw time, calibration)
        self.timeline: list[tuple[int, float, float]] = []
        self.outcomes: list = []
        self.pass_time = 0.0

    def run_pass(self) -> None:
        self.start_pass()
        for i in range(len(self.units)):
            self.run_unit(i)
        self.finish_pass()

    def start_pass(self) -> None:
        self.outcomes = []
        self.pass_time = 0.0

    def run_unit(self, i: int, tracer=None) -> None:
        unit = self.units[i]
        calibration = timed_calibration()
        start = perf_counter()
        raw = tracer.run_unit(unit.call, unit.claim) if tracer else unit.call()
        elapsed = perf_counter() - start
        self.durations[i].append(elapsed)
        self.timeline.append((self.passes, elapsed, calibration))
        self.pass_time += elapsed
        if tracer:
            self.bits[i] = max(self.bits[i], tracer.unit_coord_bits)
        self.outcomes.append(unit.judge(raw))

    def finish_pass(self) -> None:
        pass_time = self.pass_time
        self.timed += pass_time
        self.passes += 1
        blob = hashlib.sha256()
        checks = failed = 0
        for unit, outcome in zip(self.units, self.outcomes):
            blob.update(f"{unit.label}\n".encode() + outcome.output + b"\n")
            checks += outcome.checks
            failed += min(outcome.checks, len(outcome.failures))
            self.failures += outcome.failures
            self.stdout_bytes += outcome.stdout_bytes
            for kind, count in outcome.degenerate.items():
                self.degenerate[(unit.claim, kind)] += count
        self.pass_checks.append(checks)
        digest = blob.hexdigest()
        if self.digests and digest != self.digests[0]:
            self.failures.append(f"pass {self.passes}: output differs from pass 1")
            failed = checks
        self.digests.append(digest)
        self.attempted += checks
        self.failed += failed

    def fail_all(self, message: str) -> None:
        self.failures.append(message)
        self.failed = self.attempted

    def check_recorded(self, recorded: str) -> str:
        if self.digests[0] == recorded:
            return "matches the recorded digest"
        self.fail_all("output digest differs from the recorded digest")
        return "MISMATCH with the recorded digest"

    def scaled(self) -> list[float]:
        """Unit times of ``timeline`` scaled to reference speed."""
        rounds = [c for _, _, c in self.timeline]
        half = CALIBRATION_WINDOW // 2
        return [raw * speed_factor(rounds[max(0, k - half):k + half + 1])
                for k, (_, raw, _) in enumerate(self.timeline)]

    def pass_rates(self, times: list[float]) -> list[float]:
        """Claim checks per second of each pass, from per-unit ``times``."""
        per_pass = [0.0] * self.passes
        for (p, _, _), t in zip(self.timeline, times):
            per_pass[p] += t
        return [checks / t for checks, t in zip(self.pass_checks, per_pass)]


def timed_loop(seconds: float):
    """Yields once per pass: at least ``MIN_PASSES`` times, then while the next
    pass, as long as the median pass so far, still ends within ``seconds``."""
    start = perf_counter()
    walls: list[float] = []
    while True:
        elapsed = perf_counter() - start
        if len(walls) >= MIN_PASSES and elapsed + statistics.median(walls) > seconds:
            return
        yield
        walls.append(perf_counter() - start - elapsed)


def run_passes(record: Record, seconds: float) -> None:
    """Closed loop with one client: the next unit starts when the last one ends."""
    for _ in timed_loop(seconds):
        record.run_pass()


def run_paired_passes(traced: Record, untraced: Record, seconds: float, tracer) -> None:
    """Each unit runs traced, then untraced, so host drift hits both alike."""
    for _ in timed_loop(seconds):
        traced.start_pass()
        untraced.start_pass()
        for i in range(len(traced.units)):
            tracer.install()
            try:
                traced.run_unit(i, tracer)
            finally:
                tracer.uninstall()
            untraced.run_unit(i)
        traced.finish_pass()
        untraced.finish_pass()


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest order statistic with ten samples beyond it: (value, percentile, n).

    With fewer than 21 samples that statistic would not lie above the median,
    so the maximum stands in for it.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 21:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def peak_rss_mb() -> float:
    """Own peak plus the peak of the largest child; on ``batch-pool`` the two
    workers do alike work, so the other one's peak is about the same."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def end_to_end(record: Record, setup_s: float, rss_mb: float) -> dict:
    scaled = record.scaled()
    samples = [1000.0 * v for v in scaled]
    raw = [1000.0 * v for _, v, _ in record.timeline]
    tail_value, tail_pct, tail_n = tail(samples)
    degenerate = sum(record.degenerate.values())
    return {
        "setup_s": setup_s,
        "claims_per_s": statistics.median(record.pass_rates(scaled)),
        "claim_p50_ms": statistics.median(samples),
        "claim_tail_ms": tail_value,
        "failed_frac": record.failed / record.attempted,
        "degenerate_frac": degenerate / record.attempted,
        "peak_rss_mb": rss_mb,
        "_tail": (tail_pct, tail_n),
        "_degenerate": degenerate,
        "_unscaled": (statistics.median(record.pass_rates([r / 1000.0 for r in raw])),
                      statistics.median(raw), tail(raw)[0],
                      1000.0 * statistics.median(c for _, _, c in record.timeline)),
    }


def per_layer(setup: dict, final: dict, tracer, passes: int, overhead: float,
              e2e: dict) -> dict:
    """Per-pass layer metrics from counter snapshots after set-up and at the end."""
    calls = final["calls"] - setup["calls"]
    total = final["total"] - setup["total"]
    self_time = final["self"] - setup["self"]

    def c(name):
        return calls[name] / passes

    def t(name):
        return total[name] / passes

    def layer_self(layer):
        return sum(v for k, v in self_time.items() if k.startswith(layer + ".")) / passes

    def per_report(name):
        reports = calls["lifting.report"]
        return calls[name] / reports if reports else 0.0

    certificates = tracer.sample_certificates
    return {
        "projcore.points_built": c("projcore.point") + c("projcore.line"),
        "projcore.join_calls": c("projcore.join"),
        "projcore.meet_calls": c("projcore.meet"),
        "projcore.meet_coplanar_calls": c("projcore.meet_coplanar"),
        "projcore.harmonic_calls": c("projcore.harmonic"),
        "projcore.self_s": layer_self("projcore"),
        "projcore.max_coord_bits": tracer.max_coord_bits,
        "linalg.rref_calls": c("linalg.rref"),
        "linalg.rank_calls": c("linalg.rank"),
        "linalg.nullspace_calls": c("linalg.nullspace"),
        "linalg.solve_calls": c("linalg.solve"),
        "linalg.det_calls": c("linalg.det"),
        "linalg.self_s": layer_self("linalg"),
        "linalg.max_entry_bits": tracer.max_entry_bits,
        "pentagram2d.step_calls": c("pentagram2d.step"),
        "pentagram2d.step_s": t("pentagram2d.step"),
        "corrugated.step_calls": c("corrugated.step"),
        "corrugated.step_s": t("corrugated.step"),
        "corrugated.certificate_s": t("corrugated.certificate"),
        "lower1d.step_calls": c("lower1d.step"),
        "lower1d.step_s": t("lower1d.step"),
        "mirror.step_calls": c("mirror.step"),
        "mirror.step_s": t("mirror.step"),
        "frieze.row_calls": c("frieze.row"),
        "frieze.row_s": t("frieze.row"),
        "pentagram2d.verify_s": self_time["pentagram2d.verify"] / passes,
        "corrugated.verify_s": self_time["corrugated.verify"] / passes,
        "lower1d.verify_s": self_time["lower1d.verify"] / passes,
        "mirror.verify_s": self_time["mirror.verify"] / passes,
        "frieze.verify_s": self_time["frieze.verify"] / passes,
        "lifting.report_s": t("lifting.report"),
        "lifting.self_s": layer_self("lifting"),
        "lifting.intersect_calls": c("lifting.intersect"),
        "lifting.intersect_s": t("lifting.intersect"),
        "lifting.flat_H_calls": c("lifting.flat_H"),
        "lifting.slices_check_calls": c("lifting.slices_check"),
        "lifting.slices_check_s": t("lifting.slices_check"),
        "lifting.skeleton_check_s": t("lifting.skeleton_check"),
        "lifting.mating_check_s": t("lifting.mating_check"),
        "lifting.intersect_per_report": per_report("lifting.intersect"),
        "lifting.flat_H_per_report": per_report("lifting.flat_H"),
        "rng.sample_s": (setup["total"]["rng.sample"] + setup["total"]["rng.sample_m"]
                         + t("rng.sample") + t("rng.sample_m")),
        "corrugated.sample_accept_ratio": (tracer.samples_accepted / certificates
                                           if certificates else 0.0),
        "serde.load_calls": c("serde.load"),
        "serde.load_s": t("serde.load"),
        "serde.dump_s": setup["total"]["serde.dump"] + t("serde.dump"),
        "svg.render_calls": c("svg.render"),
        "svg.render_s": t("svg.render"),
        "cli.commands": c("cli.command"),
        "cli.command_s": t("cli.command"),
        "cli.self_s": self_time["cli.command"] / passes,
        "cli.stdout_bytes": e2e["_stdout_bytes"],
        "trace.overhead_frac": overhead,
        "checks.failed_frac": e2e["failed_frac"],
        "checks.degenerate_frac": e2e["degenerate_frac"],
    }


def load_benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}


def check_output(lib, record: Record, workload: str, seed: int, scale: str,
                 digests: dict | None, workdir: Path) -> str:
    """Compare the output with its recorded digest, or else with the anchor
    seed's; ``digests`` is None at the tiny scale, which has none recorded."""
    if digests is None:
        return "not checked at this scale"
    recorded = digests.get(digest_key(workload), {})
    if str(seed) in recorded:
        return record.check_recorded(recorded[str(seed)])
    if str(ANCHOR_SEED) not in recorded:
        record.fail_all(f"no digest recorded for seed {seed} or anchor seed {ANCHOR_SEED}")
        return "UNRECORDED"
    anchor = Record(workloads.generate(lib, workload, ANCHOR_SEED, scale, workdir / "anchor"))
    anchor.run_pass()
    status = anchor.check_recorded(recorded[str(ANCHOR_SEED)])
    if anchor.failed:
        record.failures += anchor.failures
        record.fail_all(f"anchor seed {ANCHOR_SEED} failed its output check")
    return f"seed unrecorded; anchor seed {ANCHOR_SEED} {status}"


def summary_lines(workload, seed, record, e2e, digest_status) -> list[str]:
    tail_pct, tail_n = e2e["_tail"]
    lines = [
        f"workload {workload}, seed {seed}: {record.passes} passes of {len(record.units)} units, "
        f"{record.attempted} claim checks",
        f"  setup_s          {e2e['setup_s']:.6f} s   (lower is better)",
        f"  claims_per_s     {e2e['claims_per_s']:.4f} 1/s (higher is better)",
        f"  claim_p50_ms     {e2e['claim_p50_ms']:.4f} ms  (lower is better)",
        f"  claim_tail_ms    {e2e['claim_tail_ms']:.4f} ms  (p{tail_pct:.1f} of {tail_n} units, "
        "lower is better)",
        f"  failed_frac      {e2e['failed_frac']:.6f} ({record.failed}/{record.attempted}, "
        "lower is better)",
        f"  degenerate_frac  {e2e['degenerate_frac']:.6f} ({e2e['_degenerate']}/{record.attempted})",
        f"  peak_rss_mb      {e2e['peak_rss_mb']:.3f} MB  (lower is better)",
        "  unscaled         claims_per_s {:.4f}, claim_p50_ms {:.4f}, claim_tail_ms {:.4f}; "
        "calibration round {:.4f} ms (reference {:.1f} ms)".format(
            *e2e["_unscaled"], 1000.0 * CALIBRATION_REF_S),
        f"  output digest    {record.digests[0]} ({digest_status})",
    ]
    lines += [f"  FAILED: {msg}" for msg in record.failures[:20]]
    return lines


def write_spans(tracer, workload: str, seed: int) -> Path:
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"spans-{workload}-seed{seed}.jsonl"
    with path.open("w", encoding="utf-8") as fh:
        for span in tracer.spans:
            if span is not None:
                span_id, parent, name, start, end = span
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")
    return path


def trace_detail(record: Record, tracer, untraced: Record, per_layer_values: dict) -> dict:
    """Degeneracy histogram and cost-growth record of a traced run."""
    degenerate: dict[str, dict[str, int]] = defaultdict(dict)
    seen = Counter()
    for (claim, kind), count in tracer.degenerate.items():
        degenerate[claim][kind] = count // record.passes
        seen[claim] += count // record.passes
    totals = Counter()
    for (claim, _), count in record.degenerate.items():
        totals[claim] += count // record.passes
    for claim, count in totals.items():
        if count > seen[claim]:
            # draws inside pool workers are invisible to the tracer
            degenerate[claim]["unclassified (pool worker)"] = count - seen[claim]
    growth: dict[str, dict] = {}
    by_key = defaultdict(list)
    for i, unit in enumerate(record.units):
        by_key[unit.key].append(i)
    for key, idx in by_key.items():
        # bits stay 0 where the work ran in pool workers, out of the tracer's sight
        bits = max(record.bits[i] for i in idx)
        growth[key] = {
            "claim_p50_ms": 1000.0 * statistics.median(
                d for i in idx for d in untraced.durations[i]),
            "projcore.max_coord_bits": bits or None,
            "units": len(idx),
        }
    report_s = per_layer_values["lifting.report_s"]
    shares = {}
    if report_s:
        shares = {name: per_layer_values[name] / report_s
                  for name in ("lifting.intersect_s", "linalg.self_s", "lifting.self_s",
                               "projcore.self_s")}
    return {
        "degenerate_per_pass": dict(degenerate),
        "cost_growth": growth,
        "share_of_lifting.report_s": shares,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input sizes; tiny is for the harness self-check")
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up and print it (used for setup_s)")
    args = parser.parse_args(argv)

    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"no {PACKAGE} sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = load_benchmark_spec()
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.setup_only:
            timed_calibration()  # warm-up
            rounds = [timed_calibration() for _ in range(CALIBRATION_WINDOW)]
            setup_s = set_up(args.workload, args.seed, args.scale, workdir)[2]
            rounds += [timed_calibration() for _ in range(CALIBRATION_WINDOW)]
            print(setup_s * speed_factor(rounds))
            return 0
        return measure(args, spec, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, spec, workdir: Path) -> int:
    lib, units, setup_s = set_up(args.workload, args.seed, args.scale, workdir)
    if not Path(lib.__file__).resolve().is_relative_to(SRC):
        print(f"imported {PACKAGE} from {lib.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    digests = load_digests() if args.scale == "full" else None

    if not args.trace:
        record = Record(units)
        run_passes(record, args.seconds)
        rss_mb = peak_rss_mb()
        status = check_output(lib, record, args.workload, args.seed, args.scale, digests, workdir)
        e2e = end_to_end(record, setup_s, rss_mb)
        e2e["setup_s"] = repeated_setup_s(args)
        print("\n".join(summary_lines(args.workload, args.seed, record, e2e, status)))
        names = [m["name"] for m in spec["end_to_end"]]
        metrics = {name: {"value": e2e[name], "unit": END_TO_END_UNITS[name]} for name in names}
        result = {"correct": record.failed == 0, "attempted": record.attempted,
                  "failed": record.failed, "metrics": metrics}
        print(json.dumps(result))
        return 0

    tracer = tracing.Tracer()
    tracer.install()
    try:
        units = workloads.generate(lib, args.workload, args.seed, args.scale, workdir)
    finally:
        tracer.uninstall()
    setup_counters = tracer.snapshot()
    record, untraced = Record(units), Record(units)
    run_paired_passes(record, untraced, args.seconds, tracer)
    final_counters = tracer.snapshot()
    overhead = record.timed / untraced.timed - 1.0
    rss_mb = peak_rss_mb()
    status = check_output(lib, untraced, args.workload, args.seed, args.scale, digests, workdir)
    if untraced.digests[0] != record.digests[0]:
        untraced.fail_all("untraced output differs from traced output")
    untraced.failures[:0] = record.failures
    e2e = end_to_end(untraced, setup_s, rss_mb)
    e2e["_stdout_bytes"] = record.stdout_bytes / record.passes
    layers = per_layer(setup_counters, final_counters, tracer, record.passes, overhead, e2e)
    print("\n".join(summary_lines(args.workload, args.seed, untraced, e2e, status)))
    detail = trace_detail(record, tracer, untraced, layers)
    detail["spans_file"] = str(write_spans(tracer, args.workload, args.seed).relative_to(ROOT))
    print("trace detail: " + json.dumps(detail, sort_keys=True))
    names = [m["name"] for m in spec["per_layer"]]
    units_of = {m["name"]: m["unit"] for m in spec["per_layer"]}
    metrics = {name: {"value": layers[name], "unit": units_of[name]} for name in names}
    attempted = record.attempted + untraced.attempted
    failed = record.failed + untraced.failed
    if failed:
        print(f"  traced and untraced passes: {failed}/{attempted} checks failed")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
