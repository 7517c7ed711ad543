"""Fast check of the benchmark harness itself, at tiny input sizes.

    python3 perfbench/selfcheck.py

It is kept out of the test suite (the file name does not match ``test_*``).
It checks that
* every workload prints each end-to-end metric of ``BENCHMARK.json`` with its
  unit (and, traced, each per-layer metric), and names all seven end-to-end
  metrics in its summary;
* a corrupted or missing recorded digest (of the seed or of the anchor seed)
  and a wrong expected exit code each show up as ``failed_frac > 0``;
* without the package sources the benchmark exits non-zero and prints no
  result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

SEED = 7


def expect(condition: bool, what) -> None:
    """Fail loudly; unlike ``assert`` this also runs under ``python -O``."""
    if not condition:
        raise SystemExit(f"FAIL: {what}")


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def tiny(workload: str, trace: int) -> tuple[list[str], dict]:
    proc = bench("--workload", workload, "--seed", str(SEED), "--seconds", "0.3",
                 "--trace", str(trace), "--scale", "tiny")
    expect(proc.returncode == 0, proc.stderr)
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def check_metrics(spec: dict) -> None:
    for workload in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            lines, result = tiny(workload, trace)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == want, (workload, trace, set(got) ^ set(want)))
            values = [m["value"] for m in result["metrics"].values()]
            expect(all(isinstance(v, (int, float)) for v in values), (workload, "numeric values"))
            expect(result["correct"] and result["failed"] == 0, (workload, lines))
            summary = "\n".join(lines[:-1])
            for name in run.END_TO_END_UNITS:
                expect(f"  {name} " in summary, (workload, name))
        print(f"ok  {workload}: metrics and units")


def check_digest_corruption() -> None:
    workdir = run.OUT / "selfcheck-digest"
    try:
        lib, units, setup_s = run.set_up("orbit-large", SEED, "tiny", workdir)
        record = run.Record(units)
        record.run_pass()
        good = record.digests[0]
        anchor = run.Record(workloads.generate(lib, "orbit-large", run.ANCHOR_SEED, "tiny",
                                               workdir))
        anchor.run_pass()
        cases = (({str(SEED): good}, False), ({str(SEED): "0" * 64}, True),
                 ({str(run.ANCHOR_SEED): anchor.digests[0]}, False),
                 ({str(run.ANCHOR_SEED): "0" * 64}, True), ({}, True))
        for recorded, should_fail in cases:
            record = run.Record(units)
            record.run_pass()
            status = run.check_output(lib, record, "orbit-large", SEED, "tiny",
                                      {"orbit-large": recorded}, workdir)
            failed_frac = run.end_to_end(record, setup_s, 0.0)["failed_frac"]
            expect((failed_frac > 0) == should_fail, (recorded, status, record.failures))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("ok  a corrupted or missing digest counts as failed")


def check_wrong_exit_code() -> None:
    workdir = run.OUT / "selfcheck-work"
    try:
        _, units, setup_s = run.set_up("batch-serial", SEED, "tiny", workdir)
        record = run.Record(units)
        record.run_pass()
        expect(record.failed == 0, record.failures)
        pinned = [u for u in units if u.expected_code is not None]
        expect(len(pinned) == 5, [u.label for u in pinned])
        for unit in pinned:
            right = unit.expected_code
            unit.expected_code = (right + 1) % 3
            record = run.Record(units)
            record.run_pass()
            unit.expected_code = right
            expect(run.end_to_end(record, setup_s, 0.0)["failed_frac"] > 0,
                   (unit.label, record.failures))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("ok  a wrong exit code counts as failed")


def check_bare_directory() -> None:
    bare = run.OUT / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = bench("--workload", "orbit-large", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=bare)
        expect(proc.returncode != 0 and '"correct"' not in proc.stdout, proc.stdout)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  no sources: non-zero exit, no result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_metrics(spec)
    check_digest_corruption()
    check_wrong_exit_code()
    check_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())
