"""Record the canonical output digests that the benchmark checks against.

    python3 perfbench/record.py --seeds 0-31 [--workload lift ...]

Runs one untimed pass per workload and seed and stores the SHA-256 digest of
its canonical output in ``digests.json``.  A pass with a failed check is not
recorded.  Both batch workloads share one entry, since they run the same
commands.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run
import workloads


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, required=True, help="e.g. 0-31")
    parser.add_argument("--workload", action="append",
                        choices=("orbit-large", "lift", "batch-serial"))
    args = parser.parse_args()
    sys.path.insert(0, str(run.SRC))
    digests = run.load_digests()
    for workload in args.workload or ("orbit-large", "lift", "batch-serial"):
        for seed in args.seeds:
            workdir = run.OUT / f"record-{workload}-{seed}"
            try:
                _, units, _ = run.set_up(workload, seed, "full", workdir)
                record = run.Record(units)
                record.run_pass()
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            if record.failed:
                print(f"{workload} seed {seed}: not recorded: {record.failures[:3]}")
                continue
            key = run.digest_key(workload)
            digests.setdefault(key, {})[str(seed)] = record.digests[0]
            run.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
            print(f"{workload} seed {seed}: {record.digests[0]}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
