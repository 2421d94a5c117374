"""Record reference.json: each workload's output at the default seed.

    python3 perfbench/record_reference.py

Run this only on a commit whose outputs are known to be right; every later
run at the default seed (and, for seed-independent outputs, at any seed)
must reproduce these outputs exactly.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import speed
import worker


def main():
    worker.import_package()
    import workloads

    ref = {}
    work = os.path.join(worker.ROOT, ".bench_build", "perfbench", "work-reference")
    os.makedirs(work, exist_ok=True)
    clock = speed.SpeedClock()
    clock.start()
    try:
        for name, cls in workloads.WORKLOADS.items():
            res = cls(workloads.DEFAULT_SEED, work).run_pass(clock)
            if res.failed or res.problems:
                sys.exit(f"{name}: {res.failed} failed items: {res.problems[:5]}")
            ref[name] = res.output
            print(f"{name}: {res.items} items in {res.seconds:.1f} s", file=sys.stderr)
    finally:
        clock.stop()
        shutil.rmtree(work, ignore_errors=True)
    with open(worker.REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
