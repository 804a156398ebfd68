"""Rewrite ``reference.json``: row hashes per workload and seed.

Run from the repository root, only when a change is meant to alter the
simulated output (and say so in the change)::

    python3 perfbench/record_reference.py [first_seed last_seed]

Seeds default to 0..15.  Takes about ten minutes on a 2-core box.
"""

from __future__ import annotations

import json
import sys

from run import BENCH, WORKLOADS, prepare, run_worker


def main(argv) -> int:
    first, last = (int(argv[0]), int(argv[1])) if argv else (0, 15)
    reference = {}
    for workload in WORKLOADS:
        prepare(workload)
        hashes = reference[workload] = {}
        for seed in range(first, last + 1):
            if workload == "catalog-serve":
                out = run_worker(["catalog", str(seed)])
            else:
                out = run_worker(["point", workload, str(seed)])
            hashes[str(seed)] = out["hash"]
            print(workload, seed, out["hash"], flush=True)
    path = BENCH / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
