"""Record the output digests the simulation workloads check against.

Run from the repository root, on a commit whose outputs are known good:

    PYTHONPATH=src python3 perfbench/record.py

It runs one cold pass of ``train-slice`` and ``suite-detect`` per input
variant and rewrites ``perfbench/digests.json``.  Only re-record when a
change is meant to alter simulator, PMU, screening or classifier
outputs; a benchmark run fails on any digest mismatch.
"""

from __future__ import annotations

import json
import subprocess
import sys

import simwork


def main() -> int:
    recorded = {"train-slice": {}, "suite-detect": {}}
    simwork.load_digests = lambda: recorded
    for variant in range(simwork.VARIANTS):
        for name in recorded:
            bench = simwork.make(name, variant)
            out = bench.run_pass()
            recorded[name].update(bench.outputs(out))
            print(f"{name} v{variant}: {out['wall']:.2f}s "
                  f"{bench.summary(out)}", flush=True)
    revision = subprocess.run(["git", "rev-parse", "HEAD"],
                              capture_output=True, text=True).stdout.strip()
    doc = {"recorded_at": revision, **recorded}
    simwork.DIGESTS.write_text(json.dumps(doc, indent=1, sort_keys=True)
                               + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
