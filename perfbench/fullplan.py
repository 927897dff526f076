"""Record the drive-path mix of the full training plan.

    PYTHONPATH=src python3 perfbench/fullplan.py

Collects the whole Part A + Part B plan once, cold and single-process
(about 3-4 minutes), under the same tracer as a traced benchmark run, and
writes ``perfbench/fullplan.json``.  A traced ``train-slice`` run prints
its own mix beside this one, which shows whether the slice still stands
for the plan.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from repro.core.lab import Lab
from repro.core.training import (
    PART_A_PLAN,
    PART_B_INTERFERENCE,
    PART_B_PLAN,
    collect_plan,
)
from tracer import Tracer

OUT = Path(__file__).with_name("fullplan.json")


def path_mix(metrics: dict) -> dict:
    """The routing numbers a traced run and this record share."""
    drive = metrics["coherence.drive_s"]
    return {
        "accesses": metrics["coherence.accesses"],
        "drive_s": drive,
        "offscalar.by_accesses": metrics["coherence.offscalar.by_accesses"],
        "offscalar.by_time": metrics["coherence.offscalar.by_time"],
        "ref-gated.time_share": (metrics["coherence.path.ref-gated.s"] / drive
                                 if drive else 0.0),
    }


def main() -> int:
    tracer = Tracer()
    tracer.install_simulation_layers()
    lab = Lab(disk_cache=None)
    t0 = time.perf_counter()
    collect_plan(lab, PART_A_PLAN, part="A")
    collect_plan(lab, PART_B_PLAN, part="B",
                 interference_p=PART_B_INTERFERENCE)
    wall = time.perf_counter() - t0
    tracer.restore()
    metrics = tracer.layer_metrics(wall)
    doc = {
        "wall_s": wall,
        "simulations": lab.cache_size(),
        "mix": path_mix(metrics),
        "paths": {p: {"accesses": tracer.path_accesses[p],
                      "s": tracer.path_s[p]}
                  for p in sorted(tracer.path_accesses)
                  if tracer.path_accesses[p]},
    }
    OUT.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(json.dumps(doc, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
