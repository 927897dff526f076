"""The two simulation workloads: ``train-slice`` and ``suite-detect``.

Both run single-process (no execution engine, so ``jobs=1``) on a fresh
``Lab(disk_cache=None)`` per pass, and assert that every simulation is a
cache miss: a pass measures simulation, never a pickle read.

The workload seed picks one of :data:`VARIANTS` input variants
(``seed % VARIANTS``): the lab's PMU-noise seed, which moves every
measured feature vector and, through them, screening, the fitted tree and
the labels.  Traces do not depend on it: suite-case seeds change the
work of a ``suite-detect`` pass by up to a fifth, which would make its
time depend on the seed.  Every variant's output digests are recorded in
``digests.json``, so each run checks its outputs exactly, whatever the
seed.

Steps are timed in CPU seconds of this process (``time.process_time``).
One thread does all of a pass's work, so that is its running time
without the time the host gave to other processes or guests.  It does
not remove the host's slow stretches, which slow the core itself.
"""

from __future__ import annotations

import hashlib
import json
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List, Tuple

from repro.analysis.predict import predict_plan
from repro.analysis.sharing import analyze_trace
from repro.baselines.shadow import FS_RATE_THRESHOLD, ShadowMemoryDetector
from repro.core.detector import FalseSharingDetector
from repro.core.lab import Lab
from repro.core.training import (
    PART_B_INTERFERENCE,
    PlanRow,
    TrainingData,
    collect_plan,
    screen_instances,
)
from repro.experiments.context import SUITE_INTERFERENCE
from repro.experiments.exp_detection import PAPER_TABLE5
from repro.pmu.events import TABLE2_EVENTS
from repro.suites import all_programs
from repro.suites.base import SuiteCase
from repro.utils.stats import majority
from repro.workloads.base import Mode
from repro.workloads.registry import get_workload

VARIANTS = 8
DIGESTS = Path(__file__).with_name("digests.json")
MODEL = Path("models/detector.json")

G, FS, MA = Mode.GOOD, Mode.BAD_FS, Mode.BAD_MA

#: The training slice: every (part, workload, mode) of the Part A and
#: Part B plans at its smallest plan size and, but for seq_matmul, a
#: larger one, with the plan row's repeat count.  Thread counts rotate
#: over the 3/6/9/12 ladder and patterns over the row's patterns.  The
#: L3-overflowing pdot/psumv n=196608 cases (good, and pdot bad-fs) and
#: the seq_read/seq_write bad-ma strides that fall to the scalar
#: ``ref-gated`` loop run at full size, next to ``lines`` and ``runs``
#: cases; the other large sizes are cut so that one pass takes 8-13 s on
#: a 2-CPU host.
#: Entries: (part, workload, mode, size, threads, pattern, reps).
SLICE: Tuple[Tuple[str, str, Mode, int, int, str, int], ...] = (
    ("A", "psums", G, 2000, 3, "random", 3),
    ("A", "psums", G, 12000, 12, "random", 3),
    ("A", "padding", G, 2000, 6, "random", 3),
    ("A", "padding", G, 12000, 9, "random", 3),
    ("A", "false1", G, 2000, 9, "random", 3),
    ("A", "false1", G, 12000, 6, "random", 3),
    ("A", "psumv", G, 32768, 12, "random", 3),
    ("A", "psumv", G, 196608, 9, "random", 3),
    ("A", "pdot", G, 32768, 3, "random", 3),
    ("A", "pdot", G, 196608, 6, "random", 3),
    ("A", "count", G, 32768, 6, "random", 3),
    ("A", "count", G, 196608, 3, "random", 3),
    ("A", "pmatmult", G, 16, 9, "random", 3),
    ("A", "pmatmult", G, 32, 12, "random", 3),
    ("A", "pmatcompare", G, 96, 12, "random", 3),
    ("A", "pmatcompare", G, 192, 3, "random", 3),
    ("A", "psums", FS, 2000, 6, "random", 2),
    ("A", "psums", FS, 12000, 3, "random", 2),
    ("A", "padding", FS, 2000, 9, "random", 2),
    ("A", "padding", FS, 12000, 3, "random", 2),
    ("A", "false1", FS, 2000, 12, "random", 2),
    ("A", "false1", FS, 12000, 3, "random", 2),
    ("A", "psumv", FS, 32768, 3, "random", 2),
    ("A", "psumv", FS, 98304, 12, "random", 2),
    ("A", "pdot", FS, 32768, 9, "random", 2),
    ("A", "pdot", FS, 196608, 6, "random", 2),
    ("A", "count", FS, 32768, 12, "random", 2),
    ("A", "count", FS, 98304, 9, "random", 2),
    ("A", "pmatmult", FS, 16, 3, "random", 2),
    ("A", "pmatmult", FS, 24, 6, "random", 2),
    ("A", "pmatcompare", FS, 96, 6, "random", 2),
    ("A", "pmatcompare", FS, 144, 9, "random", 2),
    ("A", "psumv", MA, 16384, 3, "stride4", 1),
    ("A", "psumv", MA, 32768, 12, "stride16", 1),
    ("A", "pdot", MA, 16384, 6, "stride16", 1),
    ("A", "pdot", MA, 32768, 12, "random", 1),
    ("A", "count", MA, 16384, 9, "random", 1),
    ("A", "count", MA, 98304, 12, "stride16", 1),
    ("A", "pmatcompare", MA, 96, 6, "stride4", 1),
    ("A", "pmatcompare", MA, 192, 12, "stride16", 1),
    ("B", "seq_read", G, 32768, 1, "random", 9),
    ("B", "seq_read", G, 262144, 1, "random", 9),
    ("B", "seq_write", G, 32768, 1, "random", 9),
    ("B", "seq_write", G, 262144, 1, "random", 9),
    ("B", "seq_rmw", G, 32768, 1, "random", 9),
    ("B", "seq_rmw", G, 262144, 1, "random", 9),
    ("B", "seq_matmul", G, 2048, 1, "random", 3),
    ("B", "seq_read", MA, 32768, 1, "stride2", 1),
    ("B", "seq_read", MA, 262144, 1, "stride8", 1),
    ("B", "seq_write", MA, 32768, 1, "stride4", 1),
    ("B", "seq_write", MA, 262144, 1, "stride16", 1),
    ("B", "seq_rmw", MA, 32768, 1, "random", 1),
    ("B", "seq_rmw", MA, 65536, 1, "stride4", 1),
    ("B", "seq_matmul", MA, 2048, 1, "random", 3),
)


class CheckFailed(Exception):
    """An output differs from the digest recorded for its variant."""


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def _g(v: float) -> str:
    # Ten significant digits: exact for integer counts, and deaf to
    # last-bit differences in float sums across numpy builds.
    return format(float(v), ".10g")


def result_fingerprint(result) -> list:
    """The counts, cycles and instructions of one SimulationResult."""
    return [
        sorted((k, _g(v)) for k, v in result.counts.items()),
        [_g(c) for c in result.cycles_per_core],
        [int(i) for i in result.instructions_per_core],
        _g(result.seconds),
    ]


def digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(blob.encode(), digest_size=16).hexdigest()


def load_digests() -> Dict:
    return json.loads(DIGESTS.read_text())


def _check(recorded: Dict, name: str, got: str) -> None:
    want = recorded.get(name)
    if want != got:
        raise CheckFailed(f"{name}: digest {got} != recorded {want}")


# ------------------------------------------------------------ train-slice


def slice_rows() -> List[Tuple[str, PlanRow]]:
    return [(part, PlanRow(w, mode, (size,), (t,), (pat,), reps))
            for part, w, mode, size, t, pat, reps in SLICE]


class TrainSlice:
    """Collect the slice, screen, fit and 10-fold CV on a cold lab."""

    name = "train-slice"

    def __init__(self, seed: int) -> None:
        self.variant = variant_of(seed)
        self.rows = slice_rows()
        self.recorded = load_digests()[self.name]

    def items(self) -> int:
        return len(self.rows)

    def run_pass(self, tracer=None) -> Dict:
        """One cold pass; returns its wall time, the CPU time of each
        step and what the checks need."""
        lab = Lab(seed=self.variant, disk_cache=None)
        steps: List[float] = []
        parts: Dict[str, list] = {"A": [], "B": []}
        t0 = time.perf_counter()
        for part, row in self.rows:
            workload = get_workload(row.workload)
            cfg = next(row.configs())
            if lab.has_result(lab.simulation_key(workload, cfg)):
                raise CheckFailed(f"simulation cache hit for {cfg}")
            t_item = time.process_time()
            parts[part] += collect_plan(
                lab, [row], part=part,
                interference_p=PART_B_INTERFERENCE if part == "B" else 0.0)
            steps.append(time.process_time() - t_item)
        t_learn = time.process_time()
        with _span(tracer, "core.screen"):
            rep_a = screen_instances(parts["A"])
            rep_b = screen_instances(parts["B"])
        training = TrainingData(parts["A"], parts["B"], rep_a.kept,
                                rep_b.kept, rep_a, rep_b)
        det = FalseSharingDetector(lab).fit(training=training)
        cm = det.cross_validate(k=10)
        steps.append(time.process_time() - t_learn)
        wall = time.perf_counter() - t0
        return {"wall": wall, "steps": steps, "lab": lab,
                "training": training, "cm": cm, "det": det}

    def outputs(self, out: Dict) -> Dict[str, str]:
        """Digests of the pass's simulations and of the training set."""
        lab = out["lab"]
        sims = []
        for _, row in self.rows:
            workload = get_workload(row.workload)
            cfg = next(row.configs())
            sims.append(result_fingerprint(lab.simulate(workload, cfg)))
        training = out["training"]
        initial = training.part_a_initial + training.part_b_initial
        kept = {id(i) for i in training.part_a + training.part_b}
        features = [[_g(v) for v in inst.features] + [inst.label,
                                                      id(inst) in kept]
                    for inst in initial]
        cm = out["cm"]
        learned = [cm.classes, cm.matrix.tolist(),
                   out["det"].classifier.render()]
        return {
            "simulations": digest(sims),
            f"features.v{self.variant}": digest(features),
            f"model.v{self.variant}": digest(learned),
        }

    def check(self, out: Dict) -> None:
        for name, got in self.outputs(out).items():
            _check(self.recorded, name, got)

    def accuracy(self, out: Dict) -> float:
        return float(out["cm"].accuracy)

    def summary(self, out: Dict) -> str:
        tr = out["training"]
        return (f"instances {len(tr.part_a_initial) + len(tr.part_b_initial)}"
                f" kept {len(tr.part_a) + len(tr.part_b)}; "
                f"10-fold CV accuracy {out['cm'].accuracy:.4f}")


# ----------------------------------------------------------- suite-detect


def suite_grid() -> List[Tuple[object, SuiteCase]]:
    """Per program: every opt level at its smallest verifiable thread
    count, on its smallest verifiable input set."""
    grid = []
    for program in all_programs():
        cases = program.verification_cases()
        threads = min(c.threads for c in cases)
        inputs = [i for i in program.inputs
                  if any(c.input_set == i for c in cases)]
        grid += [(program, c) for c in cases
                 if c.threads == threads and c.input_set == inputs[0]]
    return grid


class SuiteDetect:
    """Classify, shadow-verify and analyze the suite sub-grid, cold."""

    name = "suite-detect"

    def __init__(self, seed: int) -> None:
        self.variant = variant_of(seed)
        self.grid = suite_grid()
        self.detector = FalseSharingDetector().load(MODEL)
        self.recorded = load_digests()[self.name]

    def items(self) -> int:
        return len(self.grid)

    def run_pass(self, tracer=None) -> Dict:
        lab = Lab(seed=self.variant, disk_cache=None)
        shadow = ShadowMemoryDetector()
        steps: List[float] = []
        records = []
        t0 = time.perf_counter()
        for program, case in self.grid:
            if lab.has_result(lab.simulation_key(program, case)):
                raise CheckFailed(f"simulation cache hit for {case}")
            t_item = time.process_time()
            vec = lab.measure(program, case, TABLE2_EVENTS,
                              interference_p=SUITE_INTERFERENCE)
            label = self.detector.classify_vector(vec)
            trace = program.trace(case)
            oracle = shadow.run(trace, chunk=lab.chunk)
            static = analyze_trace(trace).verdict
            with _span(tracer, "analysis.predict"):
                predicted = predict_plan(program.plan(case)).verdict
            steps.append(time.process_time() - t_item)
            records.append((program.name, case, label, oracle, static,
                            predicted))
        wall = time.perf_counter() - t0
        return {"wall": wall, "steps": steps, "lab": lab,
                "records": records}

    def outputs(self, out: Dict) -> Dict[str, str]:
        lab = out["lab"]
        sims = [result_fingerprint(lab.simulate(p, c)) for p, c in self.grid]
        calls = [[name, case.run_id(), label, oracle.fs_misses,
                  oracle.ts_misses, oracle.cold_misses, oracle.instructions,
                  static, predicted]
                 for name, case, label, oracle, static, predicted
                 in out["records"]]
        return {
            "simulations": digest(sims),
            f"verdicts.v{self.variant}": digest(calls),
        }

    def check(self, out: Dict) -> None:
        for name, got in self.outputs(out).items():
            _check(self.recorded, name, got)

    def accuracy(self, out: Dict) -> float:
        """Share of cases where the tree's bad-fs call matches the oracle
        (paper Table 10)."""
        agree = [(label == FS.value) == (oracle.fs_rate > FS_RATE_THRESHOLD)
                 for _, _, label, oracle, _, _ in out["records"]]
        return sum(agree) / len(agree)

    def verdict_match(self, out: Dict) -> float:
        """Share of programs whose majority verdict equals Table 5."""
        labels: Dict[str, List[str]] = {}
        for name, _, label, _, _, _ in out["records"]:
            labels.setdefault(name, []).append(label)
        hits = [majority(v) == PAPER_TABLE5[k] for k, v in labels.items()]
        return sum(hits) / len(hits)

    def summary(self, out: Dict) -> str:
        return (f"{len(out['records'])} cases; oracle agreement "
                f"{self.accuracy(out):.4f}; Table 5 verdict match "
                f"{self.verdict_match(out):.4f}")


def _span(tracer, layer: str):
    return tracer.span(layer) if tracer is not None else nullcontext()


def make(workload: str, seed: int):
    return {"train-slice": TrainSlice,
            "suite-detect": SuiteDetect}[workload](seed)

