"""Self-time ledger for the traced run.

The benchmark does not enable the program's own telemetry.  It wraps the
public entry point of each layer from the outside and charges every call
its *self* time: the call's wall time minus the time spent in wrapped
calls nested inside it.  Because self times never overlap, the layer
times of one traced pass plus ``unattributed_s`` add up to the pass's
wall time exactly, and ``unattributed_s`` going negative would mean a
nested call was charged twice.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

#: Drive paths that run the scalar per-access reference loop.
SCALAR_PATHS = ("ref", "ref-gated")
#: Paths reported one by one (``ref`` only appears with ``fast=False``).
REPORTED_PATHS = ("lines", "runs", "ref-gated")


class Tracer:
    """Wraps layer entry points and keeps per-layer self time and calls."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.path_accesses: Dict[str, int] = defaultdict(int)
        self.path_s: Dict[str, float] = defaultdict(float)
        self.shadow_accesses = 0
        # One child-time accumulator per open call.
        self._stack: List[float] = []
        self._undo: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------ wrapping

    def _enter(self) -> float:
        self._stack.append(0.0)
        return time.perf_counter()

    def _exit(self, layer: str, t0: float) -> float:
        dt = time.perf_counter() - t0
        own = dt - self._stack.pop()
        self.self_s[layer] += own
        self.calls[layer] += 1
        if self._stack:
            self._stack[-1] += dt
        return own

    def wrap(self, layer: str, fn: Callable,
             after: Optional[Callable] = None) -> Callable:
        """``fn`` charged to ``layer``; ``after(args, result, own_s)``
        runs once the call's self time is known."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = self._enter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                own = self._exit(layer, t0)
                if after is not None and result is not None:
                    after(args, result, own)

        return traced

    def patch(self, owner: object, name: str, layer: str,
              after: Optional[Callable] = None) -> None:
        original = getattr(owner, name)
        self._undo.append((owner, name, original))
        setattr(owner, name, self.wrap(layer, original, after))

    @contextmanager
    def span(self, layer: str):
        """Charge a block of the benchmark's own code to ``layer``."""
        t0 = self._enter()
        try:
            yield
        finally:
            self._exit(layer, t0)

    def restore(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    # -------------------------------------------------------------- layers

    def install_simulation_layers(self) -> None:
        """Wrap every layer the simulation workloads pass through."""
        import repro.baselines.shadow as shadow_mod
        import repro.coherence.machine as machine_mod
        import repro.trace.streams as streams_mod
        from repro.analysis.predict import PredictiveAnalyzer
        from repro.analysis.sharing import StaticSharingAnalyzer
        from repro.coherence.machine import MulticoreMachine
        from repro.ml.c45 import C45Classifier
        from repro.pmu.sampler import PMUSampler
        from repro.suites.base import SuiteProgram
        from repro.workloads.base import Workload

        self.patch(Workload, "trace", "trace.gen")
        self.patch(SuiteProgram, "trace", "trace.gen")
        # ``interleave`` is imported by name into its callers' modules.
        for mod in (streams_mod, machine_mod, shadow_mod):
            self.patch(mod, "interleave", "trace.interleave")
        self.patch(MulticoreMachine, "run", "coherence.drive",
                   after=self._split_drive)
        self.patch(PMUSampler, "measure", "pmu.measure")
        self.patch(C45Classifier, "fit", "ml.fit")
        self.patch(C45Classifier, "predict", "ml.predict")
        self.patch(shadow_mod.ShadowMemoryDetector, "run", "shadow.run",
                   after=self._count_shadow)
        self.patch(StaticSharingAnalyzer, "analyze", "analysis.trace")
        self.patch(PredictiveAnalyzer, "analyze", "analysis.predict")

    def _split_drive(self, args, result, own_s: float) -> None:
        """Split one run's drive self time over its paths by access share."""
        machine = args[0]
        total = sum(machine.path_accesses.values())
        for path, n in machine.path_accesses.items():
            self.path_accesses[path] += n
            if total:
                self.path_s[path] += own_s * n / total

    def _count_shadow(self, args, result, own_s: float) -> None:
        program = args[1]
        self.shadow_accesses += int(sum(t.n_accesses
                                        for t in program.threads))

    # -------------------------------------------------------------- report

    def layer_metrics(self, wall_s: float) -> Dict[str, float]:
        """Per-layer self times and counts of one traced pass."""
        s = self.self_s
        drive_s = s["coherence.drive"]
        accesses = sum(self.path_accesses.values())
        scalar_acc = sum(self.path_accesses[p] for p in SCALAR_PATHS)
        scalar_s = sum(self.path_s[p] for p in SCALAR_PATHS)
        out = {
            "trace.gen_s": s["trace.gen"],
            "trace.interleave_s": s["trace.interleave"],
            "coherence.drive_s": drive_s,
            "coherence.accesses": accesses,
            "coherence.maccess_per_s": (accesses / drive_s / 1e6
                                        if drive_s else 0.0),
            "coherence.offscalar.by_accesses": (
                1.0 - scalar_acc / accesses if accesses else 0.0),
            "coherence.offscalar.by_time": (
                1.0 - scalar_s / drive_s if drive_s else 0.0),
            "pmu.measure_s": s["pmu.measure"],
            "core.screen_s": s["core.screen"],
            "ml.fit_s": s["ml.fit"],
            "ml.fits": self.calls["ml.fit"],
            "ml.predict_s": s["ml.predict"],
            "shadow.run_s": s["shadow.run"],
            "shadow.accesses": self.shadow_accesses,
            "analysis.trace_s": s["analysis.trace"],
            "analysis.predict_s": s["analysis.predict"],
        }
        for path in REPORTED_PATHS:
            out[f"coherence.path.{path}.accesses"] = self.path_accesses[path]
            out[f"coherence.path.{path}.s"] = self.path_s[path]
        attributed = sum(s.values())
        out["unattributed_s"] = wall_s - attributed
        if out["unattributed_s"] < -1e-6:
            raise RuntimeError(
                f"ledger over-attributed: layers {attributed:.6f}s > "
                f"wall {wall_s:.6f}s")
        return out
