"""Simulation-free false-sharing prediction from symbolic access plans.

The trace analyzer (:mod:`repro.analysis.sharing`) decides sharing from
materialized address streams.  This module reaches the same report
*without a trace*: it is the plan front end of :mod:`repro.analysis.core`
and walks an :class:`~repro.workloads.plan.AccessPlan` — thread x stride x
range region uses over named symbols:

* a region use expands to one record per cache line its element range
  covers, with exact per-line element counts and byte-offset spans and
  (for linear sweeps) a modelled visit-position window;
* the shared classifier aggregates, classifies and gates those records
  exactly as it does a trace's accesses, and this front end names the
  objects on every shared line and near miss;
* per-thread locality profiles estimate line re-fetch rates from each
  use's ``bursts_per_line`` (the front end's own estimator).

What the symbolic pass can *prove* is layout: which named objects share a
written line, and which threads write them (counts are exact — they come
from the same arithmetic the generators use).  What it *estimates* is
timing: visit-position windows and burst counts are models, so borderline
hand-off/contention and refetch-rate calls can differ from the trace
analyzer.  The validation harness (:mod:`repro.analysis.validate`)
measures exactly that gap.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List

import numpy as np

from repro.analysis.core import SharingReport, ThreadProfile, UseTable
from repro.memory.layout import LINE_SIZE
from repro.workloads.plan import AccessPlan


class PredictiveAnalyzer:
    """Computes a :class:`SharingReport` from an access plan — no trace."""

    def analyze(self, plan: AccessPlan) -> SharingReport:
        uses = plan.uses
        recs = ([_records(plan, u_i) for u_i in range(len(uses))]
                or [(np.empty(0, dtype=np.int64),) * 8])
        use_idx, line, elem_lo, n_elems, pos_lo, pos_hi, off_lo, off_hi = (
            np.concatenate(c) for c in zip(*recs))
        frac = n_elems / np.array([u.n_elements for u in uses],
                                  dtype=float)[use_idx]
        tid = np.array([u.tid for u in uses], dtype=np.int64)[use_idx]
        reads = np.array([u.reads for u in uses], dtype=float)[use_idx]
        writes = np.array([u.writes for u in uses], dtype=float)[use_idx]
        written = writes > 0
        table = UseTable(plan.nthreads, line, tid, reads * frac, writes * frac,
                         off_lo, off_hi, written, pos_lo, pos_hi)

        syms = [plan.symbols[u.symbol] for u in uses]
        base = np.array([s.base for s in syms], dtype=np.int64)
        stride = np.array([s.effective_stride for s in syms], dtype=np.int64)
        step = np.array([u.step for u in uses], dtype=np.int64)

        def words(rec: np.ndarray):
            """Every element word of the given records."""
            counts = n_elems[rec]
            r = np.repeat(rec, counts)
            k = np.arange(r.size) - np.repeat(np.cumsum(counts) - counts,
                                              counts)
            u = use_idx[r]
            addr = base[u] + (elem_lo[r] + step[u] * k) * stride[u]
            return addr >> 2, tid[r], written[r]

        report = table.report(plan.name, plan.total_instructions, plan.ipa,
                              words, self._profiles(plan, use_idx, table),
                              plan)
        owners = plan.symbols.line_owners
        for ls in report.shared:
            ls.objects = [s.name for s in owners(ls.line)]
        report.near_misses = [
            replace(nm, objects=tuple(sorted(
                {s.name for s in owners(nm.line)}
                | {s.name for s in owners(nm.line + 1)})))
            for nm in report.near_misses
        ]
        return report

    @staticmethod
    def _profiles(plan: AccessPlan, use_idx: np.ndarray,
                  table: UseTable) -> List[ThreadProfile]:
        """Footprint and ``bursts_per_line`` re-fetch estimate per thread."""
        lines_per_use = np.bincount(use_idx,
                                    minlength=len(plan.uses)).astype(float)
        footprint = np.bincount(table.tid, minlength=plan.nthreads)
        refetch = [0.0] * plan.nthreads
        for use, n_l in zip(plan.uses, lines_per_use.tolist()):
            tpl = use.accesses / n_l
            refetch[use.tid] += n_l * min(use.bursts_per_line - 1.0,
                                          max(tpl - 1.0, 0.0))
        out = []
        for tid in range(plan.nthreads):
            n_acc = plan.thread_accesses(tid)
            rate = float(refetch[tid] / n_acc) if n_acc else 0.0
            out.append(ThreadProfile(tid, n_acc, int(footprint[tid]), rate))
        return out


def _records(plan: AccessPlan, u_i: int):
    """One record per cache line the ``u_i``-th use's range covers."""
    use = plan.uses[u_i]
    sym = plan.symbols[use.symbol]
    idx = np.arange(use.start, use.stop, use.step, dtype=np.int64)
    addrs = sym.base + idx * sym.effective_stride
    lines = addrs >> 6
    offs = addrs & (LINE_SIZE - 1)
    n = idx.size
    bounds = np.flatnonzero(np.r_[True, lines[1:] != lines[:-1]])
    ends = np.r_[bounds[1:], n]
    if use.order == "linear":
        pos_lo = use.phase + bounds / float(n)
        pos_hi = use.phase + ends / float(n)
    else:
        pos_lo = np.full(bounds.size, float(use.phase))
        pos_hi = np.full(bounds.size, use.phase + 1.0)
    return (np.full(bounds.size, u_i, dtype=np.int64), lines[bounds],
            idx[bounds], ends - bounds, pos_lo, pos_hi, offs[bounds],
            offs[ends - 1])


def predict_plan(plan: AccessPlan) -> SharingReport:
    """One-shot convenience: predictive report of an access plan."""
    return PredictiveAnalyzer().analyze(plan)
