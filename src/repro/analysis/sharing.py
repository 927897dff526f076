"""Static sharing analysis of a program trace — no simulation required.

Our traces are deterministic per-thread access streams, so line ownership,
byte-offset overlap and worst-case contention are *statically* decidable
from the :class:`~repro.trace.access.ProgramTrace` alone: nothing the MESI
machine computes is needed to tell which cache lines are contended, only to
price the contention.

This is the trace front end of :mod:`repro.analysis.core`: every access is
one record whose position window is ``[pos, pos + 1)`` in its thread's
stream, and the shared classifier does the rest in O(accesses) numpy
passes.  The front end's own estimator is the per-thread locality profile
(footprint, line re-fetch rate from revisit gaps) that exposes
cache-hostile strides without simulating a cache.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.analysis.core import SharingReport, ThreadProfile, UseTable
from repro.memory.layout import LINE_SIZE
from repro.trace.access import ProgramTrace

#: An access re-fetches a line when the thread last touched that line more
#: than this many of its own accesses ago — far enough back that a small
#: cache with any reasonable policy has likely evicted or lost it.
REFETCH_WINDOW = 32


class StaticSharingAnalyzer:
    """Computes a :class:`SharingReport` from a trace in O(accesses)."""

    def analyze(self, program: ProgramTrace) -> SharingReport:
        nt = program.nthreads
        sizes = [t.n_accesses for t in program.threads]
        tid = np.repeat(np.arange(nt, dtype=np.int64), sizes)
        addr = np.concatenate([t.addrs for t in program.threads])
        write = np.concatenate([t.is_write for t in program.threads])
        pos = np.concatenate([np.arange(n, dtype=np.int64) for n in sizes])
        offs = addr & (LINE_SIZE - 1)
        writes = write.astype(np.int64)
        table = UseTable(nt, addr >> 6, tid, 1 - writes, writes, offs, offs,
                         write, pos, pos + 1)
        return table.report(
            program.name, program.total_instructions,
            [t.instr_per_access for t in program.threads],
            lambda rec: (addr[rec] >> 2, tid[rec], write[rec]),
            self._profiles(sizes, table, pos))

    @staticmethod
    def _profiles(sizes: List[int], table: UseTable,
                  pos: np.ndarray) -> List[ThreadProfile]:
        """Footprint and revisit-gap re-fetch rate of every thread.

        Within a table row the records keep program order (stable sort),
        so consecutive position differences are the thread-local revisit
        gaps; a gap wider than :data:`REFETCH_WINDOW` is a re-fetch.
        """
        nt = len(sizes)
        spos = pos[table.order]
        first = np.zeros(spos.size, dtype=bool)
        first[table.starts] = True
        refetch = ~first & (np.diff(spos, prepend=spos[:1]) > REFETCH_WINDOW)
        row_refetches = np.add.reduceat(refetch.astype(np.int64),
                                        table.starts)
        n_refetch = np.bincount(table.tid, weights=row_refetches,
                                minlength=nt)
        footprint = np.bincount(table.tid, minlength=nt)
        return [
            ThreadProfile(t, n, int(footprint[t]),
                          int(n_refetch[t]) / n if n else 0.0)
            for t, n in enumerate(sizes)
        ]


def analyze_trace(program: ProgramTrace) -> SharingReport:
    """One-shot convenience: static sharing report of a trace."""
    return StaticSharingAnalyzer().analyze(program)
