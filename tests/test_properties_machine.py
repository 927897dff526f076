"""Property-based tests: simulator invariants over random traces.

Hypothesis generates small multi-threaded access traces; the machine must
uphold architectural invariants on all of them — counts that cannot go
negative, containment relations between cache levels, and the guarantee
that a single-threaded run never snoops.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.coherence import machine as machine_mod
from repro.coherence.machine import MachineSpec, MulticoreMachine
from repro.trace.access import ProgramTrace, make_thread

from tests.conftest import SMALL_SPEC


@st.composite
def program_traces(draw, max_threads=4, max_len=300):
    nt = draw(st.integers(1, max_threads))
    threads = []
    for _ in range(nt):
        n = draw(st.integers(1, max_len))
        # Confine addresses to a handful of pages so threads actually share.
        addrs = draw(
            st.lists(st.integers(0, 4096 * 4 - 1), min_size=n, max_size=n)
        )
        writes = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        threads.append(
            make_thread(np.array(addrs, dtype=np.int64) + 4096,
                        np.array(writes, dtype=bool))
        )
    return ProgramTrace(threads)


def run(prog, prefetch=True):
    return MulticoreMachine(SMALL_SPEC, prefetch=prefetch).run(prog)


class TestInvariants:
    @settings(max_examples=40, deadline=None)
    @given(program_traces())
    def test_counts_non_negative_and_finite(self, prog):
        r = run(prog)
        for key, value in r.counts.items():
            assert value >= 0.0, key
            assert np.isfinite(value), key

    @settings(max_examples=40, deadline=None)
    @given(program_traces())
    def test_l1_fills_at_least_l2_fills(self, prog):
        # inclusive hierarchy: every L2 fill also fills L1
        r = run(prog)
        assert r.counts["L1D.REPL"] >= r.counts["L2_TRANSACTIONS.FILL"]

    @settings(max_examples=40, deadline=None)
    @given(program_traces())
    def test_lines_in_bounded_by_fills(self, prog):
        r = run(prog)
        assert (r.counts["L2_LINES_IN.S_STATE"]
                + r.counts["L2_LINES_IN.E_STATE"]
                <= r.counts["L2_TRANSACTIONS.FILL"] + 1e-9)

    @settings(max_examples=40, deadline=None)
    @given(program_traces())
    def test_loads_stores_partition_accesses(self, prog):
        r = run(prog)
        assert (r.counts["MEM_INST_RETIRED.LOADS"]
                + r.counts["MEM_INST_RETIRED.STORES"]
                == prog.total_accesses)

    @settings(max_examples=40, deadline=None)
    @given(program_traces())
    def test_instructions_match_traces(self, prog):
        r = run(prog)
        assert r.instructions == prog.total_instructions

    @settings(max_examples=30, deadline=None)
    @given(program_traces(max_threads=1))
    def test_single_thread_never_snoops(self, prog):
        r = run(prog)
        for key in ("SNOOP_RESPONSE.HIT", "SNOOP_RESPONSE.HITE",
                    "SNOOP_RESPONSE.HITM", "L2_WRITE.RFO.S_STATE"):
            assert r.counts[key] == 0, key

    @settings(max_examples=25, deadline=None)
    @given(program_traces())
    def test_determinism(self, prog):
        a = run(prog)
        b = run(prog)
        assert a.counts == b.counts
        assert a.cycles_per_core == b.cycles_per_core

    @settings(max_examples=25, deadline=None)
    @given(program_traces())
    def test_footprint_bounds_cold_misses(self, prog):
        # L3 misses can't exceed the number of distinct lines touched
        # (nothing is ever evicted from the big L3 in these tiny traces)
        r = run(prog, prefetch=False)
        assert r.counts["LONGEST_LAT_CACHE.MISS"] <= prog.footprint_lines()

    @settings(max_examples=25, deadline=None)
    @given(program_traces())
    def test_seconds_positive_when_work_done(self, prog):
        r = run(prog)
        if prog.total_instructions:
            assert r.seconds > 0.0

    @settings(max_examples=25, deadline=None)
    @given(program_traces(), st.sampled_from([1, 2, 8]))
    def test_chunking_preserves_count_totals(self, prog, chunk):
        """Interleave granularity moves events between categories but never
        invents or loses accesses."""
        r = MulticoreMachine(SMALL_SPEC).run(prog, chunk=chunk)
        assert (r.counts["MEM_INST_RETIRED.LOADS"]
                + r.counts["MEM_INST_RETIRED.STORES"]
                == prog.total_accesses)


class TestCoherenceSoundness:
    @settings(max_examples=30, deadline=None)
    @given(program_traces(max_threads=4, max_len=200))
    def test_mesi_single_owner_invariant(self, prog):
        """The final cache states satisfy MESI: a line Modified or Exclusive
        in one core is resident in no other core; Shared copies agree."""
        from collections import defaultdict

        from repro.coherence.protocol import EXCLUSIVE, MODIFIED, SHARED

        m = MulticoreMachine(SMALL_SPEC)
        m.run(prog, keep_state=True)
        by_line = defaultdict(list)
        for core, l2 in enumerate(m._l2):
            for line, state in l2.lines():
                by_line[line].append((core, state))
        for line, holders in by_line.items():
            states = [s for _, s in holders]
            if MODIFIED in states or EXCLUSIVE in states:
                assert len(holders) == 1, (line, holders)
            else:
                assert all(s == SHARED for s in states), (line, holders)

    @settings(max_examples=30, deadline=None)
    @given(program_traces(max_threads=4, max_len=200))
    def test_l1_contained_in_l2_with_same_state(self, prog):
        """Inclusion invariant: every L1-resident line is in that core's L2
        with an identical MESI state."""
        m = MulticoreMachine(SMALL_SPEC)
        m.run(prog, keep_state=True)
        for l1, l2 in zip(m._l1, m._l2):
            for line, state in l1.lines():
                assert l2.lookup(line) == state, line


@st.composite
def adversarial_traces(draw, max_threads=4):
    """Traces built to stress the line-partitioned kernel: one hot line
    every thread fights over, thread-private lines, and page-crossing
    sequential runs — interleaved in random per-thread segment orders."""
    nt = draw(st.integers(2, max_threads))
    hot = 4096  # one line's byte base, shared by every thread
    threads = []
    for t in range(nt):
        kinds = draw(st.lists(st.sampled_from(["hot", "private", "page"]),
                              min_size=1, max_size=6))
        addrs = []
        for kind in kinds:
            ln = draw(st.integers(1, 48))
            if kind == "hot":
                offs = draw(st.lists(st.integers(0, 63),
                                     min_size=ln, max_size=ln))
                addrs.extend(hot + o for o in offs)
            elif kind == "private":
                base = 8192 + t * 4096  # this thread's page, nobody else's
                offs = draw(st.lists(st.integers(0, 4095),
                                     min_size=ln, max_size=ln))
                addrs.extend(base + o for o in offs)
            else:  # a sequential line run crossing a page boundary
                start = 24576 + draw(st.integers(0, 2)) * 4096 - 128
                addrs.extend(start + i * 64 for i in range(ln))
        n = len(addrs)
        writes = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        threads.append(make_thread(np.array(addrs, dtype=np.int64),
                                   np.array(writes, dtype=bool)))
    return ProgramTrace(threads)


class TestDriveStrategyEquivalence:
    """All three drive strategies agree exactly on adversarial traces."""

    @settings(max_examples=30, deadline=None)
    @given(adversarial_traces())
    def test_exact_tally_equality_across_strategies(self, prog):
        ref = MulticoreMachine(SMALL_SPEC, fast=False,
                               hitm_sample_period=5).run(prog)
        for strategy in ("runs", "lines", "auto"):
            # The zero gate forces run-compression to vectorize even the
            # most fragmented draw; 'lines' and 'auto' manage their own
            # fallbacks (which must be just as identical).
            gate = 0.0 if strategy == "runs" else 1.6
            res = MulticoreMachine(SMALL_SPEC, fast=strategy,
                                   fast_min_compression=gate,
                                   hitm_sample_period=5).run(prog)
            assert res.counts == ref.counts, strategy
            assert res.cycles_per_core == ref.cycles_per_core, strategy
            assert res.seconds == ref.seconds, strategy
            assert res.hitm_samples == ref.hitm_samples, strategy


#: Tiny hierarchy for the overflow property: 8 L1 sets, 16 L2 sets and
#: 8192 L3 sets, all 2-way, and a 4-entry DTLB.  Lines ``a + 8192 * b``
#: share L3 set ``a`` (and L2 set ``a % 16``), so a few dozen lines
#: overflow every level.
_TINY_SPEC = MachineSpec(cores=4, sockets=2, l1_kib=1, l1_assoc=2,
                         l2_kib=2, l2_assoc=2, l3_mib=1, l3_assoc=2,
                         tlb_entries=4, name="tiny-overflow")

#: Accesses each drive path took across the overflow property's examples;
#: the guard test after it checks both paths really ran.
_OVERFLOW_PATHS = {}


@st.composite
def overflow_traces(draw, max_threads=4, max_len=400):
    """Multi-core traces whose lines overflow L1, L2 and L3 sets: each
    thread mostly touches its own lines, and a drawn share of accesses
    goes to lines every thread may touch."""
    nt = draw(st.integers(2, max_threads))
    shared_pct = draw(st.sampled_from([0, 5, 30]))
    threads = []
    for t in range(nt):
        n = draw(st.integers(50, max_len))
        picks = draw(st.lists(
            st.tuples(st.integers(0, 99), st.integers(0, 3),
                      st.integers(0, 5), st.integers(0, 63)),
            min_size=n, max_size=n))
        addrs = []
        for roll, a, b, off in picks:
            base = 16 + a if roll < shared_pct else 4 * t + a
            addrs.append((base + 8192 * b) * 64 + off)
        writes = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        threads.append(make_thread(np.array(addrs, dtype=np.int64),
                                   np.array(writes, dtype=bool)))
    return ProgramTrace(threads)


def _snap_all(m):
    return ([[list(s.items()) for s in c.sets] for c in m._l1 + m._l2]
            + [[list(s.items()) for s in m._l3.sets if s]]
            + [sorted(m._contenders.items())])


class TestLineKernelOverflow:
    """The line kernel with small sub-segments stays bit-identical to the
    reference loop while every cache level evicts."""

    @settings(max_examples=40, deadline=None)
    @given(overflow_traces())
    def test_small_sub_segments_match_reference(self, prog):
        ref_m = MulticoreMachine(_TINY_SPEC, fast=False, hitm_sample_period=3)
        ref = ref_m.run(prog, keep_state=True)
        with mock.patch.object(machine_mod, "_LINES_BUDGET", 256):
            m = MulticoreMachine(_TINY_SPEC, fast="lines",
                                 hitm_sample_period=3)
            res = m.run(prog, keep_state=True)
        assert res.counts == ref.counts
        assert res.cycles_per_core == ref.cycles_per_core
        assert res.hitm_samples == ref.hitm_samples
        assert _snap_all(m) == _snap_all(ref_m)
        for path, n in m.path_accesses.items():
            _OVERFLOW_PATHS[path] = _OVERFLOW_PATHS.get(path, 0) + n

    def test_overflow_property_exercised_both_paths(self):
        if not _OVERFLOW_PATHS:
            pytest.skip("overflow property did not run")
        assert _OVERFLOW_PATHS.get("lines", 0) > 0, _OVERFLOW_PATHS
        assert _OVERFLOW_PATHS.get("ref-gated", 0) > 0, _OVERFLOW_PATHS
