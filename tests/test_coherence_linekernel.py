"""Golden equivalence: the line-partitioned kernel vs the reference loop.

The line kernel (``repro.coherence.linekernel``) partitions each segment's
access stream by cache line and replays every line's MESI state machine
over its own subsequence, with cross-line counters (DTLB, LFB, L1D sets)
handled on the unsorted stream.  Its contract is *bit-identical*
``_SegmentTallies`` against the per-access reference loop — these tests
pin that over the full 19-program suite grid, the sliced-run API, HITM
sampling, the final coherence state (cache contents *and* LRU order), the
L3-overflowing training cases, and the per-sub-segment fallback.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.coherence import machine as machine_mod
from repro.coherence.machine import (
    DRIVE_STRATEGIES,
    MachineSpec,
    MulticoreMachine,
    SCALED_WESTMERE,
    SimulationError,
)
from repro.suites import all_programs, get_program
from repro.telemetry.core import TELEMETRY
from repro.trace.access import ProgramTrace, make_thread
from repro.workloads.base import Mode, RunConfig
from repro.workloads.registry import get_workload

from tests.conftest import SMALL_SPEC


def _assert_identical(res_a, res_b):
    assert res_a.counts == res_b.counts
    assert res_a.cycles_per_core == res_b.cycles_per_core
    assert res_a.instructions_per_core == res_b.instructions_per_core
    assert res_a.seconds == res_b.seconds
    assert res_a.hitm_samples == res_b.hitm_samples


_GRID = [(p.name, p.cases()[0]) for p in all_programs()]

#: path_counts per grid program, accumulated by the parametrized golden
#: test and checked for kernel coverage by the summary test below it.
_GRID_PATHS = {}


@pytest.mark.parametrize("name,case", _GRID, ids=[n for n, _ in _GRID])
def test_line_kernel_matches_reference_on_suite_grid(name, case):
    prog = get_program(name).trace(case)
    machine = MulticoreMachine(SCALED_WESTMERE, fast="lines")
    lines = machine.run(prog)
    ref = MulticoreMachine(SCALED_WESTMERE, fast=False).run(prog)
    _assert_identical(lines, ref)
    _GRID_PATHS[name] = dict(machine.path_counts)


def test_line_kernel_drives_most_of_the_grid():
    # Meaningfulness guard: the grid test above must genuinely exercise
    # the kernel, not its reference fallback.  (Runs after it in file
    # order; a filtered run that skipped the grid is skipped too.)
    if len(_GRID_PATHS) < len(_GRID):
        pytest.skip("suite-grid golden test did not run")
    taken = sum(c.get("lines", 0) for c in _GRID_PATHS.values())
    total = sum(sum(c.values()) for c in _GRID_PATHS.values())
    assert taken >= total * 0.5, _GRID_PATHS


def _contended_trace(size=None):
    w = get_workload("psums")
    return w.trace(RunConfig(threads=4, mode=Mode.BAD_FS,
                             size=size or w.train_sizes[-1]))


def _snap(cache):
    """Cache contents per set, in LRU order (line, state) pairs."""
    return [list(s.items()) for s in cache.sets]


def test_line_kernel_final_state_matches_reference():
    prog = _contended_trace()
    ml = MulticoreMachine(SCALED_WESTMERE, fast="lines")
    mr = MulticoreMachine(SCALED_WESTMERE, fast=False)
    res_l = ml.run(prog, keep_state=True)
    res_r = mr.run(prog, keep_state=True)
    _assert_identical(res_l, res_r)
    assert ml.path_counts.get("lines", 0) >= 1
    assert "ref-gated" not in ml.path_counts
    for cl, cr in zip(ml._l1, mr._l1):
        assert _snap(cl) == _snap(cr), cl.name
    for cl, cr in zip(ml._l2, mr._l2):
        assert _snap(cl) == _snap(cr), cl.name
    assert _snap(ml._l3) == _snap(mr._l3)
    assert ml._contenders == mr._contenders


def test_line_kernel_sliced_matches_reference():
    prog = _contended_trace()
    lines = MulticoreMachine(SCALED_WESTMERE, fast="lines").run_sliced(prog, 5)
    ref = MulticoreMachine(SCALED_WESTMERE, fast=False).run_sliced(prog, 5)
    assert len(lines) == len(ref) == 5
    for res_l, res_r in zip(lines, ref):
        _assert_identical(res_l, res_r)


def test_line_kernel_hitm_sampling_matches_reference():
    prog = _contended_trace()
    m = MulticoreMachine(SCALED_WESTMERE, fast="lines", hitm_sample_period=7)
    lines = m.run(prog)
    ref = MulticoreMachine(SCALED_WESTMERE, fast=False,
                           hitm_sample_period=7).run(prog)
    _assert_identical(lines, ref)
    assert m.path_counts.get("lines", 0) >= 1
    assert lines.hitm_samples  # the sweep actually exercised sampling


def test_line_kernel_replays_l2_evictions_identically():
    # 4k distinct lines overflow every L2 set (32 lines per 8-way set) but
    # fit L3 comfortably: the eviction-aware replay must keep the segment
    # on the kernel path and stay bit-identical, final state included.
    w = get_workload("seq_read")
    prog = w.trace(RunConfig(threads=1, mode=Mode.GOOD, size=32_768))
    ml = MulticoreMachine(SCALED_WESTMERE, fast="lines")
    mr = MulticoreMachine(SCALED_WESTMERE, fast=False)
    res = ml.run(prog, keep_state=True)
    ref = mr.run(prog, keep_state=True)
    assert ml.path_counts == {"lines": 1}
    _assert_identical(res, ref)
    assert res.counts["L2_LINES_OUT.DEMAND_CLEAN"] > 0  # evictions happened
    for cl, cr in zip(ml._l1, mr._l1):
        assert _snap(cl) == _snap(cr), cl.name
    for cl, cr in zip(ml._l2, mr._l2):
        assert _snap(cl) == _snap(cr), cl.name
    assert _snap(ml._l3) == _snap(mr._l3)


def test_line_kernel_replays_dirty_evictions_identically():
    # Same shape but with stores: dirty victims must write back (and land
    # in L3) exactly like the reference loop's back-invalidation path.
    w = get_workload("seq_write")
    prog = w.trace(RunConfig(threads=1, mode=Mode.GOOD, size=32_768))
    ml = MulticoreMachine(SCALED_WESTMERE, fast="lines")
    mr = MulticoreMachine(SCALED_WESTMERE, fast=False)
    res = ml.run(prog, keep_state=True)
    ref = mr.run(prog, keep_state=True)
    assert ml.path_counts == {"lines": 1}
    _assert_identical(res, ref)
    assert res.counts["L2_LINES_OUT.DEMAND_DIRTY"] > 0
    for cl, cr in zip(ml._l2, mr._l2):
        assert _snap(cl) == _snap(cr), cl.name
    assert _snap(ml._l3) == _snap(mr._l3)


def test_line_kernel_sliced_replays_warm_resident_lines_identically():
    # Sliced runs hand each segment the previous segment's warm caches, so
    # replay-owned lines can already be *resident* in the owner's L2 when
    # the segment starts.  Those must keep their real MESI state through
    # the eviction-aware replay (not the walk sentinel) or reconstruction
    # has no walk record to resolve them from.  Regression test for a
    # KeyError in the wholesale L2-set rebuild.
    w = get_workload("seq_write")
    prog = w.trace(RunConfig(threads=1, mode=Mode.GOOD, size=32_768))
    ml = MulticoreMachine(SCALED_WESTMERE, fast="lines")
    mr = MulticoreMachine(SCALED_WESTMERE, fast=False)
    res = ml.run_sliced(prog, 4, keep_state=True)
    ref = mr.run_sliced(prog, 4, keep_state=True)
    assert ml.path_counts.get("lines", 0) >= 2  # warm segments stayed fast
    assert "ref-gated" not in ml.path_counts
    for res_l, res_r in zip(res, ref):
        _assert_identical(res_l, res_r)
    for cl, cr in zip(ml._l2, mr._l2):
        assert _snap(cl) == _snap(cr), cl.name
    assert _snap(ml._l3) == _snap(mr._l3)


def _sentinel_bail_trace(prefix=0):
    """A trace the line kernel must refuse: core 0 reads line X, which core
    1 also reads (so X is walk-owned), then streams ``2 * assoc`` other
    lines of X's L2 set, which evicts X from an overfull set.  ``prefix``
    private reads of an unrelated line come first on core 0."""
    spec = SCALED_WESTMERE
    stride = spec.l2_lines // spec.l2_assoc * 64  # bytes between set-mates
    x = 64 * stride
    t0 = [x + stride // 2] * prefix + [x] * 4
    for k in range(1, 2 * spec.l2_assoc + 1):
        t0 += [x + k * stride] * 4
    t1 = [x] * 4
    return ProgramTrace([
        make_thread(np.array(t, dtype=np.int64), np.zeros(len(t), dtype=bool))
        for t in (t0, t1)])


def test_line_kernel_ineligible_segment_falls_back_identically():
    # A walk-owned line evicted from an overfull L2 set inside one
    # sub-segment: the forced 'lines' strategy must fall back to the
    # reference loop (recorded as 'ref-gated') and stay identical.
    prog = _sentinel_bail_trace()
    m = MulticoreMachine(SCALED_WESTMERE, fast="lines")
    res = m.run(prog)
    assert m.path_counts.get("ref-gated", 0) >= 1
    assert "lines" not in m.path_counts
    _assert_identical(res, MulticoreMachine(SCALED_WESTMERE,
                                            fast=False).run(prog))


def test_mixed_segment_attributes_paths_per_sub_segment(monkeypatch):
    # With a 64-access budget the private prefix drives on the kernel and
    # the sub-segment that evicts the shared line falls back on its own.
    monkeypatch.setattr(machine_mod, "_LINES_BUDGET", 64)
    prog = _sentinel_bail_trace(prefix=200)
    m = MulticoreMachine(SCALED_WESTMERE, fast="lines")
    TELEMETRY.enable(reset=True)
    try:
        res = m.run(prog)
        counters = dict(TELEMETRY.counters)
        spans = [s for s in TELEMETRY.spans if s.name == "sim.drive"]
    finally:
        TELEMETRY.disable()
        TELEMETRY.reset()
    _assert_identical(res, MulticoreMachine(SCALED_WESTMERE,
                                            fast=False).run(prog))
    acc = m.path_accesses
    # Exactly one whole sub-segment (the evicting one) fell back.
    assert acc == {"lines": prog.total_accesses - 64, "ref-gated": 64}
    assert m.path_counts == {"lines": 1, "ref-gated": 1}
    assert counters["sim.drive.segments"] == 1
    assert counters["sim.drive.path.lines"] == 1
    assert counters["sim.drive.path.ref-gated"] == 1
    for path, n in acc.items():
        assert counters[f"sim.drive.accesses.{path}"] == n
    assert [s.attrs["path"] for s in spans] == ["mixed"]
    assert spans[0].attrs["paths"] == acc


#: Training cases the line kernel used to refuse for want of L3 room, at
#: the smallest plan sizes whose L3 really evicts (L3 misses above its
#: line count).  psumv good never gets there: the next-line prefetcher
#: absorbs its streams and prefetch fills bypass the L3, so it is pinned
#: at the formerly refused 9-thread n=196608 case without that witness.
_L3_CASES = [
    ("pdot", Mode.BAD_FS, 196_608, 6, True),
    ("pdot", Mode.GOOD, 196_608, 6, True),
    ("psumv", Mode.BAD_FS, 393_216, 2, True),
    ("psumv", Mode.GOOD, 196_608, 9, False),
    ("seq_read", Mode.BAD_MA, 262_144, 1, True),
    ("seq_write", Mode.BAD_MA, 262_144, 1, True),
]


@pytest.mark.parametrize(
    "name,mode,size,threads,evicts", _L3_CASES,
    ids=[f"{c[0]}-{c[1].value}-{c[2]}" for c in _L3_CASES])
def test_line_kernel_replays_l3_evictions_identically(name, mode, size,
                                                      threads, evicts):
    prog = get_workload(name).trace(
        RunConfig(threads=threads, mode=mode, size=size))
    ml = MulticoreMachine(SCALED_WESTMERE, fast="lines",
                          hitm_sample_period=7)
    mr = MulticoreMachine(SCALED_WESTMERE, fast=False, hitm_sample_period=7)
    res = ml.run(prog, keep_state=True)
    ref = mr.run(prog, keep_state=True)
    assert set(ml.path_accesses) == {"lines"}
    _assert_identical(res, ref)
    if mode is Mode.BAD_FS:
        assert res.hitm_samples
    if evicts:
        assert res.counts["LONGEST_LAT_CACHE.MISS"] > SCALED_WESTMERE.l3_lines
    for cl, cr in zip(ml._l1 + ml._l2 + [ml._l3], mr._l1 + mr._l2 + [mr._l3]):
        assert _snap(cl) == _snap(cr), cl.name
    assert ml._contenders == mr._contenders


def test_line_kernel_keeps_g_order_when_l2_sets_straddle_l1_sets():
    # 24 modulo-indexed L2 sets over 16 L1 sets: an L2 set's lines fall in
    # two L1 sets, so an L2 victim can back-invalidate into another L1 set
    # and the per-(core, L1 set) replay order would be wrong.  The kernel
    # must replay such a core in g order and stay identical.
    spec = MachineSpec(cores=2, sockets=1, l1_kib=2, l1_assoc=2, l2_kib=3,
                       l2_assoc=2, l3_mib=1, l3_assoc=16, tlb_entries=8)
    nsets1 = spec.l1_lines // spec.l1_assoc
    nsets2 = spec.l2_lines // spec.l2_assoc
    assert nsets2 % nsets1
    rng = np.random.default_rng(7)
    threads = []
    for t in range(2):
        lines = t + 2 * nsets2 * rng.integers(0, 6, 3000) + nsets2 * (
            rng.integers(0, 2, 3000))
        threads.append(make_thread(lines * 64, rng.random(3000) < 0.3))
    prog = ProgramTrace(threads)
    ml = MulticoreMachine(spec, fast="lines")
    mr = MulticoreMachine(spec, fast=False)
    res = ml.run(prog, keep_state=True)
    ref = mr.run(prog, keep_state=True)
    assert set(ml.path_accesses) == {"lines"}
    _assert_identical(res, ref)
    assert res.counts["L2_LINES_OUT.DEMAND_DIRTY"] > 0
    for cl, cr in zip(ml._l1 + ml._l2, mr._l1 + mr._l2):
        assert _snap(cl) == _snap(cr), cl.name


def test_auto_routes_contended_trace_to_line_kernel():
    prog = _contended_trace()
    m = MulticoreMachine(SCALED_WESTMERE, fast=True)
    res = m.run(prog)
    assert m.path_counts.get("lines", 0) >= 1
    _assert_identical(res, MulticoreMachine(SCALED_WESTMERE,
                                            fast=False).run(prog))


def test_strategy_vocabulary_and_validation():
    assert DRIVE_STRATEGIES == ("auto", "runs", "lines", "ref")
    for name in DRIVE_STRATEGIES:
        assert MulticoreMachine(SMALL_SPEC, fast=name).strategy == name
    assert MulticoreMachine(SMALL_SPEC, fast=True).strategy == "auto"
    assert MulticoreMachine(SMALL_SPEC, fast=False).strategy == "ref"
    with pytest.raises(SimulationError):
        MulticoreMachine(SMALL_SPEC, fast="vectorized")
