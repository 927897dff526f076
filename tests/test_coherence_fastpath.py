"""Golden equivalence: the vectorized drive strategies vs the reference loop.

Both fast strategies — run-compression (run-length compression + O(1) tail
retirement) and the line-partitioned kernel — must produce *bit-identical*
results to the per-access reference loop: every raw counter, every per-core
cycle count, every HITM sample.  These tests sweep all 12 mini-programs in
every supported mode plus suite traces with real coherence churn
(streamcluster's packed work structs), the sliced-run API, and the
stratified compression-gate probe.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.coherence.machine import (
    MulticoreMachine,
    SCALED_WESTMERE,
    SimulationError,
)
from repro.trace.access import ThreadTrace
from repro.suites import get_program
from repro.suites.base import SuiteCase
from repro.trace.access import ProgramTrace
from repro.workloads.base import Mode, RunConfig
from repro.workloads.registry import all_workloads, get_workload

from tests.conftest import SMALL_SPEC


def _assert_identical(res_fast, res_ref):
    assert res_fast.counts == res_ref.counts
    assert res_fast.cycles_per_core == res_ref.cycles_per_core
    assert res_fast.instructions_per_core == res_ref.instructions_per_core
    assert res_fast.seconds == res_ref.seconds
    assert res_fast.hitm_samples == res_ref.hitm_samples


def _run_both(program: ProgramTrace, spec=SCALED_WESTMERE,
              strategy: str = "runs", **kw):
    # fast_min_compression=0.0 disables the adaptive gate so run-compression
    # is genuinely exercised even on low-compression traces; the 'lines'
    # strategy ignores the gate and only falls back to the reference loop
    # for a sub-segment the kernel refuses (identical results either way).
    fast = MulticoreMachine(spec, fast=strategy, fast_min_compression=0.0,
                            **kw).run(program)
    ref = MulticoreMachine(spec, fast=False, **kw).run(program)
    return fast, ref


def _mini_cases():
    for w in all_workloads():
        for mode in sorted(m.value for m in w.modes):
            yield w.name, mode


@pytest.mark.parametrize("strategy", ["runs", "lines"])
@pytest.mark.parametrize("name,mode", list(_mini_cases()))
def test_fast_path_matches_reference_on_miniprograms(name, mode, strategy):
    w = get_workload(name)
    threads = 1 if w.kind == "seq" else 3
    cfg = RunConfig(threads=threads, mode=mode, size=w.train_sizes[0])
    fast, ref = _run_both(w.trace(cfg), strategy=strategy)
    _assert_identical(fast, ref)


def test_fast_path_matches_reference_bad_ma_strides():
    w = get_workload("pdot")
    for pattern in ("stride4", "stride16"):
        cfg = RunConfig(threads=6, mode=Mode.BAD_MA, size=w.train_sizes[0],
                        pattern=pattern)
        fast, ref = _run_both(w.trace(cfg))
        _assert_identical(fast, ref)


@pytest.mark.parametrize("strategy", ["runs", "lines"])
@pytest.mark.parametrize("prog,case", [
    ("streamcluster", SuiteCase("simsmall", "-O2", 4)),
    ("linear_regression", SuiteCase("50MB", "-O0", 3)),
])
def test_fast_path_matches_reference_on_suite_traces(prog, case, strategy):
    p = get_program(prog)
    fast, ref = _run_both(p.trace(case), strategy=strategy)
    _assert_identical(fast, ref)


def test_fast_path_matches_reference_sliced():
    w = get_workload("psums")
    cfg = RunConfig(threads=4, mode=Mode.BAD_FS, size=w.train_sizes[0])
    prog = w.trace(cfg)
    fast = MulticoreMachine(SMALL_SPEC, fast=True).run_sliced(prog, 5)
    ref = MulticoreMachine(SMALL_SPEC, fast=False).run_sliced(prog, 5)
    assert len(fast) == len(ref) == 5
    for f, r in zip(fast, ref):
        _assert_identical(f, r)


def test_fast_path_matches_reference_hitm_sampling():
    w = get_workload("false1")
    cfg = RunConfig(threads=4, mode=Mode.BAD_FS, size=w.train_sizes[0])
    prog = w.trace(cfg)
    fast, ref = _run_both(prog, spec=SMALL_SPEC, hitm_sample_period=7)
    _assert_identical(fast, ref)
    assert fast.hitm_samples  # the sweep actually exercised sampling


def test_fast_path_matches_reference_no_prefetch():
    w = get_workload("seq_read")
    cfg = RunConfig(threads=1, mode=Mode.BAD_MA, size=32_768,
                    pattern="stride8")
    fast, ref = _run_both(w.trace(cfg), prefetch=False)
    _assert_identical(fast, ref)


def test_fast_flag_default_and_override():
    m = MulticoreMachine(SMALL_SPEC)
    assert m.fast is True
    assert m.strategy == "auto"  # True normalizes to the adaptive strategy
    assert m.fast_min_compression > 0  # adaptive fallback on by default
    ref = MulticoreMachine(SMALL_SPEC, fast=False)
    assert ref.fast is False and ref.strategy == "ref"
    assert MulticoreMachine(SMALL_SPEC, fast="lines").strategy == "lines"
    with pytest.raises(SimulationError):
        MulticoreMachine(SMALL_SPEC, fast="fastest")


def test_gate_probe_samples_head_middle_and_tail():
    # Regression: the probe used to sample only the segment's head, so a
    # compressible prefix hid a contended tail and the gate routed the
    # whole segment down the run-compression path it could not pay for.
    n_head, n_tail = 50_000, 150_000
    head = np.repeat(np.arange(n_head // 64, dtype=np.int64) * 64, 64)
    tail = (np.arange(n_tail, dtype=np.int64) * 64) % (512 * 64)
    addrs = np.concatenate([head, tail])
    cores = np.zeros(addrs.size, dtype=np.int64)

    m = MulticoreMachine(SCALED_WESTMERE)
    comp_head, _, _ = m._probe_gate(cores[:n_head], addrs[:n_head])
    assert comp_head >= 16  # the prefix alone looks highly compressible
    comp, _, _ = m._probe_gate(cores, addrs)
    assert comp < m.fast_min_compression  # stratified probe sees the tail

    # End to end: forcing run-compression on this trace must now gate to
    # the reference loop — and stay bit-identical.
    prog = ProgramTrace(
        [ThreadTrace(addrs, np.zeros(addrs.size, dtype=bool))],
        name="prefix-tail",
    )
    forced = MulticoreMachine(SCALED_WESTMERE, fast="runs")
    res = forced.run(prog)
    assert forced.path_counts.get("ref-gated", 0) >= 1
    _assert_identical(res, MulticoreMachine(SCALED_WESTMERE,
                                            fast=False).run(prog))


def test_default_gate_matches_reference():
    # With the default compression gate the fast machine may mix vectorized
    # and reference-driven segments; the result must still be identical.
    w = get_workload("pdot")
    cfg = RunConfig(threads=3, mode=Mode.BAD_FS, size=w.train_sizes[0])
    prog = w.trace(cfg)
    fast = MulticoreMachine(SMALL_SPEC).run(prog)
    ref = MulticoreMachine(SMALL_SPEC, fast=False).run(prog)
    _assert_identical(fast, ref)
