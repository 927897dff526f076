"""One benchmark process: set up a workload, then measure it.

Started by ``run.py``, which times it from spawn to the ``READY`` line
(that is ``setup_s``).  With ``--role probe`` it exits right after set-up;
with ``--role measure`` it runs the workload and prints one JSON line
(metrics, counts and a summary) for ``run.py`` to assemble.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import sys
import time
from typing import Dict, List, Tuple

import servework as sw
from servework import percentile
from tracer import Tracer

SIM = ("train-slice", "suite-detect")
SERVE = ("serve-batch", "serve-single")
#: Least cold passes per untraced simulation run (more if ``--seconds``
#: allows); they run one after another, so one step's copies are a pass
#: apart.
SIM_PASSES = 3
#: Exit code for an output mismatch (``run.py`` reports it as incorrect).
CHECK_FAILED = 3


def ready() -> None:
    print("READY", flush=True)


# ------------------------------------------------------------- simulation


def sim_main(args) -> Dict:
    import simwork

    bench = simwork.make(args.workload, args.seed)
    ready()
    if args.role == "probe":
        return {}
    if args.trace:
        return sim_traced(args, bench)
    outs: List[Dict] = []
    t0 = time.perf_counter()
    while len(outs) < SIM_PASSES or (
            time.perf_counter() - t0
            + statistics.median(o["wall"] for o in outs) <= args.seconds):
        outs.append(checked_pass(bench))
    accuracy = bench.accuracy(outs[0])
    if any(bench.accuracy(o) != accuracy for o in outs):
        raise simwork.CheckFailed("accuracy differs between passes")
    # Each step's median CPU time over the passes, so a burst of
    # contention from outside slows one pass's copy of a step, not the
    # result.
    steps = [statistics.median(t) for t in zip(*(o["steps"] for o in outs))]
    return {
        "attempted": bench.items() * len(outs), "failed": 0,
        "summary": (f"passes {_walls(outs)} s wall, "
                    f"{_cpus(outs)} s CPU; median step "
                    f"{percentile(steps, 0.50) * 1e3:.1f} ms (not gated); "
                    f"{bench.summary(outs[0])}"),
        "metrics": {
            "work_s": sum(steps),
            "peak_rss_mb": sw.vm_hwm_mb("self"),
            "accuracy": accuracy,
            "ok_frac": 1.0,
        },
    }


def checked_pass(bench, tracer=None) -> Dict:
    out = bench.run_pass(tracer)
    bench.check(out)
    return out


def _walls(outs: List[Dict]) -> str:
    return "/".join(f"{o['wall']:.2f}" for o in outs)


def _cpus(outs: List[Dict]) -> str:
    return "/".join(f"{sum(o['steps']):.2f}" for o in outs)


def sim_traced(args, bench) -> Dict:
    """One traced pass between two untraced ones."""
    untraced = [checked_pass(bench)]
    tracer = Tracer()
    tracer.install_simulation_layers()
    try:
        traced = checked_pass(bench, tracer)
    finally:
        tracer.restore()
    untraced.append(checked_pass(bench))
    metrics = tracer.layer_metrics(traced["wall"])
    metrics["traced_wall_s"] = traced["wall"]
    metrics["trace_overhead"] = traced["wall"] / statistics.mean(
        o["wall"] for o in untraced)
    summary = (f"untraced passes {_walls(untraced)} s, traced "
               f"{traced['wall']:.2f} s; {bench.summary(traced)}")
    if args.workload == "train-slice":
        from fullplan import OUT, path_mix

        mine = path_mix(metrics)
        plan = json.loads(OUT.read_text())["mix"]
        summary += "; path mix slice/full plan: " + ", ".join(
            f"{k} {mine[k]:.3f}/{plan[k]:.3f}" for k in
            ("offscalar.by_accesses", "offscalar.by_time",
             "ref-gated.time_share"))
    return {"attempted": bench.items() * 3, "failed": 0,
            "summary": summary, "metrics": metrics}


# ---------------------------------------------------------------- serving


def serve_main(args) -> Dict:
    os.sched_setaffinity(0, sw.CLIENT_CPUS)
    server = sw.ServerProcess(["start"], sw.SERVER_CPUS)
    try:
        stream = sw.Stream(args.workload, args.seed)
        address = server.wait_ready()
        if sw.request(address, {"op": "ping"}).get("ok") is not True:
            raise RuntimeError("server did not answer ping")
        closed = stream.lines(stream.framing.pass_lines)
        ready()
        if args.role == "probe":
            return {}
        if args.trace:
            return serve_traced(args, stream, address, closed)
        walls: List[Tuple[float, int]] = []
        windows: List[sw.OpenResult] = []
        for _ in range(max(sw.MIN_CYCLES, round(args.seconds))):
            walls += [sw.closed_pass(address, stream, closed)
                      for _ in range(sw.CLOSED_PER_CYCLE)]
            windows.append(sw.open_loop(address, stream, sw.OPEN_S))
        rss = sw.vm_hwm_mb(server.proc.pid)
    finally:
        server.stop()
    sent = (stream.pass_vectors * len(walls)
            + sum(w.sent_vectors for w in windows))
    failed = (sum(f for _, f in walls)
              + sum(w.failed_vectors for w in windows))
    work_s = statistics.median(t for t, _ in walls)
    # p50 is the median of the windows' medians, like work_s over passes.
    p50 = statistics.median(w.percentile_ms(0.50) for w in windows)
    pooled = sw.OpenResult([t for w in windows for t in w.latencies_s],
                           [t for w in windows for t in w.late_s], 0, 0)
    return {
        "attempted": sent, "failed": failed,
        "summary": (f"{len(windows)} cycles, {len(walls)} closed passes; "
                    f"closed loop "
                    f"{stream.pass_vectors / work_s:.0f} vectors/s; open "
                    f"loop {len(pooled.latencies_s)} requests at "
                    f"{stream.framing.rate:g}/s, latency p50/p90/p99 "
                    f"{p50:.3f}/{pooled.percentile_ms(0.90):.3f}/"
                    f"{pooled.percentile_ms(0.99):.3f} ms (not gated), "
                    f"p99 generator lateness "
                    f"{sw.percentile(pooled.late_s, 0.99) * 1e3:.3f} ms"),
        "metrics": {
            "work_s": work_s,
            "peak_rss_mb": rss,
            "accuracy": stream.accuracy,
            "ok_frac": (sent - failed) / sent,
        },
    }


def serve_traced(args, stream, address, closed) -> Dict:
    """Per-layer numbers of the serving path, measured from outside.

    This process calls no program layer while load runs, so nothing is
    wrapped: the closed-loop passes' whole wall is ``unattributed_s``,
    time spent waiting on the server, and ``trace_overhead`` is 1.
    """
    failed = 0

    def one_pass(addr, by_id: bool = False) -> float:
        # A shed or errored vector is counted; a wrong label raises.
        nonlocal failed
        wall, lost = sw.closed_pass(addr, stream, closed, by_id)
        failed += lost
        return wall

    before = sw.request(address, {"op": "stats"})["stats"]
    single = [one_pass(address) for _ in range(6)]
    after = sw.request(address, {"op": "stats"})["stats"]
    batches = after["batches"] - before["batches"]
    rows = after["classified"] - before["classified"]
    metrics = Tracer().layer_metrics(sum(single))
    metrics["traced_wall_s"] = sum(single)
    metrics["trace_overhead"] = 1.0
    X = stream.X[[j % len(stream.X) for j in range(stream.pass_vectors)]]
    predict = []
    for _ in range(5):
        t0 = time.perf_counter()
        stream.compiled.predict_batch(X)
        predict.append(time.perf_counter() - t0)
    direct_rtt = sw.idle_rtt_ms(address, stream)
    opened = sw.open_loop(address, stream, min(3.0, args.seconds / 3))
    passes = len(single)
    metrics.update({
        "serve.predict_batch_s": statistics.median(predict),
        "serve.server.batches": batches / len(single),
        "serve.server.rows_per_batch": rows / batches if batches else 0.0,
        "serve.server.shed": after["vectors_shed"] - before["vectors_shed"],
        "serve.rtt_idle_ms": direct_rtt,
        "serve.gen_late_ms": sw.percentile(opened.late_s, 0.99) * 1e3,
    })
    summary = ""
    if args.workload == "serve-batch":
        # Like for like: the same lines, connections and window, with
        # single-server and fleet passes alternating so that both see the
        # same stretch of host speed.
        # The fleet's router and workers may use every CPU.
        fleet = sw.ServerProcess(["fleet", "--workers", "2"], set(sw.CPUS))
        try:
            fleet_address = fleet.wait_ready()
            single, fleet_walls = [], []
            for _ in range(6):
                single.append(one_pass(address))
                fleet_walls.append(one_pass(fleet_address, by_id=True))
            fleet_rtt = sw.idle_rtt_ms(fleet_address, stream)
        finally:
            fleet.stop()
        passes += len(single) + len(fleet_walls)
        metrics["serve.fleet.vps"] = (stream.pass_vectors
                                      / statistics.median(fleet_walls))
        metrics["serve.router.hop_ms"] = fleet_rtt - direct_rtt
    metrics["serve.single.vps"] = (stream.pass_vectors
                                   / statistics.median(single))
    if args.workload == "serve-batch":
        ratio = metrics["serve.fleet.vps"] / metrics["serve.single.vps"]
        summary = f"; fleet/single {ratio:.3f}"
    return {"attempted": stream.pass_vectors * passes + opened.sent_vectors,
            "failed": failed + opened.failed_vectors,
            "summary": (f"single {metrics['serve.single.vps']:.0f} vectors/s"
                        f"{summary}; shed {metrics['serve.server.shed']:.0f}"),
            "metrics": metrics}


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=SIM + SERVE)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--role", choices=("probe", "measure"), required=True)
    args = p.parse_args()
    # A shell starts background jobs with SIGINT ignored, and an ignored
    # signal stays ignored across exec.  The servers this process starts
    # drain and exit on SIGINT, so they must inherit the default.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    if args.workload in SIM:
        import simwork
        run, mismatch = sim_main, simwork.CheckFailed
    else:
        run, mismatch = serve_main, sw.Failed
    try:
        result = run(args)
    except mismatch as exc:
        print(f"output check failed: {exc}", file=sys.stderr)
        return CHECK_FAILED
    if args.role == "measure":
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
