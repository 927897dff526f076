"""Benchmark entry point: run one workload cold and print its metrics.

    python3 perfbench/run.py --workload suite-detect --seed 1 --seconds 8 \
        --trace 0

Run it from the repository root.  It starts ``worker.py`` processes with
``src`` on the path and a private ``REPRO_CACHE_DIR``/``TMPDIR`` under
``.perfbench_tmp/`` (removed on exit), so nothing is read from or written
to a cache outside the checkout.

``setup_s`` is the median, over ``SETUP_SAMPLES`` fresh processes, of
the time from spawn to the worker's ``READY`` line.  The last of those
processes goes on to measure.  With ``--trace 0`` the last stdout line
carries every ``end_to_end`` metric of ``BENCHMARK.json``; with
``--trace 1`` every ``per_layer`` metric, where a layer the workload does
not exercise reads 0.  Output checks run inside the worker: a mismatch
prints ``"correct": false`` without metrics and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
WORKLOADS = ("train-slice", "suite-detect", "serve-batch", "serve-single")
SETUP_SAMPLES = 3
#: A run must end within this many seconds.
DEADLINE_S = 170.0
#: Exit code a worker uses for an output mismatch.
CHECK_FAILED = 3


def fail(msg: str, code: int = 2) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def provenance(root: Path) -> Dict:
    """Where and on what the numbers were measured."""
    import hashlib

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True,
                             timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    h = hashlib.blake2b(digest_size=12)
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "git_sha": sha,
        "src_digest": h.hexdigest(),
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "machine": platform.machine(),
    }


class Worker:
    """A worker process and the time it took to become ready."""

    def __init__(self, argv: List[str], env: Dict[str, str],
                 deadline: float) -> None:
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                                     text=True, start_new_session=True)
        self.deadline = deadline
        line = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - t0
        if line.strip() != "READY":
            self.finish()
            fail(f"worker failed during set-up (exit {self.proc.returncode})",
                 1)

    def finish(self) -> List[str]:
        try:
            out, _ = self.proc.communicate(
                timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self.kill()
            fail("run exceeded its deadline", 1)
        return out.splitlines()

    def kill(self) -> None:
        """Stop the worker and anything left in its session (servers)."""
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        for _ in range(100):
            try:
                os.killpg(self.proc.pid, 0)
            except ProcessLookupError:
                return
            time.sleep(0.05)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    root = Path.cwd()
    if not (root / "src" / "repro").is_dir():
        fail("run from the repository root: src/repro not found")
    if not (root / "models" / "detector.json").is_file():
        fail("models/detector.json not found")
    spec = json.loads((root / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    wanted = {m["name"]: m["unit"] for m in spec[section]}

    scratch = root / ".perfbench_tmp" / str(os.getpid())
    (scratch / "cache").mkdir(parents=True)
    env = dict(os.environ)
    env.update(PYTHONPATH=str(root / "src"), TMPDIR=str(scratch),
               REPRO_CACHE_DIR=str(scratch / "cache"))
    argv = [sys.executable, str(HERE / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    worker: Optional[Worker] = None
    try:
        print(json.dumps({"provenance": provenance(root)}), file=sys.stderr,
              flush=True)
        setups = []
        for _ in range(0 if args.trace else SETUP_SAMPLES - 1):
            probe = Worker(argv + ["--role", "probe"], env, deadline)
            setups.append(probe.setup_s)
            probe.finish()
            probe.kill()
            if probe.proc.returncode != 0:
                fail("set-up probe failed", 1)
        worker = Worker(argv + ["--role", "measure"], env, deadline)
        setups.append(worker.setup_s)
        lines = worker.finish()
        code = worker.proc.returncode
    finally:
        if worker is not None:
            worker.kill()
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    if code == CHECK_FAILED:
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    if code != 0 or not lines:
        fail(f"worker exited {code}", 1)
    result = json.loads(lines[-1])
    metrics = dict(result["metrics"])
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups)
    unknown = sorted(set(metrics) - set(wanted))
    if unknown:
        fail(f"metrics missing from BENCHMARK.json: {unknown}", 1)
    if not args.trace:
        missing = sorted(set(wanted) - set(metrics))
        if missing:
            fail(f"end-to-end metrics not measured: {missing}", 1)
    print(f"{args.workload}: {result['summary']}", file=sys.stderr)
    print(json.dumps({
        "correct": True,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": float(metrics.get(name, 0.0)),
                           "unit": unit}
                    for name, unit in wanted.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
