"""The two serving workloads: ``serve-batch`` and ``serve-single``.

One ``repro-serve start`` process serves the committed model; this
process is the only client.  Vectors come from ``generate_stream`` with
the workload seed, and every request line is encoded during set-up, so
the timed phases measure the server, not the generator.  Each returned
label is checked against ``CompiledTree.predict_batch`` run in this
process on the same vectors.

Load alternates two phases over ``CONNECTIONS`` sockets, one cycle per
second of ``--seconds`` (at least ``MIN_CYCLES``):

* closed loop: ``CLOSED_PER_CYCLE`` passes, in each of which every
  connection keeps ``window`` lines in flight until a fixed stream of
  ``pass_lines`` lines is served; one such pass is the workload's
  ``work_s``, reported as the median over the run's passes;
* open loop: for ``OPEN_S`` seconds lines are due on a fixed schedule at
  ``rate`` lines/s, below saturation, and each latency is timed from its
  due time, so a stall also charges the requests queued behind it.

The server's speed on a shared host jumps between levels ~50% apart
every few seconds; alternating the phases spreads both over the whole
run, so a run's medians do not hang on the level of one stretch of it.
"""

from __future__ import annotations

import json
import os
import selectors
import signal
import socket
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

MODEL = "models/detector.json"
DISTINCT = 2048
CONNECTIONS = max(1, min(2, len(os.sched_getaffinity(0))))
#: With two CPUs or more, the one-thread server and this one-thread
#: client each run on a CPU of their own, so the scheduler never puts
#: both on one core for a stretch of a run.
CPUS = sorted(os.sched_getaffinity(0))
SERVER_CPUS = {CPUS[0]} if len(CPUS) > 1 else set(CPUS)
CLIENT_CPUS = {CPUS[1]} if len(CPUS) > 1 else set(CPUS)
BATCH = 256
#: Closed-loop passes + open-loop window cycles per run: one per second
#: of ``--seconds``, at least five.
MIN_CYCLES = 5
#: Closed-loop passes per cycle.  A pass takes ~0.15 s, so the median of
#: a run's passes is taken over enough of them to ride out a slow second.
CLOSED_PER_CYCLE = 3
#: Seconds of open loop per cycle.
OPEN_S = 0.6
#: Seconds a response may be overdue after the open loop's last due time.
DRAIN_S = 10.0

_SERVE_MAIN = ("import sys; from repro.serve.cli import serve_main; "
               "sys.exit(serve_main(sys.argv[1:]))")


@dataclass(frozen=True)
class Framing:
    """How a workload frames vectors into request lines."""

    rows: int      # vectors per line
    window: int    # closed-loop lines in flight per connection
    pass_lines: int  # lines in one closed-loop pass
    rate: float    # open-loop lines per second, below saturation


#: Open-loop rates are about a quarter (batch) and a tenth (single) of
#: closed-loop saturation on a 2-CPU x86_64 host: at higher load, slowdowns
#: from neighbouring processes turn into queueing and the latencies stop
#: repeating from run to run.
FRAMINGS = {
    "serve-batch": Framing(rows=BATCH, window=2, pass_lines=64,
                           rate=100.0),
    "serve-single": Framing(rows=1, window=32, pass_lines=2048,
                            rate=1000.0),
}


class Failed(Exception):
    """A served label differs from the in-process prediction."""


# ------------------------------------------------------------- processes


class ServerProcess:
    """A ``repro-serve`` subprocess; ready once it prints its address."""

    def __init__(self, args: Sequence[str], cpus=None) -> None:
        # The server's stderr is kept for a failed start only: on SIGINT
        # it logs cancelled connection tasks even after a clean drain.
        self.log = tempfile.TemporaryFile()
        self.proc = subprocess.Popen(
            [sys.executable, "-u", "-c", _SERVE_MAIN, *args,
             "--port", "0", "--model", MODEL],
            stdout=subprocess.PIPE, stderr=self.log, text=True)
        if cpus is not None:
            os.sched_setaffinity(self.proc.pid, cpus)
        self.address: Optional[Tuple[str, int]] = None

    def wait_ready(self) -> Tuple[str, int]:
        line = self.proc.stdout.readline()
        if " listening on " not in line:
            self.log.seek(0)
            raise RuntimeError(f"server did not start: {line!r}\n"
                               + self.log.read().decode(errors="replace"))
        hostport = line.split(" listening on ", 1)[1].split()[0]
        host, port = hostport.rsplit(":", 1)
        self.address = (host, int(port))
        return self.address

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


def vm_hwm_mb(pid) -> float:
    """Peak resident set (VmHWM) of a live process, MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return float(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def _connect(address: Tuple[str, int]) -> socket.socket:
    sock = socket.create_connection(address, timeout=60.0)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def request(address: Tuple[str, int], obj: Dict) -> Dict:
    with _connect(address) as sock, sock.makefile("rb") as rfile:
        sock.sendall(json.dumps(obj).encode() + b"\n")
        return json.loads(rfile.readline())


# ---------------------------------------------------------------- stream


class Stream:
    """Pre-encoded request lines and the labels each must come back with."""

    def __init__(self, workload: str, seed: int) -> None:
        from repro.core.lab import Lab
        from repro.experiments.exp_detection import PAPER_TABLE5
        from repro.serve.inference import as_compiled
        from repro.serve.loadgen import generate_stream

        self.framing = FRAMINGS[workload]
        X, tags = generate_stream(DISTINCT, seed=seed,
                                  lab=Lab(seed=seed, disk_cache=None))
        self.X = X
        self.compiled = as_compiled(MODEL)
        self.labels = [str(v) for v in self.compiled.predict_batch(X)]
        truth = [PAPER_TABLE5[t.split(":", 1)[1]] if t.startswith("suite:")
                 else t for t in tags]
        #: Share of the stream's vectors labelled as the class of the run
        #: that generated them.
        self.accuracy = (sum(a == b for a, b in zip(self.labels, truth))
                         / len(truth))
        rows = self.framing.rows
        self.pass_vectors = rows * self.framing.pass_lines
        self.bodies: List[bytes] = []
        self.expect: List[List[str]] = []
        for lo in range(0, DISTINCT, rows):
            chunk = X[lo:lo + rows]
            if rows == 1:
                body = b',"features":' + json.dumps(
                    [float(v) for v in chunk[0]]).encode()
            else:
                body = (b',"n":%d,"batch":' % len(chunk)) + json.dumps(
                    [[float(v) for v in row] for row in chunk]).encode()
            self.bodies.append(body)
            self.expect.append(self.labels[lo:lo + rows])
        self._expect_json = [json.dumps(e).encode() for e in self.expect]

    def lines(self, count: int) -> List[Tuple[bytes, int]]:
        """``count`` request lines with ids 0..count-1, cycling the
        stream; each pairs with the index of its expected labels."""
        out = []
        for i in range(count):
            j = i % len(self.bodies)
            # Sixteen sources spread the lines over the fleet's shards.
            out.append((b'{"op":"classify","id":%d,"source":"s%d"%s}\n'
                        % (i, i % 16, self.bodies[j]), j))
        return out

    def check(self, line: bytes, rid: int, j: int) -> int:
        """:meth:`verify` for a raw response line of the direct server.

        The line the server is expected to write is compared first, so a
        correct response costs the client a byte comparison instead of a
        JSON parse; any other line is parsed and checked field by field.
        """
        if self.framing.rows == 1:
            expected = b'{"id": %d, "label": %s}\n' % (
                rid, self._expect_json[j][1:-1])
        else:
            expected = (b'{"id": %d, "labels": %s, "n": %d, "source": "s%d"}\n'
                        % (rid, self._expect_json[j], len(self.expect[j]),
                           rid % 16))
        if line == expected:
            return 0
        return self.verify(json.loads(line), rid, j)

    def verify(self, resp: Dict, rid: int, j: int) -> int:
        """Vectors that failed (shed or errored) in one response; raises
        :class:`Failed` when a label is wrong."""
        if resp.get("id") != rid:
            raise Failed(f"response id {resp.get('id')!r} for request {rid}")
        if "error" in resp:
            return len(self.expect[j])
        got = resp["labels"] if "labels" in resp else [resp.get("label")]
        if got != self.expect[j]:
            raise Failed(f"request {rid}: served {got[:4]}... != "
                         f"in-process {self.expect[j][:4]}...")
        return 0


# ------------------------------------------------------------------ load


class _Conn:
    """One connection's share of a phase, driven without blocking."""

    def __init__(self, address, jobs: List[Tuple[int, bytes, int]]):
        self.sock = _connect(address)
        self.sock.setblocking(False)
        self.jobs = jobs  # (request id, line, expectation index)
        self.next = 0     # next job to send
        self.out = bytearray()
        self.inbuf = bytearray()
        self.pending: Dict[int, int] = {}
        self.sent: List[float] = []
        self.done: List[float] = []
        self.failed_vectors = 0

    @property
    def finished(self) -> bool:
        return len(self.done) == len(self.jobs)


def _drive(address, stream: Stream, jobs: List[Tuple[bytes, int]], *,
           window: int = 0, due=None, deadline: float = float("inf"),
           by_id: bool = False) -> List[_Conn]:
    """Send ``jobs`` over ``CONNECTIONS`` sockets from one thread.

    A closed loop keeps ``window`` lines in flight per connection; an
    open loop sends line ``i`` once ``due(i)`` has passed.  One thread and
    a selector do all sends and reads, so no client thread waits for the
    interpreter lock while a response sits in its socket.  Stops at
    ``deadline``; lines still unanswered then are left out of ``done``.
    """
    conns = [_Conn(address, [(i, line, j) for i, (line, j)
                             in enumerate(jobs) if i % CONNECTIONS == k])
             for k in range(min(CONNECTIONS, len(jobs)))]
    # select(2) takes microsecond timeouts; epoll's whole milliseconds
    # would make every open-loop send up to 1 ms late.
    sel = selectors.SelectSelector()
    for c in conns:
        sel.register(c.sock, selectors.EVENT_READ, c)
    try:
        while not all(c.finished for c in conns):
            now = time.perf_counter()
            if now > deadline:
                break
            wake = deadline
            for c in conns:
                while c.next < len(c.jobs):
                    rid, line, j = c.jobs[c.next]
                    if due is None:
                        if c.next - len(c.done) >= window:
                            break
                    elif due(rid) > now:
                        wake = min(wake, due(rid))
                        break
                    c.out += line
                    c.pending[rid] = j
                    c.sent.append(now)
                    c.next += 1
                if c.out:
                    try:
                        del c.out[:c.sock.send(c.out)]
                    except BlockingIOError:
                        pass
                sel.modify(c.sock, selectors.EVENT_READ | (
                    selectors.EVENT_WRITE if c.out else 0), c)
            timeout = None if wake == float("inf") else max(0.0, wake - now)
            for key, mask in sel.select(timeout):
                if mask & selectors.EVENT_READ:
                    _receive(key.data, stream, by_id)
    finally:
        sel.close()
        for c in conns:
            c.sock.close()
    return conns


def _receive(c: _Conn, stream: Stream, by_id: bool) -> None:
    data = c.sock.recv(1 << 20)
    if not data:
        raise RuntimeError("server closed the connection")
    t = time.perf_counter()
    c.inbuf += data
    while True:
        end = c.inbuf.find(b"\n")
        if end < 0:
            return
        line = bytes(c.inbuf[:end + 1])
        del c.inbuf[:end + 1]
        if by_id:
            # The fleet's router answers per shard, not in request order.
            resp = json.loads(line)
            rid = resp.get("id")
            failed = stream.verify(resp, rid, c.pending.pop(rid))
        else:
            rid = c.jobs[len(c.done)][0]
            failed = stream.check(line, rid, c.pending.pop(rid))
        c.failed_vectors += failed
        c.done.append(t)


def closed_pass(address, stream: Stream, jobs: List[Tuple[bytes, int]],
                by_id: bool = False) -> Tuple[float, int]:
    """Serve ``jobs`` with ``window`` lines in flight per connection;
    returns (seconds, failed vectors)."""
    t0 = time.perf_counter()
    conns = _drive(address, stream, jobs, window=stream.framing.window,
                   by_id=by_id)
    return (max(c.done[-1] for c in conns) - t0,
            sum(c.failed_vectors for c in conns))


@dataclass
class OpenResult:
    #: latency of each answered request, from its due time
    latencies_s: List[float]
    late_s: List[float]
    sent_vectors: int
    failed_vectors: int

    def percentile_ms(self, q: float) -> float:
        return percentile(self.latencies_s, q) * 1e3


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def open_loop(address, stream: Stream, seconds: float) -> OpenResult:
    """Send on a fixed schedule for ``seconds``; time from due times."""
    rate = stream.framing.rate
    jobs = stream.lines(max(1, int(rate * seconds)))
    t0 = time.perf_counter() + 0.05

    def due(i: int) -> float:
        return t0 + i / rate

    conns = _drive(address, stream, jobs, due=due,
                   deadline=t0 + seconds + DRAIN_S)
    latencies, late = [], []
    failed = 0
    for c in conns:
        failed += c.failed_vectors + sum(
            len(stream.expect[j]) for _, _, j in c.jobs[len(c.done):])
        latencies += [t_done - due(rid)
                      for (rid, _, _), t_done in zip(c.jobs, c.done)]
        late += [t_sent - due(rid) for (rid, _, _), t_sent
                 in zip(c.jobs, c.sent)]
    return OpenResult(latencies, late,
                      sum(len(stream.expect[j]) for _, j in jobs), failed)


def idle_rtt_ms(address, stream: Stream, samples: int = 64) -> float:
    """Median round trip of one single-vector request on an idle server."""
    line = b'{"op":"classify","id":0,"features":%s}\n' % json.dumps(
        [float(v) for v in stream.X[0]]).encode()
    rtts = []
    with _connect(address) as sock, sock.makefile("rb") as rfile:
        for _ in range(samples):
            t0 = time.perf_counter()
            sock.sendall(line)
            resp = json.loads(rfile.readline())
            rtts.append(time.perf_counter() - t0)
            if resp.get("label") != stream.labels[0]:
                raise Failed(f"idle request served {resp!r}")
    rtts.sort()
    return rtts[len(rtts) // 2] * 1e3

