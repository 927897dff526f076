"""``repro-serve start`` / ``fleet`` stop cleanly on SIGINT and SIGTERM.

Each test runs the real CLI in a child process, waits for its listening
line, talks to it, signals it and checks for exit 0 with no traceback —
also when the child starts with SIGINT ignored, as a background shell
job does.
"""

from __future__ import annotations

import os
import re
import select
import signal
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.serve.client import ServeClient

ROOT = Path(__file__).resolve().parents[1]
MODEL = ROOT / "models" / "detector.json"


def _spawn(argv, ignore_sigint):
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    code = ("import sys; from repro.serve.cli import serve_main; "
            "sys.exit(serve_main(sys.argv[1:]))")

    def preexec():
        if ignore_sigint:
            signal.signal(signal.SIGINT, signal.SIG_IGN)

    return subprocess.Popen(
        [sys.executable, "-c", code, *argv], cwd=ROOT, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        preexec_fn=preexec, start_new_session=True)


def _kill(proc):
    """Kill the child's whole session: fleet workers hold its pipes."""
    os.killpg(proc.pid, signal.SIGKILL)
    proc.communicate()


def _wait_listening(proc, timeout=120.0):
    ready, _, _ = select.select([proc.stdout], [], [], timeout)
    if not ready:
        _kill(proc)
        pytest.fail("no listening line within the timeout")
    line = proc.stdout.readline()
    match = re.search(r"listening on ([\d.]+):(\d+)", line)
    assert match, f"no listening line: {line!r} / {proc.stderr.read()}"
    return match.group(1), int(match.group(2))


def _stop(proc, sig):
    proc.send_signal(sig)
    try:
        out, err = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        _kill(proc)
        pytest.fail(f"process ignored {sig.name}")
    return proc.returncode, out, err


@contextmanager
def _serving(argv, ignore_sigint=False):
    """A listening child; killed with its session if a test leaves it."""
    proc = _spawn(argv, ignore_sigint)
    try:
        yield proc, _wait_listening(proc)
    finally:
        if proc.poll() is None:
            _kill(proc)


@pytest.mark.parametrize("ignore_sigint", [False, True],
                         ids=["default", "sigint-ignored"])
def test_start_stops_cleanly_on_sigint(ignore_sigint):
    with _serving(["start", "--port", "0", "--model", str(MODEL)],
                  ignore_sigint) as (proc, addr):
        with ServeClient(*addr) as client:
            assert client.request({"op": "ping"})["ok"] is True
        rc, out, err = _stop(proc, signal.SIGINT)
    assert rc == 0, err
    assert "Traceback" not in err
    assert "shutting down" in out


def test_start_stops_cleanly_on_sigterm():
    with _serving(["start", "--port", "0", "--model", str(MODEL)]) as (
            proc, _):
        rc, _, err = _stop(proc, signal.SIGTERM)
    assert rc == 0, err
    assert "Traceback" not in err


def test_fleet_stops_cleanly_with_sigint_ignored():
    with _serving(["fleet", "--workers", "1", "--port", "0",
                   "--model", str(MODEL)], True) as (proc, addr):
        with ServeClient(*addr) as client:
            assert client.request({"op": "ping"})["ok"] is True
        rc, out, err = _stop(proc, signal.SIGINT)
    assert rc == 0, err
    assert "Traceback" not in err
    assert "shutting down fleet" in out
