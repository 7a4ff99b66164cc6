"""Daemon process control and a minimal NDJSON client.

The benchmark drives ``shex-serve`` exactly as an outside user would: it
spawns ``python3 -m repro.serve.cli start`` (or the traced launcher) as a
child process, talks to it over a Unix socket one JSON line at a time, and
reads the child's CPU time and peak RSS from ``/proc/<pid>``.  Nothing here
imports ``repro``.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

#: Fixed hash seed for the daemon, so its work repeats exactly run to run.
PYTHONHASHSEED = "0"

_CLK_TCK = os.sysconf("SC_CLK_TCK")


class DaemonFailure(RuntimeError):
    """The daemon did not come up, answered an error, or died."""


def daemon_env(trace_out: Optional[str] = None) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    env["PYTHONHASHSEED"] = PYTHONHASHSEED
    env.pop("REPRO_FAULTS", None)
    env.pop("REPRO_VECTORIZE", None)
    if trace_out is not None:
        env["E2EBENCH_TRACE_OUT"] = trace_out
    else:
        env.pop("E2EBENCH_TRACE_OUT", None)
    return env


class Client:
    """One blocking NDJSON connection: a request is sent only after the
    previous reply arrived (a closed loop with one outstanding request)."""

    def __init__(self, path: str, timeout: float = 120.0):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(timeout)
        self.sock.connect(path)
        self._buffer = b""

    def send_raw(self, line: bytes) -> bytes:
        self.sock.sendall(line)
        while b"\n" not in self._buffer:
            chunk = self.sock.recv(1 << 20)
            if not chunk:
                raise DaemonFailure("daemon closed the connection")
            self._buffer += chunk
        reply, _, self._buffer = self._buffer.partition(b"\n")
        return reply

    def call(self, op: str, **fields: Any) -> Dict[str, Any]:
        """Send one request and return its ``result``; raise on an error reply."""
        fields["op"] = op
        reply = json.loads(self.send_raw(encode(fields)))
        if not reply.get("ok"):
            raise DaemonFailure(f"{op} failed: {reply.get('error')}")
        return reply["result"]

    def close(self) -> None:
        self.sock.close()


def encode(message: Dict[str, Any]) -> bytes:
    return (json.dumps(message, separators=(",", ":")) + "\n").encode("utf-8")


class Daemon:
    """A ``shex-serve`` child process listening on a relative Unix socket.

    The socket path is relative to the checkout root (the working directory
    of both processes), which keeps it under the 108-byte ``AF_UNIX`` limit
    however deep the checkout lies.
    """

    def __init__(self, socket_path: str, log_path: str, data_dir: Optional[str] = None,
                 trace_out: Optional[str] = None):
        self.socket_path = socket_path
        self.data_dir = data_dir
        entry = (["e2ebench/launcher.py"] if trace_out is not None
                 else ["-m", "repro.serve.cli"])
        argv = [sys.executable, *entry, "start", "--socket", socket_path,
                "--backend", "thread", "--jobs", "1", "--slow-ms", "1000000",
                "--log-level", "error"]
        if data_dir is not None:
            argv += ["--data-dir", data_dir, "--fsync", "always"]
        if os.path.exists(socket_path):
            os.unlink(socket_path)
        self._log = open(log_path, "ab")
        self.spawned_at = time.perf_counter()
        self.proc = subprocess.Popen(argv, env=daemon_env(trace_out),
                                     stdout=self._log, stderr=self._log,
                                     stdin=subprocess.DEVNULL)
        self.pid = self.proc.pid

    def connect(self, deadline_s: float = 60.0) -> Client:
        """Wait until the socket accepts, then return a connected client."""
        give_up = time.perf_counter() + deadline_s
        while True:
            if self.proc.poll() is not None:
                raise DaemonFailure(f"daemon exited with {self.proc.returncode} "
                                    "before listening")
            try:
                return Client(self.socket_path)
            except (FileNotFoundError, ConnectionRefusedError):
                if time.perf_counter() > give_up:
                    raise DaemonFailure("daemon did not listen in time") from None
                time.sleep(0.002)

    def cpu_seconds(self) -> float:
        with open(f"/proc/{self.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLK_TCK

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise DaemonFailure("no VmHWM in /proc status")

    def kill(self) -> None:
        """SIGKILL and reap: a crash, leaving whatever is on disk."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
        self.proc.wait(timeout=30)
        self._log.close()

    def shutdown(self, client: Client) -> None:
        """Graceful stop through the ``shutdown`` op; waits for the exit."""
        try:
            client.call("shutdown")
        except (DaemonFailure, OSError):
            pass
        client.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=30)
            raise DaemonFailure("daemon ignored shutdown") from None
        finally:
            self._log.close()


def stop_all(daemons: List[Daemon]) -> None:
    for daemon in daemons:
        if daemon.proc.poll() is None:
            daemon.proc.kill()
        try:
            daemon.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            pass
        if not daemon._log.closed:
            daemon._log.close()
