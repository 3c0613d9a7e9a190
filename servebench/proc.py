"""Start, watch and stop one ``repro serve`` child process.

The server is started through the program's own CLI with ``--port 0``
and its bound port is read back from the "listening on" line it prints
on stderr. It is stopped with SIGINT, the only signal on which the CLI
drains admitted work before it exits. CPU time and peak memory are read
from ``/proc`` over the server and every process it starts.
"""

from __future__ import annotations

import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

_LISTENING = re.compile(r"listening on ([0-9.]+):(\d+)")
_CLK_TCK = os.sysconf("SC_CLK_TCK")
HERE = Path(__file__).resolve().parent


class ServerError(RuntimeError):
    """The server did not start, or did not stop cleanly."""


def _children() -> dict[int, list[int]]:
    """Parent pid -> child pids, over every visible process."""
    tree: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as stat:
                fields = stat.read().rsplit(b")", 1)[1].split()
        except OSError:
            continue  # exited while we looked
        tree.setdefault(int(fields[1]), []).append(int(entry))
    return tree


class ServerProcess:
    """A running ``repro serve``; ``setup_s`` is spawn-until-accepting.

    With *spans_path* the server runs under the benchmark's traced
    launcher (``traced_serve.py``), which writes its spans there on exit.
    """

    def __init__(self, root: Path, serve_args: list[str],
                 spans_path: Path | None = None,
                 startup_timeout_s: float = 120.0) -> None:
        env = dict(os.environ)
        src = str(root / "src")
        env["PYTHONPATH"] = (
            src + os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH") else src
        )
        # A server that hangs is sent SIGABRT, which dumps its threads.
        env["PYTHONFAULTHANDLER"] = "1"
        if signal.getsignal(signal.SIGINT) is signal.SIG_IGN:
            # A shell starts background jobs with SIGINT ignored and a
            # child inherits that: the server could then never drain.
            signal.signal(signal.SIGINT, signal.default_int_handler)
        if spans_path is None:
            command = [sys.executable, "-m", "repro", "serve"]
        else:
            command = [sys.executable, str(HERE / "traced_serve.py"),
                       "--spans", str(spans_path), "--"]
        command += ["--port", "0", *serve_args]
        self.stderr_lines: list[str] = []
        self.host = "127.0.0.1"
        self.port = 0
        self._listening = threading.Event()
        started = time.monotonic()
        self.popen = subprocess.Popen(
            command, cwd=root, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        self._pump = threading.Thread(target=self._read_stderr, daemon=True)
        self._pump.start()
        try:
            self._await_listener(started + startup_timeout_s)
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.monotonic() - started

    def _read_stderr(self) -> None:
        for line in self.popen.stderr:
            self.stderr_lines.append(line.rstrip("\n"))
            match = _LISTENING.search(line)
            if match and not self._listening.is_set():
                self.host, self.port = match.group(1), int(match.group(2))
                self._listening.set()

    def _await_listener(self, deadline: float) -> None:
        while not self._listening.wait(0.005):
            if self.popen.poll() is not None or time.monotonic() > deadline:
                self._pump.join(timeout=5)
                raise ServerError(
                    "repro serve did not start:\n"
                    + "\n".join(self.stderr_lines[-20:])
                )
        while True:
            try:
                socket.create_connection((self.host, self.port),
                                         timeout=1.0).close()
                return
            except OSError:
                if time.monotonic() > deadline:
                    raise ServerError("repro serve is not accepting")
                time.sleep(0.002)

    # -- /proc -------------------------------------------------------------
    def pids(self) -> list[int]:
        """The server and every live process it started."""
        tree = _children()
        out, todo = [], [self.popen.pid]
        while todo:
            pid = todo.pop()
            out.append(pid)
            todo.extend(tree.get(pid, ()))
        return out

    def cpu_seconds(self) -> float:
        """User+system CPU of the process tree, reaped children included."""
        ticks = 0
        for pid in self.pids():
            try:
                with open(f"/proc/{pid}/stat", "rb") as stat:
                    fields = stat.read().rsplit(b")", 1)[1].split()
            except OSError:
                continue
            ticks += sum(int(value) for value in fields[11:15])
        return ticks / _CLK_TCK

    def peak_rss_mb(self) -> float:
        """Sum of the tree's peak resident set sizes (VmHWM), in MB."""
        total_kb = 0
        for pid in self.pids():
            try:
                with open(f"/proc/{pid}/status") as status:
                    for line in status:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
            except OSError:
                continue
        return total_kb / 1024.0

    # -- shutdown ----------------------------------------------------------
    def stop(self, timeout_s: float = 60.0) -> None:
        """SIGINT, then wait for the drain; a hang or non-zero exit raises."""
        if self.popen.poll() is None:
            self.popen.send_signal(signal.SIGINT)
        try:
            code = self.popen.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            self.popen.send_signal(signal.SIGABRT)
            try:
                self.popen.wait(timeout=10)
            except subprocess.TimeoutExpired:
                pass
            self.kill()
            raise ServerError(
                "repro serve did not drain after SIGINT:\n"
                + "\n".join(self.stderr_lines[-60:])
            )
        self._pump.join(timeout=5)
        if code != 0:
            raise ServerError(
                f"repro serve exited with {code}:\n"
                + "\n".join(self.stderr_lines[-20:])
            )

    def kill(self) -> None:
        if self.popen.poll() is None:
            self.popen.kill()
        self.popen.wait()
        self._pump.join(timeout=5)
