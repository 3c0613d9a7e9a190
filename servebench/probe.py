#!/usr/bin/env python3
"""Host-speed probe: one fixed pure-Python kernel, timed over and over.

    python3 servebench/probe.py

It prints one line per kernel run, ``<monotonic start> <cpu ms>``, every
``INTERVAL_S`` seconds until its standard input closes. The benchmark
runs it beside the server for the whole run. On a shared host the speed
of a core changes from minute to minute with what the neighbours run
(clock, sibling hyper-threads, caches, memory bandwidth), and a
CPU-bound server's CPU time, throughput and latency move with it. The
kernel does the kind of work the server does and none of the program's
code, so a change to the program cannot move it: a small stack-machine
interpreter (dispatch through a dict of functions, 256-bit arithmetic,
dict storage) and random reads across a table of a million small
objects. Its CPU time, not its wall time, is used: the wall time also
counts waits for a core that the server's process does not share. Time
the hypervisor stole is read apart, by :func:`cpu_ticks`.
"""

from __future__ import annotations

import select
import statistics
import subprocess
import sys
import threading
import time

#: Kernel CPU time (ms) on the reference host, the 2-core container the
#: benchmark was built in.
REF_PROBE_MS = 8.2
#: Pause between samples (a sample is ~10 ms of CPU).
INTERVAL_S = 0.1
#: Objects in the kernel's table (~70 MB): the server's heap is tens of
#: MB, and its speed follows the memory system as well as the core.
TABLE = 1 << 20
#: Random reads into the table per kernel run.
READS = 5000
#: Passes over the stack-machine program per kernel run.
PASSES = 36


class Probe:
    """The probe as a child process, sampling until :meth:`stop`."""

    def __init__(self) -> None:
        #: ``(monotonic start, CPU ms)`` of each kernel run.
        self.samples: list[tuple[float, float]] = []
        self.popen = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.popen.stdout:
            start, cpu_ms = map(float, line.split())
            self.samples.append((start, cpu_ms))

    def median_ms(self, t0: float, t1: float) -> float:
        """Median CPU time of the kernel runs begun in [t0, t1]."""
        inside = [ms for start, ms in self.samples if t0 <= start <= t1]
        if not inside:
            raise RuntimeError(f"no probe samples in a {t1 - t0:.2f}s span")
        return statistics.median(inside)

    def stop(self) -> None:
        """Close its input (which ends it) and wait for it."""
        if not self.popen.stdin.closed:
            self.popen.stdin.close()
        try:
            self.popen.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.popen.kill()
            self.popen.wait()
        self._reader.join(timeout=5)


def cpu_ticks() -> tuple[int, int]:
    """``(busy, stolen)`` ticks of every CPU since boot, from /proc/stat.

    Stolen ticks are those in which a virtual CPU had work but the
    hypervisor ran something else. A process's wall time counts them in
    full; its CPU time counts part of them, as the probe's does.
    """
    with open("/proc/stat") as stat:
        fields = [int(v) for v in stat.readline().split()[1:]]
    user, nice, system, _idle, _iowait, irq, softirq, steal = fields[:8]
    return user + nice + system + irq + softirq, steal


def slowdown(probe_ms: float, stolen_share: float) -> float:
    """How much slower than the reference host a window ran.

    A CPU-bound server's throughput follows the speed of a core (the
    probe's CPU time against the reference) and the share of time the
    hypervisor let the machine run. The benchmark multiplies wall-clock
    rates by this factor and divides wall-clock times by it.
    """
    return probe_ms / REF_PROBE_MS / (1.0 - stolen_share)


def make_input() -> tuple[list, list[str]]:
    """A fixed stack-machine program and a large table of small objects."""
    program = []
    for i in range(40):
        program += [("push", i * 7919 + 1), ("push", i + 3), ("mul", None),
                    ("push", (1 << 255) + i), ("add", None), ("sload", None),
                    ("push", i), ("xor", None), ("sstore", i % 17),
                    ("dup", None), ("pop", None)]
    return program, [str(i) * 3 for i in range(TABLE)]


def interpret(program: list, storage: dict) -> int:
    """Run *program* ``PASSES`` times: dispatch through a dict of small
    functions, 256-bit arithmetic and dict storage, as an EVM does."""
    stack: list[int] = []
    push, pop = stack.append, stack.pop
    mod = 1 << 256

    def op_pop(_arg) -> None:
        if stack:
            pop()

    ops = {
        "push": push,
        "mul": lambda _arg: push(pop() * pop() % mod),
        "add": lambda _arg: push((pop() + pop()) % mod),
        "xor": lambda _arg: push(pop() ^ pop()),
        "sload": lambda _arg: push(storage.get(pop() & 0xFFFF, 0) + 1),
        "sstore": lambda slot: storage.__setitem__(slot, pop()),
        "dup": lambda _arg: push(stack[-1] if stack else 0),
        "pop": op_pop,
    }
    for _ in range(PASSES):
        for name, arg in program:
            ops[name](arg)
    return len(stack)


def walk(table: list[str]) -> int:
    """``READS`` dependent-free random reads of objects across *table*."""
    total, j, size = 0, 12345, len(table)
    for _ in range(READS):
        j = (j * 1103515245 + 12345) % size
        total += len(table[j])
    return total


def kernel(program: list, storage: dict, table: list[str]) -> None:
    interpret(program, storage)
    walk(table)


def main() -> int:
    program, table = make_input()
    storage: dict = {}
    stdin = sys.stdin
    while not select.select([stdin], [], [], INTERVAL_S)[0]:
        start = time.monotonic()
        interpret(program, storage)  # refills the caches the sleep let cool
        cpu0 = time.thread_time_ns()
        kernel(program, storage, table)
        print(f"{start:.6f} {(time.thread_time_ns() - cpu0) / 1e6:.4f}",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
