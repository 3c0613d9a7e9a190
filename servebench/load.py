"""The load generator: one process, pipelined, frames encoded up front.

Writes run as a closed loop: a fixed window of transactions is in
flight, split over at most two connections, and each reply sends the
next pre-encoded transaction on the same connection. Reads run as an
open loop on the second connection, which carries writes only when
the window is split over both: request *k* is due at
``start + k / rate`` whatever the server is doing, and its latency is
timed from when it was due. The timed window opens after the warm-up;
at its end no new request is sent and every outstanding one is awaited.
"""

from __future__ import annotations

import asyncio
import json
import re
import socket
import time
from dataclasses import dataclass, field

from probe import cpu_ticks
from workloads import READ_RATE

#: Request ids: transaction *i* is ``i + 1``; reads live above these.
PROOF_ID_BASE = 1_000_000_000
RECEIPT_ID_BASE = 2_000_000_000
_ID = re.compile(rb'"id":(\d+)')
#: Connections opened; reads ride the last one.
CONNECTIONS = 2


def frame(method: str, params: dict, request_id: int) -> bytes:
    return json.dumps(
        {"jsonrpc": "2.0", "method": method, "params": params,
         "id": request_id},
        separators=(",", ":"),
    ).encode() + b"\n"


def percentile(values, q: float) -> float:
    """Linear-interpolated *q*-quantile (0..1) of *values*."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    pos = (len(ordered) - 1) * q
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


@dataclass
class Plan:
    """Everything sent, encoded before the first byte goes out."""

    tx_frames: list[bytes]
    #: ``repro_getReceipt`` frame of transaction *i* (id RECEIPT_ID_BASE+i).
    receipt_frames: list[bytes]
    #: ``repro_getProof`` frames (id PROOF_ID_BASE+k) and their targets.
    proof_frames: list[bytes]
    proof_targets: list[int]
    window: int
    write_connections: int
    warmup_s: float
    seconds: float
    #: Committed transactions at which the server's RSS is sampled.
    rss_at: int


@dataclass
class Read:
    kind: str          # "proof" | "receipt"
    target: int        # genesis account, or transaction index
    due: float
    sent: float
    received: float = float("nan")
    reply: bytes = b""


@dataclass
class LoadRecord:
    """What the generator saw; every time is ``time.monotonic()``."""

    #: The timed window, as sampled (the end is early if frames ran out).
    t0: float = 0.0
    t1: float = 0.0
    sent_at: list[float] = field(default_factory=list)
    received_at: list[float] = field(default_factory=list)
    replies: list[bytes] = field(default_factory=list)
    reads: list[Read] = field(default_factory=list)
    server_cpu_s: float = 0.0
    loadgen_cpu_s: float = 0.0
    #: Share of the machine's busy CPU time the hypervisor stole in the
    #: window (every process's, not only the server's).
    stolen_share: float = 0.0
    #: Server peak RSS when the plan's ``rss_at``-th reply arrived.
    rss_mb: float = 0.0
    unanswered: int = 0

    @property
    def sent(self) -> int:
        return len(self.replies)

    def window_commits(self) -> list[int]:
        """Indices of transactions whose reply arrived in the window."""
        t0, t1 = self.t0, self.t1
        return [i for i, at in enumerate(self.received_at) if t0 <= at <= t1]

    def window_reads(self) -> list[Read]:
        return [r for r in self.reads if self.t0 <= r.due <= self.t1]


async def _drive(host: str, port: int, plan: Plan, server_cpu,
                 server_rss) -> LoadRecord:
    n = len(plan.tx_frames)
    record = LoadRecord(
        sent_at=[float("nan")] * n,
        received_at=[float("nan")] * n,
        replies=[b""] * n,
    )
    streams = [
        await asyncio.open_connection(host, port, limit=1 << 22)
        for _ in range(CONNECTIONS)
    ]
    writers = [writer for _, writer in streams][:plan.write_connections]
    state = {"next": 0, "outstanding": 0, "last_acked": -1, "acked": 0,
             "sending": True}
    out_of_frames = asyncio.Event()
    settled = asyncio.Event()
    pending_reads: dict[int, Read] = {}
    receipt_read: set[int] = set()

    def send_tx(writer) -> None:
        index = state["next"]
        if index >= n:
            out_of_frames.set()
            return
        state["next"] = index + 1
        state["outstanding"] += 1
        record.sent_at[index] = time.monotonic()
        writer.write(plan.tx_frames[index])

    def check_settled() -> None:
        if not state["sending"] and state["outstanding"] == 0:
            settled.set()

    async def pump(reader, writer) -> None:
        while True:
            line = await reader.readline()
            if not line:
                return
            now = time.monotonic()
            match = _ID.search(line)
            rid = int(match.group(1)) if match else -1
            if 1 <= rid <= n:
                index = rid - 1
                record.received_at[index] = now
                record.replies[index] = line
                state["outstanding"] -= 1
                state["last_acked"] = index
                state["acked"] += 1
                if state["acked"] == plan.rss_at:
                    record.rss_mb = server_rss()
                if state["sending"]:
                    send_tx(writer)
            else:
                read = pending_reads.pop(rid, None)
                if read is None:
                    continue  # not ours (no subscriptions are made)
                read.received = now
                read.reply = line
                state["outstanding"] -= 1
            check_settled()

    async def read_loop(start: float, end: float, writer) -> None:
        k = proofs = 0
        while True:
            due = start + k / READ_RATE
            if due > end:
                return
            delay = due - time.monotonic()
            if delay > 0:
                await asyncio.sleep(delay)
            if not state["sending"]:
                return
            acked = state["last_acked"]
            if k % 2 and acked >= 0 and acked not in receipt_read:
                receipt_read.add(acked)
                read = Read("receipt", acked, due, time.monotonic())
                rid = RECEIPT_ID_BASE + acked
                payload = plan.receipt_frames[acked]
            else:
                read = Read("proof", plan.proof_targets[proofs], due,
                            time.monotonic())
                rid = PROOF_ID_BASE + proofs
                payload = plan.proof_frames[proofs]
                proofs += 1
            pending_reads[rid] = read
            record.reads.append(read)
            state["outstanding"] += 1
            writer.write(payload)
            k += 1

    pumps = [asyncio.ensure_future(pump(reader, writer))
             for reader, writer in streams]
    start = time.monotonic()
    window_end = start + plan.warmup_s + plan.seconds
    for slot in range(plan.window):
        send_tx(writers[slot % len(writers)])
    reads = asyncio.ensure_future(
        read_loop(start, window_end, streams[-1][1]))
    await asyncio.sleep(max(0.0, start + plan.warmup_s - time.monotonic()))
    record.t0 = time.monotonic()
    cpu0, own0, ticks0 = server_cpu(), time.process_time(), cpu_ticks()
    try:
        # A program faster than the frame pool allows ends the window
        # early; every figure is a rate or a percentile, so it holds.
        await asyncio.wait_for(out_of_frames.wait(),
                               max(0.0, window_end - time.monotonic()))
    except asyncio.TimeoutError:
        pass
    record.t1 = time.monotonic()
    cpu1, own1, ticks1 = server_cpu(), time.process_time(), cpu_ticks()
    state["sending"] = False
    record.server_cpu_s = cpu1 - cpu0
    record.loadgen_cpu_s = own1 - own0
    busy, stolen = (b - a for a, b in zip(ticks0, ticks1))
    record.stolen_share = stolen / (busy + stolen) if stolen else 0.0
    await reads
    check_settled()
    try:
        await asyncio.wait_for(settled.wait(), timeout=60.0)
    except asyncio.TimeoutError:
        record.unanswered = state["outstanding"]
    for task in pumps:
        task.cancel()
    await asyncio.gather(*pumps, return_exceptions=True)
    for _, writer in streams:
        writer.close()
    await asyncio.gather(*(w.wait_closed() for _, w in streams),
                         return_exceptions=True)
    sent = state["next"]
    del record.sent_at[sent:], record.received_at[sent:], record.replies[sent:]
    return record


def drive(host: str, port: int, plan: Plan, server_cpu,
          server_rss) -> LoadRecord:
    """Run *plan* against the server; *server_cpu* samples its CPU
    seconds and *server_rss* its peak RSS in MB."""
    return asyncio.run(_drive(host, port, plan, server_cpu, server_rss))


def call_many(host: str, port: int, calls: list[tuple[str, dict]],
              timeout_s: float = 60.0) -> list:
    """Pipeline *calls* on one connection; results in call order.

    An error reply raises :class:`RuntimeError` naming the call.
    """
    payload = b"".join(
        frame(method, params, index + 1)
        for index, (method, params) in enumerate(calls)
    )
    results: dict[int, dict] = {}
    with socket.create_connection((host, port), timeout=timeout_s) as sock:
        sock.sendall(payload)
        stream = sock.makefile("rb")
        while len(results) < len(calls):
            line = stream.readline()
            if not line:
                raise RuntimeError("connection closed mid-batch")
            obj = json.loads(line)
            results[obj["id"]] = obj
    out = []
    for index, (method, params) in enumerate(calls):
        obj = results[index + 1]
        if "error" in obj:
            raise RuntimeError(f"{method} {params}: {obj['error']}")
        out.append(obj["result"])
    return out
