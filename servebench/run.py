#!/usr/bin/env python3
"""Serve benchmark: drive an out-of-process ``repro serve`` and check it.

    python3 servebench/run.py --workload transfer_saturate --seed 1 \\
        --seconds 16 --trace 0

Run from the root of a checkout. The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``. See README.md for the
workloads, the metrics and how to read them.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space for data directories and span files (removed after).
WORK = ROOT / ".servebench-work"

#: Server spawns per end-to-end run; ``setup_s`` is their median.
SETUP_REPEATS = 4
WARMUP_S = 2.0
#: Printed with the traced run's metrics (measured on its untraced pass)
#: rather than as end-to-end metrics: the unscaled figures and the probe,
#: which follow the host's speed, and the tail latencies, whose spread
#: over ten runs exceeds 0.25, the widest bound an end-to-end metric may
#: have.
UNSCALED_METRICS = ("commit_tps", "commit_p50_ms", "server_cpu_ms_per_tx",
                    "read_p50_ms", "commit_p99_ms", "read_p99_ms",
                    "probe.cpu_ms", "host.stolen_share")


@dataclass
class Pass:
    """One server lifetime under load, and what it was measured at."""

    record: object
    obs: object
    setup_s: list[float]
    rss_mb: float
    committed: int
    restart_s: float = 0.0
    #: Data-directory bytes (WAL + snapshots) and WAL bytes at the end.
    disk_bytes: int = 0
    wal_bytes: int = 0
    #: Span files of a traced pass (load, then restart), later loaded.
    spans: list = field(default_factory=list)
    #: Median probe kernel CPU time (ms) over the timed window.
    probe_ms: float = 0.0


_STARTED = time.monotonic()


def log(message: str) -> None:
    print(f"servebench: [{time.monotonic() - _STARTED:6.1f}s] {message}",
          file=sys.stderr)


def build_plan(workload, txs, deployment, seed: int, warmup_s: float,
               seconds: float):
    import random

    from load import (PROOF_ID_BASE, RECEIPT_ID_BASE, Plan, frame)
    from workloads import READ_RATE

    rng = random.Random(seed ^ 0x5EED)
    reads = int(READ_RATE * (warmup_s + seconds)) + 2
    targets = [rng.choice(deployment.accounts) for _ in range(reads)]
    return Plan(
        tx_frames=[
            frame("repro_sendTransaction", {"tx": tx.to_rlp().hex()}, i + 1)
            for i, tx in enumerate(txs)
        ],
        receipt_frames=[
            frame("repro_getReceipt", {"txHash": tx.hash().hex()},
                  RECEIPT_ID_BASE + i)
            for i, tx in enumerate(txs)
        ],
        proof_frames=[
            frame("repro_getProof", {"address": f"{a:x}"}, PROOF_ID_BASE + k)
            for k, a in enumerate(targets)
        ],
        proof_targets=targets,
        window=workload.window,
        write_connections=workload.write_connections,
        warmup_s=warmup_s,
        seconds=seconds,
        rss_at=workload.rss_at,
    )


def _decode(line: bytes, failures: list[str], what: str):
    """``(True, result)`` for a reply, ``(False, None)`` for a failure."""
    if not line:
        failures.append(f"{what}: no reply")
        return False, None
    try:
        obj = json.loads(line)
        if "error" in obj:
            failures.append(f"{what}: error {obj['error']}")
            return False, None
        return True, obj["result"]
    except (ValueError, KeyError, TypeError) as exc:
        failures.append(f"{what}: malformed reply {exc!r}")
        return False, None


def run_pass(workload, plan, txs, deployment, coinbase: int, workdir: Path,
             traced: bool, setup_repeats: int, failures: list[str]) -> Pass:
    """Start the server (*setup_repeats* times), load it, stop it, and
    for durable workloads restart it on the same data directory."""
    from checks import Observed
    from load import call_many, drive
    from proc import ServerProcess

    data_dir = workdir / "data"

    def server_args() -> list[str]:
        return [arg.format(data_dir=data_dir) for arg in
                ("--accounts", str(len(deployment.accounts)),
                 *workload.server_args)]

    def spawn(tag: str) -> ServerProcess:
        spans = workdir / f"spans-{tag}.jsonl" if traced else None
        return ServerProcess(ROOT, server_args(), spans_path=spans)

    setups = []
    for attempt in range(setup_repeats):
        shutil.rmtree(data_dir, ignore_errors=True)
        server = spawn("load")
        setups.append(server.setup_s)
        if attempt < setup_repeats - 1:
            server.stop()
    try:
        record = drive(server.host, server.port, plan, server.cpu_seconds,
                       server.peak_rss_mb)
        if record.t1 - record.t0 < plan.seconds - 0.1:
            log(f"all {len(txs)} encoded transactions were sent; the window "
                f"ended after {record.t1 - record.t0:.1f}s")
        rss_mb = record.rss_mb
        if not rss_mb:
            rss_mb = server.peak_rss_mb()
            log(f"fewer than {plan.rss_at} transactions committed; "
                f"server_rss_mb read at the end of the load")
        head = call_many(server.host, server.port,
                         [("repro_getBlock", {"height": "latest"})])[0]
        top = head["height"] if head else 0
        headers = call_many(server.host, server.port, [
            ("repro_getBlock", {"height": h}) for h in range(1, top + 1)])
        sent = txs[:record.sent]
        addresses = sorted(
            set(deployment.state.addresses()) | {coinbase}
            | {tx.sender for tx in sent} | {tx.to for tx in sent})
        balances = dict(zip(addresses, call_many(
            server.host, server.port,
            [("repro_getBalance", {"address": f"{a:x}"})
             for a in addresses])))
    finally:
        server.stop()
    receipts = [_decode(line, failures, f"tx {i}")[1] or {}
                for i, line in enumerate(record.replies)]
    reads = []
    for read in record.reads:
        ok, result = _decode(read.reply, failures, f"{read.kind} read")
        if ok:
            reads.append((read.kind, read.target, result))
    if record.unanswered:
        failures.append(f"{record.unanswered} requests unanswered")
    obs = Observed(txs=sent, receipts=receipts,
                   reads=reads, headers=headers, balances=balances)
    result = Pass(record=record, obs=obs, setup_s=setups, rss_mb=rss_mb,
                  committed=sum(h["transactions"] for h in headers))
    if traced:
        result.spans.append(workdir / "spans-load.jsonl")
    if workload.durable:
        from repro.storage.store import WAL_NAME

        result.disk_bytes = sum(
            p.stat().st_size for p in data_dir.rglob("*") if p.is_file())
        result.wal_bytes = (data_dir / WAL_NAME).stat().st_size
        restarted = spawn("restart")
        try:
            result.restart_s = restarted.setup_s
            after = call_many(restarted.host, restarted.port,
                              [("repro_getBlock", {"height": "latest"})])[0]
        finally:
            restarted.stop()
        obs.restart = (head, after)
        if traced:
            result.spans.append(workdir / "spans-restart.jsonl")
    return result


def end_to_end(p: Pass, min_samples: int = 1000) -> dict:
    """The end-to-end metrics of an untraced pass.

    Percentile 99 needs ten samples beyond it, so a window with fewer
    than *min_samples* commits or reads is an error, not a figure.
    """
    from load import percentile
    from probe import REF_PROBE_MS, slowdown

    record = p.record
    window = record.t1 - record.t0
    commits = record.window_commits()
    if len(commits) < min_samples:
        raise RuntimeError(f"only {len(commits)} commits in the window; "
                           f"p99 needs at least {min_samples}")
    latency = [(record.received_at[i] - record.sent_at[i]) * 1000.0
               for i in commits]
    reads = record.window_reads()
    read_ms = [(r.received - r.due) * 1000.0 for r in reads]
    if len(read_ms) < min_samples:
        raise RuntimeError(f"only {len(read_ms)} reads in the window")
    tps = len(commits) / window
    commit_p50 = percentile(latency, 0.50)
    read_p50 = percentile(read_ms, 0.50)
    cpu_ms = record.server_cpu_s * 1000.0 / len(commits)
    slow = slowdown(p.probe_ms, record.stolen_share)
    return {
        "setup_s": (statistics.median(p.setup_s), "s"),
        "commit_tps_ref": (tps * slow, "tx/s"),
        "commit_p50_ms_ref": (commit_p50 / slow, "ms"),
        "server_cpu_ms_per_tx_ref": (cpu_ms * REF_PROBE_MS / p.probe_ms,
                                     "ms"),
        "server_rss_mb": (p.rss_mb, "MB"),
        "read_p50_ms_ref": (read_p50 / slow, "ms"),
        "commit_tps": (tps, "tx/s"),
        "commit_p50_ms": (commit_p50, "ms"),
        "server_cpu_ms_per_tx": (cpu_ms, "ms"),
        "read_p50_ms": (read_p50, "ms"),
        "commit_p99_ms": (percentile(latency, 0.99), "ms"),
        "read_p99_ms": (percentile(read_ms, 0.99), "ms"),
        "probe.cpu_ms": (p.probe_ms, "ms"),
        "host.stolen_share": (record.stolen_share, "ratio"),
    }


def measure(name: str, seed: int, seconds: float, trace: bool,
            warmup_s: float = WARMUP_S, setup_repeats: int = SETUP_REPEATS):
    """Generate the inputs, run the pass(es) and check every output.

    Returns ``(deployment, passes, failures)``: one untraced pass, and
    with *trace* a traced pass on the same inputs after it.
    """
    from checks import verify
    from probe import Probe
    from repro.chain.node import Node
    from repro.contracts.registry import build_deployment
    from repro.serve.loadgen import make_transactions
    from workloads import ACCOUNTS, WORKLOADS

    workload = WORKLOADS[name]
    workdir = WORK / f"{name}-{os.getpid()}"
    failures: list[str] = []
    passes = []
    # Started first, so that its own set-up overlaps the input generation.
    probe = Probe()
    try:
        deployment = build_deployment(num_accounts=ACCOUNTS)
        coinbase = Node().coinbase
        count = int(workload.max_tps * (warmup_s + seconds)) + workload.window
        txs = make_transactions(deployment, count, workload=workload.traffic,
                                seed=seed)
        plan = build_plan(workload, txs, deployment, seed, warmup_s, seconds)
        log(f"encoded {count} transactions")
        for traced in ((False, True) if trace else (False,)):
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            p = run_pass(workload, plan, txs, deployment, coinbase, workdir,
                         traced, 1 if trace else setup_repeats, failures)
            p.probe_ms = probe.median_ms(p.record.t0, p.record.t1)
            log(f"{'traced' if traced else 'untraced'} pass: "
                f"{p.committed} committed in {len(p.obs.headers)} blocks")
            failures += verify(deployment.state, p.obs, workload.traffic,
                               coinbase)
            log("checked")
            if traced:
                from layers import load_spans
                p.spans = [load_spans(path) for path in p.spans]
            passes.append(p)
    finally:
        probe.stop()
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    return deployment, passes, failures


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 min_samples: int = 1000, **options) -> dict:
    """One benchmark run; returns the result object that is printed."""
    _deployment, passes, failures = measure(name, seed, seconds, trace,
                                            **options)
    metrics = end_to_end(passes[0], min_samples)
    unscaled = {name: metrics.pop(name) for name in UNSCALED_METRICS}
    if trace:
        from layers import trace_metrics
        metrics = {**trace_metrics(passes[0], passes[1]), **unscaled}
    for message in failures[:20]:
        print(f"servebench: FAILED {message}", file=sys.stderr)
    return {
        "correct": not failures,
        "attempted": sum(p.record.sent + len(p.record.reads)
                         for p in passes),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"servebench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    log(f"{args.workload} seed {args.seed} done")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.exit(main())
