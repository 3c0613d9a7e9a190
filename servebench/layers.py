"""Per-layer metrics from the spans of a traced run.

Only spans that start inside the timed window count, except the
recovery spans of a restart, which happen after it. A span's self time
is its duration minus the durations of its direct children (spans on
the same thread opened while it was open). Per-block figures divide by
the blocks committed in the window, per-transaction figures by their
transactions. A layer that does not run on a workload reads 0.
"""

from __future__ import annotations

import json
from collections import defaultdict

from load import percentile
from probe import slowdown


def load_spans(path) -> list[tuple]:
    with open(path) as spans:
        return [tuple(json.loads(line)) for line in spans]


class SpanTable:
    """Totals, counts and self times by span name."""

    def __init__(self, spans: list[tuple]) -> None:
        self.spans = spans
        child_ns: dict[int, int] = defaultdict(int)
        for _sid, parent, _name, _thread, start, end, _extra in spans:
            if parent:
                child_ns[parent] += end - start
        self.total_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.count: dict[str, int] = defaultdict(int)
        self.extras: dict[str, list] = defaultdict(list)
        self.by_id = {span[0]: span for span in spans}
        for sid, _parent, name, _thread, start, end, extra in spans:
            self.total_ns[name] += end - start
            self.self_ns[name] += end - start - child_ns.get(sid, 0)
            self.count[name] += 1
            if extra is not None:
                self.extras[name].append(extra)

    def child_ns(self, parent_name: str, child_name: str) -> int:
        """Time in *child_name* spans opened directly under *parent_name*."""
        return sum(
            end - start
            for _sid, parent, name, _t, start, end, _x in self.spans
            if name == child_name and parent
            and self.by_id.get(parent, (0, 0, ""))[2] == parent_name
        )

    def per(self, name: str, scale: float = 1e-3) -> float:
        """Mean duration of *name* in µs (scale 1e-3) or ms (1e-6)."""
        n = self.count.get(name, 0)
        return self.total_ns.get(name, 0) * scale / n if n else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans: list[tuple], restart_spans: list[tuple],
                  t0: float, t1: float) -> dict:
    """The span-derived per-layer metrics, keyed by name."""
    lo, hi = int(t0 * 1e9), int(t1 * 1e9)
    table = SpanTable([s for s in spans if lo <= s[4] <= hi])
    ms, us = 1e-6, 1e-3
    total, self_ns, count = table.total_ns, table.self_ns, table.count
    blocks = count["node.commit_block"]
    txs = sum(table.extras["node.commit_block"])
    occ = table.extras["node.execute_block_occ"]
    occ_receipts = sum(o[0] for o in occ)
    occ_commit_ns = table.child_ns("node.execute_block_occ",
                                   "node.commit_block")
    submit_add_ns = table.child_ns("admit.submit", "mempool.add")
    recovery = SpanTable(restart_spans)
    replayed = sum(recovery.extras["recovery.attach"])
    return {
        "rpc.decode_us": (_ratio(
            (total["rpc.decode_frame"] + total["rpc.tx_from_wire"]) * us,
            count["rpc.decode_frame"]), "us/req"),
        "rpc.encode_us": (_ratio(
            (total["rpc.receipt_to_wire"] + total["rpc.encode_frame"]) * us,
            count["rpc.encode_frame"]), "us/reply"),
        "admit.us": (table.per("admit.submit"), "us/tx"),
        "admit.lock_wait_us": (_ratio(
            (total["admit.submit"] - submit_add_ns) * us,
            count["admit.submit"]), "us/tx"),
        "block.txs": (_ratio(txs, blocks), "tx/block"),
        "block.ms": (_ratio(
            (total["node.propose_block"] + total["node.execute_block"]
             + total["node.execute_block_occ"]) * ms, blocks), "ms/block"),
        "mempool.add_us": (table.per("mempool.add"), "us/tx"),
        "mempool.take_ms": (_ratio(total["mempool.take"] * ms, blocks),
                            "ms/block"),
        "dag.discover_ms": (_ratio(total["dag.discover"] * ms, blocks),
                            "ms/block"),
        "dag.edges_ms": (_ratio(
            (total["dag.build_edges"] + total["dag.reduce"]) * ms, blocks),
            "ms/block"),
        "node.block_context_ms": (_ratio(
            total["node.block_context"] * ms, blocks), "ms/block"),
        "node.propose_self_ms": (_ratio(
            self_ns["node.propose_block"] * ms, blocks), "ms/block"),
        "node.commit_self_ms": (_ratio(
            self_ns["node.commit_block"] * ms, blocks), "ms/block"),
        "evm.tx_us": (table.per("evm.execute"), "us/exec"),
        "evm.executions_per_tx": (_ratio(count["evm.execute"], txs),
                                  "count"),
        "occ.block_ms": (_ratio(
            (total["node.execute_block_occ"] - occ_commit_ns) * ms,
            len(occ)), "ms/block"),
        "occ.aborts_per_block": (_ratio(sum(o[2] for o in occ), len(occ)),
                                 "count"),
        "occ.useful_ratio": (_ratio(occ_receipts, sum(o[1] for o in occ)),
                             "ratio"),
        "occ.validations_per_tx": (_ratio(sum(o[3] for o in occ),
                                          occ_receipts), "count"),
        "trie.update_ms": (_ratio(total["trie.update"] * ms, blocks),
                           "ms/block"),
        "trie.proof_us": (table.per("trie.account_proof"), "us/proof"),
        "storage.append_ms": (_ratio(
            self_ns["storage.append_block"] * ms, blocks), "ms/block"),
        "storage.digest_ms": (_ratio(total["storage.digest"] * ms, blocks),
                              "ms/block"),
        "storage.fsync_ms": (table.per("storage.fsync", ms), "ms/fsync"),
        "storage.snapshot_ms": (table.per("storage.snapshot", ms),
                                "ms/snapshot"),
        "recovery.replay_ms_per_block": (_ratio(
            recovery.total_ns["recovery.attach"] * ms, replayed),
            "ms/block"),
    }


def trace_metrics(untraced, traced) -> dict:
    """Every per-layer metric: spans of the traced pass, plus the load
    generator's own figures and the storage totals of the untraced pass
    (the traced pass would inflate restart time by its span cost)."""
    record = traced.record
    restart = traced.spans[1] if len(traced.spans) > 1 else []
    metrics = layer_metrics(traced.spans[0], restart, record.t0, record.t1)
    base = untraced.record
    window = base.t1 - base.t0
    # Each pass's rate is scaled by its own slowdown: the two passes
    # run at different times, and the host's speed may differ between them.
    untraced_tps = (len(base.window_commits()) / window
                    * slowdown(untraced.probe_ms, base.stolen_share))
    traced_tps = (len(record.window_commits()) / (record.t1 - record.t0)
                  * slowdown(traced.probe_ms, record.stolen_share))
    lags = [(r.sent - r.due) * 1000.0 for r in base.window_reads()]
    metrics.update({
        "storage.wal_bytes_per_tx": (_ratio(untraced.wal_bytes,
                                            untraced.committed), "B/tx"),
        "disk_bytes_per_tx": (_ratio(untraced.disk_bytes,
                                     untraced.committed), "B/tx"),
        "restart_s": (untraced.restart_s, "s"),
        "loadgen.cpu_share": (base.loadgen_cpu_s / window, "ratio"),
        "loadgen.read_lag_ms": (percentile(lags, 0.99) if lags else 0.0,
                                "ms"),
        "trace.tps_overhead": (1.0 - traced_tps / untraced_tps, "ratio"),
    })
    return metrics
