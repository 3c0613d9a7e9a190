#!/usr/bin/env python3
"""``repro serve`` with spans around the public calls of each layer.

    PYTHONPATH=src python3 servebench/traced_serve.py --spans OUT -- \\
        --port 0 [repro serve arguments]

The launcher wraps the functions in :data:`TARGETS` before the server
starts, records one span per call (id, parent span on the same thread,
name, thread, start and end in ``time.monotonic_ns``, and for a few
calls a summary of the result), keeps the spans in memory, and writes
them to OUT as JSON lines when the server exits. The program itself is
unchanged: the wrappers only time the calls and pass them through.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import itertools
import json
import sys
import threading
import time


def _occ_summary(args, result):
    return [len(result.receipts), result.executions, result.aborts,
            result.validations]


def _block_size(args, result):
    return len(args[1].transactions)


def _replayed(args, result):
    return result.replayed_blocks if result is not None else 0


#: (module, function or Class.method, span name, result summary).
TARGETS = [
    ("repro.serve.protocol", "decode_frame", "rpc.decode_frame", None),
    ("repro.serve.protocol", "tx_from_wire", "rpc.tx_from_wire", None),
    ("repro.serve.protocol", "receipt_to_wire", "rpc.receipt_to_wire", None),
    ("repro.serve.protocol", "encode_frame", "rpc.encode_frame", None),
    ("repro.serve.batcher", "BlockBuilder.submit", "admit.submit", None),
    ("repro.chain.mempool", "Mempool.add", "mempool.add", None),
    ("repro.chain.mempool", "Mempool.take", "mempool.take", None),
    ("repro.chain.dag", "discover_access_sets", "dag.discover", None),
    ("repro.chain.dag", "build_dag_edges", "dag.build_edges", None),
    ("repro.chain.dag", "transitive_reduction", "dag.reduce", None),
    ("repro.chain.node", "Node.block_context", "node.block_context", None),
    ("repro.chain.node", "Node.propose_block", "node.propose_block", None),
    ("repro.chain.node", "Node.execute_block", "node.execute_block", None),
    ("repro.chain.node", "Node.execute_block_occ", "node.execute_block_occ",
     _occ_summary),
    ("repro.chain.node", "Node.commit_block", "node.commit_block",
     _block_size),
    ("repro.evm.interpreter", "EVM.execute_transaction", "evm.execute", None),
    ("repro.trie.state_trie", "StateTrie.update", "trie.update", None),
    ("repro.trie.state_trie", "StateTrie.account_proof", "trie.account_proof",
     None),
    ("repro.storage.store", "ChainStore.append_block",
     "storage.append_block", None),
    ("repro.storage.codec", "state_digest_bytes", "storage.digest", None),
    ("repro.storage.wal", "WalWriter.sync", "storage.fsync", None),
    ("repro.storage.snapshot", "write_snapshot", "storage.snapshot", None),
    ("repro.storage.recovery", "attach", "recovery.attach", _replayed),
]

#: Modules that import a target by name; loaded before patching so
#: every reference is replaced.
PRELOAD = ("repro.cli", "repro.serve.server", "repro.storage",
           "repro.parallel.speculate")


class Tracer:
    """In-memory spans; one parent stack per thread."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, name: str, fn, summary=None):
        spans, ids, local = self.spans, self._ids, self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = time.monotonic_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                spans.append((span_id, parent, name, threading.get_ident(),
                              start, time.monotonic_ns(), None))
                raise
            end = time.monotonic_ns()
            stack.pop()
            spans.append((span_id, parent, name, threading.get_ident(),
                          start, end,
                          summary(args, result) if summary else None))
            return result

        return traced

    def install(self) -> None:
        for module_name in PRELOAD:
            importlib.import_module(module_name)
        for module_name, qualname, name, summary in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = owner.__dict__[attr]
            wrapped = self.wrap(name, original, summary)
            setattr(owner, attr, wrapped)
            if owner_name:
                continue
            for other in list(sys.modules.values()):
                if getattr(other, attr, None) is original:
                    setattr(other, attr, wrapped)

    def write(self, path: str) -> None:
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span, separators=(",", ":")) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--spans", required=True)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    serve_args = args.serve_args
    if serve_args[:1] == ["--"]:
        serve_args = serve_args[1:]
    tracer = Tracer()
    tracer.install()
    from repro.cli import main as repro_main

    try:
        return repro_main(["serve", *serve_args])
    finally:
        tracer.write(args.spans)


if __name__ == "__main__":
    sys.exit(main())
