"""The benchmark's traffic mixes and the server each one runs against.

Every input is made from the workload seed before the server starts, by
the program's own load generator
(:func:`repro.serve.loadgen.make_transactions`): the server receives
only the generated transactions.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Genesis accounts on both sides (``repro serve --accounts``).
ACCOUNTS = 64
#: Open-loop read rate on every workload (requests per second, due on a
#: fixed grid).
READ_RATE = 80.0


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``transfer`` | ``mixed`` | ``dynamic``, as ``make_transactions``
    #: names them.
    traffic: str
    #: Extra ``repro serve`` arguments (``{data_dir}`` is substituted).
    server_args: tuple[str, ...]
    #: Closed-loop window: transactions in flight at any time.
    window: int
    #: Connections of the two the window is split over (reads ride the
    #: second).
    write_connections: int
    #: Upper bound on commit rate, sizing the pre-encoded frame pool.
    max_tps: float
    #: Committed transactions at which the server's peak RSS is read: a
    #: fixed amount of chain, so memory does not follow the host's speed.
    #: A run reaches it even on a host half as fast as the reference.
    rss_at: int
    #: True when the server runs on a data directory (restart measured).
    durable: bool = False


WORKLOADS = {
    "transfer_saturate": Workload(
        name="transfer_saturate",
        traffic="transfer",
        server_args=(),
        window=128,
        write_connections=2,
        max_tps=3500.0,
        rss_at=15000,
    ),
    "contract_durable_rw": Workload(
        name="contract_durable_rw",
        traffic="mixed",
        server_args=("--data-dir", "{data_dir}", "--fsync", "always"),
        window=24,
        write_connections=1,
        max_tps=600.0,
        rss_at=1200,
        durable=True,
    ),
    "dynamic_occ": Workload(
        name="dynamic_occ",
        traffic="dynamic",
        server_args=("--executor", "occ"),
        window=24,
        write_connections=1,
        max_tps=500.0,
        rss_at=1200,
    ),
}
