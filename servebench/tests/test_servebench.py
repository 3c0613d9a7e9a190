"""Fast tests of the benchmark itself.

    python3 -m pytest servebench/tests -q

A tiny pass of every workload must run clean and report every metric
BENCHMARK.json names; each output check must reject a tampered receipt,
position, balance, proof, root or restart head; the host-speed probe
must sample, scale as documented and stop.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {"warmup_s": 0.3, "setup_repeats": 1}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_pass_reports_every_metric(workload, trace):
    result = run.run_workload(workload, seed=7, seconds=1.0, trace=trace,
                              min_samples=1, **TINY)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    names = [m["name"] for m in
             SPEC["per_layer" if trace else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float | int), name
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.fixture(scope="module")
def observed():
    """Untampered observations of a tiny transfer and a tiny durable run."""
    out = {}
    for name, traffic in (("transfer_saturate", "transfer"),
                          ("contract_durable_rw", "mixed")):
        deployment, passes, failures = run.measure(name, 11, 1.0, False,
                                                   **TINY)
        assert failures == []
        out[traffic] = (deployment, passes[0].obs)
    return out


def _verify(observed, traffic, tamper):
    from repro.chain.node import Node

    deployment, obs = observed[traffic]
    obs = copy.deepcopy(obs)
    tamper(obs)
    return checks.verify(deployment.state, obs, traffic, Node().coinbase)


@pytest.mark.parametrize("traffic", ["transfer", "mixed"])
def test_untampered_observations_pass(observed, traffic):
    assert _verify(observed, traffic, lambda obs: None) == []


def _first_proof(obs):
    return next(r for r in obs.reads if r[0] == "proof")[2]


def _first_receipt_read(obs):
    return next(r for r in obs.reads if r[0] == "receipt")[2]


def _flip(hex_string: str, at: int = -1) -> str:
    digit = "0" if hex_string[at] != "0" else "1"
    return hex_string[:at] + digit + (hex_string[at + 1:] if at != -1 else "")


TAMPERS = {
    "receipt gas": lambda obs: obs.receipts[0].update(
        gasUsed=obs.receipts[0]["gasUsed"] + 1),
    "receipt status": lambda obs: obs.receipts[-1].update(
        success=not obs.receipts[-1]["success"]),
    "tx hash": lambda obs: obs.receipts[0].update(
        txHash=_flip(obs.receipts[0]["txHash"])),
    "duplicate position": lambda obs: obs.receipts[1].update(
        blockHeight=obs.receipts[0]["blockHeight"],
        txIndex=obs.receipts[0]["txIndex"]),
    "balance": lambda obs: obs.balances.update(
        {a: v + 1 for a, v in list(obs.balances.items())[:1]}),
    "proof bytes": lambda obs: _first_proof(obs).update(
        proof=_flip(_first_proof(obs)["proof"], 40)),
    "proof root": lambda obs: _first_proof(obs).update(
        stateRoot=_flip(_first_proof(obs)["stateRoot"])),
    "proof balance": lambda obs: _first_proof(obs).update(
        balance=_first_proof(obs)["balance"] + 1),
    "sealed root": lambda obs: obs.headers[-1].update(
        stateRoot=_flip(obs.headers[-1]["stateRoot"])),
    "receipt read": lambda obs: _first_receipt_read(obs).update(
        gasUsed=_first_receipt_read(obs)["gasUsed"] + 1),
}


@pytest.mark.parametrize("traffic", ["transfer", "mixed"])
@pytest.mark.parametrize("case", sorted(TAMPERS))
def test_each_check_rejects_tampering(observed, traffic, case):
    assert _verify(observed, traffic, TAMPERS[case]) != []


def test_restart_check_rejects_a_different_head(observed):
    def tamper(obs):
        before, after = obs.restart
        obs.restart = (before, dict(after, height=after["height"] - 1))

    assert _verify(observed, "mixed", tamper) != []
    assert observed["mixed"][1].restart is not None


@pytest.mark.parametrize("line", [
    b"", b'{"jsonrpc":"2.0","id":1,"res', b'{"jsonrpc":"2.0","id":1}\n',
    b'[1]\n', b'{"jsonrpc":"2.0","id":1,"error":{"code":-32000}}\n'])
def test_a_bad_reply_is_a_failed_operation(line):
    failures = []
    assert run._decode(line, failures, "tx 0") == (False, None)
    assert len(failures) == 1


def test_run_refuses_a_tree_without_the_program(tmp_path):
    import shutil
    import subprocess

    shutil.copytree(HERE, tmp_path / "servebench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "servebench/run.py", "--workload",
         SPEC["workloads"][0]["name"], "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_probe_samples_in_its_window_and_stops():
    p = probe.Probe()
    try:
        import time
        time.sleep(0.2)
        t0 = time.monotonic()
        time.sleep(0.6)
        t1 = time.monotonic()
    finally:
        p.stop()
    assert p.popen.returncode == 0
    assert all(ms > 0 for _start, ms in p.samples)
    assert p.median_ms(t0, t1) > 0
    with pytest.raises(RuntimeError):
        p.median_ms(t1 + 10, t1 + 20)


def test_slowdown_scales_speed_and_stolen_time():
    assert probe.slowdown(probe.REF_PROBE_MS, 0.0) == 1.0
    assert probe.slowdown(2 * probe.REF_PROBE_MS, 0.5) == 4.0
    busy, stolen = probe.cpu_ticks()
    assert busy > 0 and stolen >= 0
