"""Output checks, computed apart from the serve path.

Each check compares what the server replied with something the
benchmark works out on its own: transaction hashes from the sent
transactions, a fresh sequential replay of the served block positions
(:meth:`repro.chain.node.Node.execute_block`, the reference every
executor must equal), a from-scratch trie root, plain balance
arithmetic, and the stand-alone proof verifier. Every check returns a
list of failure messages; each message is one failed operation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Gas of a plain value transfer to an account without code.
TRANSFER_GAS_USED = 21_000


@dataclass
class Observed:
    """What the server said, decoded from its JSON replies."""

    #: Sent transactions, in send order, and their reply ``result``s.
    txs: list
    receipts: list[dict]
    #: ``(kind, target, result)`` per read; kind is "proof"/"receipt".
    reads: list[tuple] = field(default_factory=list)
    #: ``repro_getBlock`` results for heights 1..H, in order.
    headers: list[dict] = field(default_factory=list)
    #: ``repro_getBalance`` after the load, by address.
    balances: dict[int, int] = field(default_factory=dict)
    #: ``repro_getBlock("latest")`` before a restart and after it.
    restart: tuple[dict, dict] | None = None


def expected_receipt(receipt, height: int, index: int) -> dict:
    """The JSON a correct server sends for *receipt* at its position."""
    return {
        "txHash": receipt.tx_hash.hex(),
        "success": receipt.success,
        "gasUsed": receipt.gas_used,
        "output": receipt.output.hex(),
        "logs": [
            {"address": log.address, "topics": list(log.topics),
             "data": log.data.hex()}
            for log in receipt.logs
        ],
        "contractAddress": receipt.contract_address,
        "error": receipt.error,
        "blockHeight": height,
        "txIndex": index,
    }


def check_hashes(obs: Observed) -> list[str]:
    """Each reply names the hash of the transaction it answers."""
    return [
        f"tx {i}: reply hash {reply.get('txHash')} is not the hash sent"
        for i, (tx, reply) in enumerate(zip(obs.txs, obs.receipts))
        if reply.get("txHash") != tx.hash().hex()
    ]


def tile_positions(obs: Observed):
    """Sent-transaction indices per height, from the replies' positions.

    Returns ``(blocks, failures)``. The positions must tile heights
    1..H (H = number of served headers) with no gap or duplicate, and
    each height must hold as many transactions as its header says.
    """
    failures = []
    slots: dict = {}
    for i, reply in enumerate(obs.receipts):
        at = slots.setdefault(reply.get("blockHeight"), {})
        index = reply.get("txIndex")
        if index in at:
            failures.append(f"tx {i}: position ({reply.get('blockHeight')}"
                            f", {index}) is also tx {at[index]}'s")
        at[index] = i
    top = len(obs.headers)
    stray = set(slots) - set(range(1, top + 1))
    if stray:
        failures.append(f"positions name heights {sorted(stray, key=str)[:5]}"
                        f" outside 1..{top}")
    blocks = []
    for height in range(1, top + 1):
        at = slots.get(height, {})
        declared = obs.headers[height - 1]["transactions"]
        if sorted(at) != list(range(declared)):
            failures.append(f"height {height}: positions {sorted(at)[:8]} "
                            f"do not tile its {declared} transactions")
        blocks.append([at[k] for k in sorted(at)])
    return blocks, failures


def _verify_proofs(obs: Observed):
    """Verify every proof read; returns ``(by_root, failures)``."""
    from repro.trie.verify import verify_proof_blob

    by_root: dict[str, list] = {}
    failures = []
    for kind, target, result in obs.reads:
        if kind != "proof":
            continue
        try:
            proof, ok = verify_proof_blob(bytes.fromhex(result["proof"]),
                                          bytes.fromhex(result["stateRoot"]))
        except Exception as exc:  # a malformed reply is a failed read
            failures.append(f"proof of {target:#x}: {exc!r}")
            continue
        if not ok or proof.address != target:
            failures.append(f"proof of {target:#x} does not verify against "
                            f"{result['stateRoot'][:16]}")
        elif (proof.balance, proof.nonce) != (result["balance"],
                                               result["nonce"]):
            failures.append(f"proof of {target:#x}: reply fields differ "
                            "from the proven leaf")
        else:
            by_root.setdefault(result["stateRoot"], []).append(proof)
    return by_root, failures


def replay(genesis, obs: Observed, blocks):
    """Re-execute the served blocks sequentially on a copy of *genesis*.

    Every receipt, block hash and sealed state root must equal what was
    served. Every proof read must verify against a root that some block
    (or genesis) sealed, and prove the replay's balance and nonce at
    that height. Returns ``(node, failures)``.
    """
    from repro.chain.node import Node

    proofs, failures = _verify_proofs(obs)
    node = Node(state=genesis.copy())

    def settle(root_hex: str) -> None:
        for proof in proofs.pop(root_hex, ()):
            replayed = (node.state.get_balance(proof.address),
                        node.state.get_nonce(proof.address))
            if replayed != (proof.balance, proof.nonce):
                failures.append(
                    f"proof of {proof.address:#x} at {root_hex[:16]} "
                    f"proves {(proof.balance, proof.nonce)}, replay has "
                    f"{replayed}")

    settle(node.state_root.hex())
    for height, (indices, header) in enumerate(zip(blocks, obs.headers), 1):
        block = node.propose_block(
            transactions=[obs.txs[i] for i in indices], executor="occ")
        receipts = node.execute_block(block)
        for position, (i, receipt) in enumerate(zip(indices, receipts)):
            if obs.receipts[i] != expected_receipt(receipt, height,
                                                   position):
                failures.append(f"tx {i}: served receipt differs from the "
                                "sequential replay")
        sealed = block.header.state_root.hex()
        if (block.hash().hex(), sealed) != (header["hash"],
                                           header["stateRoot"]):
            failures.append(f"height {height}: served header differs from "
                            "the sequential replay")
        settle(sealed)
    for root_hex, pending in proofs.items():
        failures.extend(f"proof of {proof.address:#x} names root "
                        f"{root_hex[:16]}, which no block sealed"
                        for proof in pending)
    return node, failures


def check_final_root(node, obs: Observed) -> list[str]:
    """The head root equals a from-scratch rebuild of the replayed state."""
    from repro.trie import StateTrie

    rebuilt = StateTrie.rebuild_root(node.state).hex()
    head = obs.headers[-1]["stateRoot"] if obs.headers else node.state_root.hex()
    return [] if rebuilt == head else [
        f"head root {head[:16]} is not the rebuilt root {rebuilt[:16]}"]


def expected_transfer_balances(genesis, txs, coinbase: int) -> dict[int, int]:
    """Balances after *txs* by plain arithmetic: each transfer moves its
    value and pays 21 000 gas at its gas price to the coinbase."""
    balances: dict[int, int] = {}

    def add(address: int, amount: int) -> None:
        if address not in balances:
            balances[address] = genesis.get_balance(address)
        balances[address] += amount

    for tx in txs:
        fee = TRANSFER_GAS_USED * tx.gas_price
        add(tx.sender, -tx.value - fee)
        add(tx.to, tx.value)
        add(coinbase, fee)
    return balances


def check_balances(expected: dict[int, int], obs: Observed) -> list[str]:
    return [
        f"balance of {address:#x}: served {obs.balances.get(address)}, "
        f"expected {value}"
        for address, value in sorted(expected.items())
        if obs.balances.get(address) != value
    ]


def check_conservation(genesis, node, obs: Observed) -> list[str]:
    """Total ether is conserved, and every served balance equals the
    replay's (so the served total is the genesis total too)."""
    failures = []
    before = sum(genesis.get_balance(a) for a in genesis.addresses())
    after = sum(node.state.get_balance(a) for a in node.state.addresses())
    if before != after:
        failures.append(f"replayed ether {after} is not genesis {before}")
    replayed = {a: node.state.get_balance(a) for a in node.state.addresses()}
    missing = set(replayed) - set(obs.balances)
    if missing:
        failures.append(f"{len(missing)} replayed accounts were not read")
    failures.extend(check_balances(
        {a: v for a, v in replayed.items() if a in obs.balances}, obs))
    return failures


def check_receipt_reads(obs: Observed) -> list[str]:
    """A receipt read returns exactly the acknowledged receipt."""
    return [
        f"getReceipt of tx {target} differs from its acknowledgement"
        for kind, target, result in obs.reads
        if kind == "receipt" and result != obs.receipts[target]
    ]


def check_restart(obs: Observed) -> list[str]:
    if obs.restart is None:
        return []
    before, after = obs.restart
    keys = ("height", "hash", "stateRoot")
    if any(before.get(k) != (after or {}).get(k) for k in keys):
        return [f"restart head {after} is not the head before it {before}"]
    return []


def verify(genesis, obs: Observed, traffic: str, coinbase: int) -> list[str]:
    """Every check above; returns the failures (empty when correct)."""
    failures = check_hashes(obs)
    blocks, tiling = tile_positions(obs)
    failures += tiling
    node, replayed = replay(genesis, obs, blocks)
    failures += replayed
    failures += check_final_root(node, obs)
    if traffic == "transfer":
        # Accounts no transfer touched keep their genesis balance.
        expected = {a: genesis.get_balance(a) for a in obs.balances}
        expected.update(
            expected_transfer_balances(genesis, obs.txs, coinbase))
        failures += check_balances(expected, obs)
    else:
        failures += check_conservation(genesis, node, obs)
    failures += check_receipt_reads(obs)
    failures += check_restart(obs)
    return failures
