"""Ablation over the block-validation fast path.

Three modes, each a strict superset of the previous one's machinery:

* ``naive``    — plain ``pow()`` everywhere, no verdict memo (hence no
  signature pre-pass): both exponentiations of every signature are
  native calls.
* ``windowed`` — fixed-base window tables for the generator and every
  public key (``repro.common.multiexp``).
* ``memoized`` — plus the verdict memo and the pre-pass that fills it: a
  block's signatures are settled once, in one ``verify_batch`` call, and
  every later reader hits the memo.

The shared VSCC memo — the 2nd..Nth peer reuses the flag vector the
first peer computed for the same block — is on in every mode: it is the
validator's only path (its end-to-end share is ``peer.vscc_memo_hit_share``
in ``BENCHMARK.json``).

The workload is a 4-org / 8-peer network (two peers per org) with the
MAJORITY chaincode policy and pipelined submissions, so every block
carries several transactions each carrying 1 creator + 3 endorsement
signatures, and every block is validated by all 8 peers.

The validation-phase wall time comes from ``PERF.phase_seconds`` (the
peer times its validate/commit phases around ``deliver_block``).
Results land in two places: the rendered table under
``benchmarks/results/`` and the committed ``BENCH_validation.json`` at
the repo root (the CI artifact).

Environment knobs:

* ``REPRO_BENCH_TX`` — transactions per mode (default 48; CI quick mode
  passes a smaller count).
"""

from __future__ import annotations

import os

from repro.chaincode.contracts import AssetContract
from repro.common import crypto
from repro.common.tracing import PERF
from repro.identity.ca import reset_ca_instance_counter
from repro.identity.organization import Organization
from repro.network.channel import ChannelConfig
from repro.network.network import FabricNetwork
from repro.protocol.proposal import reset_nonce_counter

from _bench_utils import record, write_bench

ORGS = 4
PEERS_PER_ORG = 2
BATCH_SIZE = 6
DEPTH = 24

#: mode -> (fast path, verdict memo + pre-pass)
MODES: dict[str, tuple[bool, bool]] = {
    "naive": (False, False),
    "windowed": (True, False),
    "memoized": (True, True),
}


def _tx_count(default: int = 48) -> int:
    return int(os.environ.get("REPRO_BENCH_TX", default))


def _network() -> FabricNetwork:
    reset_ca_instance_counter()
    reset_nonce_counter()
    organizations = [Organization(f"Org{i}MSP") for i in range(1, ORGS + 1)]
    channel = ChannelConfig(channel_id="valchan", organizations=organizations)
    channel.deploy_chaincode("assetcc", endorsement_policy="MAJORITY Endorsement")
    net = FabricNetwork(channel=channel, batch_size=BATCH_SIZE)
    for org in organizations:
        for n in range(PEERS_PER_ORG):
            net.add_peer(org.msp_id, f"peer{n}")
    net.install_chaincode("assetcc", AssetContract())
    return net


def _run_mode(mode: str, transactions: int) -> dict:
    fast, cache = MODES[mode]
    crypto.set_fast_path(fast)
    crypto.set_verify_cache(cache)
    crypto.clear_caches()

    net = _network()
    runtime = net.attach_runtime(seed=0)
    client = net.client("Org1MSP")
    # MAJORITY of 4 orgs needs 3 endorsing orgs; endorse at one peer each.
    endorsers = [net.peers_of(f"Org{i}MSP")[0] for i in (1, 2, 3)]

    PERF.reset()
    pendings = []
    for i in range(transactions):
        pendings.append(
            client.submit_async(
                "assetcc", "create_asset", [f"a{i:05d}", "1"],
                endorsing_peers=endorsers,
            )
        )
        if runtime.in_flight() >= DEPTH:
            runtime.run()
    runtime.run()

    committed = sum(1 for p in pendings if p.done and p.result().committed)
    assert committed == transactions, f"{mode}: {committed}/{transactions} committed"
    heights = {peer.ledger.height for peer in net.peers()}
    assert len(heights) == 1, f"{mode}: peers diverged in height: {heights}"

    return {
        "mode": mode,
        "transactions": transactions,
        "blocks": net.orderer.blocks_delivered,
        "peers": ORGS * PEERS_PER_ORG,
        "validate_s": round(PERF.phase_seconds.get("validate", 0.0), 4),
        "commit_s": round(PERF.phase_seconds.get("commit", 0.0), 4),
        "verify_individual": PERF.verify_individual,
        "verify_cache_hits": PERF.verify_cache_hits,
        "modexp_full": PERF.modexp_full,
        "modexp_windowed": PERF.modexp_windowed,
        "vscc_memo_hits": PERF.vscc_memo_hits,
        "vscc_memo_misses": PERF.vscc_memo_misses,
    }


def test_validation_fastpath_ablation(results_dir):
    transactions = _tx_count()
    saved = {
        "fast": crypto.fast_path_enabled(),
        "cache": crypto.verify_cache_enabled(),
    }
    try:
        # Warm-up run: pay one-time costs (imports, key derivation) before
        # any mode is billed for them.
        _run_mode("memoized", min(transactions, 12))

        rows = [_run_mode(mode, transactions) for mode in MODES]
    finally:
        crypto.set_fast_path(saved["fast"])
        crypto.set_verify_cache(saved["cache"])
        crypto.clear_caches()

    by_mode = {row["mode"]: row for row in rows}
    naive_s = by_mode["naive"]["validate_s"]
    for row in rows:
        row["speedup_vs_naive"] = round(naive_s / row["validate_s"], 2) if row["validate_s"] else 0.0

    # Sanity: the fast path did what each mode claims.
    assert by_mode["naive"]["modexp_windowed"] == 0
    assert by_mode["naive"]["verify_cache_hits"] == 0
    assert by_mode["windowed"]["modexp_windowed"] > 0
    # Every signature the windowed mode re-verifies is decided once.
    memo_row = by_mode["memoized"]
    assert memo_row["verify_cache_hits"] > 0
    assert memo_row["verify_individual"] < by_mode["windowed"]["verify_individual"]
    # 8 peers, first validator misses, the other 7 hit: 7 hits per block.
    for row in rows:
        assert row["vscc_memo_hits"] == 7 * row["blocks"]

    # The CI gate: the memoized pre-pass must never *cost* throughput.
    assert memo_row["validate_s"] <= naive_s * 1.10, (
        f"memoized validation ({memo_row['validate_s']}s) is more than "
        f"10% slower than naive ({naive_s}s)"
    )
    # The acceptance criterion: ≥3x on the 4-org/8-peer workload.
    assert memo_row["speedup_vs_naive"] >= 3.0, (
        f"memoized speedup {memo_row['speedup_vs_naive']}x < 3x "
        f"(naive {naive_s}s vs {memo_row['validate_s']}s)"
    )

    lines = [
        "Ablation — block-validation fast path (4 orgs x 2 peers, MAJORITY)",
        f"{'mode':>9} {'txs':>5} {'blocks':>7} {'validate s':>11} {'speedup':>8} "
        f"{'verified':>9} {'cache':>7} {'memo':>6}",
    ]
    for row in rows:
        lines.append(
            f"{row['mode']:>9} {row['transactions']:>5} {row['blocks']:>7} "
            f"{row['validate_s']:>11.4f} {row['speedup_vs_naive']:>7.2f}x "
            f"{row['verify_individual']:>9} "
            f"{row['verify_cache_hits']:>7} {row['vscc_memo_hits']:>6}"
        )
    record(results_dir, "ablation_validation", "\n".join(lines))

    payload = {
        "workload": {
            "orgs": ORGS,
            "peers_per_org": PEERS_PER_ORG,
            "batch_size": BATCH_SIZE,
            "transactions": transactions,
            "policy": "MAJORITY Endorsement",
        },
        "rows": rows,
        "speedup_memoized_vs_naive": memo_row["speedup_vs_naive"],
    }
    write_bench("validation", payload)
