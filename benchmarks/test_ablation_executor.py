"""Workers-vs-throughput ablation over the execution backends (PR 6 tentpole).

Three legs run the *identical* validation-heavy workload under the
simulated-time :class:`~repro.runtime.executor.ValidationCostModel`:

* ``serial-1w``  — the reference: one worker, every signature verified
  in sequence; each block's validation service time is the full
  signature count.
* ``serial-4w``  — the modeled 4-way split: the serial backend computes
  every shard inline (byte-identical work), but the cost model charges
  the block the *makespan* of the 4-worker LPT shard plan — what a
  4-core peer would pay.
* ``process-4w`` — the real offload: the same shard plan executes on a
  ``multiprocessing`` pool, worker PERF deltas merge back into the
  parent, and the cost model charges the identical makespan.

The gated metric is **committed transactions per simulated second**.
The host this simulator runs on has no fixed core count (CI runners are
often single-core), so wall-clock speedup would measure the machine,
not the system; the discrete-event clock charges each block's
validation the service time of the shard plan that actually executed,
which is the paper-faithful quantity ("TPC-C on Hyperledger Fabric",
arXiv:2112.11277, measures multi-core peers as the deployment
baseline).  Wall seconds are still reported per leg for transparency.

The workload is validation-heavy by construction: 4 orgs x 2 peers,
12-transaction blocks, MAJORITY endorsement (3 signatures per tx plus
the creator's), and 8 distinct submitting clients so each block carries
many per-key signature groups for the planner to spread.

Cross-leg assertions pin the refactor's contract: byte-identical chains
(tx ids + flags per block), equal verification totals, simulated time
equal between ``serial-4w`` and ``process-4w`` (the cost model charges
the plan, not the mechanism), and real remote tasks in the process leg.

Environment knobs:

* ``REPRO_BENCH_TX`` — submit rounds per leg (default 36; CI quick mode
  passes a smaller count).
"""

from __future__ import annotations

import os
import time

from repro.chaincode.contracts import AssetContract
from repro.common import crypto
from repro.common.tracing import PERF
from repro.identity.ca import reset_ca_instance_counter
from repro.identity.organization import Organization
from repro.network.channel import ChannelConfig
from repro.network.network import FabricNetwork
from repro.protocol.proposal import reset_nonce_counter
from repro.runtime.executor import ValidationCostModel, reset_backend, set_backend

from _bench_utils import record, write_bench

ORGS = 4
PEERS_PER_ORG = 2
BATCH_SIZE = 12
CLIENTS = 8
DEPTH = 24

#: leg -> executor spec
LEGS: dict[str, str] = {
    "serial-1w": "serial:1",
    "serial-4w": "serial:4",
    "process-4w": "process:4",
}


def _rounds(default: int = 36) -> int:
    return int(os.environ.get("REPRO_BENCH_TX", default))


def _network() -> FabricNetwork:
    reset_ca_instance_counter()
    reset_nonce_counter()
    organizations = [Organization(f"Org{i}MSP") for i in range(1, ORGS + 1)]
    channel = ChannelConfig(channel_id="execchan", organizations=organizations)
    channel.deploy_chaincode("assetcc", endorsement_policy="MAJORITY Endorsement")
    net = FabricNetwork(channel=channel, batch_size=BATCH_SIZE)
    for org in organizations:
        for n in range(PEERS_PER_ORG):
            net.add_peer(org.msp_id, f"peer{n}")
    net.install_chaincode("assetcc", AssetContract())
    return net


def _chain_shape(net: FabricNetwork) -> list:
    peer = net.peers()[0]
    return [
        ([tx.tx_id for tx in v.block.transactions], [f.value for f in v.flags])
        for v in peer.ledger.blockchain.blocks()
    ]


def _run_leg(leg: str, rounds: int) -> dict:
    set_backend(LEGS[leg])
    # Identities replay across legs (counters reset), so verdicts must
    # not leak between legs; window tables stay warm — a shared one-time
    # substrate cost, not part of what the ablation varies.
    crypto.clear_verify_cache()

    net = _network()
    runtime = net.attach_runtime(seed=0, validate_cost=ValidationCostModel())
    clients = [
        net.client(f"Org{i % ORGS + 1}MSP", name=f"bench{i}") for i in range(CLIENTS)
    ]

    PERF.reset()
    started = time.perf_counter()
    pendings = []
    for i in range(rounds):
        pendings.append(
            clients[i % CLIENTS].submit_async("assetcc", "create_asset", [f"a{i:05d}", "1"])
        )
        if runtime.in_flight() >= DEPTH:
            runtime.run()
    runtime.run()
    wall_s = time.perf_counter() - started

    committed = sum(1 for p in pendings if p.done and p.result().committed)
    assert committed == rounds, f"{leg}: {committed}/{rounds} committed"
    heights = {peer.ledger.height for peer in net.peers()}
    assert len(heights) == 1, f"{leg}: peers diverged in height: {heights}"

    sim_s = runtime.now
    row = {
        "leg": leg,
        "executor": LEGS[leg],
        "rounds": rounds,
        "blocks": net.orderer.blocks_delivered,
        "sim_s": round(sim_s, 4),
        "wall_s": round(wall_s, 2),
        "committed_tx_per_sim_s": round(committed / sim_s, 4),
        "executor_tasks": PERF.executor_tasks,
        "executor_remote_tasks": PERF.executor_remote_tasks,
        "verify_individual": PERF.verify_individual,
        "verify_cache_hits": PERF.verify_cache_hits,
    }
    return row, _chain_shape(net)


def test_executor_ablation(results_dir):
    rounds = _rounds()
    try:
        # Warm-up: pay one-time costs (imports, key derivation, window
        # tables) before any leg is billed for them.
        _run_leg("serial-1w", min(rounds, BATCH_SIZE))

        rows, shapes = zip(*[_run_leg(leg, rounds) for leg in LEGS])
    finally:
        reset_backend()
        crypto.clear_caches()

    rows = list(rows)
    by_leg = {row["leg"]: row for row in rows}
    base = by_leg["serial-1w"]["committed_tx_per_sim_s"]
    for row in rows:
        row["speedup_vs_1w"] = round(row["committed_tx_per_sim_s"] / base, 2)

    # The parallel-equivalence contract, bench-side: every leg commits the
    # byte-identical chain and performs the same verification work.
    assert shapes[0] == shapes[1] == shapes[2], "legs committed different chains"
    verify_totals = {
        (row["verify_individual"], row["verify_cache_hits"]) for row in rows
    }
    assert len(verify_totals) == 1, f"verification totals diverged: {verify_totals}"

    # The cost model charges the shard plan, not the mechanism: the
    # modeled 4-way leg and the real pool land on the same simulated clock.
    assert by_leg["serial-4w"]["sim_s"] == by_leg["process-4w"]["sim_s"], (
        f"simulated time diverged between modeled and real offload: "
        f"{by_leg['serial-4w']['sim_s']} vs {by_leg['process-4w']['sim_s']}"
    )
    # The offload is real: worker processes executed shard/sign tasks.
    assert by_leg["process-4w"]["executor_remote_tasks"] > 0
    assert by_leg["serial-1w"]["executor_remote_tasks"] == 0
    assert by_leg["serial-4w"]["executor_remote_tasks"] == 0
    # One worker never shards, many workers do.
    assert by_leg["serial-1w"]["executor_tasks"] == 0
    assert by_leg["serial-4w"]["executor_tasks"] > 0

    # The acceptance gate: >=2x committed-tx per simulated second at 4
    # workers vs 1 on this validation-heavy workload.
    for leg in ("serial-4w", "process-4w"):
        assert by_leg[leg]["speedup_vs_1w"] >= 2.0, (
            f"{leg} speedup {by_leg[leg]['speedup_vs_1w']}x < 2x "
            f"({base} vs {by_leg[leg]['committed_tx_per_sim_s']} tx/sim-s)"
        )

    lines = [
        f"Ablation — execution backends ({ORGS} orgs x {PEERS_PER_ORG} peers, "
        f"{BATCH_SIZE}-tx blocks, MAJORITY, {CLIENTS} clients)",
        f"{'leg':>11} {'rounds':>7} {'blocks':>7} {'sim s':>9} {'tx/sim-s':>9} "
        f"{'speedup':>8} {'wall s':>7} {'tasks':>6} {'remote':>7}",
    ]
    for row in rows:
        lines.append(
            f"{row['leg']:>11} {row['rounds']:>7} {row['blocks']:>7} "
            f"{row['sim_s']:>9.2f} {row['committed_tx_per_sim_s']:>9.4f} "
            f"{row['speedup_vs_1w']:>7.2f}x {row['wall_s']:>7.2f} "
            f"{row['executor_tasks']:>6} {row['executor_remote_tasks']:>7}"
        )
    record(results_dir, "ablation_executor", "\n".join(lines))

    payload = {
        "workload": {
            "orgs": ORGS,
            "peers_per_org": PEERS_PER_ORG,
            "batch_size": BATCH_SIZE,
            "clients": CLIENTS,
            "rounds": rounds,
            "policy": "MAJORITY Endorsement",
            "cost_model": {"per_signature": 1.0, "per_transaction": 0.25},
        },
        "metric": "committed transactions per simulated second",
        "rows": rows,
        "speedup_4w_vs_1w": by_leg["serial-4w"]["speedup_vs_1w"],
    }
    write_bench("executor", payload)
