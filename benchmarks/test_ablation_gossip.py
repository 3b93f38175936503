"""Ablation — the gossip fast path (``gossip_batch=True`` + anti-entropy).

Three claims, each a committed gate in ``BENCH_gossip.json``:

* **Batched dissemination** — at full MaxPeerCount fan-out, a
  three-collection endorsement ships >= 3x fewer gossip wire messages
  per committed private write than the reference per-(collection,
  target) push path, at identical payload bytes.
* **Batched anti-entropy convergence** — repairing a blackout's gap
  backlog takes ~flat simulated time in the gap count: one digest
  exchange plus one multi-gap pull covers the whole backlog, where a
  per-gap probe loop would scale linearly.
* **Gossip equivalence** — across a multi-seed fault sweep, the batched
  leg commits a byte-identical history (state digest, blocks, per-op
  outcomes) to the reference leg under the same anti-entropy cadence.

Environment knobs:

* ``REPRO_BENCH_TX`` — operations per equivalence seed (default 60; CI
  quick mode passes a smaller count).
"""

from __future__ import annotations

import os

from repro.chaincode.api import Chaincode, require_args
from repro.chaincode.contracts import PrivateAssetContract
from repro.identity.ca import reset_ca_instance_counter
from repro.identity.organization import Organization
from repro.network.channel import ChannelConfig
from repro.network.collection import CollectionConfig
from repro.network.network import FabricNetwork
from repro.protocol.proposal import reset_nonce_counter
from repro.simulation.harness import run_gossip_equivalence

from _bench_utils import record, write_bench

COLLECTIONS = ("PDC1", "PDC2", "PDC3")


def _ops(default: int = 60) -> int:
    return int(os.environ.get("REPRO_BENCH_TX", default))


class ThreeCollectionContract(Chaincode):
    """One tx writes all three collections — the coalescing worst case
    for per-collection pushes, the best case for batching."""

    def set_all(self, stub, args):
        require_args(args, 1, "a key")
        (key,) = args
        value = stub.get_transient("value")
        for collection in COLLECTIONS:
            stub.put_private_data(collection, key, value)
        return b""


def _fanout_network(member_count: int = 5, gossip_batch: bool = False) -> FabricNetwork:
    """Every org a member of all three collections, uncapped fan-out."""
    reset_ca_instance_counter()
    reset_nonce_counter()
    orgs = [Organization(f"Org{i}MSP") for i in range(1, member_count + 1)]
    channel = ChannelConfig(channel_id="gossipbench", organizations=orgs)
    members = ", ".join(f"'{o.msp_id}.member'" for o in orgs)
    channel.deploy_chaincode(
        "multicc",
        endorsement_policy="MAJORITY Endorsement",
        collections=[
            CollectionConfig(
                name=name,
                policy=f"OR({members})",
                required_peer_count=0,
                max_peer_count=member_count,  # push to every other member
            )
            for name in COLLECTIONS
        ],
    )
    net = FabricNetwork(channel=channel, gossip_batch=gossip_batch)
    for org in orgs:
        net.add_peer(org.msp_id)
    net.install_chaincode("multicc", ThreeCollectionContract())
    return net


def _run_fanout_leg(gossip_batch: bool, tx_count: int = 10) -> dict:
    net = _fanout_network(gossip_batch=gossip_batch)
    endorsers = net.peers()[:3]
    client = net.client("Org1MSP")
    for i in range(tx_count):
        client.submit_transaction(
            "multicc", "set_all", [f"k{i}"],
            transient={"value": b"v" * 32}, endorsing_peers=endorsers,
        ).raise_for_status()
    wire_messages = (
        net.gossip.batched_payloads if gossip_batch else net.gossip.pushes
    )
    private_writes = tx_count * len(COLLECTIONS)
    return {
        "gossip_batch": gossip_batch,
        "txs": tx_count,
        "private_writes": private_writes,
        "records_pushed": net.gossip.pushes,
        "wire_messages": wire_messages,
        "messages_per_write": wire_messages / private_writes,
        "bytes_sent": net.gossip.bytes_sent,
    }


class TestBatchedFanoutMessageCost:
    def test_batching_cuts_wire_messages_3x_at_full_fanout(self, results_dir):
        reference = _run_fanout_leg(gossip_batch=False)
        batched = _run_fanout_leg(gossip_batch=True)
        # Same records reach the same peers; only the framing differs.
        assert batched["records_pushed"] == reference["records_pushed"]
        assert batched["bytes_sent"] == reference["bytes_sent"]
        ratio = reference["wire_messages"] / batched["wire_messages"]
        assert ratio >= 3.0  # one payload carries all three collections

        lines = [
            "Ablation — batched dissemination at full fan-out "
            "(5 member orgs, 3 collections, 3 endorsers)",
            f"{'mode':>10} {'wire msgs':>10} {'msgs/write':>11} {'bytes':>8}",
        ]
        for leg in (reference, batched):
            mode = "batched" if leg["gossip_batch"] else "reference"
            lines.append(
                f"{mode:>10} {leg['wire_messages']:>10} "
                f"{leg['messages_per_write']:>11.2f} {leg['bytes_sent']:>8}"
            )
        lines.append(f"message reduction: {ratio:.1f}x")
        record(results_dir, "ablation_gossip_fanout_batch", "\n".join(lines))
        _GATES["fanout"] = {
            "reference": reference,
            "batched": batched,
            "message_reduction": ratio,
            "gate": "reduction >= 3.0",
        }


def _converge_backlog(gap_count: int) -> dict:
    """Create ``gap_count`` gaps under a total gossip blackout, heal, and
    measure the anti-entropy loop's convergence in simulated seconds."""
    from repro.runtime import FaultInjector, LatencyModel
    from repro.runtime.runtime import GOSSIP_TOPICS

    reset_ca_instance_counter()
    reset_nonce_counter()
    orgs = [Organization(f"Org{i}MSP") for i in range(1, 4)]
    channel = ChannelConfig(channel_id="aebench", organizations=orgs)
    members = ", ".join(f"'{o.msp_id}.member'" for o in orgs)
    channel.deploy_chaincode(
        "pdccc",
        endorsement_policy="MAJORITY Endorsement",
        collections=[CollectionConfig(
            name="PDC1", policy=f"OR({members})",
            required_peer_count=0, max_peer_count=3,
        )],
    )
    net = FabricNetwork(
        channel=channel, gossip_batch=True, anti_entropy_every=2.0,
    )
    for org in orgs:
        net.add_peer(org.msp_id)
    net.install_chaincode("pdccc", PrivateAssetContract())
    runtime = net.attach_runtime(
        seed=17, latency=LatencyModel(base=1.0), faults=FaultInjector()
    )

    endorsers = [net.peers_of("Org1MSP")[0], net.peers_of("Org2MSP")[0]]
    client = net.client("Org1MSP")
    runtime.bus.faults.drop_topics(GOSSIP_TOPICS)
    for i in range(gap_count):
        client.submit_async(
            "pdccc", "set_private", ["PDC1", f"k{i}"],
            transient={"value": f"v{i}".encode()}, endorsing_peers=endorsers,
        )
    runtime.run()
    org3 = net.peers_of("Org3MSP")[0]
    assert len(org3.ledger.missing_private) == gap_count

    runtime.bus.faults.heal()
    engine = runtime.anti_entropy
    engine.reset_backoff()
    healed_at = runtime.now
    engine.arm()
    runtime.run()
    assert not org3.ledger.missing_private
    return {
        "gaps": gap_count,
        "sim_seconds_to_converge": runtime.now - healed_at,
        "digest_rounds": net.gossip.digest_rounds,
        "pull_requests": engine.pull_requests,
        "reconcile_pulls": net.gossip.reconcile_pulls,
    }


class TestAntiEntropyConvergenceScaling:
    def test_convergence_time_flat_in_gap_count(self, results_dir):
        small = _converge_backlog(20)
        big = _converge_backlog(80)
        assert big["reconcile_pulls"] == 80  # every gap repaired by pull
        # 4x the gaps, ~the same simulated time: the digest names every
        # repairable gap and ONE batched pull ships them all, so the
        # round-trip count — not the backlog size — sets the clock.
        assert (
            big["sim_seconds_to_converge"]
            <= 1.5 * small["sim_seconds_to_converge"]
        )

        lines = [
            "Ablation — anti-entropy convergence vs gap backlog "
            "(3 member orgs, blackout then heal)",
            f"{'gaps':>6} {'sim s':>7} {'digest rounds':>14} {'pulls':>6}",
        ]
        for leg in (small, big):
            lines.append(
                f"{leg['gaps']:>6} {leg['sim_seconds_to_converge']:>7.1f} "
                f"{leg['digest_rounds']:>14} {leg['reconcile_pulls']:>6}"
            )
        record(results_dir, "ablation_gossip_convergence", "\n".join(lines))
        _GATES["convergence"] = {
            "small": small,
            "big": big,
            "gate": "sim_seconds(4x gaps) <= 1.5 * sim_seconds(1x)",
        }


class TestGossipEquivalenceSweep:
    def test_multi_seed_equivalence(self, results_dir):
        ops = _ops()
        rows = []
        for seed in (1, 2, 3, 5, 8):
            report = run_gossip_equivalence(seed, ops)
            assert report.ok, [str(v) for v in report.violations]
            rows.append({
                "seed": seed,
                "ops": ops,
                "state_digest": report.reference.stats.get("state_digest"),
                "gossip_pushes": report.reference.stats.get("gossip_pushes"),
                "reference_messages": report.reference.stats.get("gossip_pushes"),
                "batched_messages": report.batched.stats.get("gossip_payloads"),
            })
        lines = [
            "Gossip equivalence — reference vs batched, same AE cadence",
            f"{'seed':>5} {'digest':>14} {'ref msgs':>9} {'batch msgs':>11}",
        ]
        for row in rows:
            lines.append(
                f"{row['seed']:>5} {row['state_digest'][:12]:>14} "
                f"{row['reference_messages']:>9} {row['batched_messages']:>11}"
            )
        record(results_dir, "gossip_equivalence_sweep", "\n".join(lines))
        _GATES["equivalence"] = {
            "seeds": [row["seed"] for row in rows],
            "ops_per_seed": ops,
            "rows": rows,
            "gate": "byte-identical state digest, blocks and op outcomes",
        }


#: Accumulated across the three tests above; the last one writes the
#: committed gate file (tests in this module run in definition order).
_GATES: dict = {}


class TestWriteGateFile:
    def test_write_bench_json(self):
        assert set(_GATES) == {"fanout", "convergence", "equivalence"}
        payload = {
            "bench": "gossip fast path ablation",
            "settings": {
                "gossip_batch": "batched dissemination",
                "anti_entropy_every": "digest-loop cadence (sim s)",
            },
            "gates": _GATES,
        }
        write_bench("gossip", payload)
