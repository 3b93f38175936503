"""Attack-regression and robustness tests for plan-based endorsement.

Two halves of the endorsement fan-out PR's safety story:

* **Attack regression** — the §IV-A attacks rely on the client's freedom
  to pick endorsers.  Plan-based collection must not change the threat
  model: a malicious client pinning favourable/colluding endorsers gets
  the same outcome through a plan as through the sequential path, and
  every defense that caught an attack before still catches it.
* **Escalation robustness** — a crashed endorser, a straggler beyond the
  wave timeout, and an exhausted candidate pool must each resolve the
  transaction future deterministically (escalate-and-commit or a typed
  :class:`EndorsementError`), with the episode visible in
  ``Tracer.summary(perf=True)``.
"""

from __future__ import annotations

import random

import pytest

from repro.chaincode.contracts import AssetContract, PrivateAssetContract
from repro.common.errors import (
    EndorsementPlanExhaustedError,
    EndorsementTimeoutError,
    ProposalResponseMismatchError,
)
from repro.common.tracing import PERF, Tracer
from repro.core.attacks.base import seed_private_value
from repro.core.attacks.ops import (
    ColludingPrivateAssetContract,
    favourable_endorsers,
)
from repro.core.attacks.scenarios import COLLECTION_LEVEL_POLICY
from repro.core.defense.features import FrameworkFeatures
from repro.identity.ca import reset_ca_instance_counter
from repro.identity.organization import Organization
from repro.network.channel import ChannelConfig
from repro.network.network import FabricNetwork
from repro.network.presets import three_org_network
from repro.protocol.proposal import reset_nonce_counter
from repro.protocol.transaction import ValidationCode
from repro.runtime import LatencyModel


def _endorsing_orgs(envelope) -> set[str]:
    return {e.endorser.msp_id for e in envelope.endorsements}


# ---------------------------------------------------------------------------
# attack regression: §IV-A must behave identically under the plan path
# ---------------------------------------------------------------------------
class TestPlanAttackRegression:
    def _colluding_net(self, fake_value: bytes = b"999"):
        """Three-org preset, genuine b"12" seeded, org1+org3 colluding."""
        net = three_org_network()
        net.network.install_chaincode(net.chaincode_id, PrivateAssetContract())
        seed_private_value(net, "k1", b"12")
        forged = ColludingPrivateAssetContract(fake_value)
        for org_num in (1, 3):
            net.peer_of(org_num).install_chaincode(net.chaincode_id, forged)
        return net

    def test_fake_read_injection_emerges_under_plan(self):
        """§IV-A1 through a plan: the forged read still commits VALID."""
        net = self._colluding_net()
        client = net.client_of(1)
        result = client.submit_transaction(
            net.chaincode_id,
            "get_private",
            [net.collection, "k1"],
            endorsing_peers=[net.peer_of(1), net.peer_of(3)],
            endorsement_plan=True,
        )
        assert result.committed
        assert result.payload == b"999"
        victim = net.peer_of(2)
        tx, flag = victim.ledger.blockchain.find_transaction(result.tx_id)
        assert flag is ValidationCode.VALID
        assert tx.payload.response.payload == b"999"
        # The genuine private value is untouched — the lie lives on-chain.
        assert victim.query_private(net.chaincode_id, net.collection, "k1") == b"12"

    def test_feature1_still_blocks_the_forged_read_under_plan(self):
        """§V-A6 defense: the plan's client-side quorum check cannot
        out-approve validation — the unsatisfiable pool is submitted
        anyway (legacy semantics) and validation rejects it."""
        net = three_org_network(
            collection_policy=COLLECTION_LEVEL_POLICY,
            features=FrameworkFeatures.feature1_only(),
        )
        net.network.install_chaincode(net.chaincode_id, PrivateAssetContract())
        seed_private_value(net, "k1", b"12")
        forged = ColludingPrivateAssetContract(b"999")
        for org_num in (1, 3):
            net.peer_of(org_num).install_chaincode(net.chaincode_id, forged)
        result = net.client_of(1).submit_transaction(
            net.chaincode_id,
            "get_private",
            [net.collection, "k1"],
            endorsing_peers=[net.peer_of(1), net.peer_of(3)],
            endorsement_plan=True,
        )
        assert result.status is ValidationCode.ENDORSEMENT_POLICY_FAILURE

    def test_favourable_endorser_selection_under_plan(self):
        """§IV-A2: a malicious client hands the planner a victim-free
        candidate pool; the plan dutifully commits the write without the
        victim ever endorsing."""
        net = three_org_network()
        net.network.install_chaincode(net.chaincode_id, PrivateAssetContract())
        chosen = favourable_endorsers(
            net.network.channel,
            net.network.features,
            net.chaincode_id,
            net.collection,
            list(net.peers.values()),
            random.Random(7),
            avoid_org="Org2MSP",
        )
        assert chosen is not None
        result = net.client_of(1).submit_transaction(
            net.chaincode_id,
            "set_private",
            [net.collection, "k1"],
            transient={"value": b"66"},
            endorsing_peers=chosen,
            endorsement_plan=True,
        )
        assert result.committed
        assert "Org2MSP" not in _endorsing_orgs(result.envelope)

    def test_divergent_endorser_inside_quorum_trips_mismatch(self):
        """A colluder inside the satisfying quorum that answers differently
        from the honest endorser is caught by the client consistency check
        before anything reaches the orderer."""
        net = three_org_network()
        net.network.install_chaincode(net.chaincode_id, PrivateAssetContract())
        seed_private_value(net, "k1", b"12")
        net.peer_of(2).install_chaincode(
            net.chaincode_id, ColludingPrivateAssetContract(b"666")
        )
        with pytest.raises(ProposalResponseMismatchError):
            net.client_of(1).submit_transaction(
                net.chaincode_id,
                "get_private",
                [net.collection, "k1"],
                endorsing_peers=[net.peer_of(1), net.peer_of(2)],
                endorsement_plan=True,
            )


# ---------------------------------------------------------------------------
# escalation robustness on the event runtime
# ---------------------------------------------------------------------------
def _majority_network(
    batch_size: int = 1, tracer: Tracer | None = None
) -> FabricNetwork:
    """Three orgs, one peer each, public chaincode, MAJORITY policy."""
    reset_nonce_counter()
    reset_ca_instance_counter()
    orgs = [Organization(f"Org{i}MSP") for i in (1, 2, 3)]
    channel = ChannelConfig(channel_id="planchan", organizations=orgs)
    channel.deploy_chaincode("assetcc", endorsement_policy="MAJORITY Endorsement")
    net = FabricNetwork(channel=channel, batch_size=batch_size, tracer=tracer)
    for org in orgs:
        net.add_peer(org.msp_id)
    net.install_chaincode("assetcc", AssetContract())
    return net


class TestPlanEscalationRobustness:
    def test_crashed_endorser_mid_plan_escalates_to_backup(self):
        tracer = Tracer()
        net = _majority_network(tracer=tracer)
        runtime = net.attach_runtime(seed=3)
        runtime.crash_peer("peer0.Org1MSP")
        PERF.reset()
        pending = net.client("Org1MSP").submit_async("assetcc", "create_asset", ["a", "1"])
        runtime.run()
        # The future resolves once every peer commits — bring the crashed
        # one back and let it replay the block it missed.
        runtime.restart_peer("peer0.Org1MSP")
        runtime.catch_up()
        runtime.run()
        result = pending.result()
        assert result.committed
        # The crashed primary never answered; the backup filled the quorum.
        assert _endorsing_orgs(result.envelope) == {"Org2MSP", "Org3MSP"}
        assert PERF.plan_timeouts == 1
        assert PERF.plan_escalations == 1
        summary = tracer.summary(perf=True)
        assert summary["endorse-timeout"] == 1
        assert summary["perf:plan_escalations"] == 1

    def test_straggler_beyond_timeout_is_escalated_past(self):
        """A link 12x slower than the wave timeout behaves like a crash:
        the plan escalates, commits without the straggler, and the late
        reply is discarded instead of disturbing the finished plan."""
        net = _majority_network()
        runtime = net.attach_runtime(
            seed=3,
            latency=LatencyModel(
                base=0.5, link_base={("client", "peer0.Org1MSP"): 60.0}
            ),
        )
        PERF.reset()
        pending = net.client("Org1MSP").submit_async("assetcc", "create_asset", ["s", "1"])
        runtime.run()  # drains past t=60: the straggler does reply, too late
        result = pending.result()
        assert result.committed
        assert _endorsing_orgs(result.envelope) == {"Org2MSP", "Org3MSP"}
        assert PERF.plan_timeouts == 1
        assert PERF.plan_failures == 0

    def test_plan_exhaustion_by_timeouts_raises_typed_error(self):
        tracer = Tracer()
        net = _majority_network(tracer=tracer)
        runtime = net.attach_runtime(seed=3)
        for peer in list(net.peers()):
            runtime.crash_peer(peer.name)
        PERF.reset()
        pending = net.client("Org1MSP").submit_async("assetcc", "create_asset", ["x", "1"])
        runtime.run()
        assert pending.done
        with pytest.raises(EndorsementTimeoutError) as excinfo:
            pending.result()
        assert len(excinfo.value.failures) == 3  # type: ignore[attr-defined]
        assert PERF.plan_failures == 1
        summary = tracer.summary(perf=True)
        assert summary["endorse-failed"] == 1
        assert summary["perf:plan_timeouts"] >= 1

    def test_plan_exhaustion_by_failures_raises_exhausted_error(self):
        """Endorsers that answer with an error (chaincode not installed)
        exhaust the plan without waiting for any timeout."""
        net = _majority_network()
        # Re-install on the first peer only: org2/org3 will refuse.
        net.install_chaincode("assetcc", AssetContract(), peers=[net.peers()[0]])
        for peer in net.peers()[1:]:
            peer._endorser._chaincodes.pop("assetcc")  # noqa: SLF001
        runtime = net.attach_runtime(seed=3)
        PERF.reset()
        pending = net.client("Org1MSP").submit_async("assetcc", "create_asset", ["y", "1"])
        runtime.run()
        assert pending.done
        with pytest.raises(EndorsementPlanExhaustedError) as excinfo:
            pending.result()
        assert set(excinfo.value.failures) == {  # type: ignore[attr-defined]
            "peer0.Org2MSP",
            "peer0.Org3MSP",
        }
        assert PERF.plan_failures == 1
        assert PERF.plan_escalations == 1

    def test_sync_plan_exhaustion_arrives_through_the_collector(self):
        """The synchronous submit runs its plan on the runtime's collector
        and raises the collector's typed error."""
        net = _majority_network()
        for peer in net.peers()[1:]:
            peer._endorser._chaincodes.pop("assetcc")  # noqa: SLF001
        with pytest.raises(EndorsementPlanExhaustedError) as excinfo:
            net.client("Org1MSP").submit_transaction("assetcc", "create_asset", ["z", "1"])
        assert set(excinfo.value.failures) == {  # type: ignore[attr-defined]
            "peer0.Org2MSP",
            "peer0.Org3MSP",
        }


# ---------------------------------------------------------------------------
# the per-call off switch: endorsement_plan=False restores sequential behaviour
# ---------------------------------------------------------------------------
class TestPlanDisabledChainIdentity:
    def test_disabled_plan_matches_explicit_sequential_chain(self):
        """With planning off, a default submit must produce a committed
        chain byte-identical to pinning the default endorsers explicitly."""

        def run(explicit: bool) -> list:
            net = _majority_network()
            client = net.client("Org1MSP")
            for i in range(4):
                client.submit_transaction(
                    "assetcc",
                    "create_asset",
                    [f"a{i}", str(i)],
                    endorsing_peers=(
                        list(net.default_endorsers()) if explicit else None
                    ),
                    endorsement_plan=False,
                ).raise_for_status()
            peer = net.peers()[0]
            return [
                (
                    [(tx.signed_bytes(), tx.signature) for tx in v.block.transactions],
                    [f.value for f in v.flags],
                )
                for v in peer.ledger.blockchain.blocks()
            ]

        assert run(explicit=False) == run(explicit=True)
