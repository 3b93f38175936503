"""Tests for private data dissemination and reconciliation."""

from __future__ import annotations

import zlib

import pytest

from repro.chaincode.api import require_args
from repro.chaincode.contracts import PrivateAssetContract
from repro.common.errors import ConfigError, GossipError
from repro.identity.organization import Organization
from repro.network.channel import ChannelConfig
from repro.network.collection import CollectionConfig
from repro.network.network import FabricNetwork
from repro.network.presets import wide_member_network


class _WriteEveryCollection(PrivateAssetContract):
    """``set_all`` writes one key into every listed collection in one tx."""

    def set_all(self, stub, args):
        require_args(args, 2, "a key and the collections")
        key, collections = args
        for collection in collections.split(","):
            stub.put_private_data(collection, key, stub.get_transient("value"))
        return b""


def _network(required_peer_count=0, max_peer_count=3, member_orgs=("Org1MSP", "Org2MSP"),
             org_count=3, btl=0, collections=("PDC1",), **net_kwargs):
    orgs = [Organization(f"Org{i}MSP") for i in range(1, org_count + 1)]
    channel = ChannelConfig(channel_id="gossipchannel", organizations=orgs)
    members = ", ".join(f"'{o}.member'" for o in member_orgs)
    channel.deploy_chaincode(
        "pdccc",
        endorsement_policy="MAJORITY Endorsement",
        collections=[
            CollectionConfig(
                name=name,
                policy=f"OR({members})",
                required_peer_count=required_peer_count,
                max_peer_count=max_peer_count,
                block_to_live=btl,
            )
            for name in collections
        ],
    )
    net = FabricNetwork(channel=channel, **net_kwargs)
    for org in orgs:
        net.add_peer(org.msp_id)
    net.install_chaincode("pdccc", PrivateAssetContract())
    return net


class TestDissemination:
    def test_endorser_pushes_to_other_members(self):
        net = _network()
        p1, p2 = net.peers_of("Org1MSP")[0], net.peers_of("Org2MSP")[0]
        net.client("Org1MSP").submit_transaction(
            "pdccc", "set_private", ["PDC1", "k"],
            transient={"value": b"S"}, endorsing_peers=[p1, p2],
        ).raise_for_status()
        assert p2.query_private("pdccc", "PDC1", "k") == b"S"

    def test_single_endorser_still_reaches_members(self):
        """org2 never endorses, yet gossip delivers the plaintext to it."""
        net = _network(member_orgs=("Org1MSP", "Org2MSP", "Org3MSP"))
        p1, p3 = net.peers_of("Org1MSP")[0], net.peers_of("Org3MSP")[0]
        net.client("Org1MSP").submit_transaction(
            "pdccc", "set_private", ["PDC1", "k"],
            transient={"value": b"S"}, endorsing_peers=[p1, p3],
        ).raise_for_status()
        assert net.peers_of("Org2MSP")[0].query_private("pdccc", "PDC1", "k") == b"S"

    def test_nonmember_endorser_disseminates_to_members(self):
        """A write-only tx endorsed ONLY by a non-member still lands at
        members — the path the fake-write attack rides on."""
        net = _network(member_orgs=("Org1MSP", "Org2MSP"))
        p3 = net.peers_of("Org3MSP")[0]
        output = net.request_endorsement(
            p3,
            net.client("Org3MSP")._proposal(
                "pdccc", "set_private", ["PDC1", "k"], {"value": b"X"}
            ),
        )
        assert output.private_writes
        net.runtime.run()  # the pushes ride the bus
        # Members received the plaintext into their transient stores.
        for org in ("Org1MSP", "Org2MSP"):
            peer = net.peers_of(org)[0]
            assert len(peer.ledger.transient_store) == 1

    def test_required_peer_count_unreachable_fails(self):
        net = _network(required_peer_count=3)  # only 1 other member exists
        p1 = net.peers_of("Org1MSP")[0]
        with pytest.raises(GossipError):
            net.request_endorsement(
                p1,
                net.client("Org1MSP")._proposal(
                    "pdccc", "set_private", ["PDC1", "k"], {"value": b"S"}
                ),
            )

    def test_max_peer_count_caps_fanout(self):
        net = _network(max_peer_count=0)
        p1 = net.peers_of("Org1MSP")[0]
        net.request_endorsement(
            p1,
            net.client("Org1MSP")._proposal(
                "pdccc", "set_private", ["PDC1", "k"], {"value": b"S"}
            ),
        )
        assert net.gossip.pushes == 0

    def test_member_peers_lookup(self):
        net = _network()
        members = net.gossip.member_peers("pdccc", "PDC1")
        assert {p.msp_id for p in members} == {"Org1MSP", "Org2MSP"}


class TestPushTargetsIgnorePriorTraffic:
    """The push set is a function of the run seed and the tx id, and tx
    ids come from process-global counters: the fan-out ablation's network
    pushes to the same members whatever ran earlier in the process."""

    @staticmethod
    def _holders_at_commit(max_peer_count: int) -> list[str]:
        """Peers holding the plaintext when the block commits: the three
        endorsers plus their push targets (the rest record a gap)."""
        net = wide_member_network(max_peer_count).network
        net.client("Org1MSP").submit_transaction(
            "pdccc", "set_private", ["PDC1", "k"],
            transient={"value": b"v"}, endorsing_peers=net.peers()[:3],
        ).raise_for_status()
        return sorted(p.name for p in net.peers() if not p.ledger.missing_private)

    @pytest.mark.parametrize("max_peer_count", [1, 2])
    def test_same_targets_alone_and_after_other_traffic(self, max_peer_count):
        alone = self._holders_at_commit(max_peer_count)
        other = _network()
        other.client("Org1MSP").submit_transaction(
            "pdccc", "set_private", ["PDC1", "elsewhere"],
            transient={"value": b"w"}, endorsing_peers=other.peers()[:2],
        ).raise_for_status()
        assert self._holders_at_commit(max_peer_count) == alone


class TestReconciliation:
    def test_missing_data_recorded_and_repaired(self):
        """org2 misses the push (MaxPeerCount=0) but reconciles later."""
        net = _network(max_peer_count=0)
        p1, p2 = net.peers_of("Org1MSP")[0], net.peers_of("Org2MSP")[0]
        net.client("Org1MSP").submit_transaction(
            "pdccc", "set_private", ["PDC1", "k"],
            transient={"value": b"S"}, endorsing_peers=[p1, p2],
        ).raise_for_status()
        # Both endorsed, so both have it; now a third member that didn't
        # endorse and never got gossip is the interesting case — rebuild
        # with org2 not endorsing:
        net = _network(max_peer_count=0)
        p1, p2 = net.peers_of("Org1MSP")[0], net.peers_of("Org2MSP")[0]
        extra = net.add_peer("Org1MSP", "peer1")
        net.install_chaincode("pdccc", PrivateAssetContract(), peers=[extra])
        net.client("Org1MSP").submit_transaction(
            "pdccc", "set_private", ["PDC1", "k"],
            transient={"value": b"S"}, endorsing_peers=[p1, p2],
        ).raise_for_status()
        assert extra.query_private("pdccc", "PDC1", "k") is None
        assert extra.ledger.missing_private
        repaired = net.reconcile_private_data()
        assert repaired == 1
        assert extra.query_private("pdccc", "PDC1", "k") == b"S"
        assert not extra.ledger.missing_private

    def test_reconcile_noop_when_nothing_missing(self):
        net = _network()
        p1, p2 = net.peers_of("Org1MSP")[0], net.peers_of("Org2MSP")[0]
        net.client("Org1MSP").submit_transaction(
            "pdccc", "set_private", ["PDC1", "k"],
            transient={"value": b"S"}, endorsing_peers=[p1, p2],
        ).raise_for_status()
        assert net.reconcile_private_data() == 0

    def test_reconciled_peer_can_serve_others(self):
        net = _network(max_peer_count=0)
        p1, p2 = net.peers_of("Org1MSP")[0], net.peers_of("Org2MSP")[0]
        extra = net.add_peer("Org2MSP", "peer1")
        net.install_chaincode("pdccc", PrivateAssetContract(), peers=[extra])
        result = net.client("Org1MSP").submit_transaction(
            "pdccc", "set_private", ["PDC1", "k"],
            transient={"value": b"S"}, endorsing_peers=[p1, p2],
        )
        net.reconcile_private_data()
        assert extra.serve_private_batch(((result.tx_id, "pdccc", "PDC1"),))


class TestReconciliationUnderFaults:
    """Reconciliation repairing gossip lost to injected faults.

    These drive the event runtime: gossip pushes travel as scheduled
    messages, a fault injector eats them, and the repair engine must fix
    exactly the gaps the faults created — without rolling committed
    state backwards (the staleness rule).
    """

    def _runtime_network(self, member_orgs=("Org1MSP", "Org2MSP", "Org3MSP")):
        from repro.identity.ca import reset_ca_instance_counter
        from repro.protocol.proposal import reset_nonce_counter
        from repro.runtime import FaultInjector, LatencyModel

        reset_nonce_counter()
        reset_ca_instance_counter()
        net = _network(member_orgs=member_orgs, org_count=3)
        runtime = net.attach_runtime(
            seed=5, latency=LatencyModel(base=1.0), faults=FaultInjector()
        )
        return net, runtime

    def test_gossip_blackout_then_heal_reconciles_exact_count(self):
        net, runtime = self._runtime_network()
        # Two endorsing member orgs satisfy MAJORITY-of-3; org3 is a member
        # that depends entirely on the gossip pushes we are dropping.
        endorsers = [net.peers_of("Org1MSP")[0], net.peers_of("Org2MSP")[0]]
        client = net.client("Org1MSP")

        runtime.bus.faults.drop_topic("gossip-batch")
        for i in range(4):
            client.submit_async(
                "pdccc", "set_private", ["PDC1", f"k{i}"],
                transient={"value": f"v{i}".encode()},
                endorsing_peers=endorsers,
            )
        runtime.run()

        org3 = net.peers_of("Org3MSP")[0]
        assert len(org3.ledger.missing_private) == 4
        assert org3.query_private("pdccc", "PDC1", "k0") is None

        runtime.bus.faults.heal()
        repaired = net.reconcile_private_data()
        assert repaired == 4  # exactly the gaps the blackout created
        assert not org3.ledger.missing_private
        for i in range(4):
            assert org3.query_private("pdccc", "PDC1", f"k{i}") == f"v{i}".encode()
        # A second sweep finds nothing left to do.
        assert net.reconcile_private_data() == 0

    def test_reconcile_does_not_roll_back_newer_writes(self):
        """Regression: a reconciled old write must not clobber a newer one.

        org2 misses the gossip for the first write of a key but receives
        the second; reconciling the first transaction later must leave
        the newer value in place (the committed hashes have moved on).
        """
        net, runtime = self._runtime_network(member_orgs=("Org1MSP", "Org2MSP"))
        # org3 is a non-member whose write-only endorsement satisfies
        # MAJORITY without ever pushing plaintext toward org2.
        endorsers = [net.peers_of("Org1MSP")[0], net.peers_of("Org3MSP")[0]]
        org2 = net.peers_of("Org2MSP")[0]
        client = net.client("Org1MSP")

        runtime.bus.faults.drop_topic("gossip-batch")
        client.submit_async("pdccc", "set_private", ["PDC1", "k"],
                            transient={"value": b"old"}, endorsing_peers=endorsers)
        runtime.run()
        runtime.bus.faults.heal()
        client.submit_async("pdccc", "set_private", ["PDC1", "k"],
                            transient={"value": b"new"}, endorsing_peers=endorsers)
        runtime.run()

        assert org2.query_private("pdccc", "PDC1", "k") == b"new"
        assert org2.ledger.missing_private  # the first tx is still a gap
        net.reconcile_private_data()
        assert not org2.ledger.missing_private
        assert org2.query_private("pdccc", "PDC1", "k") == b"new"

    @pytest.fixture(params=["memory", "wal"])
    def gapped(self, request, tmp_path):
        """Org1 and Org2 are members, MaxPeerCount=0: an extra Org1 peer
        that did not endorse records a gap for the one private write."""
        from repro.runtime import FaultInjector

        _reset_counters()
        net = _network(max_peer_count=0, state_backend=request.param,
                       state_dir=str(tmp_path))
        runtime = net.attach_runtime(seed=5, faults=FaultInjector())
        sources = [net.peers_of("Org1MSP")[0], net.peers_of("Org2MSP")[0]]
        extra = net.add_peer("Org1MSP", "peer1")
        net.install_chaincode("pdccc", PrivateAssetContract(), peers=[extra])
        net.client("Org1MSP").submit_transaction(
            "pdccc", "set_private", ["PDC1", "k"],
            transient={"value": b"S"}, endorsing_peers=sources,
        ).raise_for_status()
        assert len(extra.ledger.missing_private) == 1
        return net, runtime, sources, extra

    def test_crashed_sources_serve_nothing(self, gapped):
        """A dead process holds the plaintext but cannot serve it: with
        every member source down the gap stays recorded until restart."""
        net, runtime, sources, extra = gapped
        for source in sources:
            runtime.crash_peer(source.name)
        assert net.reconcile_private_data() == 0
        assert len(extra.ledger.missing_private) == 1
        assert extra.query_private("pdccc", "PDC1", "k") is None

        for source in sources:
            runtime.restart_peer(source.name)
        assert net.reconcile_private_data() == 1
        assert not extra.ledger.missing_private
        assert extra.query_private("pdccc", "PDC1", "k") == b"S"

    def test_crashed_requester_is_not_written(self, gapped):
        """A down requester neither asks nor applies: nothing reaches its
        closed stores, and the gap repairs once it is back."""
        net, runtime, _sources, extra = gapped
        runtime.crash_peer(extra.name)
        assert net.reconcile_private_data() == 0

        runtime.restart_peer(extra.name)
        assert len(extra.ledger.missing_private) == 1
        assert extra.query_private("pdccc", "PDC1", "k") is None
        assert net.reconcile_private_data() == 1
        assert extra.query_private("pdccc", "PDC1", "k") == b"S"

    def test_dropped_repair_topic_ends_the_sweep_empty(self, gapped):
        """With pull responses dropped every source backs off: the sweep
        returns 0 instead of looping, and repairs once the topic heals."""
        from repro.gossip.anti_entropy import TOPIC_AE_PULL_RESPONSE

        net, runtime, _sources, extra = gapped
        runtime.bus.faults.drop_topic(TOPIC_AE_PULL_RESPONSE)
        assert net.reconcile_private_data() == 0
        assert runtime.anti_entropy.pull_requests >= 1
        assert runtime.bus.messages_dropped >= 1
        assert len(extra.ledger.missing_private) == 1

        runtime.bus.faults.heal()
        assert net.reconcile_private_data() == 1
        assert not extra.ledger.missing_private

    def test_one_sweep_reaches_the_fixpoint(self, gapped):
        """Gaps at two peers over several blocks: one call repairs them
        all, so a second call finds nothing."""
        net, runtime, sources, extra = gapped
        other = net.add_peer("Org2MSP", "peer1")
        net.install_chaincode("pdccc", PrivateAssetContract(), peers=[other])
        for i in range(3):
            net.client("Org1MSP").submit_transaction(
                "pdccc", "set_private", ["PDC1", f"k{i}"],
                transient={"value": f"v{i}".encode()}, endorsing_peers=sources,
            ).raise_for_status()
        gaps = len(extra.ledger.missing_private) + len(other.ledger.missing_private)
        assert gaps == 8  # four PDC blocks, no push reaches either peer
        assert net.reconcile_private_data() == gaps
        assert net.reconcile_private_data() == 0
        for peer in (extra, other):
            assert not peer.ledger.missing_private
            assert peer.query_private("pdccc", "PDC1", "k2") == b"v2"

    def test_reconcile_does_not_resurrect_deleted_keys(self):
        """Regression: reconciling a missed write of a since-deleted key
        must not bring the plaintext back from the dead."""
        net, runtime = self._runtime_network(member_orgs=("Org1MSP", "Org2MSP"))
        endorsers = [net.peers_of("Org1MSP")[0], net.peers_of("Org3MSP")[0]]
        org2 = net.peers_of("Org2MSP")[0]
        client = net.client("Org1MSP")

        runtime.bus.faults.drop_topic("gossip-batch")
        client.submit_async("pdccc", "set_private", ["PDC1", "k"],
                            transient={"value": b"S"}, endorsing_peers=endorsers)
        runtime.run()
        runtime.bus.faults.heal()
        client.submit_async("pdccc", "del_private", ["PDC1", "k"],
                            endorsing_peers=endorsers)
        runtime.run()

        assert org2.query_private("pdccc", "PDC1", "k") is None
        assert org2.query_private_hash("pdccc", "PDC1", "k") is None
        net.reconcile_private_data()
        assert org2.query_private("pdccc", "PDC1", "k") is None
        assert not org2.ledger.missing_private


def _reset_counters():
    from repro.identity.ca import reset_ca_instance_counter
    from repro.protocol.proposal import reset_nonce_counter

    reset_nonce_counter()
    reset_ca_instance_counter()


class TestMembershipMemo:
    def test_member_peers_memo_invalidated_on_register(self):
        net = _network()
        before = {p.name for p in net.gossip.member_peers("pdccc", "PDC1")}
        extra = net.add_peer("Org2MSP", "peer1")
        after = {p.name for p in net.gossip.member_peers("pdccc", "PDC1")}
        assert after == before | {extra.name}

    def test_member_peers_returns_a_fresh_list(self):
        """Callers may mutate the result without corrupting the memo."""
        net = _network()
        net.gossip.member_peers("pdccc", "PDC1").clear()
        assert net.gossip.member_peers("pdccc", "PDC1")


class TestRotation:
    """Deterministic push-set rotation under a MaxPeerCount cap."""

    def _pushes(self, count=8):
        """``(tx_id, recipient)`` for each of ``count`` capped pushes, and
        the eligible push list (the members other than the endorser)."""
        _reset_counters()
        net = _network(
            max_peer_count=1,
            member_orgs=("Org1MSP", "Org2MSP", "Org3MSP"),
        )
        p1 = net.peers_of("Org1MSP")[0]
        others = [net.peers_of("Org2MSP")[0], net.peers_of("Org3MSP")[0]]
        client = net.client("Org1MSP")
        sequence = []
        for i in range(count):
            before = {p.name: len(p.ledger.transient_store) for p in others}
            proposal = client._proposal(
                "pdccc", "set_private", ["PDC1", f"k{i}"], {"value": b"v"}
            )
            net.request_endorsement(p1, proposal)
            net.runtime.run()  # the push rides the bus
            got = [p.name for p in others
                   if len(p.ledger.transient_store) > before[p.name]]
            assert len(got) == 1  # the cap admits exactly one target
            sequence.append((proposal.tx_id, got[0]))
        return sequence, net.gossip.rotation_seed, [p.name for p in others]

    def test_each_capped_push_goes_where_its_tx_id_rotates_it(self):
        """The target is the head of the eligible list rotated by the
        crc32 of (seed, tx_id, collection), whatever the tx_id's bytes."""
        pushes, seed, eligible = self._pushes(count=16)
        for tx_id, recipient in pushes:
            offset = zlib.crc32(f"{seed}:{tx_id}:pdccc:PDC1".encode()) % len(eligible)
            assert recipient == eligible[offset], tx_id

    def test_rotation_spreads_capped_pushes_across_members(self):
        """Regression: ``eligible[:max_peer_count]`` starved the same tail
        peers on every tx, so they paid every reconciliation round.  Each
        push's offset is a hash of its tx_id, so 64 pushes all landing on
        one member has probability 2**-63."""
        pushes, _seed, eligible = self._pushes(count=64)
        assert {recipient for _tx_id, recipient in pushes} == set(eligible)

    def test_rotation_is_deterministic(self):
        assert self._pushes() == self._pushes()


class TestBatchedDissemination:
    """Dissemination ships one payload per target."""

    def _two_collection_network(self, **kwargs):
        _reset_counters()
        return _network(
            member_orgs=("Org1MSP", "Org2MSP", "Org3MSP"),
            collections=("PDC1", "PDC2"),
            **kwargs,
        )

    def _move(self, net):
        """Seed PDC1 then move the key to PDC2 — a two-collection tx."""
        p1 = net.peers_of("Org1MSP")[0]
        p2 = net.peers_of("Org2MSP")[0]
        client = net.client("Org1MSP")
        client.submit_transaction(
            "pdccc", "set_private", ["PDC1", "k"],
            transient={"value": b"S"}, endorsing_peers=[p1, p2],
        ).raise_for_status()
        counters = (net.gossip.pushes, net.gossip.batched_payloads)
        client.submit_transaction(
            "pdccc", "move_private", ["PDC1", "PDC2", "k"],
            endorsing_peers=[p1, p2],
        ).raise_for_status()
        return counters

    def test_default_network_batches(self):
        """The default network and ``gossip_batch=True`` are one path."""
        counts = []
        for kwargs in ({}, {"gossip_batch": True}):
            net = self._two_collection_network(**kwargs)
            self._move(net)
            gossip = net.gossip
            counts.append((gossip.pushes, gossip.batched_payloads, gossip.bytes_sent))
        assert counts[0] == counts[1]
        pushes, payloads, _ = counts[0]
        assert payloads < pushes

    def test_per_record_gossip_is_refused(self):
        with pytest.raises(ConfigError, match="gossip_batch"):
            _network(gossip_batch=False)

    def test_batch_coalesces_one_payload_per_target(self):
        """A two-collection endorsement ships ONE wire message per target
        (2 records each) instead of one message per (collection, target)."""
        net = self._two_collection_network()
        pushes_before, payloads_before = self._move(net)
        # Each of the 2 endorsers pushes both collection rwsets to the
        # 2 other members: 8 per-record pushes but only 4 payloads.
        assert net.gossip.pushes - pushes_before == 8
        assert net.gossip.batched_payloads - payloads_before == 4

    def test_one_collection_sends_one_payload_per_target(self):
        """With one collection rwset a payload carries one record, so the
        wire count equals the record count: one message per target, as
        many as one message per (collection, target) would send."""
        from repro.runtime import LatencyModel

        _reset_counters()
        net = _network(member_orgs=("Org1MSP", "Org2MSP", "Org3MSP"))
        runtime = net.attach_runtime(seed=5, latency=LatencyModel(base=1.0))
        endorsers = [net.peers_of("Org1MSP")[0], net.peers_of("Org2MSP")[0]]
        net.client("Org1MSP").submit_async(
            "pdccc", "set_private", ["PDC1", "k"],
            transient={"value": b"S"}, endorsing_peers=endorsers,
        )
        runtime.run()
        # Each of the 2 endorsers reaches the 2 other members.
        assert net.gossip.pushes == net.gossip.batched_payloads == 4
        assert runtime.bus.topic_counts["gossip-batch"] == 4

    def test_batch_cuts_wire_messages_by_the_collection_count(self):
        """Full fan-out, five member orgs, three endorsers, one tx writing
        three collections: each endorser reaches each of the 4 other
        members with one payload instead of three pushes."""
        from repro.storage.codec import pack_private_writes

        collections = ("PDC1", "PDC2", "PDC3")
        orgs = tuple(f"Org{i}MSP" for i in range(1, 6))
        _reset_counters()
        net = _network(max_peer_count=5, member_orgs=orgs, org_count=5,
                       collections=collections)
        net.install_chaincode("pdccc", _WriteEveryCollection())
        net.client("Org1MSP").submit_transaction(
            "pdccc", "set_all", ["k", ",".join(collections)],
            transient={"value": b"v" * 32}, endorsing_peers=net.peers()[:3],
        ).raise_for_status()
        assert net.gossip.pushes == 3 * 4 * 3
        assert net.gossip.batched_payloads == 3 * 4
        # The wire carries each record's archive framing, nothing more.
        record_bytes = sum(
            len(pack_private_writes("pdccc", name, [("k", b"v" * 32, False)]))
            for name in collections
        )
        assert net.gossip.bytes_sent == 3 * 4 * record_bytes

    def test_batch_commits_the_moved_state(self):
        net = self._two_collection_network()
        self._move(net)
        org3 = net.peers_of("Org3MSP")[0]
        assert org3.query_private("pdccc", "PDC2", "k") == b"S"
        assert org3.query_private("pdccc", "PDC1", "k") is None
        assert not org3.ledger.missing_private

    def test_batch_respects_required_peer_count(self):
        _reset_counters()
        net = _network(required_peer_count=3)
        p1 = net.peers_of("Org1MSP")[0]
        with pytest.raises(GossipError):
            net.request_endorsement(
                p1,
                net.client("Org1MSP")._proposal(
                    "pdccc", "set_private", ["PDC1", "k"], {"value": b"S"}
                ),
            )


class TestAntiEntropy:
    """The digest-driven repair loop riding the event runtime's bus."""

    def _runtime_network(self, every=2.0, **net_kwargs):
        from repro.runtime import FaultInjector, LatencyModel

        _reset_counters()
        net = _network(
            member_orgs=("Org1MSP", "Org2MSP", "Org3MSP"),
            anti_entropy_every=every,
            **net_kwargs,
        )
        runtime = net.attach_runtime(
            seed=5, latency=LatencyModel(base=1.0), faults=FaultInjector()
        )
        return net, runtime

    def _submit_missed(self, net, runtime, count, offset=0):
        """Commit ``count`` PDC writes whose dissemination is blacked out."""
        endorsers = [net.peers_of("Org1MSP")[0], net.peers_of("Org2MSP")[0]]
        client = net.client("Org1MSP")
        runtime.bus.faults.drop_topic("gossip-batch")
        for i in range(offset, offset + count):
            client.submit_async(
                "pdccc", "set_private", ["PDC1", f"k{i}"],
                transient={"value": f"v{i}".encode()},
                endorsing_peers=endorsers,
            )

    def test_disabled_cadence_means_no_timer(self):
        """Cadence 0 arms no periodic timer: the run sends no digest
        traffic and leaves the gaps, and reconcile_private_data() still
        repairs them over the bus."""
        from repro.gossip.anti_entropy import (
            ANTI_ENTROPY_TOPICS,
            TOPIC_AE_DIGEST_REQUEST,
        )

        net, runtime = self._runtime_network(every=0.0)
        self._submit_missed(net, runtime, 3)
        runtime.run()
        org3 = net.peers_of("Org3MSP")[0]
        assert len(org3.ledger.missing_private) == 3
        assert not any(runtime.bus.topic_counts.get(t) for t in ANTI_ENTROPY_TOPICS)

        assert net.reconcile_private_data() == 3
        assert runtime.bus.topic_counts[TOPIC_AE_DIGEST_REQUEST] >= 1
        assert not org3.ledger.missing_private

    def test_negative_cadence_rejected(self):
        with pytest.raises(ConfigError):
            self._runtime_network(every=-1)

    def test_anti_entropy_repairs_gaps_without_manual_reconcile(self):
        """Dissemination is dropped but the AE topics stay up: by the time
        the runtime drains to idle, the digest loop has pulled every gap —
        no reconcile_private_data() call anywhere."""
        net, runtime = self._runtime_network()
        self._submit_missed(net, runtime, 3)
        runtime.run()

        org3 = net.peers_of("Org3MSP")[0]
        assert not org3.ledger.missing_private
        for i in range(3):
            assert org3.query_private("pdccc", "PDC1", f"k{i}") == f"v{i}".encode()
        assert runtime.anti_entropy.pull_requests >= 1
        assert net.gossip.digest_rounds >= 1
        assert net.gossip.reconcile_pulls == 3

    def _converge_after_blackout(self, gaps):
        """Open ``gaps`` gaps under a total gossip blackout, heal, and
        return (sim-s to converge, pull requests sent after the heal)."""
        from repro.runtime.runtime import GOSSIP_TOPICS

        net, runtime = self._runtime_network()
        for topic in GOSSIP_TOPICS:
            runtime.bus.faults.drop_topic(topic)
        self._submit_missed(net, runtime, gaps)
        runtime.run()
        org3 = net.peers_of("Org3MSP")[0]
        assert len(org3.ledger.missing_private) == gaps

        runtime.bus.faults.heal()
        engine = runtime.anti_entropy
        engine.reset_backoff()
        restored_at, pulls_before = runtime.now, engine.pull_requests
        engine.arm()
        runtime.run()
        assert not org3.ledger.missing_private
        assert net.gossip.reconcile_pulls == gaps
        return runtime.now - restored_at, engine.pull_requests - pulls_before

    def test_convergence_is_flat_in_gap_count(self):
        """One digest names every gap and one batched pull ships them all:
        the round trips, not the backlog, set the clock."""
        assert self._converge_after_blackout(5) == self._converge_after_blackout(20)

    def test_backed_off_sources_retry_when_new_gaps_appear(self):
        """With pull responses also dropped the loop must terminate (the
        per-source attempt budget), leave the gaps for quiescence repair,
        and give backed-off sources another chance once fresh gaps arrive
        after the heal."""
        from repro.gossip.anti_entropy import TOPIC_AE_PULL_RESPONSE

        net, runtime = self._runtime_network()
        self._submit_missed(net, runtime, 3)
        runtime.bus.faults.drop_topic(TOPIC_AE_PULL_RESPONSE)
        runtime.run()  # terminates: every source exhausts its budget

        org3 = net.peers_of("Org3MSP")[0]
        assert len(org3.ledger.missing_private) == 3
        engine = runtime.anti_entropy
        org3_attempts = [
            n for (requester, _), n in engine._attempts.items()
            if requester == org3.name
        ]
        assert org3_attempts
        assert all(n >= engine.max_source_attempts for n in org3_attempts)

        runtime.bus.faults.heal()
        self._submit_missed(net, runtime, 1, offset=3)  # a fresh gap
        runtime.run()
        assert not org3.ledger.missing_private  # old gaps repaired too
        for i in range(4):
            assert org3.query_private("pdccc", "PDC1", f"k{i}") == f"v{i}".encode()


    def test_digest_requests_name_only_scopes_the_source_holds(self):
        """Org3 misses a write to PDCa (Org1 + Org3) and one to PDCb
        (Org2 + Org3) in one tx.  Either source is a member of one scope
        only, and its digest request must name just that one."""
        from repro.gossip.anti_entropy import TOPIC_AE_DIGEST_REQUEST
        from repro.runtime import FaultInjector, LatencyModel

        _reset_counters()
        orgs = [Organization(f"Org{i}MSP") for i in range(1, 4)]
        channel = ChannelConfig(channel_id="gossipchannel", organizations=orgs)
        channel.deploy_chaincode(
            "pdccc",
            endorsement_policy="MAJORITY Endorsement",
            collections=[
                CollectionConfig(name="PDCa", policy="OR('Org1MSP.member', 'Org3MSP.member')"),
                CollectionConfig(name="PDCb", policy="OR('Org2MSP.member', 'Org3MSP.member')"),
            ],
        )
        net = FabricNetwork(channel=channel, anti_entropy_every=2.0)
        for org in orgs:
            net.add_peer(org.msp_id)
        net.install_chaincode("pdccc", _WriteEveryCollection())
        runtime = net.attach_runtime(
            seed=5, latency=LatencyModel(base=1.0), faults=FaultInjector()
        )
        requests = []
        send = runtime.bus.send

        def recording_send(src, dst, topic, payload):
            if topic == TOPIC_AE_DIGEST_REQUEST:
                requests.append((net.peer(dst).msp_id, payload[1]))
            return send(src, dst, topic, payload)

        runtime.bus.send = recording_send
        runtime.bus.faults.drop_topic("gossip-batch")
        net.client("Org1MSP").submit_async(
            "pdccc", "set_all", ["k", "PDCa,PDCb"], transient={"value": b"v"},
            endorsing_peers=[net.peers_of("Org1MSP")[0], net.peers_of("Org2MSP")[0]],
        )
        runtime.run()

        org3 = net.peers_of("Org3MSP")[0]
        assert requests
        for source_msp, scopes in requests:
            assert scopes, source_msp
            assert set(scopes) <= channel.member_collections(source_msp)
        assert org3.query_private("pdccc", "PDCa", "k") == b"v"
        assert org3.query_private("pdccc", "PDCb", "k") == b"v"

class TestReconcilePruningEdges:
    """Reconciliation where history management complicates the repair."""

    def _gapped_network(self, count=4, **kwargs):
        """A member peer that missed every push (MaxPeerCount=0)."""
        _reset_counters()
        net = _network(max_peer_count=0, **kwargs)
        p1, p2 = net.peers_of("Org1MSP")[0], net.peers_of("Org2MSP")[0]
        extra = net.add_peer("Org1MSP", "peer1")
        net.install_chaincode("pdccc", PrivateAssetContract(), peers=[extra])
        client = net.client("Org1MSP")
        for i in range(count):
            client.submit_transaction(
                "pdccc", "set_private", ["PDC1", f"k{i}"],
                transient={"value": f"v{i}".encode()},
                endorsing_peers=[p1, p2],
            ).raise_for_status()
        return net, extra

    def test_gap_in_pruned_history_still_repairs(self):
        """The gap's block is archived off the hot chain before the
        reconciler runs: hash verification must locate the tx through the
        archived-history index, not the live blocks."""
        net, extra = self._gapped_network()
        assert len(extra.ledger.missing_private) == 4
        assert extra.ledger.blockchain.prune_to(3) == 3
        assert extra.ledger.blockchain.genesis_offset == 3

        assert net.reconcile_private_data() == 4
        assert not extra.ledger.missing_private
        for i in range(4):
            assert extra.query_private("pdccc", "PDC1", f"k{i}") == f"v{i}".encode()

    def test_btl_expired_gap_resolves_without_resurrection(self):
        """A gap whose collection BTL expired mid-reconcile is resolved —
        but the plaintext is NOT written back: the members purged it, and
        repair must never resurrect it."""
        net, extra = self._gapped_network(btl=2)
        # k0 committed at block 1 with btl=2 -> purged once height >= 4;
        # after 4 blocks the members have dropped it.
        p2 = net.peers_of("Org2MSP")[0]
        assert extra.ledger.height == 4
        assert p2.query_private("pdccc", "PDC1", "k0") is None
        assert p2.query_private("pdccc", "PDC1", "k3") == b"v3"

        assert net.reconcile_private_data() == 4
        assert not extra.ledger.missing_private
        # The expired gap resolved without plaintext; live ones repaired.
        assert extra.query_private("pdccc", "PDC1", "k0") is None
        assert extra.query_private("pdccc", "PDC1", "k3") == b"v3"
