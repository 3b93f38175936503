"""Snapshot state-sync and ledger pruning tests.

Covers the checkpointed-bootstrap pipeline end to end: the orderer's
delivery cursor and pruned backlog, per-peer block archiving with
genesis-offset chains, snapshot production / policy sealing / membership
filtering, joining and restarting peers over bounded history, and the
BTL guarantee that pruning never resurrects purged plaintext.
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.chaincode.contracts import AssetContract, PrivateAssetContract
from repro.common.errors import (
    ConfigError,
    LedgerError,
    PrunedBacklogError,
    SnapshotError,
)
from repro.common.hashing import hash_value
from repro.identity.ca import reset_ca_instance_counter
from repro.identity.organization import Organization
from repro.ledger.snapshot import (
    NS_SNAPSHOTS,
    RETAIN_SNAPSHOTS,
    SnapshotStore,
    bootstrap_from_package,
    verify_package,
)
from repro.network.channel import ChannelConfig
from repro.network.collection import CollectionConfig
from repro.network.network import FabricNetwork
from repro.peer.node import PeerNode
from repro.protocol.proposal import reset_nonce_counter
from repro.storage import WalBackend, WriteBatch, read_through, split_key
from repro.storage.wal import WAL_FILE


CHAINCODE = "pdccc"
COLLECTION = "PDC1"


def _network(
    org_count: int = 3,
    snapshot_every: int = 0,
    prune: bool = False,
    btl: int = 0,
    batch_size: int = 1,
) -> FabricNetwork:
    """Orgs 1..N, PDC1 = {org1, org2}, MAJORITY policy, one peer each."""
    reset_ca_instance_counter()
    reset_nonce_counter()
    orgs = [Organization(f"Org{i}MSP") for i in range(1, org_count + 1)]
    channel = ChannelConfig(channel_id="snapchan", organizations=orgs)
    channel.deploy_chaincode(
        CHAINCODE,
        endorsement_policy="MAJORITY Endorsement",
        collections=[
            CollectionConfig(
                name=COLLECTION,
                policy="OR('Org1MSP.member', 'Org2MSP.member')",
                required_peer_count=1,
                max_peer_count=3,
                block_to_live=btl,
            )
        ],
    )
    net = FabricNetwork(
        channel=channel,
        snapshot_every=snapshot_every,
        prune=prune,
        batch_size=batch_size,
    )
    for org in orgs:
        net.add_peer(org.msp_id)
    net.install_chaincode(CHAINCODE, PrivateAssetContract())
    channel.deploy_chaincode("assetcc", endorsement_policy="MAJORITY Endorsement")
    net.install_chaincode("assetcc", AssetContract())
    return net


def _endorsers(net: FabricNetwork):
    return net.default_endorsers()


def _commit_public(net: FabricNetwork, count: int, tag: str = "a", endorsers=None) -> None:
    client = net.client("Org1MSP")
    for i in range(count):
        client.submit_transaction(
            "assetcc", "create_asset", [f"{tag}{i:04d}", str(i)],
            endorsing_peers=endorsers or _endorsers(net),
        ).raise_for_status()
    # The manifest signatures the commits broadcast are still on the bus.
    net.runtime.run()


def _commit_private(net: FabricNetwork, key: str, value: bytes) -> None:
    net.client("Org1MSP").submit_transaction(
        CHAINCODE, "set_private", [COLLECTION, key],
        transient={"value": value},
        endorsing_peers=[net.peers_of("Org1MSP")[0], net.peers_of("Org2MSP")[0]],
    ).raise_for_status()
    net.runtime.run()


def _public_state(peer) -> dict:
    return {
        (ns, key): (entry.value, entry.version)
        for ns in (CHAINCODE, "assetcc")
        for key, entry in peer.ledger.world_state.items(ns)
    }


# ---------------------------------------------------------------------------
# settings
# ---------------------------------------------------------------------------
class TestSettings:
    def test_negative_snapshot_interval_rejected(self):
        with pytest.raises(ConfigError):
            _network(snapshot_every=-1)

    def test_defaults_keep_the_feature_off(self):
        net = _network()
        assert net.snapshot_every == 0 and net.prune_enabled is False
        assert all(p.snapshot_every == 0 and not p.prune_enabled for p in net.peers())


# ---------------------------------------------------------------------------
# orderer delivery cursor + pruned backlog
# ---------------------------------------------------------------------------
class TestOrdererCursor:
    def test_blocks_since_returns_exactly_the_missed_suffix(self):
        net = _network()
        _commit_public(net, 5)
        orderer = net.orderer
        assert orderer.delivered_count == 5
        missed = orderer.blocks_since(3)
        assert [b.header.number for b in missed] == [3, 4]
        assert orderer.blocks_since(5) == []

    def test_prune_moves_blocks_but_keeps_the_audit_surface(self):
        net = _network()
        _commit_public(net, 6)
        orderer = net.orderer
        full = [b.header.number for b in orderer.delivered_blocks]
        assert orderer.prune_delivered(4) == 4
        assert orderer.backlog_offset == 4
        assert orderer.delivered_count == 6
        # delivered_blocks still exposes the full archived+hot sequence.
        assert [b.header.number for b in orderer.delivered_blocks] == full
        assert orderer.block_at(1).header.number == 1
        # Idempotent and monotone: pruning below the offset is a no-op.
        assert orderer.prune_delivered(2) == 0

    def test_cursor_below_the_offset_raises_pruned_backlog(self):
        net = _network()
        _commit_public(net, 6)
        net.orderer.prune_delivered(4)
        with pytest.raises(PrunedBacklogError) as err:
            net.orderer.blocks_since(2)
        assert err.value.height == 2
        assert err.value.offset == 4
        # At or past the offset the cursor still serves.
        assert [b.header.number for b in net.orderer.blocks_since(4)] == [4, 5]


# ---------------------------------------------------------------------------
# blockchain pruning and archives
# ---------------------------------------------------------------------------
class TestBlockchainPruning:
    def _chain(self, blocks: int = 6):
        net = _network()
        _commit_public(net, blocks)
        return net, net.peers()[0].ledger.blockchain

    def test_prune_archives_and_chain_still_verifies(self):
        net, chain = self._chain()
        tip_hash = chain.last_hash()
        assert chain.prune_to(4) == 4
        assert chain.genesis_offset == 4
        assert chain.archive_base == 0
        assert chain.full_history_available
        assert chain.height == 6
        assert chain.last_hash() == tip_hash
        assert chain.verify_chain()
        assert [b.block.header.number for b in chain.blocks()] == [4, 5]
        assert [b.block.header.number for b in chain.all_blocks()] == list(range(6))

    def test_pruned_block_access_raises_but_archive_serves_it(self):
        net, chain = self._chain()
        chain.prune_to(3)
        with pytest.raises(LedgerError):
            chain.block(1)
        archived = list(chain.archived_blocks())
        assert [b.block.header.number for b in archived] == [0, 1, 2]

    def test_tx_lookup_survives_pruning(self):
        net, chain = self._chain()
        target = chain.block(1).block.transactions[0]
        chain.prune_to(4)
        assert chain.has_transaction(target.tx_id)
        assert chain.locate_transaction(target.tx_id) == (1, 0)
        found = chain.find_transaction(target.tx_id)
        assert found is not None
        assert found[0].tx_id == target.tx_id

    def test_prune_survives_reopen(self, tmp_path):
        reset_ca_instance_counter()
        reset_nonce_counter()
        org = Organization("Org1MSP")
        channel = ChannelConfig(channel_id="snapchan", organizations=[org])
        channel.deploy_chaincode("assetcc", endorsement_policy="OR('Org1MSP.member')")
        net = FabricNetwork(
            channel=channel, state_backend="wal", state_dir=str(tmp_path)
        )
        net.add_peer("Org1MSP")
        net.install_chaincode("assetcc", AssetContract())
        client = net.client("Org1MSP")
        for i in range(5):
            client.submit_transaction(
                "assetcc", "create_asset", [f"w{i}", "1"],
                endorsing_peers=[net.peers()[0]],
            ).raise_for_status()
        ledger = net.peers()[0].ledger
        ledger.blockchain.prune_to(3)
        ledger.crash()
        ledger.reopen()
        chain = ledger.blockchain
        assert chain.genesis_offset == 3
        assert chain.height == 5
        assert chain.verify_chain()
        assert [b.block.header.number for b in chain.all_blocks()] == list(range(5))

    def test_bootstrap_base_refuses_a_non_empty_chain(self):
        net, chain = self._chain(2)
        from repro.storage import WriteBatch

        with pytest.raises(LedgerError):
            chain.bootstrap_base(5, b"\x00" * 32, WriteBatch())

    def test_archived_tx_ids_stay_duplicates_after_crash_and_reopen(self, tmp_path):
        """The tx index must cover the archive across reopen: a replayed
        tx id from pruned history is still rejected as a duplicate, and
        reconciliation lookups still resolve it."""
        reset_ca_instance_counter()
        reset_nonce_counter()
        org = Organization("Org1MSP")
        channel = ChannelConfig(channel_id="snapchan", organizations=[org])
        channel.deploy_chaincode("assetcc", endorsement_policy="OR('Org1MSP.member')")
        net = FabricNetwork(
            channel=channel, state_backend="wal", state_dir=str(tmp_path)
        )
        net.add_peer("Org1MSP")
        net.install_chaincode("assetcc", AssetContract())
        client = net.client("Org1MSP")
        for i in range(5):
            client.submit_transaction(
                "assetcc", "create_asset", [f"w{i}", "1"],
                endorsing_peers=[net.peers()[0]],
            ).raise_for_status()
        peer = net.peers()[0]
        ledger = peer.ledger
        replayed = ledger.blockchain.block(1).block.transactions[0]
        ledger.blockchain.prune_to(3)
        ledger.crash()
        ledger.reopen()
        chain = ledger.blockchain
        assert chain.has_transaction(replayed.tx_id)
        assert chain.locate_transaction(replayed.tx_id) == (1, 0)
        found = chain.find_transaction(replayed.tx_id)
        assert found is not None
        assert found[0].tx_id == replayed.tx_id
        # An envelope replayed from the pruned prefix must be flagged.
        from repro.ledger.block import Block
        from repro.protocol.transaction import ValidationCode

        block = Block.create(chain.height, chain.last_hash(), (replayed,))
        validated = peer.deliver_block(block)
        assert validated.flags == [ValidationCode.DUPLICATE_TXID]


# ---------------------------------------------------------------------------
# snapshot production, sealing, serving
# ---------------------------------------------------------------------------
class TestSnapshotLifecycle:
    def test_peers_seal_at_the_cadence_under_majority(self):
        net = _network(snapshot_every=4)
        _commit_private(net, "p1", b"secret-1")
        _commit_public(net, 7)
        for peer in net.peers():
            record = peer.latest_sealed_snapshot()
            assert record is not None
            assert record.manifest.height == 8
            assert record.sealed
            # All three orgs co-signed an identical manifest.
            assert len(record.signatures) == 3
        manifests = {p.latest_sealed_snapshot().manifest for p in net.peers()}
        assert len(manifests) == 1

    def test_snapshot_store_retains_only_the_latest(self):
        net = _network(snapshot_every=2)
        _commit_public(net, 2 * (RETAIN_SNAPSHOTS + 2))
        records = net.peers()[0].snapshots.records()
        assert len(records) == RETAIN_SNAPSHOTS
        heights = [r.manifest.height for r in records]
        assert heights == sorted(heights)
        assert heights[-1] == 2 * (RETAIN_SNAPSHOTS + 2)

    def test_member_package_carries_plaintext_nonmember_does_not(self):
        net = _network(snapshot_every=4)
        _commit_private(net, "p1", b"secret-1")
        _commit_public(net, 3)
        server = net.peers_of("Org1MSP")[0]
        member_pkg = server.serve_snapshot("Org2MSP")
        outsider_pkg = server.serve_snapshot("Org3MSP")
        verify_package(member_pkg, net.channel)
        verify_package(outsider_pkg, net.channel)
        from repro.ledger.private_state import NS_PRIVATE, NS_PRIVATE_HASH

        assert member_pkg.rows[NS_PRIVATE], "member package lost the plaintext"
        assert outsider_pkg.rows[NS_PRIVATE] == []
        # Both still carry the attested hash rows (shared namespace).
        assert member_pkg.rows[NS_PRIVATE_HASH]
        assert outsider_pkg.rows[NS_PRIVATE_HASH] == member_pkg.rows[NS_PRIVATE_HASH]

    def test_tampered_package_fails_verification(self):
        net = _network(snapshot_every=4)
        _commit_private(net, "p1", b"secret-1")
        _commit_public(net, 3)
        package = net.peers_of("Org1MSP")[0].serve_snapshot("Org2MSP")
        from repro.ledger.private_state import NS_PRIVATE

        key, raw = package.rows[NS_PRIVATE][0]
        forged = dict(package.rows)
        forged[NS_PRIVATE] = [(key, raw[:16] + b"forged-plaintext")]
        with pytest.raises(SnapshotError):
            verify_package(
                dataclasses.replace(package, rows=forged), net.channel
            )

    def test_forged_private_meta_rows_fail_verification(self):
        """BTL metadata is re-derived from attested data, never trusted."""
        from repro.ledger.ledger import NS_PRIVATE_META
        from repro.storage.codec import pack_u64_pair, unpack_u64_pair

        net = _network(snapshot_every=4, btl=5)
        _commit_private(net, "p1", b"secret-1")
        _commit_public(net, 3)
        package = net.peers_of("Org1MSP")[0].serve_snapshot("Org2MSP")
        verify_package(package, net.channel)  # the honest package passes
        [(key, raw)] = package.rows[NS_PRIVATE_META]
        block_num, expiry = unpack_u64_pair(raw)

        def forged_with(meta_rows):
            forged = dict(package.rows)
            forged[NS_PRIVATE_META] = meta_rows
            return dataclasses.replace(package, rows=forged)

        # An altered expiry height (the BTL-consistency attack).
        with pytest.raises(SnapshotError):
            verify_package(
                forged_with([(key, pack_u64_pair(block_num, expiry + 3))]),
                net.channel,
            )
        # A shifted commit height that keeps the expiry formula intact
        # still contradicts the attested plaintext version.
        with pytest.raises(SnapshotError):
            verify_package(
                forged_with([(key, pack_u64_pair(block_num + 1, expiry + 1))]),
                net.channel,
            )
        # Dropping the row entirely would leave shipped plaintext immortal.
        with pytest.raises(SnapshotError):
            verify_package(forged_with([]), net.channel)

    def test_pickled_rows_in_a_package_are_rejected_not_loaded(self):
        """Package rows must decode under the deterministic framing; pickle
        bytes from another peer raise instead of reaching a deserializer."""
        import pickle

        from repro.ledger.ledger import (
            MissingPrivateData,
            NS_MISSING,
            NS_PRIVATE_RWSETS,
        )
        from repro.ledger.world_state import NS_PUBLIC_META
        from repro.storage import compose_key

        net = _network(snapshot_every=4)
        _commit_private(net, "p1", b"secret-1")
        _commit_public(net, 3)
        package = net.peers_of("Org1MSP")[0].serve_snapshot("Org2MSP")
        missing = MissingPrivateData("tx-x", 1, CHAINCODE, COLLECTION)
        composite = compose_key("tx-x", CHAINCODE, COLLECTION)
        cases = [
            (NS_MISSING, composite, pickle.dumps(missing)),
            (NS_PRIVATE_RWSETS, composite, pickle.dumps(("anything",))),
            (NS_PUBLIC_META, compose_key("assetcc", "x"), pickle.dumps({"m": b"v"})),
        ]
        for namespace, key, raw in cases:
            forged = dict(package.rows)
            forged[namespace] = list(forged.get(namespace, ())) + [(key, raw)]
            with pytest.raises(SnapshotError):
                verify_package(
                    dataclasses.replace(package, rows=forged), net.channel
                )

    def test_late_seal_survives_retention(self):
        """A seal arriving after newer unsealed checkpoints exist must not
        be dropped — it is the peer's only serving/bootstrap source."""
        net = _network(org_count=5)
        peer = net.peers_of("Org1MSP")[0]
        oldest, late, *newer = _checkpoints(net, peer, 4)
        _seal(net, peer, late)
        heights = [record.manifest.height for record in peer.snapshots.records()]
        assert heights == [late.height] + [manifest.height for manifest in newer]
        assert oldest.height not in heights
        assert peer.snapshots.latest_sealed().manifest == late
        assert peer.serve_snapshot("Org2MSP").manifest == late

    def test_unsealed_snapshot_is_never_served(self):
        net = _network(snapshot_every=4)
        _commit_public(net, 4)
        peer = net.peers()[0]
        record = peer.latest_sealed_snapshot()
        assert record is not None
        record.sealed = False
        batch = WriteBatch()
        peer.snapshots.stage_record(batch, record)
        peer.ledger.commit_batch(batch)
        assert peer.serve_snapshot("Org2MSP") is None

    def test_bootstrap_refuses_a_non_empty_ledger(self):
        net = _network(snapshot_every=4)
        _commit_public(net, 4)
        package = net.peers()[0].serve_snapshot("Org2MSP")
        with pytest.raises(SnapshotError):
            bootstrap_from_package(
                net.peers_of("Org2MSP")[0].ledger, package, net.channel
            )


# ---------------------------------------------------------------------------
# joining over bounded history
# ---------------------------------------------------------------------------
class TestJoinBootstrap:
    def test_member_joiner_matches_source_state(self):
        net = _network(snapshot_every=4, prune=True)
        _commit_private(net, "p1", b"secret-1")
        _commit_public(net, 6)
        net.orderer.prune_delivered(4)
        source = net.peers_of("Org2MSP")[0]

        probe = net.join_peer("Org2MSP", name="probe0")
        assert probe.ledger.height == net.orderer.delivered_count
        assert probe.ledger.blockchain.genesis_offset > 0
        assert not probe.ledger.blockchain.full_history_available
        assert probe.ledger.blockchain.verify_chain()
        assert _public_state(probe) == _public_state(source)
        assert probe.query_private(CHAINCODE, COLLECTION, "p1") == b"secret-1"

    def test_nonmember_joiner_gets_hashes_not_plaintext(self):
        net = _network(snapshot_every=4, prune=True)
        _commit_private(net, "p1", b"secret-1")
        _commit_public(net, 6)
        net.orderer.prune_delivered(4)

        probe = net.join_peer("Org3MSP", name="probe0")
        assert probe.ledger.height == net.orderer.delivered_count
        assert probe.query_private(CHAINCODE, COLLECTION, "p1") is None
        entry = probe.ledger.private_hashes.get_by_key(
            CHAINCODE, COLLECTION, "p1"
        )
        assert entry is not None
        assert entry.value_hash == hash_value(b"secret-1")

    def test_add_peer_over_a_pruned_backlog_steers_to_join(self):
        """A full-replay add reads the orderer's O(missed) cursor, which
        stops at the pruned offset; the refused peer leaves no trace, so
        later commits (and their snapshot-signature broadcasts) never
        address it, and the snapshot-aware join serves the same backlog
        with bounded history."""
        net = _network(snapshot_every=4, prune=True)
        _commit_public(net, 6)
        net.orderer.prune_delivered(4)
        before = [peer.name for peer in net.peers()]
        with pytest.raises(PrunedBacklogError):
            net.add_peer("Org1MSP", name="latecomer0")
        assert [peer.name for peer in net.peers()] == before
        assert [peer.name for peer in net.gossip.peers()] == before
        _commit_public(net, 6, tag="b")  # seals at 8 and 12 broadcast sigs
        assert not any("latecomer0" in peer.name for peer in net.peers())
        probe = net.join_peer("Org1MSP", name="probe0")
        assert probe.ledger.height == net.orderer.delivered_count
        assert probe.ledger.blockchain.genesis_offset > 0
        late = net.join_peer("Org1MSP", name="latecomer0")
        assert late.ledger.height == net.orderer.delivered_count

    def test_snapshot_join_replays_a_tail_that_does_not_grow_with_the_chain(self):
        """Replay-from-genesis delivers every block of history; a snapshot
        join delivers only the blocks past the sealed height, however long
        the chain (12 and 42 blocks both end 2 past a seal at cadence 10)."""
        tails = []
        for blocks in (12, 42):
            net = _network(snapshot_every=10)
            _commit_public(net, blocks)
            replayed = net.add_peer("Org1MSP", name="replay0")
            assert replayed.blocks_committed == blocks
            probe = net.join_peer("Org1MSP", name="probe0")
            offset = probe.ledger.blockchain.genesis_offset
            assert probe.ledger.height == blocks
            assert offset > 0 and probe.blocks_committed == blocks - offset
            assert _public_state(probe) == _public_state(replayed)
            tails.append(probe.blocks_committed)
        assert tails == [2, 2]

    def test_join_falls_back_to_replay_without_a_sealed_snapshot(self):
        net = _network(snapshot_every=50)  # cadence never reached
        _commit_public(net, 4)
        probe = net.join_peer("Org1MSP", name="probe0")
        assert probe.ledger.height == 4
        assert probe.ledger.blockchain.genesis_offset == 0
        assert probe.ledger.blockchain.full_history_available


# ---------------------------------------------------------------------------
# BTL: pruning never resurrects purged plaintext
# ---------------------------------------------------------------------------
class TestBtlNoResurrection:
    def test_expired_plaintext_stays_purged_through_bootstrap(self):
        net = _network(snapshot_every=4, prune=True, btl=2)
        _commit_private(net, "ephemeral", b"short-lived")
        # Committed at block 1, btl=2 -> purged once block 4 commits.
        _commit_public(net, 7)
        source = net.peers_of("Org1MSP")[0]
        assert source.query_private(CHAINCODE, COLLECTION, "ephemeral") is None
        hash_entry = source.ledger.private_hashes.get_by_key(
            CHAINCODE, COLLECTION, "ephemeral"
        )
        assert hash_entry is not None  # the hash outlives the purge

        probe = net.join_peer("Org2MSP", name="probe0")
        assert probe.ledger.height == net.orderer.delivered_count
        assert probe.query_private(CHAINCODE, COLLECTION, "ephemeral") is None
        probe_hash = probe.ledger.private_hashes.get_by_key(
            CHAINCODE, COLLECTION, "ephemeral"
        )
        assert probe_hash is not None
        assert probe_hash.value_hash == hash_entry.value_hash

    def test_value_expiring_during_tail_replay_is_purged_on_the_joiner(self):
        net = _network(snapshot_every=4, prune=False, btl=4)
        _commit_public(net, 3)
        _commit_private(net, "tail", b"expiring")  # block 3, expiry at 8
        _commit_public(net, 6, tag="b")  # snapshot at 4 holds it; purge at 8
        source = net.peers_of("Org1MSP")[0]
        assert source.query_private(CHAINCODE, COLLECTION, "tail") is None

        probe = net.join_peer("Org2MSP", name="probe0")
        # The snapshot shipped the plaintext alive; tail replay must have
        # re-run the expiry, not resurrected it.
        assert probe.ledger.blockchain.genesis_offset > 0
        assert probe.query_private(CHAINCODE, COLLECTION, "tail") is None


# ---------------------------------------------------------------------------
# the event runtime: join, crash, bounded-history restart
# ---------------------------------------------------------------------------
class TestRuntimeBoundedHistory:
    def _runtime_net(self, **kwargs):
        net = _network(batch_size=1, **kwargs)
        runtime = net.attach_runtime(seed=11)
        return net, runtime

    def test_runtime_join_bootstraps_over_pruned_backlog(self):
        net, runtime = self._runtime_net(snapshot_every=3, prune=True)
        _commit_private(net, "p1", b"secret-1")
        _commit_public(net, 6)
        runtime.run()
        # Every peer sealed at >= 6, so the runtime pruned the backlog.
        assert net.orderer.backlog_offset > 0
        probe = net.join_peer("Org2MSP", name="probe0")
        runtime.run()
        source = net.peers_of("Org2MSP")[0]
        assert probe.ledger.height == source.ledger.height
        assert probe.ledger.blockchain.genesis_offset > 0
        assert _public_state(probe) == _public_state(source)
        assert probe.query_private(CHAINCODE, COLLECTION, "p1") == b"secret-1"

    def test_restart_over_pruned_backlog_bootstraps_from_snapshot(self):
        net, runtime = self._runtime_net(snapshot_every=3, prune=True)
        _commit_public(net, 3)
        victim = net.peers_of("Org3MSP")[0]
        runtime.crash_peer(victim.name)
        survivors = [net.peers_of("Org1MSP")[0], net.peers_of("Org2MSP")[0]]
        client = net.client("Org1MSP")
        pendings = [
            client.submit_async(
                "assetcc", "create_asset", [f"c{i:04d}", str(i)],
                endorsing_peers=survivors,
            )
            for i in range(6)
        ]
        runtime.run()
        # The conservative floor (min sealed over *all* registered peers)
        # kept the backlog intact while the victim was down and unsealed.
        assert net.orderer.backlog_offset <= victim.ledger.height
        # An operator prunes past the victim's height anyway (e.g. the
        # outage outlived the retention window): the defensive restart
        # path must rebuild the peer from a snapshot, not fail.
        reference = net.peers_of("Org1MSP")[0]
        sealed = reference.latest_sealed_snapshot().manifest.height
        assert sealed > victim.ledger.height
        net.orderer.prune_delivered(sealed)
        runtime.restart_peer(victim.name)
        runtime.run()
        # The survivors committed everything; the victim reached the same
        # state via the snapshot rather than per-block commits, so the
        # per-transaction trackers are not consulted here.
        del pendings
        assert victim.ledger.height == reference.ledger.height
        assert victim.ledger.blockchain.genesis_offset > 0
        assert not victim.ledger.blockchain.full_history_available
        assert victim.ledger.blockchain.verify_chain()
        assert _public_state(victim) == _public_state(reference)

    def test_runtime_add_peer_refuses_a_pruned_backlog(self):
        """The runtime's cursor-based registration cannot replay archived
        blocks; a fresh full-replay join must raise, steering callers to
        ``join_peer``."""
        net, runtime = self._runtime_net(snapshot_every=3, prune=True)
        _commit_public(net, 6)
        runtime.run()
        assert net.orderer.backlog_offset > 0
        with pytest.raises(PrunedBacklogError):
            net.add_peer("Org1MSP", name="latecomer0")

    def test_conservative_floor_never_strands_a_live_peer(self):
        """The backlog floor is min(sealed) over registered peers, so a
        slow-but-live peer can always catch up via plain replay."""
        net, runtime = self._runtime_net(snapshot_every=3, prune=True)
        _commit_public(net, 4)
        runtime.run()
        laggard = net.peers()[2]
        floor = min(
            (p.latest_sealed_snapshot().manifest.height
             if p.latest_sealed_snapshot() else 0)
            for p in net.peers()
        )
        assert net.orderer.backlog_offset <= floor
        # Replay from any live peer's height must not raise.
        net.orderer.blocks_since(laggard.ledger.height)


# ---------------------------------------------------------------------------
# simulate CLI smoke
# ---------------------------------------------------------------------------
class TestSimulateFlags:
    def test_snapshot_and_prune_flags_run_clean(self, capsys):
        from repro.tools.simulate import main

        assert main([
            "--seeds", "2", "--ops", "40",
            "--snapshot-every", "4", "--prune", "--no-shrink",
        ]) == 0
        out = capsys.readouterr().out
        assert "0 failing" in out


# ---------------------------------------------------------------------------
# the store's row layout: manifest, rows, one row per signature, a seal marker
# ---------------------------------------------------------------------------
def _rows_of(backend) -> dict:
    return {ns: dict(backend.range(ns)) for ns in backend.namespaces()}


def _wal_peer(net: FabricNetwork, directory):
    """A WAL-backed copy of org 1's peer, outside the network's gossip,
    caught up with the chain and holding its own (unsealed) snapshot."""
    source = net.peers_of("Org1MSP")[0]
    peer = PeerNode(
        identity=source.identity, channel=net.channel,
        backend=WalBackend(directory, compact_every=10**9),
    )
    for block in net.orderer.delivered_blocks:
        peer.deliver_block(block)
    return peer, peer.produce_snapshot().manifest


def _co_sign(net: FabricNetwork, org: int, manifest):
    signer = net.peers_of(f"Org{org}MSP")[0]
    return manifest, signer.certificate, signer.identity.sign(manifest.signing_bytes())


def _checkpoints(net: FabricNetwork, peer, count: int) -> list:
    """``count`` snapshots of ``peer``, two blocks apart, each signed only
    by ``peer`` — unsealed in a five-org network; their manifests."""
    manifests = []
    for i in range(count):
        _commit_public(net, 2, tag=f"c{peer.ledger.height}-")
        manifests.append(peer.produce_snapshot().manifest)
    return manifests


def _seal(net: FabricNetwork, peer, manifest) -> None:
    """Deliver the two co-signatures that complete ``manifest``'s quorum."""
    for org in (2, 3):
        peer.receive_snapshot_sig(*_co_sign(net, org, manifest))


def _under(height: int, keys) -> list:
    """The snapshot-store keys of ``height``."""
    return [key for key in keys if split_key(key)[0] == f"{height:016d}"]


class TestSnapshotStoreRows:
    def test_a_signature_receipt_stages_one_small_op(self, monkeypatch):
        net = _network(org_count=5)  # MAJORITY: three orgs seal
        _commit_public(net, 2)
        peer = net.peers_of("Org1MSP")[0]
        manifest = peer.produce_snapshot().manifest
        batches = []
        real_commit = peer.ledger.backend.commit
        monkeypatch.setattr(
            peer.ledger.backend, "commit",
            lambda batch: batches.append(list(batch.ops)) or real_commit(batch),
        )
        peer.receive_snapshot_sig(*_co_sign(net, 2, manifest))
        [ops] = batches
        [(namespace, key, value)] = ops
        assert namespace == NS_SNAPSHOTS
        assert len(key.encode()) + len(value) < 1024
        record = peer.snapshots.get(manifest.height)
        assert set(record.signatures) == {peer.name, net.peers_of("Org2MSP")[0].name}
        assert not record.sealed
        # The receipt that completes the quorum stages its row and the
        # seal marker together.
        peer.receive_snapshot_sig(*_co_sign(net, 3, manifest))
        assert len(batches) == 2 and len(batches[1]) == 2
        assert peer.snapshots.get(manifest.height).sealed

    def test_divergent_or_repeated_signatures_write_nothing(self, monkeypatch):
        net = _network(org_count=5)
        _commit_public(net, 2)
        peer = net.peers_of("Org1MSP")[0]
        manifest = peer.produce_snapshot().manifest
        peer.receive_snapshot_sig(*_co_sign(net, 2, manifest))
        batches = []
        monkeypatch.setattr(peer.ledger.backend, "commit", batches.append)
        peer.receive_snapshot_sig(*_co_sign(net, 2, manifest))
        other = dataclasses.replace(manifest, state_hash="0" * 64)
        peer.receive_snapshot_sig(*_co_sign(net, 3, other))
        assert batches == []

    def test_a_seal_drops_every_row_of_a_dropped_height_and_nothing_else(self):
        net = _network(org_count=5)
        peer = net.peers_of("Org1MSP")[0]
        oldest, late, *_ = _checkpoints(net, peer, 4)
        peer.receive_snapshot_sig(*_co_sign(net, 2, oldest))  # a second row
        peer.receive_snapshot_sig(*_co_sign(net, 2, late))
        before = _rows_of(peer.ledger.backend)
        assert len(_under(oldest.height, before[NS_SNAPSHOTS])) == 4
        peer.receive_snapshot_sig(*_co_sign(net, 3, late))  # the quorum
        after = _rows_of(peer.ledger.backend)
        rows, rows_before = after.pop(NS_SNAPSHOTS), before.pop(NS_SNAPSHOTS)
        assert after == before
        gone = set(_under(oldest.height, rows_before))
        added = set(rows) - set(rows_before)
        assert set(rows) == set(rows_before) - gone | added
        assert sorted(split_key(key)[1] for key in added) == ["sealed", "sig"]
        assert sorted(_under(late.height, added)) == sorted(added)
        assert all(rows[key] == rows_before[key] for key in rows if key not in added)

    def test_a_late_seal_of_a_dropped_height_leaves_no_row(self):
        """Heights a (unsealed), b (sealed), c and d, then a's quorum: the
        seal drops a, and neither its last signature nor its marker stays
        behind without a manifest."""
        net = _network(org_count=5)
        peer = net.peers_of("Org1MSP")[0]
        a, b = _checkpoints(net, peer, 2)
        _seal(net, peer, b)
        c, d = _checkpoints(net, peer, 2)
        _seal(net, peer, a)
        keys = [key for key, _ in peer.ledger.backend.range(NS_SNAPSHOTS)]
        assert _under(a.height, keys) == []
        assert [r.manifest.height for r in peer.snapshots.records()] == [
            b.height, c.height, d.height,
        ]
        assert peer.snapshots.latest_sealed_height() == b.height
        # A signature arriving after the drop writes nothing either.
        peer.receive_snapshot_sig(*_co_sign(net, 4, a))
        assert [key for key, _ in peer.ledger.backend.range(NS_SNAPSHOTS)] == keys

    def _sweep(self, tmp_path, peer, act):
        """Run ``act``, then recover from every torn prefix of what it wrote:
        each must come back exactly as before ``act`` or exactly as after."""
        log = peer.ledger.backend.directory / WAL_FILE
        before_log, before = log.read_bytes(), _rows_of(peer.ledger.backend)
        act()
        full_log, after = log.read_bytes(), _rows_of(peer.ledger.backend)
        assert full_log.startswith(before_log) and after != before
        seen = set()
        for cut in range(len(before_log), len(full_log) + 1):
            work = tmp_path / f"cut{cut}"
            work.mkdir()
            (work / WAL_FILE).write_bytes(full_log[:cut])
            recovered = WalBackend(work, compact_every=10**9)
            state = _rows_of(recovered)
            assert state in (before, after), f"torn at byte {cut}"
            seen.add(state == after)
            recovered.crash()
        assert seen == {False, True}
        return before, after

    def test_a_signature_receipt_recovers_before_or_after_at_every_byte(self, tmp_path):
        net = _network(org_count=5)
        _commit_public(net, 2)
        peer, manifest = _wal_peer(net, tmp_path / "peer")
        self._sweep(tmp_path, peer, lambda: peer.receive_snapshot_sig(
            *_co_sign(net, 2, manifest)
        ))
        assert len(peer.snapshots.get(manifest.height).signatures) == 2

    def test_a_seal_recovers_before_or_after_at_every_byte(self, tmp_path):
        net = _network(org_count=5)
        _commit_public(net, 2)
        peer, manifest = _wal_peer(net, tmp_path / "peer")
        peer.receive_snapshot_sig(*_co_sign(net, 2, manifest))
        before, after = self._sweep(tmp_path, peer, lambda: peer.receive_snapshot_sig(
            *_co_sign(net, 3, manifest)
        ))
        assert peer.snapshots.latest_sealed_height() == manifest.height
        marker = [key for key in after[NS_SNAPSHOTS] if key.endswith("sealed")]
        assert len(marker) == 1 and marker[0] not in before[NS_SNAPSHOTS]


class WholeRecordStore(SnapshotStore):
    """The previous layout: each record one pickled row, read and rewritten
    whole by every signature and seal — what the row layout must match."""

    @staticmethod
    def _key(height: int) -> str:
        return f"{height:016d}"

    def _load(self, height: int, batch=None):
        raw = read_through(self._ledger.backend, batch, NS_SNAPSHOTS, self._key(height))
        return pickle.loads(raw) if raw is not None else None

    def _save(self, batch, record) -> None:
        batch.put(NS_SNAPSHOTS, self._key(record.manifest.height), pickle.dumps(record))

    def _heights(self, kind: str) -> list:
        return [
            int(key) for key, raw in self._ledger.backend.range(NS_SNAPSHOTS)
            if kind == "manifest" or pickle.loads(raw).sealed
        ]

    def stage_record(self, batch, record) -> None:
        self._save(batch, dataclasses.replace(record, signatures=dict(record.signatures)))
        if record.sealed:
            self._retain(batch, record.manifest.height)

    def get(self, height):
        return self._load(height)

    def manifest_bytes(self, height):
        record = self._load(height)
        return None if record is None else record.manifest.signing_bytes()

    def has_signature(self, height, enrollment_id) -> bool:
        return enrollment_id in self._load(height).signatures

    def certificates(self, height) -> list:
        return [certificate for certificate, _ in self._load(height).signatures.values()]

    def is_sealed(self, height) -> bool:
        return self._load(height).sealed

    def stage_signature(self, batch, height, certificate, signature, seal=False) -> None:
        record = self._load(height, batch)
        record.signatures[certificate.enrollment_id] = (certificate, signature)
        record.sealed = record.sealed or seal
        self._save(batch, record)
        if seal:
            self._retain(batch, height)

    def _retain(self, batch, height) -> None:
        """After ``height`` seals: drop each whole record but the newest
        few and the newest sealed one."""
        heights = sorted(set(self._heights("manifest")) | {height})
        kept = set(heights[-RETAIN_SNAPSHOTS:]) | {max(self._heights("sealed") + [height])}
        for dropped in heights:
            if dropped not in kept:
                batch.delete(NS_SNAPSHOTS, self._key(dropped))


class TestRowLayoutMatchesWholeRecords:
    def test_every_record_of_a_seeded_wal_run_equals_the_whole_record_store(
        self, monkeypatch
    ):
        from repro.peer import node as node_module
        from repro.simulation import harness
        from repro.simulation.config import SimulationConfig

        config = SimulationConfig(
            seed=5, ops=30, org_count=5, peers_per_org=2,
            pdc1_members=("Org1MSP", "Org2MSP", "Org3MSP"),
            workload="mixed", mean_gap=1.0, batch_size=4, jitter=0.2,
            state_backend="wal", snapshot_every=3, prune=True,
        )
        ops, faults = harness.generate(config)

        def run(store_class):
            monkeypatch.setattr(node_module, "SnapshotStore", store_class)
            trail = []

            def watched(method):
                def call(self, *args):
                    result = method(self, *args)
                    heights = [r.manifest.height for r in self.snapshots.records()]
                    trail.append((self.name, [self.snapshots.get(h) for h in heights]))
                    # No row outlives its height's manifest: ``records()``
                    # would not show one that did.
                    stored = {
                        split_key(key)[0] for key, _ in self.ledger.backend.range(NS_SNAPSHOTS)
                    }
                    assert stored == {f"{height:016d}" for height in heights}
                    return result
                return call

            for name in ("produce_snapshot", "receive_snapshot_sig"):
                monkeypatch.setattr(PeerNode, name, watched(getattr(PeerNode, name)))
            report = harness.execute(config, ops, faults)
            monkeypatch.undo()
            assert report.ok, [str(v) for v in report.violations[:3]]
            return report.stats["state_digest"], trail

        digest, trail = run(SnapshotStore)
        reference_digest, reference_trail = run(WholeRecordStore)
        assert digest == reference_digest
        assert len(trail) > 100 and any(records for _, records in trail)
        assert trail == reference_trail
