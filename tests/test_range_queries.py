"""Tests for range queries and phantom-read protection."""

from __future__ import annotations

import pytest

from repro.chaincode.contracts import AssetContract
from repro.protocol.transaction import ValidationCode


@pytest.fixture
def asset_net(public_network):
    client = public_network.client("Org1MSP")
    endorsers = [public_network.peers_of("Org1MSP")[0], public_network.peers_of("Org2MSP")[0]]
    for asset_id, value in (("a", "1"), ("b", "2"), ("c", "3")):
        client.submit_transaction(
            "assetcc", "create_asset", [asset_id, value], endorsing_peers=endorsers
        ).raise_for_status()
    return public_network, client, endorsers


class TestRangeScan:
    def test_list_assets(self, asset_net):
        _net, client, _endorsers = asset_net
        listing = client.evaluate_transaction("assetcc", "list_assets", [])
        assert listing == b"a=1,b=2,c=3"

    def test_range_query_recorded(self, asset_net):
        net, client, endorsers = asset_net
        proposal = client._proposal("assetcc", "list_assets", [])
        output = net.request_endorsement(endorsers[0], proposal)
        ns = output.response.payload.results.namespace("assetcc")
        assert len(ns.range_queries) == 1
        query = ns.range_queries[0]
        assert query.start_key == "asset:"
        assert [r.key for r in query.reads] == ["asset:a", "asset:b", "asset:c"]
        assert all(r.version is not None for r in query.reads)

    def test_scan_sees_own_pending_writes(self, channel, three_orgs):
        from repro.chaincode.stub import ChaincodeStub
        from repro.ledger.ledger import PeerLedger
        from repro.ledger.version import Version
        from repro.protocol.proposal import new_proposal

        channel.deploy_chaincode("assetcc")
        ledger = PeerLedger()
        ledger.world_state.put("assetcc", "asset:a", b"1", Version(0, 0))
        client = channel.organization("Org1MSP").enroll_client()
        proposal = new_proposal("testchannel", "assetcc", "fn", [], client.certificate)
        stub = ChaincodeStub(proposal, ledger, channel, "Org1MSP")
        stub.put_state("asset:b", b"2")
        stub.del_state("asset:a")
        results = stub.get_state_by_range("asset:", "asset;")
        assert results == [("asset:b", b"2")]
        # The recorded query info reflects only COMMITTED state.
        ns = stub.build_result().rwset.namespace("assetcc")
        assert [r.key for r in ns.range_queries[0].reads] == ["asset:a"]

    def test_unbounded_scan(self, channel):
        from repro.chaincode.stub import ChaincodeStub
        from repro.ledger.ledger import PeerLedger
        from repro.ledger.version import Version
        from repro.protocol.proposal import new_proposal

        channel.deploy_chaincode("assetcc")
        ledger = PeerLedger()
        ledger.world_state.put("assetcc", "x", b"1", Version(0, 0))
        ledger.world_state.put("assetcc", "y", b"2", Version(0, 0))
        client = channel.organization("Org1MSP").enroll_client()
        stub = ChaincodeStub(
            new_proposal("testchannel", "assetcc", "fn", [], client.certificate),
            ledger, channel, "Org1MSP",
        )
        assert [k for k, _ in stub.get_state_by_range("", "")] == ["x", "y"]


class TestPhantomProtection:
    """The parked scan commits on-chain as PHANTOM_READ_CONFLICT — the
    arrival-order reference outcome (reordering is off by default)."""

    def _park_scan(self, net, client, endorsers):
        """Endorse (but do not submit) a range-scanning transaction."""
        proposal = client._proposal("assetcc", "list_assets", [])
        responses = [net.request_endorsement(p, proposal).response for p in endorsers]
        return client.assemble(proposal, responses)

    def test_insert_into_range_invalidates(self, asset_net):
        net, client, endorsers = asset_net
        parked = self._park_scan(net, client, endorsers)
        client.submit_transaction(
            "assetcc", "create_asset", ["b2", "9"], endorsing_peers=endorsers
        ).raise_for_status()
        result = net.submit_envelope(parked)
        assert result.status is ValidationCode.PHANTOM_READ_CONFLICT

    def test_delete_from_range_invalidates(self, asset_net):
        net, client, endorsers = asset_net
        parked = self._park_scan(net, client, endorsers)
        client.submit_transaction(
            "assetcc", "delete_asset", ["b"], endorsing_peers=endorsers
        ).raise_for_status()
        result = net.submit_envelope(parked)
        assert result.status is ValidationCode.PHANTOM_READ_CONFLICT

    def test_update_within_range_invalidates(self, asset_net):
        net, client, endorsers = asset_net
        parked = self._park_scan(net, client, endorsers)
        client.submit_transaction(
            "assetcc", "update_asset", ["b", "99"], endorsing_peers=endorsers
        ).raise_for_status()
        result = net.submit_envelope(parked)
        assert result.status is ValidationCode.PHANTOM_READ_CONFLICT

    def test_untouched_range_stays_valid(self, asset_net):
        net, client, endorsers = asset_net
        parked = self._park_scan(net, client, endorsers)
        # A write in a DIFFERENT namespace (a private write on pdccc)
        # does not disturb the scanned assetcc range.
        client.submit_transaction(
            "pdccc", "set_private", ["PDC1", "unrelated"],
            transient={"value": b"x"}, endorsing_peers=endorsers,
        ).raise_for_status()
        result = net.submit_envelope(parked)
        assert result.status is ValidationCode.VALID

    def test_intra_block_insert_invalidates(self, asset_net):
        net, client, endorsers = asset_net
        parked_scan = self._park_scan(net, client, endorsers)
        proposal = client._proposal("assetcc", "create_asset", ["zz", "7"])
        responses = [net.request_endorsement(p, proposal).response for p in endorsers]
        insert = client.assemble(proposal, responses)
        # Both into one block: the insert orders first.
        net.orderer.submit(insert)
        net.orderer.submit(parked_scan)
        net.orderer.flush()
        net.runtime.run()  # deliver the cut block
        peer = net.peers_of("Org1MSP")[0]
        assert peer.transaction_status(insert.tx_id) is ValidationCode.VALID
        assert peer.transaction_status(parked_scan.tx_id) is ValidationCode.PHANTOM_READ_CONFLICT
