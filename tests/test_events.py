"""Tests for chaincode events and the event leak channel."""

from __future__ import annotations

import pytest

from repro.chaincode.api import Chaincode
from repro.common.errors import EndorsementError
from repro.common.hashing import sha256
from repro.core.attacks import harvest_payloads
from repro.core.defense.features import FrameworkFeatures


class EventfulContract(Chaincode):
    """Writes private data and (sloppily) announces it via an event."""

    def set_private_with_event(self, stub, args):
        collection, key = args
        value = stub.get_transient("value")
        stub.put_private_data(collection, key, value)
        stub.set_event("PrivateAssetUpdated", value)  # the leak
        return b""

    def set_private_with_safe_event(self, stub, args):
        collection, key = args
        value = stub.get_transient("value")
        stub.put_private_data(collection, key, value)
        stub.set_event("PrivateAssetUpdated", key.encode("utf-8"))  # key only
        return b""

    def bad_event(self, stub, args):
        stub.set_event("", b"x")
        return b""


@pytest.fixture
def eventful(network):
    network.install_chaincode("pdccc", EventfulContract())
    endorsers = [network.peers_of("Org1MSP")[0], network.peers_of("Org2MSP")[0]]
    return network, network.client("Org1MSP"), endorsers


class TestEvents:
    def test_event_committed_with_transaction(self, eventful):
        net, client, endorsers = eventful
        result = client.submit_transaction(
            "pdccc", "set_private_with_event", ["PDC1", "k"],
            transient={"value": b"secret"}, endorsing_peers=endorsers,
        )
        result.raise_for_status()
        assert result.envelope.payload.event.name == "PrivateAssetUpdated"
        assert result.envelope.payload.event.payload == b"secret"

    def test_empty_event_name_rejected(self, eventful):
        _, client, endorsers = eventful
        with pytest.raises(EndorsementError):
            client.evaluate_transaction("pdccc", "bad_event", [], peer=endorsers[0])

    def test_event_payload_leaks_to_nonmembers(self, eventful):
        net, client, endorsers = eventful
        client.submit_transaction(
            "pdccc", "set_private_with_event", ["PDC1", "k"],
            transient={"value": b"secret"}, endorsing_peers=endorsers,
        ).raise_for_status()
        nonmember = net.peers_of("Org3MSP")[0]
        records = harvest_payloads(nonmember, "pdccc", "PDC1")
        assert any(r.event_payload == b"secret" for r in records)

    def test_feature2_hashes_event_payload(self, channel):
        from repro.network.network import FabricNetwork

        net = FabricNetwork(channel=channel, features=FrameworkFeatures.feature2_only())
        peers = [net.add_peer(f"Org{i}MSP") for i in (1, 2, 3)]
        net.install_chaincode("pdccc", EventfulContract())
        client = net.client("Org1MSP")
        result = client.submit_transaction(
            "pdccc", "set_private_with_event", ["PDC1", "k"],
            transient={"value": b"secret"}, endorsing_peers=peers[:2],
        )
        result.raise_for_status()
        assert result.envelope.payload.event.payload == sha256(b"secret")
        records = harvest_payloads(peers[2], "pdccc", "PDC1")
        assert all(r.event_payload != b"secret" for r in records)

    def test_event_part_of_signed_bytes(self, eventful):
        """Tampering with the event invalidates the endorsements."""
        from dataclasses import replace

        from repro.protocol.response import ChaincodeEvent
        from repro.protocol.transaction import ValidationCode

        net, client, endorsers = eventful
        proposal = client._proposal(
            "pdccc", "set_private_with_event", ["PDC1", "k"], {"value": b"v"}
        )
        responses = [net.request_endorsement(p, proposal).response for p in endorsers]
        envelope = client.assemble(proposal, responses)
        forged_payload = replace(
            envelope.payload, event=ChaincodeEvent(name="Evil", payload=b"spoof")
        )
        forged = replace(envelope, payload=forged_payload)
        forged = replace(forged, signature=client.identity.sign(forged.signed_bytes()))
        result = net.submit_envelope(forged)
        assert result.status is ValidationCode.ENDORSEMENT_POLICY_FAILURE


class TestEventLeakDetector:
    def test_go_event_leak_detected(self):
        from repro.core.analyzer.languages import scan_file
        from repro.core.analyzer.source import ProjectFile

        code = """package main
func announce(stub shim.ChaincodeStubInterface, args []string) (string, error) {
\tasset, err := stub.GetPrivateData("demo", args[0])
\tif err != nil {
\t\treturn "", err
\t}
\tstub.SetEvent("AssetRead", asset)
\treturn "ok", nil
}
"""
        assert scan_file(ProjectFile(path="cc.go", content=code))["event_leak"] == ["announce"]

    def test_safe_event_not_flagged(self):
        from repro.core.analyzer.languages import scan_file
        from repro.core.analyzer.source import ProjectFile

        code = """package main
func announce(stub shim.ChaincodeStubInterface, args []string) (string, error) {
\tasset, err := stub.GetPrivateData("demo", args[0])
\tif err != nil || asset == nil {
\t\treturn "", err
\t}
\tstub.SetEvent("AssetRead", []byte(args[0]))
\treturn "ok", nil
}
"""
        assert scan_file(ProjectFile(path="cc.go", content=code))["event_leak"] == []

    def test_no_private_read_no_event_leak(self):
        from repro.core.analyzer.languages import scan_file
        from repro.core.analyzer.source import ProjectFile

        code = """package main
func announce(stub shim.ChaincodeStubInterface, args []string) (string, error) {
\tstub.SetEvent("Public", []byte(args[0]))
\treturn "ok", nil
}
"""
        assert scan_file(ProjectFile(path="cc.go", content=code))["event_leak"] == []
