"""Tests for the client EventHub and the file wallet."""

from __future__ import annotations

import base64

import pytest

from repro.client.events import EventHub
from repro.common.crypto import N
from repro.common.errors import IdentityError
from repro.identity.organization import Organization
from repro.identity.wallet import FileWallet, identity_from_json, identity_to_json
from repro.protocol.transaction import ValidationCode


class TestEventHub:
    def _write(self, network, key="k", value=b"v"):
        return network.client("Org1MSP").submit_transaction(
            "pdccc", "set_private", ["PDC1", key],
            transient={"value": value},
            endorsing_peers=[network.peers_of("Org1MSP")[0], network.peers_of("Org2MSP")[0]],
        )

    def test_commit_events_collected(self, network):
        hub = EventHub(network.peers_of("Org3MSP")[0])
        result = self._write(network)
        assert hub.status_of(result.tx_id) is ValidationCode.VALID
        assert hub.commit_events[0].chaincode_id == "pdccc"
        assert hub.commit_events[0].block_number == 0

    def test_invalid_tx_status_delivered(self, network):
        hub = EventHub(network.peers_of("Org3MSP")[0])
        result = network.client("Org1MSP").submit_transaction(
            "pdccc", "set_private", ["PDC1", "k"],
            transient={"value": b"v"},
            endorsing_peers=[network.peers_of("Org1MSP")[0]],
        )
        assert hub.status_of(result.tx_id) is ValidationCode.ENDORSEMENT_POLICY_FAILURE

    def test_no_replay_by_default(self, network):
        self._write(network, "pre")
        hub = EventHub(network.peers_of("Org1MSP")[0])
        assert hub.commit_events == []
        self._write(network, "post")
        assert len(hub.commit_events) == 1

    def test_replay_from_genesis(self, network):
        self._write(network, "pre")
        hub = EventHub(network.peers_of("Org1MSP")[0], replay_from_genesis=True)
        assert len(hub.commit_events) == 1

    def test_chaincode_events_reach_nonmember_applications(self, network):
        """The event leak channel end-to-end: an app on the NON-member
        org3 peer receives the private value in the event payload."""
        from repro.chaincode.api import Chaincode

        class Noisy(Chaincode):
            def announce(self, stub, args):
                value = stub.get_transient("value")
                stub.put_private_data("PDC1", args[0], value)
                stub.set_event("Updated", value)
                return b""

        network.install_chaincode("pdccc", Noisy())
        hub = EventHub(network.peers_of("Org3MSP")[0])
        network.client("Org1MSP").submit_transaction(
            "pdccc", "announce", ["k"],
            transient={"value": b"private!"},
            endorsing_peers=[network.peers_of("Org1MSP")[0], network.peers_of("Org2MSP")[0]],
        ).raise_for_status()
        events = hub.events_named("Updated")
        assert len(events) == 1
        assert events[0].payload == b"private!"

    def test_invalid_tx_events_not_delivered(self, network):
        from repro.chaincode.api import Chaincode

        class Noisy(Chaincode):
            def announce(self, stub, args):
                stub.put_private_data("PDC1", "k", b"v")
                stub.set_event("Updated", b"x")
                return b""

        network.install_chaincode("pdccc", Noisy())
        hub = EventHub(network.peers_of("Org3MSP")[0])
        network.client("Org1MSP").submit_transaction(
            "pdccc", "announce", [],
            endorsing_peers=[network.peers_of("Org1MSP")[0]],  # fails policy
        )
        assert hub.events_named("Updated") == []


class TestWallet:
    def test_roundtrip(self, tmp_path):
        wallet = FileWallet(tmp_path / "wallet")
        identity = Organization("Org1MSP").enroll_client("appuser")
        wallet.put("appuser", identity)
        loaded = wallet.get("appuser")
        assert loaded.enrollment_id == identity.enrollment_id
        assert loaded.certificate.public_key == identity.certificate.public_key
        # The reloaded identity still signs verifiably.
        signature = loaded.sign(b"m")
        assert identity.certificate.public_key.verify(b"m", signature)

    def test_exists(self, tmp_path):
        wallet = FileWallet(tmp_path)
        org = Organization("Org1MSP")
        wallet.put("a", org.enroll_client("a"))
        wallet.put("b", org.enroll_client("b"))
        assert wallet.exists("a") and wallet.exists("b") and not wallet.exists("c")

    def test_remove(self, tmp_path):
        wallet = FileWallet(tmp_path)
        wallet.put("x", Organization("O").enroll_client("x"))
        wallet.remove("x")
        assert not wallet.exists("x")
        with pytest.raises(IdentityError):
            wallet.remove("x")

    def test_missing_entry(self, tmp_path):
        with pytest.raises(IdentityError):
            FileWallet(tmp_path).get("ghost")

    def test_corrupt_entry(self, tmp_path):
        wallet = FileWallet(tmp_path)
        (tmp_path / "bad.id").write_text("{not json", encoding="utf-8")
        with pytest.raises(IdentityError):
            wallet.get("bad")

    def test_mismatched_keypair_rejected(self):
        org = Organization("Org1MSP")
        a = org.enroll_client("a")
        b = org.enroll_client("b")
        document = identity_to_json(a)
        document["private_key_x"] = str(b.private_key.x)
        with pytest.raises(IdentityError, match="does not match"):
            identity_from_json(document)

    @pytest.mark.parametrize("x", [0, -1, N, 2**256], ids=["zero", "negative", "n", "2^256"])
    def test_out_of_range_private_key_rejected(self, x):
        document = identity_to_json(Organization("Org1MSP").enroll_client("a"))
        document["private_key_x"] = str(x)
        with pytest.raises(IdentityError, match="malformed"):
            identity_from_json(document)

    def test_negated_public_key_rejected(self):
        # -Q shares Q's x coordinate; only the parity prefix differs.
        document = identity_to_json(Organization("Org1MSP").enroll_client("a"))
        point = bytearray(base64.b64decode(document["public_key"]))
        point[0] ^= 1
        document["public_key"] = base64.b64encode(bytes(point)).decode("ascii")
        with pytest.raises(IdentityError, match="does not match"):
            identity_from_json(document)

    def test_bad_labels_rejected(self, tmp_path):
        wallet = FileWallet(tmp_path)
        identity = Organization("O").enroll_client("x")
        for label in ("", "../evil", ".hidden"):
            with pytest.raises(IdentityError):
                wallet.put(label, identity)

    def test_reloaded_identity_usable_in_network(self, tmp_path, network):
        """A wallet-loaded client transacts like a fresh one."""
        from repro.client.gateway import Gateway

        wallet = FileWallet(tmp_path)
        original = network.channel.organization("Org1MSP").enroll_client("walletuser")
        wallet.put("walletuser", original)
        gateway = Gateway(identity=wallet.get("walletuser"), network=network)
        result = gateway.submit_transaction(
            "pdccc", "set_private", ["PDC1", "k"],
            transient={"value": b"1"},
            endorsing_peers=[network.peers_of("Org1MSP")[0], network.peers_of("Org2MSP")[0]],
        )
        assert result.committed
