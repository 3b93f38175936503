"""Tests for canonical serialization."""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.identity.identity as identity_module
import repro.protocol.proposal as proposal_module
from repro.chaincode.contracts import PrivateAssetContract
from repro.common.hashing import sha256, sha256_hex
from repro.common.serialization import (
    Memoized,
    canonical_bytes,
    clear_serialization_memos,
    from_canonical_bytes,
)
from repro.identity.identity import Certificate
from repro.ledger.snapshot import SnapshotManifest
from repro.network.presets import three_org_network
from repro.peer.node import PeerNode
from repro.protocol.proposal import Proposal
from repro.protocol.response import Endorsement, ProposalResponsePayload
from repro.protocol.transaction import TransactionEnvelope
from repro.simulation import harness
from repro.simulation.config import SimulationConfig


class TestCanonicalBytes:
    def test_dict_key_order_irrelevant(self):
        assert canonical_bytes({"a": 1, "b": 2}) == canonical_bytes({"b": 2, "a": 1})

    def test_bytes_roundtrip(self):
        payload = {"data": b"\x00\xff binary \x01"}
        assert from_canonical_bytes(canonical_bytes(payload)) == payload

    def test_nested_structures(self):
        doc = {"outer": [{"inner": b"x"}, [1, 2, 3], "text", None, True]}
        restored = from_canonical_bytes(canonical_bytes(doc))
        assert restored == {"outer": [{"inner": b"x"}, [1, 2, 3], "text", None, True]}

    def test_tuple_serializes_like_list(self):
        assert canonical_bytes({"v": (1, 2)}) == canonical_bytes({"v": [1, 2]})

    def test_deterministic(self):
        doc = {"k": [b"ab", {"z": 1, "a": 2}]}
        assert canonical_bytes(doc) == canonical_bytes(doc)

    def test_distinct_values_distinct_bytes(self):
        assert canonical_bytes({"v": b"a"}) != canonical_bytes({"v": b"b"})

    def test_bytes_and_string_distinct(self):
        assert canonical_bytes({"v": b"abc"}) != canonical_bytes({"v": "abc"})

    def test_to_wire_objects_supported(self):
        class Wired:
            def to_wire(self):
                return {"x": 1}

        assert canonical_bytes(Wired()) == canonical_bytes({"x": 1})

    def test_unserializable_raises(self):
        with pytest.raises(TypeError):
            canonical_bytes(object())

    def test_non_string_keys_coerced(self):
        assert canonical_bytes({1: "a"}) == canonical_bytes({"1": "a"})


json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**31), max_value=2**31),
    st.text(max_size=20),
    st.binary(max_size=20),
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=20,
)


class TestProperties:
    @settings(max_examples=200, deadline=None)
    @given(value=json_values)
    def test_roundtrip(self, value):
        restored = from_canonical_bytes(canonical_bytes(value))
        assert canonical_bytes(restored) == canonical_bytes(value)

    @settings(max_examples=200, deadline=None)
    @given(value=json_values)
    def test_deterministic(self, value):
        assert canonical_bytes(value) == canonical_bytes(value)


# ---------------------------------------------------------------------------
# The splicing encoder against its specification
# ---------------------------------------------------------------------------

def _spec_encode(obj):
    if isinstance(obj, bytes):
        return {"__b64__": base64.b64encode(obj).decode("ascii")}
    if isinstance(obj, dict):
        return {str(k): _spec_encode(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_spec_encode(v) for v in obj]
    if obj is None or isinstance(obj, (str, int, float, bool)):
        return obj
    return _spec_encode(obj.to_wire())


def reference_bytes(obj) -> bytes:
    """What ``canonical_bytes`` must produce: ``json.dumps`` over a
    base64-tagged, ``to_wire``-expanded copy."""
    return json.dumps(_spec_encode(obj), sort_keys=True, separators=(",", ":")).encode("utf-8")


class Wired:
    """A message that converts itself with ``to_wire`` only."""

    def __init__(self, wire):
        self.wire = wire

    def to_wire(self):
        return self.wire


@dataclass(frozen=True)
class Spliced(Memoized):
    """A message that memoizes its own encoding, which is spliced."""

    wire: object

    def to_wire(self):
        return self.wire

    def wire_bytes(self) -> bytes:
        return self._memo("_wire", lambda: canonical_bytes(self.to_wire()))


data_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(),  # every code point but surrogates: non-ASCII and control characters
    st.binary(max_size=40),
)
data_values = st.recursive(
    data_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.one_of(st.text(max_size=8), st.integers()), children, max_size=4),
        children.map(Wired),
        children.map(Spliced),
    ),
    max_leaves=25,
)


class TestSplicingEncoder:
    @settings(max_examples=400, deadline=None)
    @given(value=data_values)
    def test_equals_the_reference_encoding(self, value):
        assert canonical_bytes(value) == reference_bytes(value)

    @settings(max_examples=100, deadline=None)
    @given(value=data_values)
    def test_a_spliced_memo_equals_the_reference_in_every_epoch(self, value):
        message = Spliced({"inner": Spliced(value), "again": [Spliced(value)]})
        first = canonical_bytes([message, message])
        clear_serialization_memos()
        assert first == canonical_bytes([message, message]) == reference_bytes([message, message])

    def test_edge_cases(self):
        for value in (
            {}, [], (), {"": {}}, {1: "int key", "1": "same key as text"},
            {10: "sorted as text", 9: "so 10 first"}, "\x00\x1f\x7f\"\\/é😀",
            [float("nan"), float("inf"), float("-inf"), -0.0, 1e300], 2 ** 200,
            [True, False, None, 0, 1], b"", {"__b64__": "a look-alike tag"},
        ):
            assert canonical_bytes(value) == reference_bytes(value), value


# ---------------------------------------------------------------------------
# Every memo of a run equals a from-scratch encoding
# ---------------------------------------------------------------------------

def _envelope_wire(env) -> dict:
    return {
        "tx_id": env.tx_id,
        "channel_id": env.channel_id,
        "chaincode_id": env.chaincode_id,
        "creator": env.creator.to_wire(),
        "payload": env.payload.to_wire(),
        "endorsements": [e.to_wire() for e in env.endorsements],
        "function": env.function,
        "args": list(env.args),
    }


def _header_wire(proposal) -> dict:
    return {
        "channel_id": proposal.channel_id,
        "chaincode_id": proposal.chaincode_id,
        "function": proposal.function,
        "args": list(proposal.args),
        "creator": proposal.creator.to_wire(),
        "nonce": proposal.nonce,
    }


def _simulation_wire(proposal) -> dict:
    wire = _header_wire(proposal)
    del wire["nonce"]
    wire["transient"] = dict(proposal.transient)
    return wire


def _body_wire(certificate) -> dict:
    wire = certificate.to_wire()
    del wire["issuer_signature"]
    return wire


def _manifest_wire(manifest) -> dict:
    return {
        "kind": "snapshot-manifest",
        "channel": manifest.channel_id,
        "height": manifest.height,
        "last_block_hash": manifest.last_block_hash,
        "state_hash": manifest.state_hash,
        "collections": [list(entry) for entry in manifest.collection_digests],
    }


#: ``(memo attribute, type) -> (accessor, from-scratch value)`` for every memo.
MEMOS = {
    ("_serialized", TransactionEnvelope): (
        TransactionEnvelope.signed_bytes, lambda env: reference_bytes(_envelope_wire(env))
    ),
    ("_serialized", ProposalResponsePayload): (
        ProposalResponsePayload.bytes, lambda p: reference_bytes(p.to_wire())
    ),
    ("_wire", Endorsement): (Endorsement.wire_bytes, lambda e: reference_bytes(e.to_wire())),
    ("_header_bytes", Proposal): (
        Proposal.header_bytes, lambda p: reference_bytes(_header_wire(p))
    ),
    ("_proposal_hash", Proposal): (
        Proposal.proposal_hash, lambda p: sha256(reference_bytes(_header_wire(p)))
    ),
    ("_sim_digest", Proposal): (
        Proposal.simulation_digest, lambda p: sha256(reference_bytes(_simulation_wire(p)))
    ),
    ("_tx_id", Proposal): (
        lambda p: p.tx_id,
        lambda p: sha256_hex(p.nonce + reference_bytes(_body_wire(p.creator))),
    ),
    ("_wire", Certificate): (Certificate.wire_bytes, lambda c: reference_bytes(c.to_wire())),
    ("_body", Certificate): (Certificate.body_bytes, lambda c: reference_bytes(_body_wire(c))),
    ("_signing", SnapshotManifest): (
        SnapshotManifest.signing_bytes, lambda m: reference_bytes(_manifest_wire(m))
    ),
}


def _pdc_faults_shaped(seed: int) -> SimulationConfig:
    """Ten WAL peers, two collections, snapshots + pruning, faults."""
    return SimulationConfig(
        seed=seed, ops=30, org_count=5, peers_per_org=2,
        pdc1_members=("Org1MSP", "Org2MSP", "Org3MSP"),
        pdc2_members=("Org2MSP", "Org3MSP", "Org4MSP"),
        workload="mixed", attack_weight=0.05, plan_rate=0.5,
        mean_gap=1.0, batch_size=5, batch_timeout=2.0, jitter=0.2,
        state_backend="wal", snapshot_every=3, prune=True,
        reorder=True, gossip_batch=True, anti_entropy_every=2.0,
    )


class TestRunMemos:
    def test_every_memo_equals_a_from_scratch_encoding(self, monkeypatch):
        """Over a seeded run, every message memoized in the pipeline holds
        exactly what the reference encoder makes of its fields — and the
        accessor reproduces it after the epoch moves on."""
        messages: dict = {}

        def note(obj):
            messages.setdefault(id(obj), obj)
            for value in vars(obj).values():
                if isinstance(value, (tuple, list)):
                    for item in value:
                        if isinstance(item, Memoized):
                            note(item)
                elif isinstance(value, Memoized):
                    note(value)

        real_endorse = PeerNode.endorse
        real_receive = PeerNode.receive_snapshot_sig

        def endorse(self, proposal, reusable=False):
            note(proposal)
            return real_endorse(self, proposal, reusable)

        def receive(self, manifest, certificate, signature):
            note(manifest)
            note(certificate)
            return real_receive(self, manifest, certificate, signature)

        memos: list = []
        real_checks = harness.run_quiescence_checks

        def checks(sim, outcomes):
            for block in sim.network.orderer.delivered_blocks:
                for tx in block.transactions:
                    note(tx)
            for obj in messages.values():
                for name, value in vars(obj).items():
                    if name.startswith("_") and value is not None:
                        memos.append((obj, name, value[1]))
            return real_checks(sim, outcomes)

        monkeypatch.setattr(PeerNode, "endorse", endorse)
        monkeypatch.setattr(PeerNode, "receive_snapshot_sig", receive)
        monkeypatch.setattr(harness, "run_quiescence_checks", checks)
        config = _pdc_faults_shaped(seed=11)
        report = harness.execute(config, *harness.generate(config))
        assert report.ok, [str(v) for v in report.violations[:3]]

        kinds = {(name, type(obj)) for obj, name, _ in memos}
        assert kinds >= set(MEMOS) - {("_sim_digest", Proposal)}, kinds
        for obj, name, value in memos:
            _, fresh = MEMOS[(name, type(obj))]
            assert value == fresh(obj), (type(obj).__name__, name)

        clear_serialization_memos()
        for obj, name, value in memos:
            accessor, _ = MEMOS[(name, type(obj))]
            assert accessor(obj) == value


# ---------------------------------------------------------------------------
# Encode once: counts, not timings
# ---------------------------------------------------------------------------

class TestEncodeOnce:
    def test_tx_id_and_certificate_encodings_once_per_epoch(self, monkeypatch):
        net = three_org_network()
        client = net.client_of(1)
        proposal = client._proposal(net.chaincode_id, "get_private", [net.collection, "k"])
        certificate = proposal.creator
        clear_serialization_memos()
        hashed = []
        encoded = []
        real_hex = proposal_module.sha256_hex
        real_canonical = identity_module.canonical_bytes
        monkeypatch.setattr(proposal_module, "sha256_hex", lambda b: hashed.append(b) or real_hex(b))
        monkeypatch.setattr(
            identity_module, "canonical_bytes", lambda o: encoded.append(o) or real_canonical(o)
        )
        for _ in range(3):
            assert proposal.tx_id == proposal.tx_id
            certificate.wire_bytes()
            certificate.body_bytes()
        assert len(hashed) == 1 and len(encoded) == 2  # tx id; wire + body
        clear_serialization_memos()
        for _ in range(3):
            proposal.tx_id
            certificate.wire_bytes()
            certificate.body_bytes()
        assert len(hashed) == 2 and len(encoded) == 4

    def test_assemble_encodes_no_payload_again(self, monkeypatch):
        net = three_org_network()
        net.network.install_chaincode(net.chaincode_id, PrivateAssetContract())
        client = net.client_of(1)
        proposal = client._proposal(
            net.chaincode_id, "set_private", [net.collection, "k"], {"value": b"v"}
        )
        responses = [
            net.network.request_endorsement(peer, proposal).response
            for peer in (net.peer_of(1), net.peer_of(2))
        ]
        payload_encodings = []
        real_to_wire = ProposalResponsePayload.to_wire
        monkeypatch.setattr(
            ProposalResponsePayload, "to_wire",
            lambda self: payload_encodings.append(self) or real_to_wire(self),
        )
        envelope = client.assemble(proposal, responses)
        assert payload_encodings == []
        assert envelope.signed_bytes() == reference_bytes(_envelope_wire(envelope))
        assert len(payload_encodings) == 1  # the reference walked it, nothing else did
