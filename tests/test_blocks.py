"""Tests for blocks, the hash chain and the per-peer block store."""

from __future__ import annotations

import pickle
from dataclasses import fields, replace

import pytest

from repro.chaincode.contracts import PrivateAssetContract
from repro.common.errors import LedgerError
from repro.identity.organization import Organization
from repro.ledger.block import GENESIS_PREV_HASH, Block, ValidatedBlock
from repro.ledger.blockchain import (
    BLOCK_MAGIC,
    NS_BLOCKS,
    Blockchain,
    pack_block_row,
    unpack_block_row,
)
from repro.ledger.snapshot import SnapshotManifest
from repro.network.presets import three_org_network
from repro.protocol.proposal import new_proposal
from repro.protocol.response import ChaincodeResponse, Endorsement, ProposalResponsePayload
from repro.protocol.transaction import TransactionEnvelope, ValidationCode
from repro.chaincode.rwset import TxReadWriteSet
from repro.storage import MemoryBackend
from repro.storage.codec import CodecError


def _envelope(tag: str = "tx") -> TransactionEnvelope:
    org = Organization("Org1MSP")
    client = org.enroll_client()
    proposal = new_proposal("ch", "cc", "fn", [tag], client.certificate)
    payload = ProposalResponsePayload(
        proposal_hash=proposal.proposal_hash(),
        results=TxReadWriteSet(),
        response=ChaincodeResponse(payload=tag.encode()),
    )
    unsigned = TransactionEnvelope(
        tx_id=proposal.tx_id,
        channel_id="ch",
        chaincode_id="cc",
        creator=client.certificate,
        payload=payload,
        endorsements=(),
        signature=b"",
        function="fn",
        args=(tag,),
    )
    return replace(unsigned, signature=client.sign(unsigned.signed_bytes()))


class TestBlock:
    def test_create_sets_data_hash(self):
        block = Block.create(0, GENESIS_PREV_HASH, (_envelope("a"),))
        assert block.verify_data_hash()

    def test_tampered_transactions_detected(self):
        block = Block.create(0, GENESIS_PREV_HASH, (_envelope("a"),))
        tampered = Block(header=block.header, transactions=(_envelope("b"),))
        assert not tampered.verify_data_hash()

    def test_any_envelope_field_or_the_order_flips_the_data_hash(self):
        first, second = _envelope("a"), _envelope("b")
        block = Block.create(0, GENESIS_PREV_HASH, (first, second))
        other = _envelope("c")
        changes = {
            "tx_id": first.tx_id + "0",
            "channel_id": "ch2",
            "chaincode_id": "cc2",
            "creator": Organization("Org2MSP").enroll_client().certificate,
            "payload": other.payload,
            "endorsements": (Endorsement(first.creator, b"sig"),),
            "signature": first.signature[:-1] + bytes([first.signature[-1] ^ 1]),
            "function": "fn2",
            "args": ("a", "extra"),
        }
        assert set(changes) == {f.name for f in fields(TransactionEnvelope)}
        for name, value in changes.items():
            tampered = Block(
                header=block.header, transactions=(replace(first, **{name: value}), second)
            )
            assert not tampered.verify_data_hash(), name
        swapped = Block(header=block.header, transactions=(second, first))
        assert not swapped.verify_data_hash()

    def test_block_hash_chains(self):
        block0 = Block.create(0, GENESIS_PREV_HASH, ())
        block1 = Block.create(1, block0.header.block_hash(), ())
        assert block1.header.prev_hash == block0.header.block_hash()

    def test_len(self):
        assert len(Block.create(0, GENESIS_PREV_HASH, (_envelope(),))) == 1


class TestValidatedBlock:
    def test_flag_vector_length_enforced(self):
        block = Block.create(0, GENESIS_PREV_HASH, (_envelope(),))
        with pytest.raises(ValueError):
            ValidatedBlock(block=block, flags=[ValidationCode.VALID, ValidationCode.VALID])

    def test_valid_transactions_filtered(self):
        txs = (_envelope("a"), _envelope("b"))
        block = Block.create(0, GENESIS_PREV_HASH, txs)
        validated = ValidatedBlock(
            block=block, flags=[ValidationCode.VALID, ValidationCode.MVCC_READ_CONFLICT]
        )
        assert validated.valid_transactions() == [txs[0]]

    def test_flag_of(self):
        tx = _envelope("a")
        validated = ValidatedBlock(
            block=Block.create(0, GENESIS_PREV_HASH, (tx,)), flags=[ValidationCode.VALID]
        )
        assert validated.flag_of(tx.tx_id) is ValidationCode.VALID
        with pytest.raises(KeyError):
            validated.flag_of("nope")


class TestBlockchain:
    def _validated(self, number, prev, *envelopes, flags=None):
        block = Block.create(number, prev, tuple(envelopes))
        return ValidatedBlock(
            block=block, flags=flags or [ValidationCode.VALID] * len(envelopes)
        )

    def test_append_and_height(self):
        chain = Blockchain()
        chain.append(self._validated(0, GENESIS_PREV_HASH, _envelope()))
        assert chain.height == 1

    def test_wrong_number_rejected(self):
        chain = Blockchain()
        with pytest.raises(LedgerError):
            chain.append(self._validated(5, GENESIS_PREV_HASH))

    def test_broken_chain_rejected(self):
        chain = Blockchain()
        chain.append(self._validated(0, GENESIS_PREV_HASH))
        with pytest.raises(LedgerError):
            chain.append(self._validated(1, b"\xab" * 32))

    def test_corrupted_data_hash_rejected(self):
        chain = Blockchain()
        good = Block.create(0, GENESIS_PREV_HASH, (_envelope("a"),))
        bad = Block(header=good.header, transactions=(_envelope("b"),))
        with pytest.raises(LedgerError):
            chain.append(ValidatedBlock(block=bad, flags=[ValidationCode.VALID]))

    def test_find_transaction(self):
        chain = Blockchain()
        tx = _envelope("target")
        chain.append(self._validated(0, GENESIS_PREV_HASH, tx))
        found, flag = chain.find_transaction(tx.tx_id)
        assert found.tx_id == tx.tx_id and flag is ValidationCode.VALID
        assert chain.find_transaction("missing") is None

    def test_all_transactions_in_order(self):
        chain = Blockchain()
        tx1, tx2 = _envelope("1"), _envelope("2")
        chain.append(self._validated(0, GENESIS_PREV_HASH, tx1))
        chain.append(self._validated(1, chain.last_hash(), tx2))
        ids = [tx.tx_id for tx, _ in chain.all_transactions()]
        assert ids == [tx1.tx_id, tx2.tx_id]

    def test_verify_chain(self):
        chain = Blockchain()
        chain.append(self._validated(0, GENESIS_PREV_HASH, _envelope("a")))
        chain.append(self._validated(1, chain.last_hash(), _envelope("b")))
        assert chain.verify_chain()

    def test_block_accessor(self):
        chain = Blockchain()
        chain.append(self._validated(0, GENESIS_PREV_HASH))
        assert chain.block(0).number == 0
        with pytest.raises(LedgerError):
            chain.block(3)

    def test_flag_vector_required(self):
        chain = Blockchain()
        block = Block.create(0, GENESIS_PREV_HASH, (_envelope(),))
        with pytest.raises(LedgerError):
            chain.append(ValidatedBlock(block=block, flags=[]))


# ---------------------------------------------------------------------------
# Storage encodings
# ---------------------------------------------------------------------------
def _memoized_messages():
    """One of each message a peer stores, every memo filled."""
    org = Organization("Org1MSP")
    client = org.enroll_client()
    proposal = new_proposal("ch", "cc", "fn", ["a"], client.certificate)
    envelope = _envelope("memo")
    block = Block.create(0, GENESIS_PREV_HASH, (envelope,))
    manifest = SnapshotManifest(
        channel_id="ch", height=4, last_block_hash=b"h" * 32, state_hash="ab",
        collection_digests=(("cc", "PDC1", "cd"),),
    )
    for fill in (
        lambda: proposal.tx_id, proposal.header_bytes, proposal.proposal_hash,
        envelope.signed_bytes, envelope.payload.bytes, client.certificate.wire_bytes,
        client.certificate.body_bytes, manifest.signing_bytes, block.stored_transactions,
    ):
        fill()
    return {
        "envelope": envelope, "payload": envelope.payload, "proposal": proposal,
        "certificate": client.certificate, "manifest": manifest, "block": block,
    }


class TestStorageHygiene:
    @pytest.mark.parametrize(
        "kind", ["envelope", "payload", "proposal", "certificate", "manifest", "block"]
    )
    def test_no_memo_reaches_the_pickled_state(self, kind):
        message = _memoized_messages()[kind]
        assert any(name.startswith("_") for name in vars(message)), "no memo to drop"
        raw = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
        restored = pickle.loads(raw)
        assert restored == message
        assert not [name for name in vars(restored) if name.startswith("_")]
        # Nowhere in the stream, nested messages included.
        assert b"_serialized" not in raw and b"_wire" not in raw and b"_stored" not in raw

    def test_one_block_committed_at_every_peer_is_encoded_once(self, monkeypatch):
        net = three_org_network()
        net.network.install_chaincode(net.chaincode_id, PrivateAssetContract())
        for org in ("Org1MSP", "Org2MSP", "Org3MSP"):
            net.network.add_peer(org, "peer1")
        net.network.install_chaincode(net.chaincode_id, PrivateAssetContract())
        encoded = []
        real_dumps = pickle.dumps

        def dumps(obj, *args, **kwargs):
            encoded.append(obj)
            return real_dumps(obj, *args, **kwargs)

        monkeypatch.setattr(pickle, "dumps", dumps)
        net.client_of(1).submit_transaction(
            net.chaincode_id, "set_private", [net.collection, "k"],
            transient={"value": b"v"}, endorsing_peers=[net.peer_of(1), net.peer_of(2)],
        ).raise_for_status()
        peers = net.network.peers()
        assert len(peers) == 6 and {p.ledger.height for p in peers} == {1}
        block = net.network.orderer.delivered_blocks[0]
        assert sum(1 for obj in encoded if obj is block.transactions) == 1
        assert not [obj for obj in encoded if isinstance(obj, (Block, ValidatedBlock))]


class TestBlockRow:
    def _validated(self, number: int = 0) -> ValidatedBlock:
        block = Block.create(number, GENESIS_PREV_HASH, (_envelope("a"), _envelope("b")))
        return ValidatedBlock(
            block=block, flags=[ValidationCode.VALID, ValidationCode.MVCC_READ_CONFLICT]
        )

    def test_header_first_row_decodes_to_the_appended_block(self):
        validated = self._validated()
        backend = MemoryBackend()
        Blockchain(backend).append(validated)
        raw = backend.get(NS_BLOCKS, f"{0:016d}")
        header, flags, block = unpack_block_row(raw)
        assert ValidatedBlock(block=block, flags=flags) == validated
        assert unpack_block_row(raw, head_only=True) == (validated.block.header, flags, None)
        # A reopened chain reads the same block back, and its hashes verify.
        reopened = Blockchain(backend)
        assert reopened.block(0) == validated and reopened.verify_chain()

    def test_a_decoded_block_keeps_its_storage_encoding(self):
        raw = pack_block_row(self._validated())
        _, _, block = unpack_block_row(raw)
        assert raw.endswith(block.stored_transactions())

    def test_a_block_row_is_never_a_pickle_stream(self):
        for number in (0, 1, 127, 128, 255, 2 ** 40):
            raw = pack_block_row(self._validated(number))
            assert raw.startswith(BLOCK_MAGIC)
            assert not raw.startswith(b"\x80")  # pickle's PROTO opcode
            with pytest.raises(Exception):
                pickle.loads(raw)

    def test_a_pickled_block_is_not_a_block_row(self):
        with pytest.raises(CodecError):
            unpack_block_row(pickle.dumps(self._validated(128)))

    def test_an_unknown_flag_code_is_rejected(self):
        raw = bytearray(pack_block_row(self._validated()))
        first_flag = len(BLOCK_MAGIC) + 8 + (4 + 32) * 2 + 4  # number, two hashes, count
        raw[first_flag] = 250
        with pytest.raises(CodecError):
            unpack_block_row(bytes(raw), head_only=True)
