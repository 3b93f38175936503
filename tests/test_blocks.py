"""Tests for blocks, the hash chain and the per-peer block store."""

from __future__ import annotations

import pickle
from dataclasses import fields, replace

import pytest

from repro.chaincode.contracts import PrivateAssetContract
from repro.chaincode.rwset import (
    HashedCollectionRWSet,
    KVMetadataWrite,
    KVRead,
    KVReadHash,
    KVWrite,
    KVWriteHash,
    NamespaceRWSet,
    RangeQueryInfo,
    TxReadWriteSet,
)
from repro.common.errors import LedgerError
from repro.common.serialization import (
    canonical_bytes,
    clear_serialization_memos,
    from_canonical_bytes,
)
from repro.identity.organization import Organization
from repro.ledger.block import GENESIS_PREV_HASH, TXS_MAGIC, Block, ValidatedBlock
from repro.ledger.blockchain import (
    BLOCK_MAGIC,
    NS_BLOCKS,
    NS_BLOCKS_TXS,
    Blockchain,
    pack_block_row,
    unpack_block_row,
)
from repro.ledger.version import Version
from repro.network.presets import three_org_network
from repro.protocol.proposal import new_proposal
from repro.protocol.response import (
    ChaincodeEvent,
    ChaincodeResponse,
    Endorsement,
    ProposalResponsePayload,
)
from repro.protocol.transaction import TransactionEnvelope, ValidationCode
from repro.storage import MemoryBackend
from repro.storage.codec import CodecError, seal, unseal


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
def _rich_payload() -> ProposalResponsePayload:
    """A payload that fills every field of the rwset family."""
    results = TxReadWriteSet(namespaces=(
        NamespaceRWSet(
            namespace="cc",
            reads=(KVRead("a", Version(3, 1)), KVRead("absent", None)),
            writes=(KVWrite("b", b"\x00\xff"), KVWrite("c", None, is_delete=True)),
            collections=(HashedCollectionRWSet(
                collection="PDC1",
                hashed_reads=(KVReadHash(b"k" * 32, Version(2, 0)), KVReadHash(b"n" * 32, None)),
                hashed_writes=(
                    KVWriteHash(b"h" * 32, b"v" * 32),
                    KVWriteHash(b"d" * 32, None, is_delete=True),
                ),
            ),),
            range_queries=(RangeQueryInfo("a", "", (KVRead("a", Version(3, 1)),)),),
            metadata_writes=(KVMetadataWrite("b", "VALIDATION_PARAMETER", b"policy"),),
        ),
        NamespaceRWSet(namespace="lscc"),
    ))
    return ProposalResponsePayload(
        proposal_hash=b"p" * 32,
        results=results,
        response=ChaincodeResponse(status=500, message="é", payload=b"out"),
        event=ChaincodeEvent(name="ev", payload=b"\x01"),
    )


class TestWireInverses:
    def test_every_from_wire_inverts_its_to_wire(self):
        payload = _rich_payload()
        endorsement = Endorsement(Organization("Org1MSP").enroll_client().certificate, b"s")
        for message in (payload, replace(payload, event=None), endorsement):
            wire = from_canonical_bytes(canonical_bytes(message.to_wire()))
            assert type(message).from_wire(wire) == message

    def test_an_envelope_decodes_from_its_signed_bytes(self):
        envelope = replace(_envelope("rich"), payload=_rich_payload())
        endorsement = Endorsement(envelope.creator, b"e" * 48)
        envelope = replace(envelope, endorsements=(endorsement, endorsement))
        signed = envelope.signed_bytes()
        decoded = TransactionEnvelope.from_signed_bytes(signed, envelope.signature)
        assert decoded == envelope
        assert decoded.signed_bytes() is signed  # the memo holds the stored bytes
        clear_serialization_memos()
        assert decoded.signed_bytes() == signed  # and re-encoding agrees


def _six_peer_network():
    """A three-org network with a second peer per org, chaincode installed."""
    net = three_org_network()
    net.network.install_chaincode(net.chaincode_id, PrivateAssetContract())
    for org in ("Org1MSP", "Org2MSP", "Org3MSP"):
        net.network.add_peer(org, "peer1")
    net.network.install_chaincode(net.chaincode_id, PrivateAssetContract())
    return net


class TestStorageHygiene:
    def test_stored_rows_are_the_same_bytes_with_memos_warm_or_cleared(self):
        net = _six_peer_network()
        net.client_of(1).submit_transaction(
            net.chaincode_id, "set_private", [net.collection, "k"],
            transient={"value": b"v"}, endorsing_peers=[net.peer_of(1), net.peer_of(2)],
        ).raise_for_status()
        peer = net.peer_of(1)
        validated = peer.ledger.blockchain.block(0)
        key = f"{0:016d}"
        warm = (peer.ledger.backend.get(NS_BLOCKS, key), peer.ledger.backend.get(NS_BLOCKS_TXS, key))
        clear_serialization_memos()
        # Fresh, memo-free copies of the block and its envelopes.
        cold_block = Block(
            header=validated.block.header,
            transactions=tuple(replace(tx) for tx in validated.block.transactions),
        )
        cold = ValidatedBlock(block=cold_block, flags=list(validated.flags))
        assert not [name for name in vars(cold_block.transactions[0]) if name.startswith("_")]
        assert (pack_block_row(cold), cold_block.stored_transactions()) == warm

    def test_one_block_committed_at_every_peer_is_encoded_once(self, monkeypatch):
        net = _six_peer_network()
        encodes = []
        real = Block.stored_transactions

        def stored_transactions(block):
            if "_stored" not in vars(block):
                encodes.append(block)
            return real(block)

        monkeypatch.setattr(Block, "stored_transactions", stored_transactions)
        net.client_of(1).submit_transaction(
            net.chaincode_id, "set_private", [net.collection, "k"],
            transient={"value": b"v"}, endorsing_peers=[net.peer_of(1), net.peer_of(2)],
        ).raise_for_status()
        peers = net.network.peers()
        assert len(peers) == 6 and {p.ledger.height for p in peers} == {1}
        block = net.network.orderer.delivered_blocks[0]
        assert encodes == [block]
        tails = [p.ledger.backend.get(NS_BLOCKS_TXS, f"{0:016d}") for p in peers]
        assert all(tail is block.stored_transactions() for tail in tails)


class TestBlockRow:
    def _validated(self, number: int = 0) -> ValidatedBlock:
        block = Block.create(number, GENESIS_PREV_HASH, (_envelope("a"), _envelope("b")))
        return ValidatedBlock(
            block=block, flags=[ValidationCode.VALID, ValidationCode.MVCC_READ_CONFLICT]
        )

    def test_head_and_tail_rows_decode_to_the_appended_block(self):
        validated = self._validated()
        backend = MemoryBackend()
        Blockchain(backend).append(validated)
        head = backend.get(NS_BLOCKS, f"{0:016d}")
        tail = backend.get(NS_BLOCKS_TXS, f"{0:016d}")
        assert head == pack_block_row(validated) and tail is validated.block.stored_transactions()
        header, flags = unpack_block_row(head)
        assert (header, flags) == (validated.block.header, validated.flags)
        assert ValidatedBlock(block=Block.from_storage(header, tail), flags=flags) == validated
        # A reopened chain reads the same block back, and its hashes verify.
        reopened = Blockchain(backend)
        assert reopened.block(0) == validated and reopened.verify_chain()

    def test_a_decoded_block_keeps_its_storage_encoding(self):
        validated = self._validated()
        tail = validated.block.stored_transactions()
        block = Block.from_storage(validated.block.header, tail)
        assert block.stored_transactions() is tail
        for tx in block.transactions:
            assert tx.signed_bytes() in tail

    def test_the_tail_is_the_bytes_the_data_hash_covers(self):
        validated = self._validated()
        header, tail = validated.block.header, validated.block.stored_transactions()
        other = replace(header, data_hash=Block.create(0, GENESIS_PREV_HASH, ()).header.data_hash)
        with pytest.raises(CodecError):
            Block.from_storage(other, tail)
        flipped = bytearray(tail)
        flipped[-1] ^= 1  # the last signature's last byte
        with pytest.raises(CodecError):
            Block.from_storage(header, bytes(flipped))

    def test_stored_rows_are_never_pickle_streams(self):
        for number in (0, 1, 127, 128, 255, 2 ** 40):
            validated = self._validated(number)
            for raw, magic in (
                (pack_block_row(validated), BLOCK_MAGIC),
                (validated.block.stored_transactions(), TXS_MAGIC),
            ):
                assert raw.startswith(magic)
                assert not raw.startswith(b"\x80")  # pickle's PROTO opcode
                with pytest.raises(Exception):
                    pickle.loads(raw)

    def test_a_pickled_block_is_not_a_block_row(self):
        validated = self._validated(128)
        with pytest.raises(CodecError):
            unpack_block_row(pickle.dumps(validated))
        with pytest.raises(CodecError):
            Block.from_storage(validated.block.header, pickle.dumps(validated.block.transactions))

    def test_an_unknown_flag_code_is_rejected(self):
        body = bytearray(unseal(pack_block_row(self._validated()), "block row"))
        first_flag = len(BLOCK_MAGIC) + 8 + (4 + 32) * 2 + 4  # number, two hashes, count
        body[first_flag] = 250
        with pytest.raises(CodecError):
            unpack_block_row(seal(bytes(body)))
