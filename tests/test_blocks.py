"""Tests for blocks, the hash chain and the per-peer block store."""

from __future__ import annotations

from dataclasses import fields, replace

import pytest

from repro.common.errors import LedgerError
from repro.identity.organization import Organization
from repro.ledger.block import GENESIS_PREV_HASH, Block, ValidatedBlock
from repro.ledger.blockchain import Blockchain
from repro.protocol.proposal import new_proposal
from repro.protocol.response import ChaincodeResponse, Endorsement, ProposalResponsePayload
from repro.protocol.transaction import TransactionEnvelope, ValidationCode
from repro.chaincode.rwset import TxReadWriteSet


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
