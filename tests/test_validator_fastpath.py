"""The block-validation fast path: memoization and escape hatches.

Covers the layers of the fast path at the validator level:

* serialized-bytes memoization on frozen protocol objects;
* one rule loop on a memo miss (each signature verified once, a block
  hiding a forged endorsement rejected);
* the shared VSCC memo (2nd..Nth peer reuses flags; a
  ``Validator(use_shared_memo=False)`` validates afresh; the simulation
  invariant checker confirms the memo never changes a validation flag).
"""

from __future__ import annotations

import pytest

from repro.chaincode.contracts import AssetContract, PrivateAssetContract
from repro.common import crypto
from repro.common.tracing import PERF
from repro.identity.ca import reset_ca_instance_counter
from repro.identity.organization import Organization
from repro.ledger.ledger import PeerLedger
from repro.network.channel import ChannelConfig
from repro.network.network import FabricNetwork
from repro.network.presets import three_org_network
from repro.peer.validator import Validator, _shared_memo_for
from repro.protocol.proposal import reset_nonce_counter
from repro.protocol.transaction import ValidationCode
from repro.simulation.harness import run_seed
from repro.simulation.invariants import check_vscc_memo_agreement


@pytest.fixture(autouse=True)
def _fresh_crypto_state():
    crypto.clear_caches()
    yield
    crypto.clear_caches()


def _network():
    reset_ca_instance_counter()
    reset_nonce_counter()
    net = three_org_network()
    net.network.install_chaincode(net.chaincode_id, PrivateAssetContract())
    return net


def _eight_peer_network():
    reset_ca_instance_counter()
    reset_nonce_counter()
    orgs = [Organization(f"Org{i}MSP") for i in range(1, 5)]
    channel = ChannelConfig(channel_id="valchan", organizations=orgs)
    channel.deploy_chaincode("assetcc", endorsement_policy="MAJORITY Endorsement")
    net = FabricNetwork(channel=channel, batch_size=6)
    for org in orgs:
        for n in range(2):
            net.add_peer(org.msp_id, f"peer{n}")
    net.install_chaincode("assetcc", AssetContract())
    return net


def _without_shared_memo(net):
    """Give every peer its own memo-less validator: per-peer validation."""
    for peer in net.network.peers():
        peer._validator = Validator(
            channel=net.network.channel, features=peer.features,
            use_shared_memo=False,
        )
    return net


def _submit(net, key: str, value: bytes = b"v"):
    return net.client_of(1).submit_transaction(
        net.chaincode_id,
        "set_private",
        [net.collection, key],
        transient={"value": value},
        endorsing_peers=[net.peer_of(1), net.peer_of(2)],
    )


class TestSerializedBytesMemoization:
    def test_payload_bytes_computed_once(self):
        net = _network()
        _submit(net, "memo-key")
        validated = next(iter(net.peer_of(1).ledger.blockchain.blocks()))
        tx = validated.block.transactions[0]
        assert tx.payload.bytes() is tx.payload.bytes()
        assert tx.signed_bytes() is tx.signed_bytes()

    def test_an_envelope_is_encoded_once_from_assemble_to_commit(self, monkeypatch):
        # The bytes the client signed are the bytes every peer verifies:
        # the memo rides from the unsigned envelope onto the signed one.
        from repro.protocol import transaction

        calls = []
        canonical_bytes = transaction.canonical_bytes

        def counting(value):
            calls.append(value["tx_id"])
            return canonical_bytes(value)

        monkeypatch.setattr(transaction, "canonical_bytes", counting)
        net = _network()
        results = [_submit(net, f"once-{i}") for i in range(3)]
        assert all(r.committed for r in results)
        assert all(p.ledger.blockchain.height == 3 for p in net.network.peers())
        assert sorted(calls) == sorted(r.envelope.tx_id for r in results)


class TestSharedVsccMemo:
    def test_second_peer_hits_the_memo(self):
        net = _network()
        PERF.reset()
        result = _submit(net, "hit-key")
        assert result.committed
        # One block delivered to three peers: the first validator misses
        # and populates, the other two hit.
        assert PERF.vscc_memo_misses == 1
        assert PERF.vscc_memo_hits == 2

    def test_flags_identical_with_memo_disabled(self):
        flags_by_mode = {}
        for shared in (True, False):
            crypto.clear_caches()
            net = _network() if shared else _without_shared_memo(_network())
            PERF.reset()
            for i in range(4):
                _submit(net, f"eq-{i}")
            assert (PERF.vscc_memo_hits > 0) is shared
            flags_by_mode[shared] = [
                tuple(v.flags)
                for v in net.peer_of(1).ledger.blockchain.blocks()
            ]
        assert flags_by_mode[True] == flags_by_mode[False]
        assert all(
            flag is ValidationCode.VALID
            for flags in flags_by_mode[True]
            for flag in flags
        )

    def test_eight_peers_verify_each_signature_once(self):
        # 4 orgs x 2 peers, MAJORITY (3 endorsements + the creator's
        # signature per tx), pipelined into blocks of 6: a tx's signatures
        # are verified once across all eight peers, and 7 of the 8
        # validators of every block read the first one's flags.
        counts = {}
        for transactions in (6, 12):
            crypto.clear_caches()
            net = _eight_peer_network()
            runtime = net.attach_runtime(seed=0)
            endorsers = [net.peers_of(f"Org{i}MSP")[0] for i in (1, 2, 3)]
            PERF.reset()
            pendings = [
                net.client("Org1MSP").submit_async(
                    "assetcc", "create_asset", [f"a{i:05d}", "1"],
                    endorsing_peers=endorsers,
                )
                for i in range(transactions)
            ]
            runtime.run()
            assert all(p.result().committed for p in pendings)
            assert {peer.ledger.height for peer in net.peers()} == {transactions // 6}
            assert PERF.vscc_memo_hits == 7 * net.orderer.blocks_delivered
            counts[transactions] = PERF.verify_individual
        assert counts[12] - counts[6] == 4 * 6

    def test_memo_scoped_per_network(self):
        # Two identical networks produce byte-identical blocks; the memo
        # must not leak flags across them (it is keyed on the channel
        # *instance*, not on the block bytes alone).
        first = _network()
        _submit(first, "scope-key")
        PERF.reset()
        second = _network()
        _submit(second, "scope-key")
        assert PERF.vscc_memo_misses >= 1

    def test_memo_never_changes_flags_small_sim(self):
        report = run_seed(7, 12)
        assert not [v for v in report.violations if v.invariant == "vscc-memo"], (
            "shared VSCC memo changed a validation flag"
        )

    def test_memo_agreement_checker_runs_clean(self):
        # Drive the checker directly against a completed healthy run so a
        # regression in the memo (not just in the workload) is caught.
        report = run_seed(11, 10)
        assert report.ok, report.summary()

    def test_memo_agreement_checker_performs_real_verifications(self):
        # Called standalone the checker enters its own verification scope:
        # nothing the pipeline left in the verdict memo answers it, each
        # distinct signature on the chain is verified exactly once, any
        # memo hit is on an entry the scope itself wrote, and the scope
        # decodes no key afresh and leaves the memo empty.
        class _Sim:
            def __init__(self, net):
                self.network = net.network
                self._net = net

            def all_peers(self):
                return [self._net.peer_of(i) for i in (1, 2, 3)]

        net = _network()
        for i in range(3):  # a few blocks; every key is decoded on its first use
            _submit(net, f"real-verify-key-{i}")
        triples = set()
        for validated in net.peer_of(1).ledger.blockchain.all_blocks():
            for tx in validated.block.transactions:
                triples.add((tx.creator.public_key.point, tx.signed_bytes(), tx.signature))
                for e in tx.endorsements:
                    triples.add((e.endorser.public_key.point, tx.payload.bytes(), e.signature))
        decoded = crypto._load_key.cache_info()
        assert decoded.currsize > 0
        for key in list(crypto._VERIFY_CACHE):
            crypto._VERIFY_CACHE[key] = False  # a poisoned pipeline memo
        PERF.reset()
        assert check_vscc_memo_agreement(_Sim(net)) == []
        assert PERF.verify_individual == len(triples)
        # The reference validator and the production validator's rules
        # ask for the same triples: every hit is a later reader of a
        # verdict the scope computed.
        assert PERF.verify_cache_hits <= 2 * PERF.verify_individual
        assert crypto._load_key.cache_info().misses == decoded.misses
        assert not crypto._VERIFY_CACHE


class TestCertificateMemo:
    def test_late_msp_registration_not_cached_as_rejection(self):
        # The registry caches CA checks, but not the rejection of a
        # certificate whose CA is not registered yet: presented before its
        # MSP joins the channel it is rejected, and valid once the CA
        # registers — a permanent negative entry would diverge from the
        # uncached path.
        from repro.identity.ca import CertificateAuthority
        from repro.identity.roles import Role

        net = _network()
        registry = net.network.channel.msp_registry
        late_ca = CertificateAuthority("LateOrgMSP", seed=b"late-org")
        certificate = late_ca.enroll("late-peer", Role.PEER).certificate
        assert not registry.validate_certificate(certificate)
        registry.register(late_ca)
        assert registry.validate_certificate(certificate)


class TestOneValidationPath:
    def test_fresh_validation_verifies_each_signature_once(self):
        # A memo miss runs the rule loop, which looks each signature up
        # once, at the rule that needs it.
        net = _network()
        _submit(net, "setup-key")
        validated = next(iter(net.peer_of(1).ledger.blockchain.blocks()))
        validator = net.peer_of(1)._validator
        _shared_memo_for(net.network.channel).clear()
        crypto.clear_verify_cache()
        PERF.reset()
        flags = validator.validate_block(validated.block, PeerLedger())
        assert flags == [ValidationCode.VALID]
        assert PERF.verify_individual == 3  # creator + two endorsers
        assert PERF.verify_cache_hits == 0

    def test_forged_endorsement_rejected(self):
        # A wrong-key endorsement signature hidden among valid ones: it
        # verifies False, and the policy check then sees too few valid
        # signers.
        from dataclasses import replace

        net = _network()
        _submit(net, "setup-key")
        validated = next(iter(net.peer_of(1).ledger.blockchain.blocks()))
        tx = validated.block.transactions[0]
        forger = crypto.PrivateKey.from_seed(b"endorsement-forger")
        forged = tuple(
            replace(e, signature=forger.sign(tx.payload.bytes()))
            for e in tx.endorsements
        )
        # The creator signature covers the endorsements, so the forged
        # envelope must be (legitimately) re-signed by a real client —
        # exactly what a malicious client colluding with a forger would do.
        client = net.client_of(1)
        unsigned = replace(
            tx,
            tx_id="forged-tx",
            creator=client.identity.certificate,
            endorsements=forged,
            signature=b"",
        )
        bad_tx = replace(unsigned, signature=client.identity.sign(unsigned.signed_bytes()))

        from repro.ledger.block import Block

        block = Block.create(
            number=net.peer_of(1).ledger.height,
            prev_hash=net.peer_of(1).ledger.blockchain.last_hash(),
            transactions=(bad_tx,),
        )
        crypto.clear_caches()
        PERF.reset()
        flags = net.peer_of(1)._validator.validate_block(
            block, net.peer_of(1).ledger
        )
        assert flags == [ValidationCode.ENDORSEMENT_POLICY_FAILURE]
