"""Teeth for the replay-fed invariants: each must fire *by name*.

``reference-validation``, ``vscc-memo``, ``endorsement-plan``,
``snapshot-equivalence`` and ``reorder-soundness`` all read one replay of
the committed chain (and ``hash-chain`` re-hashes every peer's copy of
it from encodings the oracle makes itself).  Each case below plants one seeded defect in an
otherwise healthy run — between quiescence and the checks, the way the
benchmark's probe wraps ``harness.run_quiescence_checks`` — and demands a
violation carrying that invariant's name, so a change to how the replay
is produced cannot silently stop a check from biting.

The second half pins what "independent" means for the oracle: nothing the
pipeline left in the process-wide verdict memo may answer a check, every
distinct signature is verified exactly once by the single-signature
equation, and one ``ReferenceValidator`` serves the whole catalogue.
"""

from __future__ import annotations

import functools
from dataclasses import replace

import pytest

from repro.common import crypto
from repro.common.hashing import hash_key
from repro.common.serialization import memo_epoch
from repro.common.tracing import PERF
from repro.ledger.block import Block, ValidatedBlock
from repro.network.collection import CollectionConfig
from repro.peer.validator import _shared_memo_for
from repro.protocol.transaction import ValidationCode
from repro.simulation import SimulationConfig, harness, invariants
from repro.simulation.harness import SimNetwork, execute, generate

VALID = ValidationCode.VALID
# Seed 1 at 16 ops: five orgs under MAJORITY (three signatures), ten
# one-transaction blocks, a snapshot sealed at height 8 (so the probe
# replays a tail), the replay's source org a member of the collection
# written at block 4 (expired at the tip under BTL), and a VALID tip
# carrying exactly three endorsements.
SEED, OPS = 1, 16
BTL = 2


def _run(monkeypatch, sabotage=lambda sim, outcomes: None):
    """One seeded run with ``sabotage`` applied just before the checks."""
    config = replace(
        SimulationConfig.generate(SEED, OPS),
        reorder=True, snapshot_every=4, fault_windows=0,
    )
    ops, faults = generate(config)
    real_checks = harness.run_quiescence_checks
    seen = {}

    def checks(sim, outcomes):
        seen["sim"] = sim
        sabotage(sim, outcomes)
        return real_checks(sim, outcomes)

    monkeypatch.setattr(harness, "run_quiescence_checks", checks)
    report = execute(config, ops, faults)
    monkeypatch.setattr(harness, "run_quiescence_checks", real_checks)
    return report, seen["sim"]


def _rewrite_tip(peer, flip_flag=False, rewrite_tx=None) -> None:
    """Corrupt the tip's first transaction as every chain reader sees it.

    Only the tip can change content without breaking the hash chain the
    production replay re-appends; its data hash is recomputed so the
    corruption is in what the block *says*, not in its framing.
    """
    chain = peer.ledger.blockchain
    blocks = list(chain.all_blocks())
    tip = blocks[-1]
    block, flags = tip.block, list(tip.flags)
    first, rest = block.transactions[0], block.transactions[1:]
    assert flags[0] is VALID and len(first.endorsements) == 3
    if rewrite_tx is not None:
        block = Block.create(
            block.header.number, block.header.prev_hash, (rewrite_tx(first),) + rest
        )
    if flip_flag:
        flags[0] = ValidationCode.MVCC_READ_CONFLICT
    blocks[-1] = ValidatedBlock(block=block, flags=flags)
    chain.all_blocks = lambda: iter(blocks)
    chain.block_heads = lambda: iter([(v.block.header, v.flags) for v in blocks])
    chain.stored_block = lambda number: next(v for v in blocks if v.number == number)


# -- the seeded defects -------------------------------------------------------

def _flip_committed_flag(sim, outcomes) -> None:
    # At a peer that is *not* the replay's source: only the comparison of
    # every peer against the reference flags can see it.
    _rewrite_tip(sim.all_peers()[1], flip_flag=True)


def _drop_endorsement(sim, outcomes) -> None:
    _rewrite_tip(
        sim.all_peers()[0],
        rewrite_tx=lambda tx: replace(tx, endorsements=tx.endorsements[:1]),
    )


def _mark_survivor_aborted(sim, outcomes) -> None:
    records = sim.network.orderer.reorderer.records
    index = next(i for i, r in enumerate(records) if r.emitted and not r.aborted)
    survivor = records[index].emitted[0]
    records[index] = replace(
        records[index],
        emitted=records[index].emitted[1:],
        aborted=((survivor, "sabotage", None),),
    )


def _drop_emitted(sim, outcomes) -> None:
    records = sim.network.orderer.reorderer.records
    index = next(i for i, r in enumerate(records) if r.emitted)
    records[index] = replace(records[index], emitted=records[index].emitted[:-1])


def _skip_tail_block(sim, outcomes) -> None:
    orderer = sim.network.orderer
    real = orderer.blocks_since
    orderer.blocks_since = lambda height: list(real(height))[:-1]


def _tamper_behind_a_stale_memo(sim, outcomes) -> None:
    # A committed envelope whose content changed while its memoized
    # signed bytes did not.  A reader that trusts the pipeline's memo
    # hashes the original's bytes and sees nothing; the oracle must
    # encode what the envelope says now.
    chain = sim.all_peers()[1].ledger.blockchain
    tip = chain._blocks[-1]
    first, rest = tip.block.transactions[0], tip.block.transactions[1:]
    tampered = replace(first, function=first.function + "-tampered")
    object.__setattr__(tampered, "_serialized", (memo_epoch(), first.signed_bytes()))
    chain._blocks[-1] = ValidatedBlock(
        block=Block(header=tip.block.header, transactions=(tampered,) + rest),
        flags=tip.flags,
    )
    assert chain.verify_chain(), "the planted memo should mask the tampering"


def _resurrect_expired(sim, outcomes) -> None:
    network = sim.network
    real_join = network.join_peer

    def join(msp_id, name="peer0", features=None):
        probe = real_join(msp_id, name=name, features=features)
        height = probe.ledger.height
        for outcome in outcomes:
            if outcome.status is not VALID:
                continue
            chaincode = outcome.spec.chaincode_id
            for collection, keys in outcome.spec.private_write_keys().items():
                config = network.channel.collection(chaincode, collection)
                if not config.is_member_org(msp_id):
                    continue
                for key in keys:
                    entry = probe.ledger.private_hashes.get(
                        chaincode, collection, hash_key(key)
                    )
                    if entry and entry.version.block_num + BTL + 1 <= height:
                        probe.ledger.private_data.put(
                            chaincode, collection, key,
                            outcome.spec.transient_value, entry.version,
                        )
                        return probe
        raise AssertionError("no BTL-expired private write to resurrect")

    network.join_peer = join


SABOTAGES = {
    "committed flag flipped at one peer":
        ("reference-validation", "reference says", _flip_committed_flag),
    "endorsement removed after commit":
        ("endorsement-plan", "does not satisfy", _drop_endorsement),
    "non-doomed transaction marked aborted":
        ("reorder-soundness", "false early abort", _mark_survivor_aborted),
    "emitted transaction dropped from the record":
        ("reorder-soundness", "not a permutation", _drop_emitted),
    "committed envelope tampered behind a stale serialization memo":
        ("hash-chain", "hash chain verification failed", _tamper_behind_a_stale_memo),
    "probe bootstrap skips a tail block":
        ("snapshot-equivalence", "bootstrapped probe at height", _skip_tail_block),
    "probe bootstrap resurrects a BTL-expired key":
        ("snapshot-equivalence", "resurrected BTL-expired", _resurrect_expired),
}


class TestEverySabotageIsCaughtByName:
    def test_the_healthy_run_is_clean(self, monkeypatch):
        report, sim = _run(monkeypatch)
        assert report.ok, [str(v) for v in report.violations]
        assert report.stats["snapshots_sealed"]
        assert sim.network.orderer.reorderer.records

    @pytest.mark.parametrize("case", sorted(SABOTAGES))
    def test_seeded_defect_fires_its_invariant(self, monkeypatch, case):
        invariant, needle, sabotage = SABOTAGES[case]
        if sabotage is _resurrect_expired:
            # The harness never sets a BTL (gossip-convergence does not
            # model purges and says so on this run); only the named
            # invariant is asserted.
            monkeypatch.setattr(
                harness, "CollectionConfig",
                functools.partial(CollectionConfig, block_to_live=BTL),
            )
        report, _sim = _run(monkeypatch, sabotage)
        hits = [v for v in report.violations if v.invariant == invariant]
        assert hits, f"{case}: {invariant} stayed silent: {report.violations}"
        assert any(needle in v.detail for v in hits), [str(v) for v in hits]

    def test_flipped_shared_memo_entry_fires_vscc_memo(self, monkeypatch):
        # The memo is keyed by block hash, and seed replay makes hashes
        # repeat: learn them from a healthy run, then hand every peer of
        # an identical run a planted entry with the last VALID flag flipped.
        _report, healthy = _run(monkeypatch)
        source = healthy.all_peers()[0]
        target = list(source.ledger.blockchain.all_blocks())[-1]
        flipped = (ValidationCode.MVCC_READ_CONFLICT,) + tuple(target.flags[1:])
        assert target.flags[0] is VALID
        key = (target.block.header.block_hash(), source.features)
        real_build = harness.build_network

        def build(config):
            sim = real_build(config)
            _shared_memo_for(sim.network.channel)[key] = flipped
            return sim

        monkeypatch.setattr(harness, "build_network", build)
        report, sim = _run(monkeypatch)
        assert sim.all_peers()[0].ledger.blockchain.height == source.ledger.height
        hits = [v for v in report.violations if v.invariant == "vscc-memo"]
        assert hits, [str(v) for v in report.violations]
        assert "memo-free re-validation says VALID" in hits[0].detail

    def test_memo_divergence_between_peers_is_reported_not_raised(self, monkeypatch):
        # The first committer's listener flips the shared memo entry it
        # just stored, so the peers validating the block after it read a
        # flag no rule computed.  The run must complete — resolving a
        # client's status does not judge peers — and every reader must be
        # named by the invariants, ``vscc-memo`` included.
        config = replace(
            SimulationConfig.generate(SEED, OPS), fault_windows=0, jitter=0.0
        )
        ops, faults = generate(config)
        real_build = harness.build_network
        seen = {}

        def build(config):
            sim = real_build(config)
            first = sim.all_peers()[0]
            memo = _shared_memo_for(sim.network.channel)

            def flip(peer, validated):
                if "number" in seen or validated.flags[0] is not VALID:
                    return
                key = (validated.block.header.block_hash(), peer.features)
                memo[key] = (ValidationCode.MVCC_READ_CONFLICT,) + memo[key][1:]
                seen["number"] = validated.number

            first.on_commit(flip)
            seen["sim"] = sim
            return sim

        monkeypatch.setattr(harness, "build_network", build)
        report = execute(config, ops, faults)
        sim, number = seen["sim"], seen["number"]
        readers = {
            peer.name for peer in sim.all_peers()
            if peer.ledger.blockchain.stored_block(number).flags[0]
            is ValidationCode.MVCC_READ_CONFLICT
        }
        assert readers and sim.all_peers()[0].name not in readers
        for invariant in ("block-agreement", "reference-validation", "vscc-memo"):
            named = {v.peer for v in report.violations if v.invariant == invariant}
            assert readers <= named, (invariant, [str(v) for v in report.violations])


# -- the oracle must not trust the cache under test ---------------------------

def _forge_endorsements(sim) -> list:
    """Re-sign the tip's VALID transaction around forged endorsements.

    All but one endorsement are re-signed by a forger's key, so MAJORITY
    no longer holds; returns the forged signatures' verdict-memo keys.
    The creator signature covers the endorsements, so the client re-signs
    — what a client colluding with a forger would do.
    """
    forger = crypto.PrivateKey.from_seed(b"endorsement-forger")
    planted = []

    def forge(tx):
        payload = tx.payload.bytes()
        forged = tuple(
            replace(e, signature=forger.sign(payload)) for e in tx.endorsements[:-1]
        )
        planted.extend(
            crypto._cache_key(e.endorser.public_key.point, payload, e.signature)
            for e in forged
        )
        unsigned = replace(
            tx, endorsements=forged + tx.endorsements[-1:], signature=b""
        )
        client = next(
            c for c in sim.clients.values() if c.identity.certificate == tx.creator
        )
        return replace(
            unsigned, signature=client.identity.sign(unsigned.signed_bytes())
        )

    _rewrite_tip(sim.all_peers()[0], rewrite_tx=forge)
    return planted


class TestOracleIgnoresThePipelineMemo:
    def test_memo_poisoned_false_changes_nothing(self, monkeypatch):
        def poison(sim, outcomes):
            assert crypto._VERIFY_CACHE, "the pipeline left no verdicts to poison"
            for key in list(crypto._VERIFY_CACHE):
                crypto._VERIFY_CACHE[key] = False

        report, _sim = _run(monkeypatch, poison)
        assert report.ok, [str(v) for v in report.violations]

    def test_planted_true_for_a_forged_endorsement_changes_nothing(self, monkeypatch):
        def forge_only(sim, outcomes):
            crypto.clear_verify_cache()
            _forge_endorsements(sim)

        def forge_and_plant(sim, outcomes):
            crypto.clear_verify_cache()
            for key in _forge_endorsements(sim):
                crypto._VERIFY_CACHE[key] = True

        clean, _sim = _run(monkeypatch, forge_only)
        poisoned, _sim = _run(monkeypatch, forge_and_plant)
        assert [str(v) for v in poisoned.violations] == [
            str(v) for v in clean.violations
        ]
        assert "reference-validation" in {v.invariant for v in clean.violations}


class TestOneIndependentReplay:
    def test_each_signature_verified_once_and_one_reference(self, monkeypatch):
        verified, references = [], []
        real_verify = crypto.PublicKey._verify_uncached
        real_reference_init = invariants.ReferenceValidator.__init__

        def recording_verify(self, message, signature):
            verified.append(crypto._cache_key(self.point, message, signature))
            return real_verify(self, message, signature)

        def counting_init(self, channel, features):
            references.append(self)
            real_reference_init(self, channel, features)

        before = {}

        def arm(sim, outcomes):
            monkeypatch.setattr(
                crypto.PublicKey, "_verify_uncached", recording_verify
            )
            monkeypatch.setattr(
                invariants.ReferenceValidator, "__init__", counting_init
            )
            before.update(PERF.snapshot())
            before["key_decodes"] = crypto._load_key.cache_info().misses

        report, _sim = _run(monkeypatch, arm)
        spent = PERF.delta_since(before)
        assert report.ok, [str(v) for v in report.violations]
        assert len(references) == 1
        assert verified and len(verified) == len(set(verified))
        assert spent.get("verify_individual", 0) == len(verified)
        assert crypto._load_key.cache_info().misses == before["key_decodes"]
        assert not crypto._VERIFY_CACHE


class TestGovernedWritesAreJudged:
    """``endorsement-plan`` holds key-level-governed writes to the key
    policy committed before their block, not only to the chaincode's."""

    KEY_POLICY = "AND('Org1MSP.peer', 'Org2MSP.peer')"

    def _governed_chain(self, net) -> SimNetwork:
        client = net.client("Org1MSP")
        org1, org2, org3 = (net.peers_of(f"Org{i}MSP")[0] for i in (1, 2, 3))
        for function, args, endorsers in (
            ("create_asset", ["gold", "100"], [org1, org2]),
            ("set_asset_policy", ["gold", self.KEY_POLICY], [org1, org2]),
            ("update_asset", ["gold", "200"], [org1, org2, org3]),
        ):
            client.submit_transaction(
                "assetcc", function, args, endorsing_peers=endorsers
            ).raise_for_status()
        return SimNetwork(
            config=None, network=net,
            peers={p.name: p for p in net.peers()}, clients={},
        )

    def test_a_governed_chain_is_clean(self, public_network):
        sim = self._governed_chain(public_network)
        assert invariants.check_endorsement_plan(sim, []) == []

    def test_endorsements_missing_the_key_policy_fire(self, public_network):
        sim = self._governed_chain(public_network)
        # {org1, org3} still meets the chaincode MAJORITY, not AND(org1, org2).
        _rewrite_tip(
            sim.all_peers()[0],
            rewrite_tx=lambda tx: replace(tx, endorsements=tuple(
                e for e in tx.endorsements if e.endorser.msp_id != "Org2MSP"
            )),
        )
        hits = invariants.check_endorsement_plan(sim, [])
        assert [v.invariant for v in hits] == ["endorsement-plan"]
        assert "does not satisfy" in hits[0].detail


class TestOrderingInvariant:
    """``ordering`` under a generated orderer window: a leader crash while
    batches are cut.  Clean as built, also with no restart; a front-end
    that forgets an in-flight batch on a leader change fires it."""

    def _run(self, monkeypatch, weaken=None, restart=True):
        config = SimulationConfig.generate(5, 200)
        ops, faults = generate(config)
        crash = [f for f in faults if f.kind in ("crash_orderer", "restart_orderer")]
        assert [f.dst for f in crash] == ["orderer.raft0"] * 2  # the bootstrap leader
        crash = crash if restart else crash[:1]
        real_checks = harness.run_quiescence_checks
        seen = {}

        def checks(sim, outcomes):
            seen["raft"] = sim.network.orderer.raft
            return real_checks(sim, outcomes)

        monkeypatch.setattr(harness, "run_quiescence_checks", checks)
        return execute(config, ops, crash, weaken=weaken), seen["raft"]

    def test_leader_crash_delivers_every_batch(self, monkeypatch):
        report, raft = self._run(monkeypatch)
        assert report.ok, [str(v) for v in report.violations]
        assert [leader for _at, leader in raft.leader_changes] == [None, 0, None, 1]

    def test_unrestarted_leader_crash_is_ok(self, monkeypatch):
        """Leadership is measured from the crash itself, not from a heal
        that never comes."""
        report, raft = self._run(monkeypatch, restart=False)
        assert report.ok, [str(v) for v in report.violations]
        assert [leader for _at, leader in raft.leader_changes] == [None, 0, None, 1]
        assert raft.last_fault_at > 0.0

    def test_forgotten_in_flight_batch_fires_ordering(self, monkeypatch):
        report, _raft = self._run(monkeypatch, weaken="forget-in-flight")
        hits = [v for v in report.violations if v.invariant == "ordering"]
        assert hits, [str(v) for v in report.violations]
        assert hits[0].detail == "46 batches proposed, 45 delivered: delivery 31 carries block 32"
