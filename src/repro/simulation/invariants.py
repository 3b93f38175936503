"""Global safety invariants checked over a completed simulation.

The catalogue (names are the ``invariant`` field of each violation):

* ``hash-chain``       — every peer's blockchain passes the hash-chain
  and numbering integrity check.
* ``block-agreement``  — all peers committed the *same* block sequence
  with the same validation flags (checked incrementally at every block
  boundary by :class:`BlockBoundaryMonitor`, and structurally against the
  orderer's delivered sequence at quiescence).
* ``reference-validation`` — an independent re-validation of the whole
  committed history by :class:`ReferenceValidator`, a from-spec
  reimplementation of the proof-of-policy rules (endorsement-policy
  selection, MVCC version checks = serializability of the committed
  history, phantom re-scans, duplicate/signature/status checks) against
  its own model state.  Any flag the peers computed differently, and any
  divergence between the model's final state and a peer's committed
  state, is a violation.  This is the check that catches a weakened or
  buggy validator.
* ``policy-expectation`` — generation-time endorsement-policy soundness:
  an op endorsed by a set the spec-level oracle rejects must be flagged
  ``ENDORSEMENT_POLICY_FAILURE``; one it accepts must never be.
* ``endorsement-plan`` — early-quorum soundness: every committed
  ``VALID`` transaction's endorsement set satisfies the applied policies
  per the spec-level oracle, and widening the set to the full endorser
  pool never flips the verdict (monotonicity — a plan-shrunk quorum
  commits exactly what full endorsement would).
* ``pdc-privacy``      — no peer holds plaintext, BlockToLive rows,
  missing-data records or archived rwsets for a collection its org is
  not a member of, endorser or not; non-members hold hashes only.
* ``gossip-convergence`` — after reconciliation reaches a fixpoint,
  member peers agree on plaintext private data (and plaintext always
  matches the committed hash); a member still lacking a key must have an
  unresolved missing-data record for a transaction that wrote it (which
  only happens when no member peer ever held the plaintext — e.g. a
  favourable-endorser attack routed around every member).
* ``liveness-accounting`` — every submitted transaction either resolved
  or its envelope was provably lost: the number of unresolved futures
  equals the number of ``submit``-topic drops, and no unresolved
  transaction appears in any committed block.
* ``snapshot-equivalence`` — when the run sealed a snapshot, a fresh
  probe peer bootstrapped from it (checkpoint + tail replay) must be
  byte-identical to the replay-from-genesis reference: same anchored
  chain, flags, world state and private hash store, no member-only row
  for a collection outside its membership, and no BTL-expired
  plaintext resurrected by the bootstrap.
* ``reorder-soundness`` — when the conflict-aware orderer ran
  (``reorder=True``), every processed batch's audit record must show:
  the emitted block is exactly a permutation of the non-aborted input
  (no transaction lost or duplicated), the delivered block matches the
  pipeline's emitted sequence, and every early-aborted transaction —
  re-validated by the independent :class:`ReferenceValidator` in
  *arrival order* against the pre-block model state — fails with an
  MVCC/phantom conflict (no false aborts: the orderer only ever
  short-circuits a verdict the peers would have reached anyway).
* ``ordering``          — consensus kept its promises: every proposed
  batch was delivered exactly once and in proposal order (block *n* is
  the *n*-th proposal), the consenters' committed log prefixes agree, and
  a live majority had a leader within :func:`~repro.orderer.raft.leader_recovery_bound`
  of the last orderer fault, and it kept leading.
* ``durability``        — checked by :class:`RecoveryMonitor` at every
  peer restart, at the exact recovery height (before the peer catches
  up): the recovered chain height equals the crash height (no committed
  block may be lost), the recovered world state and private hash store
  are byte-identical to the reference model replayed over the recovered
  chain, and the recovered private *plaintext* equals the crash-time
  plaintext exactly — recovery can neither lose committed plaintext at a
  member nor materialize plaintext a peer never legitimately held, so
  PDC privacy survives crashes (non-members recover hashes only).

``reference-validation``, ``vscc-memo``, ``endorsement-plan``,
``snapshot-equivalence`` and ``reorder-soundness`` all read one
:class:`ChainReplay` of the source peer's (full, archived + live) chain.
"""

from __future__ import annotations

import gc
import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.common import crypto
from repro.common.hashing import hash_value
from repro.common.serialization import canonical_bytes, clear_serialization_memos
from repro.ledger.snapshot import PRIVATE_NAMESPACES, row_collection
from repro.ledger.version import Version
from repro.ledger.world_state import WorldState
from repro.orderer.raft import leader_recovery_bound
from repro.policy.planner import applied_policies_satisfied
from repro.protocol.transaction import ValidationCode
from repro.runtime.runtime import TOPIC_SUBMIT
from repro.storage import split_key

if TYPE_CHECKING:  # pragma: no cover
    from repro.ledger.block import Block, ValidatedBlock
    from repro.network.channel import ChannelConfig
    from repro.peer.node import PeerNode
    from repro.simulation.harness import SimNetwork


@dataclass(frozen=True)
class Violation:
    """One invariant violation — the unit the shrinker minimizes against."""

    invariant: str
    detail: str
    peer: str = ""
    tx_id: str = ""

    def __str__(self) -> str:
        where = f" at {self.peer}" if self.peer else ""
        tx = f" (tx {self.tx_id})" if self.tx_id else ""
        return f"[{self.invariant}]{where}{tx}: {self.detail}"


# ---------------------------------------------------------------------------
# Block-boundary monitoring
# ---------------------------------------------------------------------------

class BlockBoundaryMonitor:
    """Cross-peer agreement checked *as blocks commit*, not only at the end.

    Registered via ``peer.on_commit``; the first peer to commit block *n*
    pins its ``(block hash, flags)``, every later committer is compared
    against the pin.  Catching divergence at the first diverging block
    keeps the failure close to its cause.
    """

    def __init__(self) -> None:
        self.violations: list[Violation] = []
        self._pinned: dict[int, tuple[bytes, tuple]] = {}

    def attach(self, peers: list) -> None:
        for peer in peers:
            peer.on_commit(self._on_commit)

    def _on_commit(self, peer: "PeerNode", validated: "ValidatedBlock") -> None:
        number = validated.number
        block_hash = validated.block.header.block_hash()
        flags = tuple(validated.flags)
        pinned = self._pinned.get(number)
        if pinned is None:
            self._pinned[number] = (block_hash, flags)
            return
        if pinned[0] != block_hash:
            self.violations.append(Violation(
                "block-agreement", f"block {number} hash differs from first committer",
                peer=peer.name,
            ))
        if pinned[1] != flags:
            self.violations.append(Violation(
                "block-agreement",
                f"block {number} flags {', '.join(f.value for f in flags)} differ "
                f"from first committer {', '.join(f.value for f in pinned[1])}",
                peer=peer.name,
            ))


# ---------------------------------------------------------------------------
# Crash/recovery monitoring (the ``durability`` invariant)
# ---------------------------------------------------------------------------

class RecoveryMonitor:
    """Checks every peer recovery against the storage durability contract.

    Attached to the runtime's crash/restart hooks.  At crash time it
    snapshots what the dying peer *committed* (chain height and private
    plaintext).  The restart hook fires after the storage engine recovered
    but before the peer catches up from the orderer, so the monitor
    observes exactly what recovery produced:

    1. the recovered height must equal the crash height — every committed
       block was durably applied (a torn WAL tail may only lose work that
       never committed);
    2. the recovered world state and private hash store must be
       byte-identical to the :class:`ReferenceValidator` model replayed
       over the recovered chain;
    3. the recovered private plaintext must equal the crash-time plaintext
       exactly — no committed plaintext lost at a member, and no plaintext
       materialized that the peer never held, so a non-member still stores
       hashes only after recovery (PDC privacy survives the crash).
    """

    def __init__(self, channel: "ChannelConfig", features) -> None:
        self._channel = channel
        self._features = features
        self.violations: list[Violation] = []
        self.recoveries = 0
        self._snapshots: dict[str, tuple[int, dict]] = {}

    def attach(self, runtime) -> None:
        runtime.on_crash(self._on_crash)
        runtime.on_restart(self._on_restart)

    def _plaintext(self, peer: "PeerNode") -> dict:
        snapshot = {}
        for chaincode_id, definition in sorted(self._channel.chaincodes.items()):
            for collection in definition.collections:
                for key, entry in peer.ledger.private_data.items(
                    chaincode_id, collection.name
                ):
                    snapshot[(chaincode_id, collection.name, key)] = entry.value
        return snapshot

    def _on_crash(self, peer: "PeerNode") -> None:
        self._snapshots[peer.name] = (
            peer.ledger.height, self._plaintext(peer), _committed_state(self._channel, peer)
        )

    def _on_restart(self, peer: "PeerNode") -> None:
        snapshot = self._snapshots.pop(peer.name, None)
        if snapshot is None:  # pragma: no cover - restart without crash
            return
        self.recoveries += 1
        crash_height, crash_plaintext, crash_state = snapshot

        recovered_height = peer.ledger.height
        if recovered_height != crash_height:
            self.violations.append(Violation(
                "durability",
                f"recovered at height {recovered_height}, crashed at {crash_height}",
                peer=peer.name,
            ))

        if peer.ledger.blockchain.full_history_available:
            # Replay the recovered chain (archived prefix + live tail)
            # through the reference model and demand byte-identical state
            # at the recovery height.
            reference = ReferenceValidator(self._channel, self._features)
            for validated in peer.ledger.blockchain.all_blocks():
                reference.expected_flags(validated.block)
            self.violations.extend(
                peer_state_violations(
                    self._channel, peer, reference.state, invariant="durability"
                )
            )
        else:
            # A snapshot-bootstrapped peer never held the pruned prefix, so
            # there is nothing to replay from genesis — recovery must still
            # reproduce the crash-time state byte-for-byte.
            if _committed_state(self._channel, peer) != crash_state:
                self.violations.append(Violation(
                    "durability",
                    "recovered state diverges from crash-time state on a "
                    "snapshot-bootstrapped (bounded-history) peer",
                    peer=peer.name,
                ))

        recovered_plaintext = self._plaintext(peer)
        if recovered_plaintext != crash_plaintext:
            gained = sorted(set(recovered_plaintext) - set(crash_plaintext))
            lost = sorted(set(crash_plaintext) - set(recovered_plaintext))
            changed = sorted(
                k
                for k in set(recovered_plaintext) & set(crash_plaintext)
                if recovered_plaintext[k] != crash_plaintext[k]
            )
            self.violations.append(Violation(
                "durability",
                f"recovered private plaintext differs from crash time "
                f"(gained={gained[:3]}, lost={lost[:3]}, changed={changed[:3]})",
                peer=peer.name,
            ))


# ---------------------------------------------------------------------------
# The reference validator (independent re-validation oracle)
# ---------------------------------------------------------------------------

@dataclass
class _ModelState:
    """The reference model's committed state."""

    public: dict = field(default_factory=dict)   # (ns, key) -> (value, Version)
    meta: dict = field(default_factory=dict)     # (ns, key) -> {name: bytes}
    private: dict = field(default_factory=dict)  # (ns, col, key_hash) -> (value_hash, Version)
    seen_tx: set = field(default_factory=set)


class ReferenceValidator:
    """From-spec re-validation of a committed chain against a model state.

    Deliberately shares no code with :class:`repro.peer.validator.Validator`
    beyond the policy evaluator: rules are re-derived from the paper's
    Section II-B3 / III-B description, and the policy-selection rule is
    the spec-level oracle of :mod:`repro.policy.planner` — the one the
    client's early-quorum test and the workload generators trust — so an
    implementation bug in the production validator (or a deliberately
    weakened one), or in that oracle, disagrees and surfaces as a
    ``reference-validation`` violation.
    """

    def __init__(self, channel: "ChannelConfig", features) -> None:
        self._channel = channel
        self._features = features
        self.state = _ModelState()

    # -- block-level ----------------------------------------------------------
    def peek_flags(self, transactions) -> list:
        """The flags a block with these transactions would get — model
        state untouched.  Used by the ``reorder-soundness`` check to ask
        what the *arrival-order* (pre-reorder) batch would have done."""
        flags = []
        block_writes: set = set()
        block_private: set = set()
        block_tx_ids: set = set()
        for tx in transactions:
            flag = self._expect(tx, block_writes, block_private, block_tx_ids)
            flags.append(flag)
            block_tx_ids.add(tx.tx_id)
            if flag is ValidationCode.VALID:
                for ns in tx.payload.results.namespaces:
                    for write in ns.writes:
                        block_writes.add((ns.namespace, write.key))
                    for col in ns.collections:
                        for hw in col.hashed_writes:
                            block_private.add((ns.namespace, col.collection, hw.key_hash))
        return flags

    def expected_flags(self, block: "Block") -> list:
        flags = self.peek_flags(block.transactions)
        # Apply the block to the model only after all flags are decided.
        for tx_num, (tx, flag) in enumerate(zip(block.transactions, flags)):
            self.state.seen_tx.add(tx.tx_id)
            if flag is ValidationCode.VALID:
                self._apply(tx, Version(block.header.number, tx_num))
        return flags

    # -- per-transaction rules --------------------------------------------------
    def _expect(self, tx, block_writes, block_private, block_tx_ids) -> ValidationCode:
        if tx.tx_id in block_tx_ids or tx.tx_id in self.state.seen_tx:
            return ValidationCode.DUPLICATE_TXID
        if tx.channel_id != self._channel.channel_id:
            return ValidationCode.INVALID_OTHER
        if tx.chaincode_id not in self._channel.chaincodes:
            return ValidationCode.INVALID_OTHER
        if not self._channel.msp_registry.validate_certificate(tx.creator):
            return ValidationCode.BAD_CREATOR_SIGNATURE
        if not tx.verify_creator_signature():
            return ValidationCode.BAD_CREATOR_SIGNATURE
        if not tx.payload.response.ok:
            return ValidationCode.BAD_RESPONSE_STATUS
        if not self._policies_ok(tx):
            return ValidationCode.ENDORSEMENT_POLICY_FAILURE
        if not self._versions_ok(tx, block_writes, block_private):
            return ValidationCode.MVCC_READ_CONFLICT
        if not self._ranges_ok(tx, block_writes):
            return ValidationCode.PHANTOM_READ_CONFLICT
        return ValidationCode.VALID

    def _signers(self, tx) -> list:
        payload_bytes = tx.payload.bytes()
        certs = []
        for endorsement in tx.endorsements:
            if not self._channel.msp_registry.validate_certificate(endorsement.endorser):
                continue
            if endorsement.verify(payload_bytes):
                certs.append(endorsement.endorser)
        return certs

    def _policies_ok(self, tx) -> bool:
        return applied_policies_satisfied(
            self._channel, self._features, tx.chaincode_id,
            self._signers(tx), tx.payload, self._key_policy,
        )

    def _key_policy(self, namespace: str, key: str) -> Optional[bytes]:
        return self.state.meta.get((namespace, key), {}).get(WorldState.VALIDATION_PARAMETER)

    def _versions_ok(self, tx, block_writes, block_private) -> bool:
        for ns in tx.payload.results.namespaces:
            for read in ns.reads:
                if (ns.namespace, read.key) in block_writes:
                    return False
                entry = self.state.public.get((ns.namespace, read.key))
                committed = entry[1] if entry else None
                if committed != read.version:
                    return False
            for col in ns.collections:
                for hashed_read in col.hashed_reads:
                    full = (ns.namespace, col.collection, hashed_read.key_hash)
                    if full in block_private:
                        return False
                    entry = self.state.private.get(full)
                    committed = entry[1] if entry else None
                    if committed != hashed_read.version:
                        return False
        return True

    def _ranges_ok(self, tx, block_writes) -> bool:
        for ns in tx.payload.results.namespaces:
            for query in ns.range_queries:
                current = []
                for (model_ns, key), (_value, version) in sorted(self.state.public.items()):
                    if model_ns != ns.namespace:
                        continue
                    if key < query.start_key or (query.end_key and key >= query.end_key):
                        continue
                    current.append((key, version))
                recorded = [(r.key, r.version) for r in query.reads]
                if current != recorded:
                    return False
                for write_ns, key in block_writes:
                    if write_ns != ns.namespace:
                        continue
                    if key >= query.start_key and (not query.end_key or key < query.end_key):
                        return False
        return True

    def _apply(self, tx, version: Version) -> None:
        for ns in tx.payload.results.namespaces:
            for write in ns.writes:
                if write.is_delete:
                    self.state.public.pop((ns.namespace, write.key), None)
                    self.state.meta.pop((ns.namespace, write.key), None)
                else:
                    self.state.public[(ns.namespace, write.key)] = (write.value or b"", version)
            for meta in ns.metadata_writes:
                self.state.meta.setdefault((ns.namespace, meta.key), {})[meta.name] = meta.value
            for col in ns.collections:
                for hw in col.hashed_writes:
                    full = (ns.namespace, col.collection, hw.key_hash)
                    if hw.is_delete:
                        self.state.private.pop(full, None)
                    else:
                        self.state.private[full] = (hw.value_hash or b"", version)


# ---------------------------------------------------------------------------
# The shared chain replay
# ---------------------------------------------------------------------------

class ChainReplay:
    """One walk over the source peer's chain that every replay-based check reads.

    Per block, in order: each reorder record due before it is judged in
    *arrival order* against the pre-block model (``arrival_flags``; a
    record that emitted no block waits for the next one that did, i.e. is
    judged at the state after its predecessor); the one
    :class:`ReferenceValidator` advances (``expected``, finally ``state``);
    one fresh production validator — shared memo pinned off —
    re-validates against a fresh ledger advanced with the
    *committed* flags, so one divergence cannot cascade (``production``);
    and the key-level policies committed before the block are recorded
    (``key_policies``).

    The walk runs inside :func:`crypto.independent_verification`: the two
    validators stay separate oracles, each applying its own rules to its
    own state, over signature verdicts computed once, from nothing the
    pipeline left behind.
    Checks share the walk, never a verdict.
    """

    def __init__(self, sim: "SimNetwork") -> None:
        from repro.ledger.ledger import PeerLedger
        from repro.peer.committer import Committer
        from repro.peer.validator import Validator

        channel = sim.network.channel
        self.source = source = sim.all_peers()[0]
        self.blocks = list(source.ledger.blockchain.all_blocks())
        self.expected: dict = {}       # block number -> reference flags
        self.production: dict = {}     # block number -> memo-free production flags
        self.key_policies: dict = {}   # block number -> {(ns, key): policy bytes} before it
        self.arrival_flags: dict = {}  # reorder record index -> arrival-order flags
        pipeline = getattr(sim.network.orderer, "reorderer", None)
        self.records = list(pipeline.records) if pipeline is not None else []
        due: dict = {}  # block number -> [(record index, arrival batch)] judged before it
        waiting: list = []
        for index, record in enumerate(self.records):
            if record.aborted:
                waiting.append((index, record.arrival))
            if record.block_number is not None:
                due[record.block_number], waiting = waiting, []

        reference = ReferenceValidator(channel, sim.network.features)
        self.state = reference.state
        validator = Validator(
            channel=channel, features=source.features, use_shared_memo=False
        )
        committer = Committer(channel=channel, local_msp_id=source.msp_id)
        ledger = PeerLedger()

        def judge(batches) -> None:
            for index, arrival in batches:
                self.arrival_flags[index] = reference.peek_flags(arrival)

        with crypto.independent_verification():
            for validated in self.blocks:
                block, number = validated.block, validated.number
                judge(due.pop(number, ()))
                self.key_policies[number] = {
                    key: meta[WorldState.VALIDATION_PARAMETER]
                    for key, meta in self.state.meta.items()
                    if WorldState.VALIDATION_PARAMETER in meta
                }
                self.expected[number] = reference.expected_flags(block)
                self.production[number] = validator.validate_block(block, ledger)
                committer.commit_block(block, list(validated.flags), ledger)
            # Records past the source's tip (or after the last block).
            for batches in (*due.values(), waiting):
                judge(batches)


# ---------------------------------------------------------------------------
# Quiescence checkers
# ---------------------------------------------------------------------------

def check_hash_chains(sim: "SimNetwork") -> list:
    violations = []
    for peer in sim.all_peers():
        try:
            ok = peer.ledger.blockchain.verify_chain()
        except Exception as exc:  # pragma: no cover - verify_chain returns bool
            ok, detail = False, str(exc)
        else:
            detail = "hash chain verification failed"
        if not ok:
            violations.append(Violation("hash-chain", detail, peer=peer.name))
    return violations


def check_ordering(sim: "SimNetwork") -> list:
    """The ``ordering`` invariant over the orderer's record at quiescence."""
    orderer = sim.network.orderer
    raft = orderer.raft
    violations = []
    numbers = [block.header.number for block in orderer.delivered_blocks]
    expected = list(range(orderer.proposed_count))
    if numbers != expected:
        first = next(
            (i for i, (got, want) in enumerate(zip(numbers, expected)) if got != want),
            min(len(numbers), len(expected)),
        )
        detail = (
            f"delivery {first} carries block {numbers[first]}"
            if first < len(numbers)
            else f"block {first} was never delivered"
        )
        violations.append(Violation(
            "ordering",
            f"{orderer.proposed_count} batches proposed, {len(numbers)} "
            f"delivered: {detail}",
        ))
    committed = [
        (node, [entry.payload for entry in node.log[: node.commit_index]])
        for node in raft.nodes
    ]
    for i, (node, prefix) in enumerate(committed):
        for other, other_prefix in committed[i + 1:]:
            shorter = min(len(prefix), len(other_prefix))
            if any(a is not b for a, b in zip(prefix[:shorter], other_prefix[:shorter])):
                violations.append(Violation(
                    "ordering",
                    f"committed prefixes of consenters {node.node_id} and "
                    f"{other.node_id} disagree",
                ))
    bound = leader_recovery_bound(len(raft.nodes))
    changed_at, leader_id = raft.leader_changes[-1]
    if raft.quorum() and (leader_id is None or changed_at > raft.last_fault_at + bound):
        violations.append(Violation(
            "ordering",
            f"a live majority's leadership still changing at {changed_at:.3f} "
            f"sim-s (leader {leader_id}); the last orderer fault was at "
            f"{raft.last_fault_at:.3f}, bound {bound:.1f} sim-s",
        ))
    return violations


def check_block_agreement(sim: "SimNetwork") -> list:
    """Structural agreement at quiescence (heights + orderer sequence)."""
    violations = []
    peers = sim.all_peers()
    delivered = sim.network.orderer.delivered_blocks
    for peer in peers:
        height = peer.ledger.blockchain.height
        if height != len(delivered):
            violations.append(Violation(
                "block-agreement",
                f"height {height} != orderer's {len(delivered)} delivered blocks",
                peer=peer.name,
            ))
            continue
        for validated in peer.ledger.blockchain.blocks():
            ordered = delivered[validated.number]
            if validated.block.header.block_hash() != ordered.header.block_hash():
                violations.append(Violation(
                    "block-agreement",
                    f"block {validated.number} differs from the ordered block",
                    peer=peer.name,
                ))
    return violations


def _flag_divergences(sim: "SimNetwork", wanted: dict, invariant: str, detail: str) -> list:
    """One violation per flag any peer committed that ``wanted`` (block
    number -> flags) contradicts; ``detail`` formats ``got`` / ``want``."""
    violations = []
    for peer in sim.all_peers():
        chain = peer.ledger.blockchain
        for header, flags in chain.block_heads():
            want_flags = wanted.get(header.number)
            if want_flags is None or flags == want_flags:
                continue  # a height mismatch is block-agreement's to report
            transactions = chain.stored_block(header.number).block.transactions
            for tx, got, want in zip(transactions, flags, want_flags):
                if got is not want:
                    violations.append(Violation(
                        invariant,
                        f"block {header.number}: "
                        + detail.format(got=got.value, want=want.value),
                        peer=peer.name, tx_id=tx.tx_id,
                    ))
    return violations


def check_reference_validation(
    sim: "SimNetwork", replay: Optional[ChainReplay] = None
) -> list:
    """Compare every peer's flags and final state with the reference replay."""
    replay = replay or ChainReplay(sim)
    violations = _flag_divergences(
        sim, replay.expected, "reference-validation",
        "peer flagged {got}, reference says {want}",
    )
    for peer in sim.all_peers():
        violations.extend(
            peer_state_violations(sim.network.channel, peer, replay.state)
        )
    return violations


def _committed_state(channel: "ChannelConfig", peer: "PeerNode") -> tuple[dict, dict]:
    """The peer's committed public state and private hash store."""
    public = {}
    for ns in sorted(channel.chaincodes):
        for key, entry in peer.ledger.world_state.items(ns):
            public[(ns, key)] = (entry.value, entry.version)
    private = {}
    for chaincode_id, definition in sorted(channel.chaincodes.items()):
        for collection in definition.collections:
            for key_hash in peer.ledger.private_hashes.key_hashes(
                chaincode_id, collection.name
            ):
                entry = peer.ledger.private_hashes.get(
                    chaincode_id, collection.name, key_hash
                )
                private[(chaincode_id, collection.name, key_hash)] = (
                    entry.value_hash, entry.version
                )
    return public, private


def peer_state_violations(
    channel: "ChannelConfig",
    peer: "PeerNode",
    model: _ModelState,
    invariant: str = "reference-validation",
) -> list:
    """Compare one peer's committed state byte-for-byte against a model.

    Shared between the end-of-run reference validation and the
    ``durability`` check at peer-restart instants.
    """
    violations = []
    actual, actual_private = _committed_state(channel, peer)
    if actual != model.public:
        extra = sorted(set(actual) - set(model.public))
        missing = sorted(set(model.public) - set(actual))
        differing = sorted(
            k for k in set(actual) & set(model.public) if actual[k] != model.public[k]
        )
        violations.append(Violation(
            invariant,
            f"world state diverges from model (extra={extra[:3]}, "
            f"missing={missing[:3]}, differing={differing[:3]})",
            peer=peer.name,
        ))
    if actual_private != model.private:
        violations.append(Violation(
            invariant,
            f"private hash store diverges from model "
            f"({len(actual_private)} entries vs {len(model.private)})",
            peer=peer.name,
        ))
    return violations


def check_policy_expectations(sim: "SimNetwork", outcomes: list) -> list:
    """Committed flags must match the generation-time policy oracle."""
    violations = []
    for outcome in outcomes:
        if outcome.status is None:
            continue
        expected_failure = not outcome.spec.expect_policy_ok
        flagged_failure = outcome.status is ValidationCode.ENDORSEMENT_POLICY_FAILURE
        if expected_failure and not flagged_failure:
            violations.append(Violation(
                "policy-expectation",
                f"op {outcome.spec.index} ({outcome.spec.kind}) endorsed by a "
                f"non-satisfying set committed as {outcome.status.value}",
                tx_id=outcome.tx_id or "",
            ))
        elif not expected_failure and flagged_failure:
            violations.append(Violation(
                "policy-expectation",
                f"op {outcome.spec.index} ({outcome.spec.kind}) endorsed by a "
                "satisfying set was flagged ENDORSEMENT_POLICY_FAILURE",
                tx_id=outcome.tx_id or "",
            ))
    return violations


def ineligible_row_violations(
    channel: "ChannelConfig", peer: "PeerNode", invariant: str
) -> list:
    """Rows of ``PRIVATE_NAMESPACES`` (plaintext, BTL rows, missing-data
    records, archived rwsets) ``peer`` holds outside its org's
    ``channel.member_collections``, one violation per store and collection."""
    eligible = channel.member_collections(peer.msp_id)
    found: dict = {}
    for namespace in PRIVATE_NAMESPACES:
        for key, _ in peer.ledger.backend.range(namespace):
            scope = row_collection(namespace, key)
            if scope not in eligible:
                found.setdefault((namespace, *scope), []).append(
                    "/".join(split_key(key))
                )
    return [
        Violation(invariant, f"non-member holds {namespace} rows for "
                  f"{chaincode}/{collection}: {keys[:5]}", peer=peer.name)
        for (namespace, chaincode, collection), keys in sorted(found.items())
    ]


def check_pdc_privacy(sim: "SimNetwork", outcomes: list) -> list:
    """Non-members hold hashes only — endorsers included: the exposure of
    Section IV-A5 ends at commit.  ``outcomes`` is unused (catalogue API)."""
    return [
        violation
        for peer in sim.all_peers()
        for violation in ineligible_row_violations(
            sim.network.channel, peer, "pdc-privacy"
        )
    ]


def check_gossip_convergence(sim: "SimNetwork", outcomes: list) -> list:
    """Member plaintext agrees with the hashes after reconciliation.

    For every key any workload op privately wrote: at each member peer,
    either (plaintext present and ``hash(value)`` equals the committed
    value hash) or (no committed hash for the key) or (an unresolved
    missing-data record explains the gap — possible only when no member
    ever held the plaintext, e.g. the §IV-A favourable-endorser attack).
    Stale plaintext without a committed hash is always a violation.
    """
    violations = []
    written_keys: dict = {}  # collection -> {keys}
    keys_by_tx: dict = {}    # tx_id -> {collection: {keys}}
    for outcome in outcomes:
        per_col = outcome.spec.private_write_keys()
        for collection, keys in per_col.items():
            written_keys.setdefault(collection, set()).update(keys)
        # A retried op put several tx ids in flight (same spec, same
        # private keys); a missing-data record can name any of them.
        attempt_ids = outcome.attempt_tx_ids or (
            (outcome.tx_id,) if outcome.tx_id else ()
        )
        for tx_id in attempt_ids:
            keys_by_tx[tx_id] = per_col

    for chaincode_id, definition in sorted(sim.network.channel.chaincodes.items()):
        for collection in definition.collections:
            members = collection.member_orgs()
            keys = sorted(written_keys.get(collection.name, ()))
            for peer in sim.all_peers():
                if peer.msp_id not in members:
                    continue
                unresolved_keys: set = set()
                for missing in peer.ledger.missing_private:
                    if missing.collection != collection.name:
                        continue
                    per_col = keys_by_tx.get(missing.tx_id, {})
                    unresolved_keys.update(per_col.get(collection.name, set()))
                for key in keys:
                    if key in unresolved_keys:
                        # An unresolved missing-data record legitimately
                        # leaves this key stale at this peer (no member
                        # ever held the plaintext to reconcile from).
                        continue
                    value = peer.query_private(chaincode_id, collection.name, key)
                    digest = peer.query_private_hash(chaincode_id, collection.name, key)
                    if digest is None:
                        if value is not None:
                            violations.append(Violation(
                                "gossip-convergence",
                                f"stale plaintext for {collection.name}/{key} with no "
                                "committed hash",
                                peer=peer.name,
                            ))
                    elif value is None:
                        violations.append(Violation(
                            "gossip-convergence",
                            f"member lacks plaintext for {collection.name}/{key} "
                            "with no unresolved missing-data record",
                            peer=peer.name,
                        ))
                    elif hash_value(value) != digest:
                        violations.append(Violation(
                            "gossip-convergence",
                            f"plaintext for {collection.name}/{key} does not match "
                            "the committed hash",
                            peer=peer.name,
                        ))
    return violations


def check_vscc_memo_agreement(
    sim: "SimNetwork", replay: Optional[ChainReplay] = None
) -> list:
    """The shared VSCC memo never changes a validation flag.

    The fast path lets the 2nd..Nth peer reuse the flag vector the first
    peer computed for an identical block (``validator.py``'s shared
    memo).  The flags :class:`ChainReplay`'s memo-free production
    validator computed from independently verified signatures must match
    what *every* peer committed — the peers that read the memo as much as
    the one that filled it; any divergence means the memo or the
    verification cache changed an outcome.
    """
    return _flag_divergences(
        sim, (replay or ChainReplay(sim)).production, "vscc-memo",
        "committed flag {got} but memo-free re-validation says {want}",
    )


def check_endorsement_plan(
    sim: "SimNetwork", outcomes: list, replay: Optional[ChainReplay] = None
) -> list:
    """Early-quorum soundness of plan-based endorsement collection.

    The plan path stops collecting endorsements as soon as the responses
    satisfy the policies validation will apply.  This check holds every
    committed ``VALID`` transaction to the same spec-level oracle: its
    endorsement certificates must satisfy the applied policies, and
    widening the certificate set to the full default endorser pool must
    not flip the verdict (policy evaluation is monotone in the signer
    set — more signatures can never invalidate a quorum, which is why an
    early quorum commits exactly what full endorsement would).  Key-level
    policies are those committed before the transaction's block.
    """
    replay = replay or ChainReplay(sim)
    violations = []
    channel = sim.network.channel
    features = sim.network.features
    full_pool = [p.certificate for p in sim.network.default_endorsers()]
    for validated in replay.blocks:
        policies = replay.key_policies[validated.number]
        key_policy = lambda namespace, key: policies.get((namespace, key))
        for tx in validated.valid_transactions():
            certs = [e.endorser for e in tx.endorsements]
            if not applied_policies_satisfied(
                channel, features, tx.chaincode_id, certs, tx.payload, key_policy
            ):
                violations.append(Violation(
                    "endorsement-plan",
                    f"block {validated.number}: VALID transaction's endorsement "
                    "set does not satisfy the applied policies per the "
                    "spec-level oracle",
                    peer=replay.source.name, tx_id=tx.tx_id,
                ))
                continue
            if not applied_policies_satisfied(
                channel, features, tx.chaincode_id, certs + full_pool, tx.payload,
                key_policy,
            ):
                violations.append(Violation(
                    "endorsement-plan",
                    f"block {validated.number}: widening the endorsement set to "
                    "the full pool flipped the policy verdict (non-monotone "
                    "evaluation)",
                    peer=replay.source.name, tx_id=tx.tx_id,
                ))
    return violations


def check_liveness_accounting(sim: "SimNetwork", outcomes: list) -> list:
    """Unresolved futures are exactly the envelopes the fault model ate.

    Transactions whose endorsement plan failed client-side (timeout,
    exhaustion) have a tx id but were never submitted for ordering — they
    resolved *exceptionally*, so they are excluded via ``o.error``.
    """
    violations = []
    runtime = sim.network.runtime
    faults = runtime.bus.faults
    submit_drops = faults.dropped_by_topic.get(TOPIC_SUBMIT, 0)
    unresolved = [
        o for o in outcomes if o.tx_id and o.status is None and o.error is None
    ]
    if len(unresolved) != submit_drops:
        violations.append(Violation(
            "liveness-accounting",
            f"{len(unresolved)} unresolved transactions but {submit_drops} "
            "submit-topic drops",
        ))
    for outcome in unresolved:
        for peer in sim.all_peers():
            if peer.transaction_status(outcome.tx_id) is not None:
                violations.append(Violation(
                    "liveness-accounting",
                    f"unresolved transaction is committed at {peer.name}",
                    tx_id=outcome.tx_id,
                ))
                break
    return violations


def state_digest(sim: "SimNetwork") -> str:
    """SHA-256 fingerprint of a run's committed state.

    Covers, per peer in name order: the committed block-hash chain with
    per-transaction validation flags, the public world state, the private
    hash store, and the private plaintext store.  Two executions of the
    same ``(config, ops, faults)`` triple must produce identical digests
    (seed replay) — byte-identical block chains, world state and tx
    statuses, compressed into one comparable string that a report can
    carry and a failing trace can embed.
    """
    digest = hashlib.sha256(b"repro-state-digest")
    channel = sim.network.channel
    for name in sorted(sim.peers):
        peer = sim.peers[name]
        digest.update(name.encode("utf-8"))
        for header, flags in peer.ledger.blockchain.block_heads():
            digest.update(header.block_hash())
            for flag in flags:
                digest.update(flag.name.encode("ascii"))
        for ns in sorted(channel.chaincodes):
            for key, entry in sorted(
                peer.ledger.world_state.items(ns), key=lambda kv: kv[0]
            ):
                digest.update(canonical_bytes(
                    [ns, key, entry.value, entry.version.to_wire()]
                ))
        for chaincode_id, definition in sorted(channel.chaincodes.items()):
            for collection in definition.collections:
                for key_hash in sorted(
                    peer.ledger.private_hashes.key_hashes(chaincode_id, collection.name)
                ):
                    entry = peer.ledger.private_hashes.get(
                        chaincode_id, collection.name, key_hash
                    )
                    digest.update(canonical_bytes(
                        [chaincode_id, collection.name, key_hash,
                         entry.value_hash, entry.version.to_wire()]
                    ))
                for key, entry in sorted(
                    peer.ledger.private_data.items(chaincode_id, collection.name),
                    key=lambda kv: kv[0],
                ):
                    digest.update(canonical_bytes(
                        [chaincode_id, collection.name, key, entry.value]
                    ))
    return digest.hexdigest()


def check_snapshot_equivalence(
    sim: "SimNetwork", replay: Optional[ChainReplay] = None
) -> list:
    """A snapshot-bootstrapped peer is equivalent to replay-from-genesis.

    Only meaningful when the run sealed at least one snapshot.  A fresh
    *probe* peer joins the channel through the checkpointed-bootstrap path
    (sealed snapshot + tail replay) and, after reconciliation reaches a
    fixpoint, must be indistinguishable from the replay-from-genesis
    reference:

    1. same chain height as the orderer, with a verifying (anchored) hash
       chain whose live blocks match the ordered blocks and the committed
       flags byte-for-byte;
    2. public world state and private hash store byte-identical to the
       reference model replayed over the full history;
    3. no member-only row for collections its org is not a member of
       (the same judgement as ``pdc-privacy``), every plaintext entry
       hash-matched against the committed hash store, and
       — the no-resurrection gate — no plaintext whose BTL expired at or
       below the probe's height (pruning and bootstrap must never revive
       purged private data; the hash store alone cannot catch this because
       hashes legitimately outlive the purge).

    The probe is joined outside ``sim.peers``, so the state digest and
    the other quiescence checks are unaffected.
    """
    violations = []
    if not sim.config.snapshot_every:
        return violations
    if not any(p.sealed_snapshot_height() is not None for p in sim.all_peers()):
        return violations  # run too short to seal a checkpoint: nothing to test
    replay = replay or ChainReplay(sim)

    probe = sim.network.join_peer(replay.source.msp_id, name="probe0")
    sim.network.reconcile_private_data()

    orderer = sim.network.orderer
    if probe.ledger.height != orderer.delivered_count:
        violations.append(Violation(
            "snapshot-equivalence",
            f"bootstrapped probe at height {probe.ledger.height}, orderer "
            f"delivered {orderer.delivered_count}",
            peer=probe.name,
        ))
        return violations
    if not probe.ledger.blockchain.verify_chain():
        violations.append(Violation(
            "snapshot-equivalence",
            "probe's anchored hash chain fails verification",
            peer=probe.name,
        ))

    channel = sim.network.channel
    flags_by_number = {
        validated.number: tuple(validated.flags) for validated in replay.blocks
    }
    for validated in probe.ledger.blockchain.blocks():
        number = validated.number
        ordered = orderer.block_at(number)
        if validated.block.header.block_hash() != ordered.header.block_hash():
            violations.append(Violation(
                "snapshot-equivalence",
                f"probe's block {number} differs from the ordered block",
                peer=probe.name,
            ))
        if tuple(validated.flags) != flags_by_number.get(number):
            violations.append(Violation(
                "snapshot-equivalence",
                f"probe's block {number} flags differ from the reference peer",
                peer=probe.name,
            ))

    violations.extend(peer_state_violations(
        channel, probe, replay.state, invariant="snapshot-equivalence"
    ))

    violations.extend(ineligible_row_violations(
        channel, probe, "snapshot-equivalence"
    ))
    height = probe.ledger.height
    for chaincode_id, definition in sorted(channel.chaincodes.items()):
        for collection in definition.collections:
            if not collection.is_member_org(probe.msp_id):
                continue
            btl = collection.block_to_live
            for key, entry in probe.ledger.private_data.items(
                chaincode_id, collection.name
            ):
                digest = probe.query_private_hash(
                    chaincode_id, collection.name, key
                )
                if digest is None or hash_value(entry.value) != digest:
                    violations.append(Violation(
                        "snapshot-equivalence",
                        f"probe plaintext for {collection.name}/{key} does "
                        "not match the committed hash",
                        peer=probe.name,
                    ))
                if btl and entry.version.block_num + btl + 1 <= height:
                    violations.append(Violation(
                        "snapshot-equivalence",
                        f"bootstrap resurrected BTL-expired plaintext "
                        f"{collection.name}/{key} (written at block "
                        f"{entry.version.block_num}, btl={btl}, "
                        f"height={height})",
                        peer=probe.name,
                    ))
    return violations


def check_reorder_soundness(
    sim: "SimNetwork", replay: Optional[ChainReplay] = None
) -> list:
    """Audit the conflict-aware orderer's batch records (reorder runs only).

    Two guarantees, checked per processed batch against the arrival-order
    verdicts :class:`ChainReplay`'s reference model gave at each pre-block
    state:

    * **No loss or duplication** — the emitted sequence is exactly a
      permutation of the batch's non-aborted arrivals, and matches the
      block the orderer actually delivered under that number.
    * **No false aborts** — every early-aborted transaction, re-validated
      in *arrival order* against the pre-block model state, fails with an
      MVCC/phantom flag: the client was told nothing it would not have
      learned from the un-reordered block.
    """
    from collections import Counter

    replay = replay or ChainReplay(sim)
    violations = []
    mvcc_flags = (
        ValidationCode.MVCC_READ_CONFLICT,
        ValidationCode.PHANTOM_READ_CONFLICT,
    )
    for index, record in enumerate(replay.records):
        arrival_ids = [tx.tx_id for tx in record.arrival]
        aborted_ids = [env.tx_id for env, _reason, _blk in record.aborted]
        emitted_ids = [tx.tx_id for tx in record.emitted]
        if Counter(emitted_ids) != Counter(arrival_ids) - Counter(aborted_ids):
            violations.append(Violation(
                "reorder-soundness",
                f"batch {index}: emitted block is not a permutation of the "
                f"non-aborted input ({len(arrival_ids)} arrived, "
                f"{len(aborted_ids)} aborted, {len(emitted_ids)} emitted)",
            ))
        if record.aborted:
            # The ORIGINAL arrival-order batch re-validated against the
            # pre-block model: each aborted tx must have been doomed there.
            flag_by_id = {
                tx.tx_id: flag
                for tx, flag in zip(record.arrival, replay.arrival_flags[index])
            }
            for tx_id in aborted_ids:
                flag = flag_by_id.get(tx_id)
                if flag not in mvcc_flags:
                    violations.append(Violation(
                        "reorder-soundness",
                        f"batch {index}: false early abort — arrival-order "
                        f"re-validation gives {flag}, not an MVCC/phantom "
                        "conflict",
                        tx_id=tx_id,
                    ))
        if record.block_number is not None:
            block = sim.network.orderer.block_at(record.block_number)
            if [tx.tx_id for tx in block.transactions] != emitted_ids:
                violations.append(Violation(
                    "reorder-soundness",
                    f"batch {index}: delivered block {record.block_number} "
                    "does not match the pipeline's emitted sequence",
                ))
    return violations


def run_quiescence_checks(sim: "SimNetwork", outcomes: list) -> list:
    """Run the full catalogue; returns all violations, worst first."""
    # A finished run's network is cyclic garbage; reclaim *earlier* runs
    # before the checks build a second ledger, or a sweep's peak memory
    # grows with how many runs fit between gen-2 collections.
    gc.collect()
    # The serialization twin of independent_verification(): the oracle
    # hashes and verifies encodings it made itself, each once, never
    # bytes the pipeline memoized on an envelope.
    clear_serialization_memos()
    with crypto.independent_verification():
        replay = ChainReplay(sim)
        violations = check_hash_chains(sim)
        violations.extend(check_ordering(sim))
        violations.extend(check_block_agreement(sim))
        violations.extend(check_reference_validation(sim, replay))
        violations.extend(check_vscc_memo_agreement(sim, replay))
        violations.extend(check_endorsement_plan(sim, outcomes, replay))
        violations.extend(check_policy_expectations(sim, outcomes))
        violations.extend(check_pdc_privacy(sim, outcomes))
        violations.extend(check_gossip_convergence(sim, outcomes))
        violations.extend(check_liveness_accounting(sim, outcomes))
        violations.extend(check_snapshot_equivalence(sim, replay))
        violations.extend(check_reorder_soundness(sim, replay))
    return violations
