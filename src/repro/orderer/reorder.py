"""Conflict-aware ordering: intra-block reordering and early abort.

Under hot-key contention most ordered transactions die at MVCC
validation: they were endorsed against a state version that another
transaction — earlier in the same block or in an already-cut block —
has since overwritten.  Unlike real Fabric, this reproduction's
:class:`~repro.protocol.transaction.TransactionEnvelope` carries its
read/write sets in the clear (``payload.results``), so the ordering
service can see the conflicts *before* sealing a block, exactly the
opening Fabric++ (Sharma et al., SIGMOD'19) exploits:

1. **Reorder within the batch.**  Build the conflict graph over the
   batch — a ``reads-before-writes`` edge for every reader of a key
   another transaction writes (so the reader keeps its snapshot), and an
   arrival-order ``write-write`` edge between writers of the same key
   (so last-writer-wins is preserved) — break cycles with a greedy
   feedback-vertex heuristic, and emit a topological order that lets the
   maximum number of transactions survive intra-block MVCC.
2. **Early-abort the provably doomed.**  A transaction whose read
   versions are already stale against the orderer's delivered-write
   shadow — or that loses a read-modify-write race no order can resolve
   — would be flagged ``MVCC_READ_CONFLICT``/``PHANTOM_READ_CONFLICT``
   by every peer in *any* block position.  The pipeline drops it from
   the batch and surfaces :data:`~repro.protocol.transaction.\
ValidationCode.ORDERER_EARLY_ABORT` to the client, which re-endorses
   through the normal retry path without the transaction ever occupying
   block space or validation work.

Soundness is the hard part, and it is enforced two ways.  First, the
pipeline only aborts a transaction that its *shadow* of the committed
state predicts doomed both in the emitted order **and** in the original
arrival order (arrival-order doom is what makes the abort
indistinguishable from the post-commit abort the un-reordered system
would have produced; a transaction that some order could save is never
aborted, it is merely ordered or left on-chain as invalid).  Second, the ``reorder-soundness``
simulation invariant (:mod:`repro.simulation.invariants`) re-validates
every aborted transaction with the independent ``ReferenceValidator``
in arrival order and fails the run on any false abort, and checks every
emitted block is a permutation of its non-aborted input.

The shadow asks the peer's own :class:`~repro.peer.validator.Validator`
for every flag, so the orderer and the peers share one definition of it.
All predictions are pure functions of the envelope bytes and the shadow,
so the pipeline is deterministic: every tie in the conflict graph goes to
the arrival index, which is unique within a batch.
"""

from __future__ import annotations

import heapq
import time
from collections import Counter
from dataclasses import dataclass
from types import SimpleNamespace
from typing import TYPE_CHECKING, NamedTuple, Optional

from repro.common.tracing import PERF
from repro.ledger.version import Version
from repro.ledger.world_state import WorldState
from repro.peer.validator import Validator, in_range, range_fresh
from repro.protocol.transaction import TransactionEnvelope, ValidationCode

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.defense.features import FrameworkFeatures
    from repro.network.channel import ChannelConfig

#: The two flags a conflict-aware orderer may predict-and-abort on.
_CONFLICT_FLAGS = (
    ValidationCode.MVCC_READ_CONFLICT,
    ValidationCode.PHANTOM_READ_CONFLICT,
)
#: The flags of a transaction that passes every structural check.
_CANDIDATE_FLAGS = _CONFLICT_FLAGS + (ValidationCode.VALID,)

#: ``scope`` classification of a committed MVCC/phantom abort.
SCOPE_WITHIN_BLOCK = "within-block"
SCOPE_CROSS_BLOCK = "cross-block"


# ---------------------------------------------------------------------------
# Read/write profiles
# ---------------------------------------------------------------------------

class _TxProfile:
    """One envelope's conflict surface, extracted once per batch.

    The only reader of ``payload.results`` on the conflict side: the
    graph, the abort attribution and the scope classification all ask
    :meth:`reads_from` of these sets.
    """

    __slots__ = (
        "tx", "index", "reads", "writes", "hashed_reads", "hashed_writes",
        "ranges",
    )

    def __init__(self, tx: TransactionEnvelope, index: int) -> None:
        self.tx = tx
        self.index = index  # arrival position within the batch
        self.reads: list = []          # ((ns, key), Version | None)
        self.writes: set = set()       # (ns, key)
        self.hashed_reads: list = []   # ((ns, col, key_hash), Version | None)
        self.hashed_writes: set = set()  # (ns, col, key_hash)
        self.ranges: list = []         # (ns, RangeQueryInfo)
        for ns in tx.payload.results.namespaces:
            for read in ns.reads:
                self.reads.append(((ns.namespace, read.key), read.version))
            for write in ns.writes:
                self.writes.add((ns.namespace, write.key))
            for query in ns.range_queries:
                self.ranges.append((ns.namespace, query))
            for col in ns.collections:
                for hashed in col.hashed_reads:
                    self.hashed_reads.append((
                        (ns.namespace, col.collection, hashed.key_hash),
                        hashed.version,
                    ))
                for hashed in col.hashed_writes:
                    self.hashed_writes.add(
                        (ns.namespace, col.collection, hashed.key_hash)
                    )

    def reads_from(self, writes: set, hashed_writes: set) -> bool:
        """Does this transaction read (or range-cover) a key of these writes?"""
        for key, _version in self.reads:
            if key in writes:
                return True
        for key, _version in self.hashed_reads:
            if key in hashed_writes:
                return True
        return any(
            write_ns == ns and in_range(query, key)
            for ns, query in self.ranges
            for write_ns, key in writes
        )

    def writes_overlap(self, other: "_TxProfile") -> bool:
        return bool(
            self.writes & other.writes
            or self.hashed_writes & other.hashed_writes
        )


@dataclass(frozen=True)
class BatchRecord:
    """What the pipeline did to one cut batch (the invariant's audit trail).

    ``aborted`` holds ``(envelope, reason, conflict_block)`` triples;
    ``block_number`` is the number the emitted block received, or ``None``
    when every transaction of the batch was aborted (no block exists).
    """

    arrival: tuple
    emitted: tuple
    aborted: tuple
    block_number: Optional[int]


# ---------------------------------------------------------------------------
# The shadow state
# ---------------------------------------------------------------------------

class _Written(NamedTuple):
    """The last committed write of a key: ``version`` is ``None`` for a
    delete (a tombstone), ``block`` is the block that wrote it."""

    version: Optional[Version]
    block: int


class _Shadow:
    """The committed state the peers will hold, as the validator reads it.

    Not a :class:`~repro.ledger.ledger.PeerLedger`: a committed ledger
    drops a deleted key, and with it the block number early-abort timing
    needs, so a deleted key stays here as a tombstone.  The peer
    :class:`~repro.peer.validator.Validator` reads it through the five
    calls it makes on a ledger, and through nothing else.
    """

    def __init__(self) -> None:
        self.public: dict = {}   # (ns, key) -> _Written
        self.private: dict = {}  # (ns, col, key_hash) -> _Written
        self.meta: dict = {}     # (ns, key) -> {metadata name: bytes}
        self.tx_ids: set = set()
        self.blockchain = SimpleNamespace(has_transaction=self.tx_ids.__contains__)
        self.world_state = SimpleNamespace(
            get_version=self._public_version,
            get_validation_parameter=self._validation_parameter,
            items=self._live_items,
        )
        self.private_hashes = SimpleNamespace(get_version=self._private_version)

    def _public_version(self, namespace: str, key: str) -> Optional[Version]:
        written = self.public.get((namespace, key))
        return written.version if written else None

    def _private_version(
        self, namespace: str, collection: str, key_hash: bytes
    ) -> Optional[Version]:
        written = self.private.get((namespace, collection, key_hash))
        return written.version if written else None

    def _validation_parameter(self, namespace: str, key: str) -> Optional[bytes]:
        return self.meta.get((namespace, key), {}).get(WorldState.VALIDATION_PARAMETER)

    def _live_items(self, namespace: str):
        """``(key, written)`` of the namespace's live keys, in key order."""
        for (ns, key), written in sorted(self.public.items()):
            if ns == namespace and written.version is not None:
                yield key, written


# ---------------------------------------------------------------------------
# The pipeline
# ---------------------------------------------------------------------------

class ReorderPipeline:
    """Conflict-aware batch transformer attached to one ordering service.

    Stateful: the *shadow* tracks the committed world exactly as the
    peers will see it — every predicted-VALID write of every emitted
    block advances it, together with the committed key-level metadata
    the endorsement-policy rules consult and the committed tx ids for
    duplicate detection.  Because the orderer is a single total order
    over batches, the shadow at batch *N* equals the committed state at
    height *N* — which is what makes the early-abort prediction exact
    rather than heuristic.
    """

    def __init__(self, channel: "ChannelConfig", features: "FrameworkFeatures") -> None:
        # Its own instance: nothing done to a peer's validator reaches it.
        self._validator = Validator(channel, features)
        self._shadow = _Shadow()
        #: Audit trail consumed by the ``reorder-soundness`` invariant.
        self.records: list[BatchRecord] = []
        # Lifetime totals.
        self.batches = 0
        self.displaced = 0
        self.max_distance = 0
        self.early_aborts = 0

    # -- the per-batch entry point -----------------------------------------
    def process_batch(
        self, batch: tuple, next_block_number: int
    ) -> tuple[tuple, list]:
        """Reorder one cut batch; returns ``(emitted, aborted)``.

        ``emitted`` is the (possibly empty) transaction sequence to seal
        into block ``next_block_number``; ``aborted`` lists
        ``(envelope, reason, conflict_block)`` for every transaction
        dropped as provably doomed — ``conflict_block`` names the block
        whose write kills it (the emitted block itself for an in-batch
        race), so callers can resolve the abort with post-commit timing.
        """
        started = time.perf_counter()
        try:
            return self._process(batch, next_block_number)
        finally:
            PERF.add_phase_time("reorder", time.perf_counter() - started)

    def _process(self, batch: tuple, next_block_number: int) -> tuple[tuple, list]:
        profiles = [_TxProfile(tx, i) for i, tx in enumerate(batch)]

        # Doom in *arrival* order: the flags the un-reordered block would
        # have carried.  Only arrival-doomed transactions are abortable —
        # aborting anything else would change an outcome some client
        # legitimately observed as VALID.
        arrival_flags = self._predict(batch)
        arrival_doomed = {
            tx.tx_id
            for tx, flag in zip(batch, arrival_flags)
            if flag in _CONFLICT_FLAGS
        }

        # Candidates are transactions that pass every structural check
        # (anything else commits with its structural flag, in arrival
        # order, and must not influence the conflict graph).  The
        # structural checks precede the conflict checks and ignore
        # in-block writes, so for a tx id unique in the batch its arrival
        # flag tells.  A tx id duplicated inside the batch is structural
        # too: which occurrence survives is an ordering artifact, so
        # neither is reordered.
        in_batch_counts = Counter(tx.tx_id for tx in batch)
        candidates = [
            p for p, flag in zip(profiles, arrival_flags)
            if in_batch_counts[p.tx.tx_id] == 1 and flag in _CANDIDATE_FLAGS
        ]
        candidate_ids = {p.tx.tx_id for p in candidates}
        tail = [p for p in profiles if p.tx.tx_id not in candidate_ids]

        trial = self._topological_order(candidates) + tail

        # Doom in the *emitted* order; doomed-in-both get aborted.  An
        # aborted transaction is invalid, so it contributes no block
        # writes, and its tx id is unique in the batch: removing it cannot
        # change any survivor's flag, and the survivors' trial flags are
        # the ones the peers will assign to the emitted block.
        trial_flags = self._predict([p.tx for p in trial])
        aborted: list = []
        emitted: list = []
        emitted_flags: list = []
        for profile, flag in zip(trial, trial_flags):
            tx = profile.tx
            if (
                flag in _CONFLICT_FLAGS
                and tx.tx_id in arrival_doomed
                and tx.tx_id in candidate_ids
            ):
                aborted.append((
                    tx,
                    flag.value.lower().replace("_", "-"),
                    self._conflict_block(profile, trial, trial_flags, next_block_number),
                ))
            else:
                emitted.append(tx)
                emitted_flags.append(flag)

        block_number = next_block_number if emitted else None
        if block_number is not None:
            self._apply_sequence(emitted, emitted_flags, block_number)

        self._account(batch, emitted, aborted)
        self.records.append(BatchRecord(
            arrival=tuple(batch),
            emitted=tuple(emitted),
            aborted=tuple(aborted),
            block_number=block_number,
        ))
        return tuple(emitted), aborted

    # -- conflict graph + deterministic order ------------------------------
    def _topological_order(self, candidates: list) -> list:
        """Order candidates so readers precede writers of their keys.

        Nodes are arrival indices.  Edges: ``i -> j`` when *i* must commit
        before *j* — a reader before any writer of a key it read (rw), and
        the arrival-earlier writer before the arrival-later one for a
        shared written key (ww, which keeps last-writer-wins
        deterministic).  Cycles (mutual read-modify-writes) are broken by
        greedily removing the node with the most intra-cycle edges — ties
        going to the latest arrival — which keeps the arrival-first member
        of a symmetric RMW clique, exactly the transaction the
        un-reordered block would have validated.  Removed nodes re-enter
        the emitted sequence *after* every survivor, in arrival order.
        """
        by_index = {p.index: p for p in candidates}
        edges: dict = {p.index: set() for p in candidates}
        for reader in candidates:
            for writer in candidates:
                if reader is not writer and reader.reads_from(
                    writer.writes, writer.hashed_writes
                ):
                    edges[reader.index].add(writer.index)
        for i, first in enumerate(candidates):
            for second in candidates[i + 1:]:
                if first.writes_overlap(second):
                    edges[first.index].add(second.index)

        losers: list = []
        while True:
            cyclic = self._cyclic_nodes(edges)
            if not cyclic:
                break
            victim = max(
                cyclic,
                key=lambda node: (
                    sum(1 for t in edges[node] if t in cyclic)
                    + sum(1 for t in cyclic if node in edges[t]),
                    node,
                ),
            )
            losers.append(victim)
            edges.pop(victim)
            for targets in edges.values():
                targets.discard(victim)

        indegree = {node: 0 for node in edges}
        for targets in edges.values():
            for target in targets:
                indegree[target] += 1
        # Smallest arrival index first: minimal displacement, and a
        # deterministic emit order for any edge set.
        ready = [node for node, degree in indegree.items() if degree == 0]
        heapq.heapify(ready)
        ordered: list = []
        while ready:
            node = heapq.heappop(ready)
            ordered.append(by_index[node])
            for target in edges[node]:
                indegree[target] -= 1
                if indegree[target] == 0:
                    heapq.heappush(ready, target)
        return ordered + [by_index[node] for node in sorted(losers)]

    @staticmethod
    def _cyclic_nodes(edges: dict) -> set:
        """Every node on some directed cycle (iterative trim of the DAG part)."""
        indegree: dict = {node: 0 for node in edges}
        outdegree: dict = {node: len(targets) for node, targets in edges.items()}
        reverse: dict = {node: set() for node in edges}
        for source, targets in edges.items():
            for target in targets:
                indegree[target] += 1
                reverse[target].add(source)
        alive = set(edges)
        queue = [
            node for node in alive
            if indegree[node] == 0 or outdegree[node] == 0
        ]
        while queue:
            node = queue.pop()
            if node not in alive:
                continue
            alive.discard(node)
            for target in edges[node]:
                if target in alive:
                    indegree[target] -= 1
                    if indegree[target] == 0:
                        queue.append(target)
            for source in reverse[node]:
                if source in alive:
                    outdegree[source] -= 1
                    if outdegree[source] == 0:
                        queue.append(source)
        return alive

    # -- predictions over the shadow ------------------------------------------
    def _predict(self, transactions) -> list:
        """The flags the peers will assign to this sequence (no state change)."""
        return self._validator.flags_for(transactions, self._shadow)

    def _conflict_block(
        self, profile: _TxProfile, trial: list, trial_flags: list,
        next_block_number: int,
    ) -> Optional[int]:
        """Which block's write dooms ``profile`` (for abort-resolution timing).

        An in-batch race — a read of a key an earlier VALID transaction of
        the trial writes — resolves with the block being cut; a stale read
        resolves with the *latest* shadow block that rewrote any of the
        transaction's keys.  ``None`` means no attributable block (the
        caller resolves the abort immediately).
        """
        block_writes: set = set()
        block_private: set = set()
        for other, flag in zip(trial, trial_flags):
            if other is profile:
                break
            if flag is ValidationCode.VALID:
                block_writes |= other.writes
                block_private |= other.hashed_writes
        if profile.reads_from(block_writes, block_private):
            return next_block_number
        shadow = self._shadow
        stale: list = []
        for table, reads in (
            (shadow.public, profile.reads), (shadow.private, profile.hashed_reads)
        ):
            for key, version in reads:
                written = table.get(key)
                if written is not None and written.version != version:
                    stale.append(written.block)
        for namespace, query in profile.ranges:
            # No block write is in range (``reads_from`` said so), so the
            # committed state alone decides the phantom.
            if not range_fresh(namespace, query, shadow.world_state, ()):
                stale.extend(
                    written.block
                    for (ns, key), written in shadow.public.items()
                    if ns == namespace and in_range(query, key)
                )
        return max(stale, default=None)

    # -- shadow maintenance --------------------------------------------------
    def _apply_sequence(
        self, transactions: list, flags: list, block_number: int
    ) -> None:
        """Advance the shadow exactly as the peers' committers will."""
        shadow = self._shadow
        for tx_num, (tx, flag) in enumerate(zip(transactions, flags)):
            shadow.tx_ids.add(tx.tx_id)
            if flag is not ValidationCode.VALID:
                continue
            version = Version(block_number, tx_num)
            for ns in tx.payload.results.namespaces:
                for write in ns.writes:
                    full = (ns.namespace, write.key)
                    if write.is_delete:
                        shadow.public[full] = _Written(None, block_number)
                        shadow.meta.pop(full, None)
                    else:
                        shadow.public[full] = _Written(version, block_number)
                for meta in ns.metadata_writes:
                    shadow.meta.setdefault(
                        (ns.namespace, meta.key), {}
                    )[meta.name] = meta.value
                for col in ns.collections:
                    for hashed in col.hashed_writes:
                        full = (ns.namespace, col.collection, hashed.key_hash)
                        shadow.private[full] = _Written(
                            None if hashed.is_delete else version, block_number
                        )

    # -- accounting ----------------------------------------------------------
    def _account(self, batch: tuple, emitted: list, aborted: list) -> None:
        self.batches += 1
        # Displacement is measured among emitted transactions only — an
        # abort is not a reordering of what remains.
        emitted_ids = {tx.tx_id for tx in emitted}
        arrival_positions = {
            tx.tx_id: position
            for position, tx in enumerate(
                tx for tx in batch if tx.tx_id in emitted_ids
            )
        }
        for position, tx in enumerate(emitted):
            distance = abs(position - arrival_positions[tx.tx_id])
            if distance:
                self.displaced += 1
            self.max_distance = max(self.max_distance, distance)
        self.early_aborts += len(aborted)


# ---------------------------------------------------------------------------
# Conflict-scope classification (shared with tracing / stats)
# ---------------------------------------------------------------------------

def conflict_scopes(transactions, flags) -> dict:
    """Classify each MVCC/phantom abort of a validated block by scope.

    ``within-block`` — the transaction's reads (or range windows) overlap
    a key an earlier *valid* transaction of the same block wrote; this is
    the population intra-block reordering can rescue.  ``cross-block`` —
    the conflict predates the block (a stale read against committed
    state), which only early abort can address.  Returns
    ``{tx_id: scope}`` for the conflicted transactions only.
    """
    scopes: dict = {}
    block_writes: set = set()
    block_private: set = set()
    for tx, flag in zip(transactions, flags):
        if flag not in _CANDIDATE_FLAGS:
            continue
        profile = _TxProfile(tx, 0)
        if flag is ValidationCode.VALID:
            block_writes |= profile.writes
            block_private |= profile.hashed_writes
        elif profile.reads_from(block_writes, block_private):
            scopes[tx.tx_id] = SCOPE_WITHIN_BLOCK
        else:
            scopes[tx.tx_id] = SCOPE_CROSS_BLOCK
    return scopes
