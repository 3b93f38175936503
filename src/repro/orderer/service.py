"""The ordering service: Raft-replicated block creation and delivery.

Orderers bundle submitted envelopes into blocks **without validating
transaction content** (Section II-B2) — a property the paper's attacks
rely on: a fabricated-but-well-formed transaction is ordered like any
other.  Each cut batch is sealed into a hash-chained block when it is
*proposed* — its number and ``prev_hash`` are fixed then — and replicated
through the Raft cluster on the runtime's bus; once the cluster commits
it, the service hands the block to every registered delivery handler.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.common.errors import ConfigError, OrderingError, PrunedBacklogError
from repro.ledger.block import GENESIS_PREV_HASH, Block
from repro.orderer.block_cutter import BlockCutter
from repro.orderer.raft import RaftCluster
from repro.protocol.transaction import TransactionEnvelope

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.bus import MessageBus

#: Consenters in a network that does not say otherwise.
DEFAULT_CLUSTER_SIZE = 3

BlockDeliveryHandler = Callable[[Block], Any]
AbortHandler = Callable[[TransactionEnvelope, str, Optional[int]], Any]


@dataclass(frozen=True, eq=False)
class Proposal:
    """One batch in consensus: its sealed block and the early aborts that
    fire once the block is delivered."""

    block: Block
    aborted: tuple = ()


class OrderingService:
    """Front-end over a Raft cluster of orderer nodes."""

    def __init__(
        self,
        cluster_size: int = DEFAULT_CLUSTER_SIZE,
        batch_size: int = 10,
        reorderer: Optional[Any] = None,
    ) -> None:
        if cluster_size < 1:
            raise OrderingError("a Raft cluster needs at least one node")
        self._cutter = BlockCutter(batch_size=batch_size)
        self._cluster_size = cluster_size
        self._cluster: Optional[RaftCluster] = None
        # Optional conflict-aware pipeline (repro.orderer.reorder) run on
        # every cut batch before consensus: may reorder the batch and
        # divert provably doomed envelopes to the early-abort handlers.
        self._reorderer = reorderer
        self._abort_handlers: list[AbortHandler] = []
        self._delivery_handlers: list[BlockDeliveryHandler] = []
        #: Number and ``prev_hash`` of the next *proposed* batch.
        self._next_block_number = 0
        self._prev_hash = GENESIS_PREV_HASH
        #: Proposed and not yet delivered, in proposal order: what a new
        #: leader is asked to replicate.
        self._in_flight: list[Proposal] = []
        self._delivered_blocks: list[Block] = []
        # Cold-archived prefix of the backlog: blocks every peer has sealed
        # a snapshot past.  ``_backlog_offset`` is the number of the first
        # block still in the hot list.
        self._archived_blocks: list[Block] = []
        self._backlog_offset = 0
        self.blocks_delivered = 0

    def attach(self, bus: "MessageBus") -> None:
        """Put the consenters on ``bus`` and elect the first leader now."""
        if self._cluster is not None:
            raise ConfigError("the ordering service is already on a bus")
        self._cluster = RaftCluster(
            self._cluster_size,
            bus,
            on_commit=self._on_raft_commit,
            on_leader=self._on_leader,
        )
        self._cluster.bootstrap()

    @property
    def raft(self) -> RaftCluster:
        """The consenters (fault injection and the ``ordering`` invariant)."""
        if self._cluster is None:
            raise OrderingError("the ordering service has no runtime yet")
        return self._cluster

    @property
    def proposed_count(self) -> int:
        """Batches proposed so far; each is delivered as that block number."""
        return self._next_block_number

    @property
    def reorderer(self) -> Optional[Any]:
        """The conflict-aware pipeline, or ``None`` when reorder is off."""
        return self._reorderer

    def on_early_abort(self, handler: AbortHandler) -> None:
        """Subscribe to early aborts: ``handler(envelope, reason, conflict_block)``."""
        self._abort_handlers.append(handler)

    @property
    def pending_count(self) -> int:
        """Envelopes accumulated but not yet cut into a block."""
        return self._cutter.pending_count

    @property
    def delivered_blocks(self) -> tuple[Block, ...]:
        """Every block delivered so far, in order — archived + hot.

        Audit/invariant surface: the full sequence regardless of pruning.
        Copies the whole history; delivery paths should use the
        O(missed-blocks) :meth:`blocks_since` cursor instead.
        """
        return tuple(self._archived_blocks) + tuple(self._delivered_blocks)

    @property
    def delivered_count(self) -> int:
        """Total blocks delivered so far (archived + hot), O(1)."""
        return self._backlog_offset + len(self._delivered_blocks)

    @property
    def backlog_offset(self) -> int:
        """Number of the first block still in the hot backlog."""
        return self._backlog_offset

    def blocks_since(self, height: int) -> list[Block]:
        """The delivery backlog for a consumer already at ``height``.

        O(missed blocks): slices only the hot list.  Raises
        :class:`PrunedBacklogError` when ``height`` predates the pruned
        prefix — such a consumer must bootstrap from a state snapshot.
        """
        if height < 0:
            raise OrderingError(f"negative backlog height {height}")
        if height < self._backlog_offset:
            raise PrunedBacklogError(height, self._backlog_offset)
        return self._delivered_blocks[height - self._backlog_offset :]

    def block_at(self, number: int) -> Block:
        """A delivered block by number, archived or hot."""
        if number < self._backlog_offset:
            return self._archived_blocks[number]
        return self._delivered_blocks[number - self._backlog_offset]

    def prune_delivered(self, height: int) -> int:
        """Archive hot backlog blocks below ``height``; returns the count.

        A move, not a delete: full-history replay (``register_delivery``
        with ``replay=True``, audits, invariant checks) still works; only
        the hot cursor window shrinks.  Callers prune to the minimum
        snapshot height sealed across all registered peers, so no live
        consumer's cursor can fall below the offset.
        """
        target = min(height, self.delivered_count)
        if target <= self._backlog_offset:
            return 0
        count = target - self._backlog_offset
        self._archived_blocks.extend(self._delivered_blocks[:count])
        del self._delivered_blocks[:count]
        self._backlog_offset = target
        return count

    def register_delivery(self, handler: BlockDeliveryHandler, replay: bool = True) -> None:
        """Subscribe ``handler`` to new blocks.

        With ``replay`` (the default) blocks already ordered are replayed
        first — archived prefix included — so a consumer joining late
        catches up from block 0; Fabric's deliver service behaves the
        same way.  The event runtime's dispatcher registers with
        ``replay=False``: it fans each new block out to the peers, which
        catch up on the backlog through :meth:`blocks_since`.
        """
        if replay:
            for block in self._archived_blocks:
                handler(block)
            for block in self._delivered_blocks:
                handler(block)
        self._delivery_handlers.append(handler)

    # -- ordering phase -----------------------------------------------------
    def submit(self, envelope: TransactionEnvelope) -> None:
        """Accept an envelope; content is *not* validated, only well-formedness."""
        if not envelope.tx_id:
            raise OrderingError("envelope missing tx id")
        for batch in self._cutter.add(envelope):
            self._process_batch(batch)

    def flush(self) -> None:
        """Cut and order whatever is pending (the batch timeout's action)."""
        for batch in self._cutter.flush():
            self._process_batch(batch)

    # -- consensus + delivery --------------------------------------------------
    def _process_batch(self, batch: tuple[TransactionEnvelope, ...]) -> None:
        """Run the (optional) conflict-aware pipeline, then propose the batch.

        The surviving batch's aborts fire from its commit callback, *after*
        the delivery handlers, so a handler looking up the conflicting
        block (to align abort timing with that block's commit) finds it in
        flight.  A batch that emitted nothing aborts at once.
        """
        aborted: tuple = ()
        if self._reorderer is not None:
            batch, aborted = self._reorderer.process_batch(batch, self._next_block_number)
            if not batch:
                self._fire_aborts(aborted)
                return
        block = Block.create(
            number=self._next_block_number, prev_hash=self._prev_hash, transactions=batch
        )
        self._next_block_number += 1
        self._prev_hash = block.header.block_hash()
        proposal = Proposal(block, tuple(aborted))
        self._in_flight.append(proposal)
        if self._cluster is not None:
            self._cluster.propose(proposal)

    def _on_leader(self) -> None:
        """A new leader replicates every undelivered batch, in order and
        under its number; re-applied copies are skipped at delivery."""
        for proposal in list(self._in_flight):
            self._cluster.propose(proposal)

    def _on_raft_commit(self, proposal: Proposal) -> None:
        block = proposal.block
        number = block.header.number
        if number < self.delivered_count:
            return  # a copy re-proposed after a leader change
        while self._in_flight and self._in_flight[0].block.header.number <= number:
            self._in_flight.pop(0)
        self._delivered_blocks.append(block)
        self.blocks_delivered += 1
        for handler in self._delivery_handlers:
            handler(block)
        self._fire_aborts(proposal.aborted)

    def _fire_aborts(self, aborted: tuple) -> None:
        for envelope, reason, conflict_block in aborted:
            for handler in self._abort_handlers:
                handler(envelope, reason, conflict_block)
