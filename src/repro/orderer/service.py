"""The ordering service: Raft-replicated block creation and delivery.

Orderers bundle submitted envelopes into blocks **without validating
transaction content** (Section II-B2) — a property the paper's attacks
rely on: a fabricated-but-well-formed transaction is ordered like any
other.  Each cut batch is replicated through the Raft cluster; once the
cluster commits it, the service seals it into a hash-chained block and
hands it to every registered delivery handler.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Optional

from repro.common.errors import OrderingError, PrunedBacklogError
from repro.ledger.block import GENESIS_PREV_HASH, Block
from repro.orderer.block_cutter import BlockCutter
from repro.orderer.raft import RaftCluster
from repro.protocol.transaction import TransactionEnvelope

BlockDeliveryHandler = Callable[[Block], Any]


class OrderingService:
    """Front-end over a Raft cluster of orderer nodes."""

    def __init__(
        self,
        cluster_size: int = 3,
        batch_size: int = 10,
        raft_rng: Optional[random.Random] = None,
        reorderer: Optional[Any] = None,
    ) -> None:
        self._cutter = BlockCutter(batch_size=batch_size)
        self._cluster = RaftCluster(
            size=cluster_size, on_commit=self._on_raft_commit, rng=raft_rng
        )
        # Optional conflict-aware pipeline (repro.orderer.reorder) run on
        # every cut batch before consensus: may reorder the batch and
        # divert provably doomed envelopes to the early-abort handlers.
        self._reorderer = reorderer
        self._abort_handlers: list[Callable[[TransactionEnvelope, str, Optional[int]], Any]] = []
        self._delivery_handlers: list[BlockDeliveryHandler] = []
        self._next_block_number = 0
        self._prev_hash = GENESIS_PREV_HASH
        self._delivered_batch_ids: set[int] = set()
        self._batch_counter = 0
        self._delivered_blocks: list[Block] = []
        # Cold-archived prefix of the backlog: blocks every peer has sealed
        # a snapshot past.  ``_backlog_offset`` is the number of the first
        # block still in the hot list.
        self._archived_blocks: list[Block] = []
        self._backlog_offset = 0
        self.blocks_delivered = 0

    @property
    def raft(self) -> RaftCluster:
        """The underlying cluster (exposed for fault-injection tests)."""
        return self._cluster

    @property
    def reorderer(self) -> Optional[Any]:
        """The conflict-aware pipeline, or ``None`` when reorder is off."""
        return self._reorderer

    def on_early_abort(
        self, handler: Callable[[TransactionEnvelope, str, Optional[int]], Any]
    ) -> None:
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
        """Run the (optional) conflict-aware pipeline, then order the batch.

        The surviving batch is ordered and delivered *before* the abort
        handlers fire, so a handler looking up the conflicting block (to
        align abort timing with that block's commit) finds it in flight.
        """
        if self._reorderer is None:
            self._order_batch(batch)
            return
        emitted, aborted = self._reorderer.process_batch(batch, self._next_block_number)
        if emitted:
            self._order_batch(emitted)
        for envelope, reason, conflict_block in aborted:
            for handler in self._abort_handlers:
                handler(envelope, reason, conflict_block)

    def _order_batch(self, batch: tuple[TransactionEnvelope, ...]) -> None:
        self._batch_counter += 1
        self._cluster.replicate_and_commit((self._batch_counter, batch))

    def _on_raft_commit(self, payload: Any) -> None:
        batch_id, batch = payload
        if batch_id in self._delivered_batch_ids:
            # Leadership changes can re-apply entries at a new leader;
            # delivery is exactly-once per batch.
            return
        self._delivered_batch_ids.add(batch_id)
        block = Block.create(
            number=self._next_block_number, prev_hash=self._prev_hash, transactions=batch
        )
        self._next_block_number += 1
        self._prev_hash = block.header.block_hash()
        self._delivered_blocks.append(block)
        self.blocks_delivered += 1
        for handler in self._delivery_handlers:
            handler(block)
