"""The block cutter: batching envelopes into block-sized groups.

Orderers "collect a pre-defined number of transactions or wait a
pre-defined time" (Section II-B2) before cutting a block.  The cutter
cuts on size; the wait is the event runtime's batch-timeout timer, which
flushes the partial batch when it fires.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.protocol.transaction import TransactionEnvelope

DEFAULT_BATCH_SIZE = 10


@dataclass
class BlockCutter:
    """Accumulates envelopes; cuts on size or when flushed."""

    batch_size: int = DEFAULT_BATCH_SIZE
    _pending: list[TransactionEnvelope] = field(default_factory=list)

    def add(self, envelope: TransactionEnvelope) -> list[tuple[TransactionEnvelope, ...]]:
        """Add an envelope; returns zero or more cut batches.

        Normally at most one batch is cut per add, but if ``batch_size``
        was lowered while envelopes were pending (dynamic reconfiguration)
        the backlog is drained as multiple full batches.
        """
        self._pending.append(envelope)
        batches: list[tuple[TransactionEnvelope, ...]] = []
        while len(self._pending) >= self.batch_size:
            batches.append(self._cut(self.batch_size))
        return batches

    def flush(self) -> list[tuple[TransactionEnvelope, ...]]:
        """Force-cut whatever is pending, draining in ``batch_size`` batches.

        A backlog larger than ``batch_size`` (possible when callers submit
        in bulk before flushing) must never produce an oversized block —
        the size limit is a block invariant, not a steady-state heuristic.
        """
        batches: list[tuple[TransactionEnvelope, ...]] = []
        while self._pending:
            batches.append(self._cut(self.batch_size))
        return batches

    def _cut(self, count: int) -> tuple[TransactionEnvelope, ...]:
        batch = tuple(self._pending[:count])
        self._pending = self._pending[count:]
        return batch

    @property
    def pending_count(self) -> int:
        return len(self._pending)
