"""Exception hierarchy for the whole library.

Every error raised by ``repro`` derives from :class:`ReproError` so callers
can catch library failures with a single ``except`` clause.  The hierarchy
mirrors the places Hyperledger Fabric itself surfaces errors: endorsement,
validation, ordering, chaincode execution, identity/policy evaluation, and
the static analyzer.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the library."""


class ConfigError(ReproError):
    """A network, channel, chaincode or collection configuration is invalid."""


class IdentityError(ReproError):
    """An identity could not be issued, deserialized, or validated."""


class PolicyError(ReproError):
    """A policy expression could not be parsed or evaluated."""


class LedgerError(ReproError):
    """World state / block store invariant violated."""


class KeyNotFoundError(LedgerError):
    """A requested key does not exist in the (private) world state.

    This is the error a PDC non-member endorser hits when it executes a
    private-data *read* (Use Case 1 of the paper): the original
    ``(key, value, version)`` is simply absent from its store.
    """

    def __init__(self, namespace: str, key: str, collection: str = "") -> None:
        self.namespace = namespace
        self.key = key
        self.collection = collection
        where = f"collection {collection!r} of " if collection else ""
        super().__init__(f"key {key!r} not found in {where}namespace {namespace!r}")


class ChaincodeError(ReproError):
    """A chaincode function raised or returned a failure response."""


class EndorsementError(ReproError):
    """A peer refused to endorse a proposal, or endorsement collection failed."""


class ProposalResponseMismatchError(EndorsementError):
    """Endorsers returned divergent results for the same proposal.

    The client-side check from the execution phase: all proposal responses
    must be byte-identical before a transaction may be assembled.
    """


class EndorsementTimeoutError(EndorsementError):
    """An endorsement plan ran out of time.

    Raised when outstanding endorsers failed to respond within the wave
    timeout (crashed, partitioned, or simply slower than the deadline) and
    the plan had no backups left to escalate to.
    """


class EndorsementPlanExhaustedError(EndorsementError):
    """Every candidate endorser of a plan was tried without success.

    The collected responses still do not satisfy the endorsement policy
    and at least one endorser failed outright, so the client cannot
    assemble a transaction.  The ``response`` attribute (when set) carries
    the last failure's chaincode response, mirroring how a plain
    :class:`EndorsementError` from a failed simulation does.
    """


class OrderingError(ReproError):
    """The ordering service rejected or failed to order an envelope."""


class MempoolFullError(OrderingError):
    """The submit pipeline is at its configured mempool bound.

    Open-loop load can otherwise grow the pending-transaction set without
    limit; a bounded runtime refuses the submission instead, and the
    caller is expected to back off and resubmit.  Carries the refused
    ``tx_id`` and the ``limit`` that was hit.
    """

    def __init__(self, tx_id: str, limit: int) -> None:
        self.tx_id = tx_id
        self.limit = limit
        super().__init__(
            f"transaction {tx_id} refused: mempool is at its bound "
            f"({limit} transactions in flight)"
        )


class PrunedBacklogError(OrderingError):
    """A delivery cursor asked for blocks below the pruned backlog prefix.

    The ordering service archives delivered blocks once every peer has
    sealed a snapshot past them; a consumer whose height predates the
    archive boundary cannot tail-replay and must bootstrap from a state
    snapshot instead.  Carries the requested ``height`` and the current
    ``offset`` (the first block still held in the hot backlog).
    """

    def __init__(self, height: int, offset: int) -> None:
        self.height = height
        self.offset = offset
        super().__init__(
            f"backlog cursor at height {height} predates the pruned prefix "
            f"(first hot block is {offset}); bootstrap from a snapshot"
        )


class SnapshotError(LedgerError):
    """A state snapshot failed verification or could not be applied.

    Raised when a snapshot package's signature set does not satisfy the
    channel policy, its payload does not reproduce the manifest digests,
    or a plaintext row does not match its committed hash — a bootstrapping
    peer must reject the package rather than trust unattested state.
    """


class RetryExhaustedError(ReproError):
    """An admission/retry policy ran out of retry budget.

    Raised by the client-side retry layer when a transaction could not be
    admitted (``MempoolFullError`` on every attempt) or kept aborting on
    MVCC conflicts until the budget was spent.  Carries the last attempt's
    ``tx_id``, the number of ``attempts`` made, and the ``reason`` string
    of the final failure.
    """

    def __init__(self, tx_id: str, attempts: int, reason: str) -> None:
        self.tx_id = tx_id
        self.attempts = attempts
        self.reason = reason
        super().__init__(
            f"transaction {tx_id} abandoned after {attempts} attempts: {reason}"
        )


class SchedulerError(ReproError):
    """The simulated-time runtime could not make progress.

    Raised when an event-loop run exhausts its event budget, or when a
    caller waits on a condition (e.g. a transaction commit) that the
    remaining scheduled events can never satisfy — typically because a
    fault model dropped the messages that would have produced it.
    """


class TransactionInvalidError(ReproError):
    """A submitted transaction was committed with an invalid flag."""

    def __init__(self, tx_id: str, code: str) -> None:
        self.tx_id = tx_id
        self.code = code
        super().__init__(f"transaction {tx_id} invalidated: {code}")


class GossipError(ReproError):
    """Private data dissemination failed to reach required peers."""


class AnalyzerError(ReproError):
    """The static analyzer could not scan a project source."""


class CorpusError(ReproError):
    """The synthetic corpus generator was given an unsatisfiable spec."""
