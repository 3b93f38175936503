"""Admission/retry policy layered on the bounded mempool.

PR 6 gave the runtime a mempool bound that *refuses* submissions with a
typed :class:`~repro.common.errors.MempoolFullError`; this module adds
the client-side half of backpressure: a :class:`RetryPolicy` with a
retry budget and seed-derived jittered exponential backoff, and
:func:`submit_with_retry_async`, which drives one logical transaction
through the event runtime until it commits, exhausts its budget
(:class:`~repro.common.errors.RetryExhaustedError`), or fails terminally.

Two failure classes are retried, each the safe way:

* ``MempoolFullError`` — the refusal happens *before* the envelope
  enters the pipeline, so the **same envelope** (same tx id) is
  resubmitted after backoff; no duplicate can ever commit.
* MVCC / phantom aborts — the conflicting transaction *committed* (as
  invalid), so the retry **re-endorses a fresh proposal** (new tx id,
  re-reading current state); the aborted attempt stays on-chain as an
  invalid transaction, exactly like a Fabric client SDK retry.  An
  orderer **early abort** (``reorder=True``) is the same verdict made
  sooner: the envelope never reached a block, but its reads are provably
  stale, so the retry likewise re-endorses fresh — the only difference is
  that no invalid transaction occupies chain space.

Everything else (chaincode errors, policy failures, bad signatures) is
deterministic — retrying would fail identically — and finishes the
attempt immediately.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from repro.common.errors import (
    MempoolFullError,
    ReproError,
    RetryExhaustedError,
)
from repro.protocol.transaction import ValidationCode

if TYPE_CHECKING:  # pragma: no cover
    from repro.client.gateway import Gateway
    from repro.network.network import FabricNetwork

#: Final statuses worth re-endorsing: the write raced and lost, current
#: state has moved on, and a fresh read-set may well commit.
RETRIABLE_STATUSES = (
    ValidationCode.MVCC_READ_CONFLICT,
    ValidationCode.PHANTOM_READ_CONFLICT,
    ValidationCode.ORDERER_EARLY_ABORT,
)


@dataclass(frozen=True)
class RetryPolicy:
    """Budgeted exponential backoff with seeded jitter.

    ``budget`` counts *retries* (attempts beyond the first).  The delay
    before retry ``n`` (0-based) is ``base_backoff * multiplier**n``
    stretched by up to ``jitter`` (a fraction) of itself, drawn from the
    caller's rng — so a swarm of colliding clients decorrelates
    deterministically per seed instead of thundering back in lockstep.
    """

    budget: int = 3
    base_backoff: float = 0.5
    multiplier: float = 2.0
    jitter: float = 0.5

    def backoff(self, retry_number: int, rng: random.Random) -> float:
        delay = self.base_backoff * (self.multiplier ** retry_number)
        return round(delay * (1.0 + self.jitter * rng.random()), 6)


class RetryHandle:
    """Bookkeeping for one logical transaction's journey through retries."""

    def __init__(self) -> None:
        self.attempts = 0          # endorsement attempts (distinct tx ids)
        self.submissions = 0       # envelope submissions (incl. resubmits)
        self.retries = 0           # backoff-and-retry events of either kind
        self.mempool_drops = 0     # MempoolFullError refusals absorbed
        self.attempt_tx_ids: tuple = ()
        self.tx_id: Optional[str] = None      # latest attempt's tx id
        self.status = None                    # final ValidationCode
        self.error: Optional[Exception] = None  # final client-side failure
        self.done = False


def submit_with_retry_async(
    network: "FabricNetwork",
    client: "Gateway",
    chaincode_id: str,
    function: str,
    args: Sequence[str],
    *,
    transient=None,
    endorsing_peers=None,
    policy: Optional[RetryPolicy] = None,
    rng: Optional[random.Random] = None,
    on_attempt: Optional[Callable[[RetryHandle], None]] = None,
    on_final: Optional[Callable[[RetryHandle], None]] = None,
) -> RetryHandle:
    """Submit one logical transaction under the admission/retry policy.

    Endorsement stays the synchronous non-plan gateway round (each
    attempt owns its envelope, which is what makes the mempool resubmit
    safe); ordering, validation and the retries themselves ride the
    event runtime — backoffs are ``scheduler.call_later`` timers, so an
    open-loop workload interleaves naturally with its own retries.
    Returns a :class:`RetryHandle` that is filled in as the run advances;
    ``on_attempt`` fires after each endorsement attempt is assembled (its
    tx id is on the handle by then — callers that must attribute a
    never-settling envelope, e.g. one eaten by a fault window, need it),
    and ``on_final`` fires exactly once when the outcome is settled.
    """
    runtime = network.runtime
    policy = policy or RetryPolicy()
    rng = rng or random.Random("retry")
    handle = RetryHandle()
    retries_used = 0

    def finish(status=None, error: Optional[Exception] = None) -> None:
        if handle.done:  # pragma: no cover - defensive: outcomes settle once
            return
        handle.status = status
        handle.error = error
        handle.done = True
        if on_final is not None:
            on_final(handle)

    def spend_retry(action: Callable[[], None]) -> bool:
        nonlocal retries_used
        if retries_used >= policy.budget:
            return False
        delay = policy.backoff(retries_used, rng)
        retries_used += 1
        handle.retries += 1
        runtime.scheduler.call_later(delay, action)
        return True

    def attempt() -> None:
        handle.attempts += 1
        try:
            envelope, payload = client._endorse_and_assemble(  # noqa: SLF001
                chaincode_id, function, list(args), transient, endorsing_peers
            )
        except ReproError as exc:
            finish(error=exc)
            return
        handle.tx_id = envelope.tx_id
        handle.attempt_tx_ids += (envelope.tx_id,)
        if on_attempt is not None:
            on_attempt(handle)
        submit(envelope, payload)

    def submit(envelope, payload) -> None:
        handle.submissions += 1
        try:
            pending = network.submit_envelope_async(envelope, payload)
        except MempoolFullError:
            handle.mempool_drops += 1
            # The refusal happened before the envelope entered the
            # pipeline, so resubmitting the very same envelope cannot
            # duplicate anything.
            if not spend_retry(lambda: submit(envelope, payload)):
                finish(error=RetryExhaustedError(
                    envelope.tx_id, handle.attempts,
                    f"mempool full after {handle.mempool_drops} refusals",
                ))
            return
        pending.add_done_callback(on_done)

    def on_done(pending) -> None:
        if pending.error is not None:
            finish(error=pending.error)
            return
        status = pending.result().status
        if status in RETRIABLE_STATUSES:
            # The attempt committed as invalid; a retry is a *new*
            # transaction re-reading current state.
            if spend_retry(attempt):
                return
            finish(status=status)
            return
        finish(status=status)

    attempt()
    return handle
