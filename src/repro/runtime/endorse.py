"""Parallel endorsement collection over the message bus (Fabric Gateway).

Without a plan the gateway contacts endorsers one blocking call at a
time.  With one, :meth:`TransactionRuntime.endorse_async` instead
dispatches the plan's opening wave as ``endorse-proposal`` messages — so
the endorsers simulate in parallel simulated time — and an
:class:`EndorsementCollector` gathers the ``endorse-result`` replies:

* as soon as the collected responses satisfy every policy validation will
  apply, the quorum is complete: the envelope is assembled, signed and
  submitted through the normal ordering path (late replies are discarded);
* an endorser that fails, crashes, or exceeds the wave timeout triggers
  *escalation* — the next backup from the plan is drafted in, exactly like
  the Fabric Gateway's retry logic;
* when the plan is exhausted without a satisfying quorum the transaction
  future fails with a typed :class:`~repro.common.errors.EndorsementError`
  (:class:`~repro.common.errors.EndorsementTimeoutError` when only
  timeouts were observed, otherwise
  :class:`~repro.common.errors.EndorsementPlanExhaustedError`) — with one
  legacy exception: if *every* candidate endorsed successfully and the
  pool still cannot satisfy the policy, the transaction is submitted
  anyway so validation can reject it, preserving the endorse-everywhere
  semantics the paper's §IV-A attack probes rely on.

Everything runs inside scheduler callbacks — no nested event-loop runs —
so plans interleave freely with ordering, delivery, and gossip traffic.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.common.errors import (
    EndorsementError,
    EndorsementPlanExhaustedError,
    EndorsementTimeoutError,
    ReproError,
)
from repro.common.tracing import PERF
from repro.runtime.runtime import (
    CLIENT_SOURCE,
    TOPIC_ENDORSE,
    PendingTransaction,
    TransactionRuntime,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.client.gateway import Gateway
    from repro.peer.node import PeerNode
    from repro.policy.planner import EndorsementPlan
    from repro.protocol.proposal import Proposal
    from repro.protocol.response import ProposalResponse


class EndorsementCollector:
    """Collects one plan's proposal responses and drives escalation."""

    def __init__(
        self,
        runtime: TransactionRuntime,
        gateway: "Gateway",
        proposal: "Proposal",
        plan: "EndorsementPlan",
        pending: PendingTransaction,
        timeout: float,
    ) -> None:
        self._runtime = runtime
        self._gateway = gateway
        self._proposal = proposal
        self._plan = plan
        self._pending = pending
        self._timeout = timeout
        # Response ordering must not depend on reply arrival order (the
        # envelope's endorsement tuple feeds signed bytes), so responses
        # are always re-sorted into plan-candidate order.
        self._order = {peer.name: i for i, peer in enumerate(plan.candidates)}
        self._peers = {peer.name: peer for peer in plan.candidates}
        self._backups: list["PeerNode"] = list(plan.backups)
        self._responses: dict[str, "ProposalResponse"] = {}
        self._failures: dict[str, EndorsementError] = {}
        self._outstanding: set[str] = set()
        self._timer = None
        self._done = False

    # -- dispatch -------------------------------------------------------------
    def start(self) -> None:
        for peer in self._plan.primary:
            self._dispatch(peer, escalation=False)
        self._arm_timer()

    def _dispatch(self, peer: "PeerNode", escalation: bool) -> None:
        PERF.proposals_sent += 1
        if escalation:
            PERF.plan_escalations += 1
        tracer = self._runtime.network.tracer
        if tracer:
            tracer.record(
                "client", "send-proposal", self._proposal.tx_id,
                to=peer.name, function=self._proposal.function,
                plan="escalation" if escalation else "primary",
            )
        self._outstanding.add(peer.name)
        self._runtime.bus.send(CLIENT_SOURCE, peer.name, TOPIC_ENDORSE, self._proposal)

    # -- progress -------------------------------------------------------------
    def on_result(self, peer_name: str, outcome) -> None:
        """Handle one ``endorse-result`` reply (response or error)."""
        if self._done:
            return
        self._outstanding.discard(peer_name)
        if isinstance(outcome, EndorsementError):
            self._failures[peer_name] = outcome
        else:
            # A straggler that beat its timeout verdict to the wire still
            # counts — drop the provisional timeout failure.
            self._failures.pop(peer_name, None)
            self._responses[peer_name] = outcome.response
        self._check_progress()

    def _check_progress(self) -> None:
        names = sorted(self._responses, key=self._order.__getitem__)
        responses = [self._responses[name] for name in names]
        # The first response supplies the read/write set, so its peer's
        # committed state supplies the key-level policies.
        if responses and self._gateway._quorum_satisfied(
            self._proposal, responses, self._peers[names[0]]
        ):
            self._finish(responses)
            return
        if self._outstanding:
            return  # wait for more replies (or the timeout)
        if self._backups:
            self._dispatch(self._backups.pop(0), escalation=True)
            self._arm_timer()
            return
        if not self._failures and responses:
            # Every candidate endorsed OK and the pool still cannot satisfy
            # the policy: submit anyway and let validation reject (legacy
            # endorse-everywhere semantics; see module docstring).
            self._finish(responses)
            return
        self._terminate()

    # -- timeout --------------------------------------------------------------
    def _arm_timer(self) -> None:
        self._cancel_timer()
        if self._timeout > 0:
            self._timer = self._runtime.scheduler.call_later(
                self._timeout, self._on_timeout
            )

    def _cancel_timer(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _on_timeout(self) -> None:
        self._timer = None
        if self._done:
            return
        PERF.plan_timeouts += 1
        stragglers = sorted(self._outstanding)
        self._outstanding.clear()
        for name in stragglers:
            self._failures.setdefault(
                name,
                EndorsementTimeoutError(
                    f"peer {name} did not respond to proposal "
                    f"{self._proposal.tx_id} within {self._timeout:g}s"
                ),
            )
        tracer = self._runtime.network.tracer
        if tracer:
            tracer.record(
                "client", "endorse-timeout", self._proposal.tx_id,
                waiting_on=stragglers,
            )
        self._check_progress()

    # -- completion -----------------------------------------------------------
    def _retire(self) -> None:
        self._done = True
        self._cancel_timer()
        self._runtime._collectors.pop(self._proposal.tx_id, None)

    def _finish(self, responses: list["ProposalResponse"]) -> None:
        self._retire()
        try:
            envelope, payload = self._gateway._finalize_endorsement(
                self._proposal, responses
            )
        except ReproError as exc:
            self._pending._fail(exc)
            return
        self._pending.envelope = envelope
        self._pending.client_payload = payload
        tracer = self._runtime.network.tracer
        if tracer:
            tracer.record(
                "client", "assemble+submit", envelope.tx_id,
                endorsements=len(envelope.endorsements),
            )
        try:
            self._runtime.submit_pending(self._pending)
        except ReproError as exc:
            # Backpressure on the fan-out path: the collector finishes
            # inside a scheduler event, so a refused submission (e.g. the
            # mempool bound) must fail the future, not unwind the loop.
            self._pending._fail(exc)

    def _terminate(self) -> None:
        self._retire()
        PERF.plan_failures += 1
        tx_id = self._proposal.tx_id
        names = ", ".join(sorted(self._failures)) or "none"
        timeouts_only = bool(self._failures) and all(
            isinstance(exc, EndorsementTimeoutError)
            for exc in self._failures.values()
        )
        error: EndorsementError
        if timeouts_only:
            error = EndorsementTimeoutError(
                f"endorsement plan for transaction {tx_id} timed out: "
                f"no response from {names} and no backups remain"
            )
        else:
            error = EndorsementPlanExhaustedError(
                f"endorsement plan for transaction {tx_id} exhausted all "
                f"{self._plan.size} candidate endorsers without a satisfying "
                f"quorum; failed: {names}"
            )
            for exc in self._failures.values():
                response = getattr(exc, "response", None)
                if response is not None:
                    error.response = response  # type: ignore[attr-defined]
        error.failures = dict(self._failures)  # type: ignore[attr-defined]
        tracer = self._runtime.network.tracer
        if tracer:
            tracer.record(
                "client", "endorse-failed", tx_id,
                reason=type(error).__name__, failed=sorted(self._failures),
            )
        self._pending._fail(error)
