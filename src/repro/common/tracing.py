"""Pipeline tracing: observe the Fig. 2 sequence as it happens.

Attach a :class:`Tracer` to a :class:`~repro.network.network.FabricNetwork`
and every transaction's journey is recorded step by step — proposal,
simulation, endorsement, gossip dissemination, ordering, delivery,
validation, commit — in the same order as the paper's sequence diagram.
Useful for debugging, teaching, and asserting pipeline behaviour in tests.

The module also hosts the process-wide :data:`PERF` counters fed by the
validation fast path (crypto kernel, verdict memo, shared VSCC memo,
per-phase wall clocks).  They are plain counters — reading or resetting
them never influences simulation behaviour, so determinism is preserved.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Optional

#: Every integer counter on :class:`PerfCounters`, in declaration order.
#: ``reset``/``snapshot``/``delta_since``/``as_dict`` all iterate this one
#: tuple so adding a counter cannot silently miss a bookkeeping path.
_COUNTER_FIELDS = (
    "verify_individual", "verify_cache_hits",
    "vscc_memo_hits", "vscc_memo_misses",
    "endorse_simulations", "endorse_signatures", "endorse_cache_hits",
    "proposals_sent", "plan_escalations", "plan_timeouts", "plan_failures",
)


@dataclass
class PerfCounters:
    """Crypto / validation perf counters (process-wide, see :data:`PERF`).

    ``verify_*`` splits signature checks by how they were satisfied, and
    ``vscc_memo_*`` tracks the shared block-validation memo.  The
    ``endorse_*``/``proposals_sent``/``plan_*`` counters instrument the
    execution phase: chaincode simulations run vs answered from the
    peer-side simulation cache, payloads signed, proposals dispatched,
    and endorsement-plan escalations/timeouts/exhaustions.  Wall time
    spent inside each peer phase accumulates in ``phase_seconds``.
    """

    verify_individual: int = 0   # signatures decided by the verification equation
    verify_cache_hits: int = 0   # signatures answered from the LRU cache
    vscc_memo_hits: int = 0
    vscc_memo_misses: int = 0
    endorse_simulations: int = 0   # chaincode simulations actually executed
    endorse_signatures: int = 0    # proposal-response payloads signed
    endorse_cache_hits: int = 0    # endorsements answered from the sim cache
    proposals_sent: int = 0        # proposals dispatched to endorsers
    plan_escalations: int = 0      # backup endorsers drafted into a plan
    plan_timeouts: int = 0         # endorsement waves that hit the timeout
    plan_failures: int = 0         # plans that exhausted every endorser
    phase_seconds: dict = field(default_factory=dict)  # phase -> seconds

    def add_phase_time(self, phase: str, seconds: float) -> None:
        self.phase_seconds[phase] = self.phase_seconds.get(phase, 0.0) + seconds

    @property
    def verifications(self) -> int:
        """Total signature checks answered, however they were satisfied."""
        return self.verify_individual + self.verify_cache_hits

    def reset(self) -> None:
        for name in _COUNTER_FIELDS:
            setattr(self, name, 0)
        self.phase_seconds = {}

    def snapshot(self) -> dict:
        """Copy of the integer counters (``phase_seconds`` excluded)."""
        return {name: getattr(self, name) for name in _COUNTER_FIELDS}

    def delta_since(self, snapshot: dict) -> dict:
        """Non-zero counter increments since ``snapshot``."""
        delta = {}
        for name in _COUNTER_FIELDS:
            diff = getattr(self, name) - snapshot.get(name, 0)
            if diff:
                delta[name] = diff
        return delta

    def as_dict(self, prefix: str = "perf:") -> dict:
        """Flat snapshot, e.g. ``{"perf:verify_individual": 12, ...}``."""
        snapshot: dict = {f"{prefix}verifications": self.verifications}
        for name in _COUNTER_FIELDS:
            snapshot[f"{prefix}{name}"] = getattr(self, name)
        for phase, seconds in sorted(self.phase_seconds.items()):
            snapshot[f"{prefix}{phase}_ms"] = round(seconds * 1000, 3)
        return snapshot


#: The process-wide counter instance every fast-path layer feeds.
PERF = PerfCounters()


@dataclass(frozen=True)
class TraceEvent:
    """One pipeline step."""

    seq: int
    actor: str  # "client", "peer0.Org1MSP", "orderer", ...
    action: str  # "send-proposal", "simulate", "endorse", ...
    tx_id: str
    detail: dict

    def __str__(self) -> str:
        extras = ", ".join(f"{k}={v}" for k, v in self.detail.items())
        tx = f" tx={self.tx_id[:8]}" if self.tx_id else ""
        return f"[{self.seq:>3}] {self.actor:<18} {self.action:<22}{tx}  {extras}"


@dataclass
class Tracer:
    """An append-only event log."""

    events: list[TraceEvent] = field(default_factory=list)
    _counter: int = 0

    def record(self, actor: str, action: str, tx_id: str = "", **detail: Any) -> None:
        self._counter += 1
        self.events.append(
            TraceEvent(
                seq=self._counter, actor=actor, action=action, tx_id=tx_id, detail=detail
            )
        )

    def actions(self, tx_id: Optional[str] = None) -> list[str]:
        """The action names, optionally filtered to one transaction."""
        return [
            event.action
            for event in self.events
            if tx_id is None or event.tx_id == tx_id or not event.tx_id
        ]

    def for_tx(self, tx_id: str) -> list[TraceEvent]:
        return [e for e in self.events if e.tx_id == tx_id]

    def summary(self, perf: bool = False) -> dict[str, int]:
        """Per-action event counts, e.g. ``{"validate+commit": 300, ...}``.

        With the event runtime interleaving hundreds of transactions, the
        raw log is too long to eyeball; the summary aggregates it into a
        quick pipeline-shape check (every tx endorsed twice, one
        ``enqueue-envelope`` each, blocks ≪ transactions, ...).

        With ``perf=True`` the snapshot additionally surfaces the
        process-wide :data:`PERF` counters as ``perf:*`` entries
        (verifications performed / memo-hit, per-phase wall time) so
        one call shows both the pipeline shape and what the validation
        fast path did for it.
        """
        counts: dict = dict(Counter(event.action for event in self.events))
        if perf:
            counts.update(PERF.as_dict())
        return counts

    def render(self) -> str:
        return "\n".join(str(event) for event in self.events)

    def clear(self) -> None:
        self.events = []
        self._counter = 0
