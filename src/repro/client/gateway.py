"""The client SDK / gateway: evaluate and submit transactions.

Implements the client half of the three-phase workflow (Fig. 2):

* :meth:`Gateway.evaluate_transaction` — query-style: endorse at one peer
  and return the payload; nothing is ordered or committed.
* :meth:`Gateway.submit_transaction` — the full pipeline: collect
  endorsements from the requested peers, check that all proposal
  responses agree, assemble and sign the envelope, submit for ordering,
  and report the validation outcome.

The PDC-read leakage of §IV-B1 arises precisely when an application uses
``submit_transaction`` for reads (e.g. to audit who read what): the
response payload rides into the block.  Under New Feature 2 the assembled
payload is the hashed variant while :class:`SubmitResult.payload` still
hands the client the original plaintext (Fig. 4, steps 6-7).

Endorsement collection is **plan-based** by default (the Fabric Gateway
model): when the caller does not pin ``endorsing_peers``, the gateway
computes a minimal endorser set from the chaincode's endorsement policy,
sends the proposals as parallel ``endorse-proposal`` messages on the
network's event runtime, completes as soon as the collected responses
satisfy every policy validation will apply, and escalates to backup
endorsers on failure or timeout (:mod:`repro.runtime.endorse`).  A pinned
endorser set, or ``endorsement_plan=False`` on a call, endorses at every
listed peer instead — one direct request/response call per peer, as in
Fabric's SDK, which does not ride the bus (attack code and the retry
path use it).  Either way the envelope is ordered and validated on the
runtime:
:meth:`Gateway.submit_transaction` is :meth:`Gateway.submit_async` plus
``run_until_committed``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Optional, Sequence

from repro.common import crypto
from repro.common.errors import (
    EndorsementError,
    ProposalResponseMismatchError,
    TransactionInvalidError,
)
from repro.common.hashing import sha256
from repro.common.tracing import PERF
from repro.identity.identity import SigningIdentity
from repro.policy.planner import (
    EndorsementPlan,
    applied_policies_satisfied,
    plan_endorsement,
)
from repro.protocol.proposal import Proposal, new_proposal
from repro.protocol.response import ProposalResponse
from repro.protocol.transaction import TransactionEnvelope, ValidationCode

if TYPE_CHECKING:  # pragma: no cover
    from repro.network.network import FabricNetwork
    from repro.peer.node import PeerNode
    from repro.runtime.runtime import PendingTransaction


#: Sim-time wait per endorsement wave.  A plan with no timer could wait
#: forever on a dropped message, and liveness accounting expects every
#: endorsement to resolve one way or the other.
ENDORSEMENT_TIMEOUT = 5.0


@dataclass(frozen=True)
class SubmitResult:
    """Outcome of a submitted transaction."""

    tx_id: str
    status: ValidationCode
    payload: bytes  # the chaincode response payload as seen by the client
    envelope: TransactionEnvelope

    @property
    def committed(self) -> bool:
        return self.status is ValidationCode.VALID

    def raise_for_status(self) -> "SubmitResult":
        if not self.committed:
            raise TransactionInvalidError(self.tx_id, self.status.value)
        return self


class Gateway:
    """A client application's connection to the network."""

    def __init__(self, identity: SigningIdentity, network: "FabricNetwork") -> None:
        self.identity = identity
        self._network = network

    @property
    def msp_id(self) -> str:
        return self.identity.msp_id

    # -- query path --------------------------------------------------------
    def evaluate_transaction(
        self,
        chaincode_id: str,
        function: str,
        args: Sequence[str] = (),
        transient: Optional[Mapping[str, bytes]] = None,
        peer: Optional["PeerNode"] = None,
    ) -> bytes:
        """Endorse at a single peer and return the payload (no commit).

        This is the leak-free way to read private data: the response never
        leaves the client/peer pair.
        """
        target = peer or self._network.default_peer_for(self.msp_id)
        proposal = self._proposal(chaincode_id, function, args, transient)
        # Queries are marked reusable: the peer may answer an identical
        # read-only invocation at the same state height from its
        # simulation cache instead of re-executing the chaincode.
        output = self._network.request_endorsement(target, proposal, reusable=True)
        return output.response.client_response.payload

    # -- submit path -----------------------------------------------------------
    def submit_transaction(
        self,
        chaincode_id: str,
        function: str,
        args: Sequence[str] = (),
        transient: Optional[Mapping[str, bytes]] = None,
        endorsing_peers: Optional[Sequence["PeerNode"]] = None,
        endorsement_plan: Optional[bool] = None,
    ) -> SubmitResult:
        """Run the full execute-order-validate pipeline.

        ``endorsing_peers`` is the client's choice — and choosing
        *favourable* endorsers is exactly the degree of freedom the
        paper's malicious clients exploit.  ``endorsement_plan`` controls
        plan-based collection explicitly; by default a plan is used only
        when no explicit endorser set is pinned (an explicit set keeps
        the exact endorse-everyone semantics attack code depends on).
        The event loop runs until this transaction resolves; a plan that
        cannot complete raises its typed
        :class:`~repro.common.errors.EndorsementError` here.
        """
        pending = self.submit_async(
            chaincode_id, function, args, transient=transient,
            endorsing_peers=endorsing_peers, endorsement_plan=endorsement_plan,
        )
        return self._network.runtime.run_until_committed(pending)

    def submit_async(
        self,
        chaincode_id: str,
        function: str,
        args: Sequence[str] = (),
        transient: Optional[Mapping[str, bytes]] = None,
        endorsing_peers: Optional[Sequence["PeerNode"]] = None,
        endorsement_plan: Optional[bool] = None,
    ) -> "PendingTransaction":
        """Pipelined submit: endorse + assemble now, order + commit later.

        With planning active (see :meth:`submit_transaction`) endorsement
        itself rides the event bus: proposals for the plan's opening wave
        are dispatched in parallel sim-time, the collector completes on a
        satisfying quorum, and the future fails with a typed
        :class:`~repro.common.errors.EndorsementError` if the plan cannot
        complete.  Otherwise endorsement stays a synchronous
        request/response round (as in Fabric's gateway) and the assembled
        envelope is enqueued on the runtime.
        """
        if self._use_plan(endorsing_peers, endorsement_plan):
            peers = self._plan_candidates(endorsing_peers)
            if not peers:
                raise EndorsementError("no endorsing peers supplied")
            proposal = self._proposal(chaincode_id, function, args, transient)
            plan = self._build_plan(chaincode_id, peers)
            return self._network.runtime.endorse_async(
                self, proposal, plan, timeout=ENDORSEMENT_TIMEOUT
            )
        envelope, payload = self._endorse_and_assemble(
            chaincode_id, function, args, transient, endorsing_peers
        )
        return self._network.submit_envelope_async(envelope, client_payload=payload)

    def _endorse_and_assemble(
        self,
        chaincode_id: str,
        function: str,
        args: Sequence[str],
        transient: Optional[Mapping[str, bytes]],
        endorsing_peers: Optional[Sequence["PeerNode"]],
    ) -> tuple[TransactionEnvelope, bytes]:
        """Steps 1-7 of Fig. 2 without a plan: endorse, check, assemble, sign.

        Every listed endorser (default: one peer per organization) is
        asked in turn.
        """
        peers = list(endorsing_peers or self._network.default_endorsers())
        if not peers:
            raise EndorsementError("no endorsing peers supplied")
        proposal = self._proposal(chaincode_id, function, args, transient)
        responses: list[ProposalResponse] = []
        for peer in peers:
            PERF.proposals_sent += 1
            output = self._network.request_endorsement(peer, proposal)
            responses.append(output.response)
        return self._finalize_endorsement(proposal, responses)

    # -- plan-based collection ----------------------------------------------------
    def _use_plan(
        self,
        endorsing_peers: Optional[Sequence["PeerNode"]],
        endorsement_plan: Optional[bool],
    ) -> bool:
        if endorsement_plan is not None:
            return endorsement_plan
        return endorsing_peers is None

    def _plan_candidates(
        self, endorsing_peers: Optional[Sequence["PeerNode"]]
    ) -> list["PeerNode"]:
        """The ordered candidate pool a plan is computed over.

        An explicit endorser set is used as given (the caller's preference
        order).  Otherwise the pool is the default one-peer-per-org set
        followed by every remaining peer as escalation backups.
        """
        if endorsing_peers is not None:
            return list(endorsing_peers)
        defaults = self._network.default_endorsers()
        chosen = set(id(p) for p in defaults)
        extras = [p for p in self._network.peers() if id(p) not in chosen]
        return defaults + extras

    def _build_plan(
        self, chaincode_id: str, candidates: Sequence["PeerNode"]
    ) -> EndorsementPlan:
        evaluator = self._network.channel.evaluator()
        policy = self._network.channel.chaincode(chaincode_id).endorsement_policy
        return plan_endorsement(evaluator, policy, candidates)

    def _quorum_satisfied(
        self,
        proposal: Proposal,
        responses: Sequence[ProposalResponse],
        source: "PeerNode",
    ) -> bool:
        """Do the collected responses satisfy every applicable policy?

        Checked against the policies validation will actually apply —
        derived from the first response's read/write set, with key-level
        policies read from the committed state of ``source``, the peer
        that produced it — so an early quorum can never commit a
        transaction the full endorser set could not (policy evaluation is
        monotone in the signer set).
        """
        certs = [r.endorsement.endorser for r in responses]
        return applied_policies_satisfied(
            self._network.channel,
            self._network.features,
            proposal.chaincode_id,
            certs,
            responses[0].payload,
            source.ledger.world_state.get_validation_parameter,
        )

    def _finalize_endorsement(
        self, proposal: Proposal, responses: list[ProposalResponse]
    ) -> tuple[TransactionEnvelope, bytes]:
        """The client-side tail: consistency checks, assembly, signing."""
        started = time.perf_counter()
        try:
            self._check_consistency(proposal, responses)
            envelope = self.assemble(proposal, responses)
        finally:
            PERF.add_phase_time("endorse", time.perf_counter() - started)
        return envelope, responses[0].client_response.payload

    # -- the execution-phase client checks ----------------------------------------
    def _check_consistency(self, proposal: Proposal, responses: list[ProposalResponse]) -> None:
        """The client-side agreement + signature checks.

        All returned proposal-response payloads must be byte-identical and
        every endorsement signature must verify.  Under New Feature 2 the
        client additionally recomputes ``hash(payload)`` and checks it is
        what the endorser actually signed (Fig. 4, step 6).

        Signatures are checked through :func:`crypto.verify_batch`, one
        ``verify`` per endorsement, which leaves every verdict in the
        shared memo for the validators; the first bad endorsement (in
        response order) is reported.
        """
        reference = responses[0].payload.bytes()
        for response in responses:
            if response.payload.bytes() != reference:
                raise ProposalResponseMismatchError(
                    f"endorsers returned divergent results for tx {proposal.tx_id}"
                )
            signed = response.payload.response.payload
            original = response.client_response.payload
            if signed != original and signed != sha256(original):
                raise EndorsementError(
                    "signed payload is neither the original nor its hash"
                )
        verdicts = crypto.verify_batch(
            [
                (
                    r.endorsement.endorser.public_key,
                    r.payload.bytes(),
                    r.endorsement.signature,
                )
                for r in responses
            ]
        )
        for response, ok in zip(responses, verdicts):
            if not ok:
                raise EndorsementError(
                    f"invalid endorsement signature from "
                    f"{response.endorsement.endorser.enrollment_id}"
                )

    def assemble(
        self, proposal: Proposal, responses: list[ProposalResponse]
    ) -> TransactionEnvelope:
        """Assemble and sign the transaction envelope."""
        unsigned = TransactionEnvelope(
            tx_id=proposal.tx_id,
            channel_id=proposal.channel_id,
            chaincode_id=proposal.chaincode_id,
            creator=self.identity.certificate,
            payload=responses[0].payload,
            endorsements=tuple(r.endorsement for r in responses),
            signature=b"",
            function=proposal.function,
            args=proposal.args,
        )
        return unsigned.with_signature(self.identity.sign(unsigned.signed_bytes()))

    def _proposal(
        self,
        chaincode_id: str,
        function: str,
        args: Sequence[str],
        transient: Optional[Mapping[str, bytes]] = None,
    ) -> Proposal:
        return new_proposal(
            channel_id=self._network.channel.channel_id,
            chaincode_id=chaincode_id,
            function=function,
            args=tuple(args),
            creator=self.identity.certificate,
            transient=transient,
        )
