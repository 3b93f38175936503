"""The endorsement half of a peer (execution phase, steps 2-4 of Fig. 2).

The endorser simulates the proposed chaincode function against its *local*
ledger, producing a read/write set and a chaincode response, then signs
the proposal-response payload.  Two paper-relevant behaviours live here:

* simulation runs the **peer's own** installed contract for the chaincode
  name — contracts are customizable per peer, which is what lets malicious
  peers collude on forged results;
* under **New Feature 2** the endorser signs the payload-*hashed* variant
  of the proposal response whenever the transaction touches a private
  collection, while still returning the original to the client (Fig. 4).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Optional

from repro.chaincode.api import Chaincode
from repro.chaincode.rwset import PrivateCollectionWrites
from repro.chaincode.stub import ChaincodeStub
from repro.common import crypto
from repro.common.errors import EndorsementError
from repro.common.tracing import PERF
from repro.core.defense.features import FrameworkFeatures
from repro.identity.identity import SigningIdentity
from repro.ledger.ledger import PeerLedger
from repro.protocol.proposal import Proposal
from repro.protocol.response import (
    STATUS_ERROR,
    ChaincodeResponse,
    Endorsement,
    ProposalResponse,
    ProposalResponsePayload,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.network.channel import ChannelConfig

#: Bound on cached endorsements per peer between commits; a commit clears
#: the cache anyway, the cap only guards against unbounded query storms.
_SIM_CACHE_MAX = 512


#: Every live endorser, so ``clear_simulation_caches`` (hooked into
#: ``crypto.clear_caches``) can reach the per-instance simulation caches.
#: Weak references: registration must not keep dead networks alive.
_LIVE_ENDORSERS: "weakref.WeakSet[Endorser]" = weakref.WeakSet()


def clear_simulation_caches() -> None:
    """Drop every live endorser's simulation cache (test/bench isolation)."""
    for endorser in list(_LIVE_ENDORSERS):
        endorser._sim_cache.clear()
        endorser._sim_cache_height = -1


crypto.register_cache_clearer(clear_simulation_caches)


@dataclass(frozen=True)
class EndorsementOutput:
    """What endorsing produces: the response plus the off-chain private writes."""

    response: ProposalResponse
    private_writes: tuple[PrivateCollectionWrites, ...]


class Endorser:
    """Simulates proposals and signs proposal responses for one peer."""

    def __init__(
        self,
        identity: SigningIdentity,
        ledger: PeerLedger,
        channel: "ChannelConfig",
        chaincodes: Mapping[str, Chaincode],
        features: FrameworkFeatures,
    ) -> None:
        self._identity = identity
        self._ledger = ledger
        self._channel = channel
        self._chaincodes = chaincodes
        self._features = features
        self._sim_cache: dict[bytes, EndorsementOutput] = {}
        self._sim_cache_height = -1
        _LIVE_ENDORSERS.add(self)

    def _cache_lookup(self, proposal: Proposal, reusable: bool) -> Optional[EndorsementOutput]:
        """Answer from the simulation cache, invalidating on state change.

        Cached entries are only valid against the exact ledger height they
        were simulated at — any commit may change what the chaincode would
        read — so the whole cache is dropped when the height moves.  Two
        key kinds coexist: the exact proposal hash (idempotent redelivery
        of the *same* proposal, e.g. a plan retry) and the nonce-free
        simulation digest, consulted only for ``reusable`` requests (the
        ``evaluate_transaction`` query path, where the caller discards the
        envelope and only wants the result).  A reusable lookup checks
        *only* the digest key: a fresh-nonce query can never match an
        exact proposal hash, and computing it would serialize the whole
        proposal a second time — on this path the lookup itself is the
        hot loop.
        """
        height = self._ledger.height
        if height != self._sim_cache_height:
            self._sim_cache.clear()
            self._sim_cache_height = height
            return None
        if reusable:
            hit = self._sim_cache.get(proposal.simulation_digest())
        else:
            hit = self._sim_cache.get(proposal.proposal_hash())
        if hit is not None:
            PERF.endorse_cache_hits += 1
        return hit

    def _cache_store(self, proposal: Proposal, output: EndorsementOutput) -> None:
        """Cache read-only results (no public or private writes).

        Write-bearing simulations are never cached: their effects (private
        write staging, version conflicts) must be observed per request.
        """
        if output.private_writes or not output.response.payload.results.is_read_only:
            return
        if len(self._sim_cache) >= _SIM_CACHE_MAX:
            self._sim_cache.clear()
        self._sim_cache[proposal.proposal_hash()] = output
        self._sim_cache[proposal.simulation_digest()] = output

    def process_proposal(
        self, proposal: Proposal, reusable: bool = False
    ) -> EndorsementOutput:
        """Simulate and endorse; raises :class:`EndorsementError` on failure.

        A failed simulation produces a status-500 response and **no
        endorsement** — the error carries the failure response so clients
        can inspect the ``message`` field, mirroring Fabric.

        ``reusable`` marks query-style requests whose result may be served
        from a previous simulation of the same invocation at the same
        state height (see :meth:`_cache_lookup`).
        """
        cached = self._cache_lookup(proposal, reusable)
        if cached is not None:
            return cached
        contract = self._chaincodes.get(proposal.chaincode_id)
        if contract is None:
            raise EndorsementError(
                f"chaincode {proposal.chaincode_id!r} is not installed on "
                f"{self._identity.enrollment_id}"
            )
        stub = ChaincodeStub(
            proposal=proposal,
            ledger=self._ledger,
            channel=self._channel,
            local_msp_id=self._identity.msp_id,
        )
        PERF.endorse_simulations += 1
        try:
            payload_bytes = contract.invoke(stub, proposal.function, list(proposal.args))
        except Exception as exc:  # chaincode failures become 500 responses
            failure = ChaincodeResponse(status=STATUS_ERROR, message=str(exc), payload=b"")
            error = EndorsementError(
                f"chaincode {proposal.chaincode_id!r} failed at "
                f"{self._identity.enrollment_id}: {exc}"
            )
            error.response = failure  # type: ignore[attr-defined]
            raise error from exc

        simulation = stub.build_result()
        response = ChaincodeResponse(status=200, message="", payload=payload_bytes)
        event = None
        if stub.event is not None:
            from repro.protocol.response import ChaincodeEvent

            event = ChaincodeEvent(name=stub.event[0], payload=stub.event[1])
        original_payload = ProposalResponsePayload(
            proposal_hash=proposal.proposal_hash(),
            results=simulation.rwset,
            response=response,
            event=event,
        )

        touches_private = bool(simulation.rwset.collections_touched())
        if self._features.hashed_payload_endorsement and touches_private:
            # New Feature 2: sign (and ship for assembly) the hashed-payload
            # variant; the client still receives the original response.
            signed_payload = original_payload.with_hashed_payload()
        else:
            signed_payload = original_payload

        PERF.endorse_signatures += 1
        endorsement = Endorsement(
            endorser=self._identity.certificate,
            signature=self._identity.private_key.sign(signed_payload.bytes()),
        )
        proposal_response = ProposalResponse(
            payload=signed_payload,
            endorsement=endorsement,
            client_response=response,
        )
        output = EndorsementOutput(
            response=proposal_response, private_writes=simulation.private_writes
        )
        self._cache_store(proposal, output)
        return output
