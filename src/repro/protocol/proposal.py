"""Transaction proposals: what a client sends to endorsers.

A proposal names the channel, chaincode, function and arguments, and
carries the client's identity (Fig. 3, "transaction proposal").  Private
input intended for the chaincode travels in the ``transient`` map, which
is *never* included in the signed/hashed proposal bytes — exactly why
Fabric applications pass private values through it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Mapping

from repro.common.hashing import sha256, sha256_hex
from repro.common.serialization import Memoized, canonical_bytes
from repro.identity.identity import Certificate

_NONCE_COUNTER = itertools.count(1)


def next_nonce() -> bytes:
    """A process-unique nonce; deterministic so runs are reproducible."""
    return f"nonce-{next(_NONCE_COUNTER)}".encode("ascii")


def reset_nonce_counter() -> None:
    """Restart nonce issuance from 1, as if in a fresh process.

    Reproducibility tests replay a whole scenario twice in one process
    and compare transaction ids; ids embed the nonce, so the counter must
    restart for the replays to be bit-identical.
    """
    global _NONCE_COUNTER
    _NONCE_COUNTER = itertools.count(1)


@dataclass(frozen=True)
class Proposal(Memoized):
    """A transaction proposal (execution-phase request)."""

    channel_id: str
    chaincode_id: str
    function: str
    args: tuple[str, ...]
    creator: Certificate
    nonce: bytes
    transient: Mapping[str, bytes] = field(default_factory=dict)

    @property
    def tx_id(self) -> str:
        """Fabric derives the tx id as ``hash(nonce || creator)``."""
        return self._memo(
            "_tx_id", lambda: sha256_hex(self.nonce + self.creator.body_bytes())
        )

    def header_bytes(self) -> bytes:
        """The proposal content covered by hashes and signatures.

        The transient map is deliberately excluded: it must never leak
        into anything that reaches the ordering service.
        """
        # An N-endorser fan-out serializes the same frozen proposal once
        # per endorser; the canonical form is memoized on the instance so
        # the 2nd..Nth dispatch reuses it, stamped with the serialization
        # epoch so ``crypto.clear_caches`` invalidates it.
        return self._memo("_header_bytes", lambda: canonical_bytes(
            {
                "channel_id": self.channel_id,
                "chaincode_id": self.chaincode_id,
                "function": self.function,
                "args": self.args,
                "creator": self.creator,
                "nonce": self.nonce,
            }
        ))

    def proposal_hash(self) -> bytes:
        return self._memo("_proposal_hash", lambda: sha256(self.header_bytes()))

    def simulation_digest(self) -> bytes:
        """Digest of everything that determines the simulation *result*.

        Unlike :meth:`proposal_hash` this excludes the nonce (two proposals
        for the same invocation simulate identically) but includes the
        transient map (private chaincode input changes the outcome).  The
        peer-side endorsement cache keys read-only evaluates by
        ``(simulation digest, state height)``.
        """
        return self._memo("_sim_digest", lambda: sha256(canonical_bytes(
            {
                "channel_id": self.channel_id,
                "chaincode_id": self.chaincode_id,
                "function": self.function,
                "args": self.args,
                "creator": self.creator,
                "transient": {k: self.transient[k] for k in sorted(self.transient)},
            }
        )))


def new_proposal(
    channel_id: str,
    chaincode_id: str,
    function: str,
    args: tuple[str, ...] | list[str],
    creator: Certificate,
    transient: Mapping[str, bytes] | None = None,
) -> Proposal:
    """Build a proposal with a fresh nonce."""
    return Proposal(
        channel_id=channel_id,
        chaincode_id=chaincode_id,
        function=function,
        args=tuple(args),
        creator=creator,
        nonce=next_nonce(),
        transient=dict(transient or {}),
    )
