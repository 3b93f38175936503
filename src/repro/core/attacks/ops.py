"""Reusable attack-operation building blocks for adversarial workloads.

The scripted drivers (``fake_read``/``fake_write``/``scenarios``) replay
the paper's §V experiments one at a time on a fixed preset.  The
deterministic simulation subsystem (:mod:`repro.simulation`) instead
interleaves *attack operations* with honest traffic on arbitrarily shaped
networks.  On top of the spec-level policy oracle
(:func:`repro.policy.planner.expected_policy_ok`) that needs two reusable
pieces:

* :func:`favourable_endorsers` — the §IV-A degree of freedom: a client
  picks an endorser set that satisfies the *chaincode-level* policy while
  excluding a victim organization (possibly using PDC non-members, who
  happily endorse write-only PDC transactions — Use Case 1).
* :func:`nonsatisfying_endorsers` — an endorser set that fails the
  applicable policy, for probing that validation actually rejects it.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Optional, Sequence

from repro.chaincode.api import require_args
from repro.chaincode.contracts.pdc_contract import PrivateAssetContract
from repro.chaincode.stub import ChaincodeStub
from repro.common.errors import ChaincodeError
from repro.core.defense.features import FrameworkFeatures
from repro.identity.identity import Certificate
from repro.policy.planner import expected_policy_ok, satisfying_prefix

if TYPE_CHECKING:  # pragma: no cover
    from repro.network.channel import ChannelConfig
    from repro.peer.node import PeerNode


class ColludingPrivateAssetContract(PrivateAssetContract):
    """The honest PDC contract with the §IV-A1 forged read grafted in.

    Unlike :class:`~repro.chaincode.contracts.malicious.ForgedReadContract`
    (which *only* forges reads), this keeps every honest function intact —
    the realistic colluder: it behaves correctly for all traffic except
    ``get_private``, where it fetches the genuine ``(hash, version)`` via
    ``get_private_data_hash`` (works at non-members too) and returns the
    colluders' agreed fake value.
    """

    def __init__(self, fake_value: bytes) -> None:
        self._fake_value = fake_value

    def get_private(self, stub: ChaincodeStub, args: list) -> bytes:
        require_args(args, 2, "a collection and a key")
        collection, key = args
        digest = stub.get_private_data_hash(collection, key)
        if digest is None:
            raise ChaincodeError(f"no private data hash for key {key!r}")
        return self._fake_value


def _policy_ok_for(
    channel: "ChannelConfig",
    features: FrameworkFeatures,
    chaincode_id: str,
    certs: Sequence[Certificate],
    collection: str,
) -> bool:
    """The oracle's verdict on a write-only PDC transaction to ``collection``."""
    written = ((chaincode_id, collection),)
    return expected_policy_ok(
        channel,
        features,
        chaincode_id,
        certs,
        read_only=False,
        has_public_writes=False,
        collections_written=written,
        collections_touched=written,
    )


def favourable_endorsers(
    channel: "ChannelConfig",
    features: FrameworkFeatures,
    chaincode_id: str,
    collection: str,
    peers: Sequence["PeerNode"],
    rng: random.Random,
    avoid_org: str,
) -> Optional[list["PeerNode"]]:
    """A minimal-ish endorser set for a PDC write that excludes the victim.

    Grows a randomly ordered set of peers — one per organization, never
    from ``avoid_org`` — until the applicable write policy is satisfied.
    Returns ``None`` when no subset excluding the victim can satisfy it
    (e.g. a collection-level ``AND`` naming the victim), which is exactly
    when the §IV-A attack is *not* available to the adversary.
    """
    by_org: dict[str, "PeerNode"] = {}
    for peer in peers:
        if peer.msp_id != avoid_org:
            by_org.setdefault(peer.msp_id, peer)
    candidates = [by_org[msp] for msp in sorted(by_org)]
    rng.shuffle(candidates)
    chosen, ok = satisfying_prefix(
        candidates,
        lambda certs: _policy_ok_for(channel, features, chaincode_id, certs, collection),
    )
    return chosen if ok else None


def nonsatisfying_endorsers(
    channel: "ChannelConfig",
    features: FrameworkFeatures,
    chaincode_id: str,
    collection: str,
    peers: Sequence["PeerNode"],
    rng: random.Random,
    attempts: int = 8,
) -> Optional[list["PeerNode"]]:
    """A non-empty endorser set that *fails* the applicable write policy.

    Tries random single peers, then random pairs.  Returns ``None`` when
    every probed subset satisfies the policy (e.g. a permissive ``OR``),
    in which case the caller should skip the probe operation.
    """
    pool = list(peers)
    for size in (1, 2):
        if len(pool) < size:
            continue
        for _ in range(attempts):
            chosen = rng.sample(pool, size)
            certs = [p.certificate for p in chosen]
            if not _policy_ok_for(channel, features, chaincode_id, certs, collection):
                return chosen
    return None
