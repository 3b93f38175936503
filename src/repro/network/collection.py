"""Private data collection configuration.

Mirrors the explicit PDC definition a Fabric project ships as a ``.json``
collection config — the very file the paper's static analyzer fingerprints
("Name", "Policy", "RequiredPeerCount", "MaxPeerCount", "BlockToLive",
"MemberOnlyRead", and the optional "EndorsementPolicy").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

from repro.common.errors import ConfigError
from repro.policy.parser import parse_policy


@lru_cache(maxsize=1024)
def _member_orgs(policy_text: str) -> frozenset:
    return frozenset(parse_policy(policy_text).msp_ids())


@dataclass(frozen=True)
class CollectionConfig:
    """One collection's properties.

    ``policy`` defines *membership*: its organizations hold the original
    private data.  ``endorsement_policy`` is the optional collection-level
    endorsement policy; when absent, write transactions fall back to the
    chaincode-level policy — the default in 86.51% of the GitHub projects
    the paper studied, and the precondition of its injection attacks.
    """

    name: str
    policy: str  # membership policy text, e.g. "OR('Org1MSP.member', 'Org2MSP.member')"
    required_peer_count: int = 1
    max_peer_count: int = 2
    block_to_live: int = 0  # 0 = never purge
    # proto3 defaults: absent in the JSON config means False.  Use Case 1
    # (non-members endorsing PDC transactions) presupposes these are off,
    # which is also what the paper's vulnerable GitHub projects ship.
    member_only_read: bool = False
    member_only_write: bool = False
    endorsement_policy: Optional[str] = None  # collection-level policy text

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("collection name must be non-empty")
        if self.required_peer_count < 0:
            raise ConfigError("RequiredPeerCount must be >= 0")
        if self.max_peer_count < self.required_peer_count:
            raise ConfigError("MaxPeerCount must be >= RequiredPeerCount")
        if self.block_to_live < 0:
            raise ConfigError("BlockToLive must be >= 0")
        parse_policy(self.policy)  # fail fast on malformed membership policy
        if self.endorsement_policy is not None:
            parse_policy(self.endorsement_policy)

    def member_orgs(self) -> frozenset[str]:
        """MSP ids of the organizations that hold the original data."""
        return _member_orgs(self.policy)

    def is_member_org(self, msp_id: str) -> bool:
        return msp_id in self.member_orgs()

    def to_json_dict(self) -> dict:
        """Render as the on-disk collection-config JSON format."""
        doc = {
            "name": self.name,
            "policy": self.policy,
            "requiredPeerCount": self.required_peer_count,
            "maxPeerCount": self.max_peer_count,
            "blockToLive": self.block_to_live,
            "memberOnlyRead": self.member_only_read,
            "memberOnlyWrite": self.member_only_write,
        }
        if self.endorsement_policy is not None:
            doc["endorsementPolicy"] = {"signaturePolicy": self.endorsement_policy}
        return doc


@dataclass(frozen=True)
class ChaincodeDefinition:
    """A deployed chaincode's agreed configuration on a channel."""

    name: str
    endorsement_policy: str  # implicitMeta ("MAJORITY Endorsement") or signature policy text
    collections: tuple[CollectionConfig, ...] = field(default=())

    def collection(self, name: str) -> CollectionConfig:
        for collection in self.collections:
            if collection.name == name:
                return collection
        raise ConfigError(f"chaincode {self.name!r} has no collection {name!r}")

    def block_to_live_map(self) -> dict[tuple[str, str], int]:
        return {(self.name, c.name): c.block_to_live for c in self.collections}
