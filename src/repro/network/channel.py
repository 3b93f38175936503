"""Channel configuration: organizations, policies, deployed chaincodes.

A channel groups organizations with a common business goal; its members
share one ledger.  The channel object here is the *configuration* every
node agrees on (like the channel config blocks in Fabric): MSP trust
roots, per-org "Endorsement" sub-policies, the default (chaincode-level)
endorsement policy inherited from ``configtx.yaml``, and the chaincode
definitions with their collections.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.common.errors import ConfigError
from repro.identity.msp import MSPRegistry
from repro.identity.organization import Organization
from repro.identity.roles import Role
from repro.network.collection import ChaincodeDefinition, CollectionConfig
from repro.policy.ast import PolicyNode, Principal, or_
from repro.policy.evaluator import PolicyEvaluator

DEFAULT_ENDORSEMENT_POLICY = "MAJORITY Endorsement"


@dataclass
class ChannelConfig:
    """The agreed configuration of one channel."""

    channel_id: str
    organizations: list[Organization]
    default_endorsement_policy: str = DEFAULT_ENDORSEMENT_POLICY
    org_sub_policies: dict[str, PolicyNode] = field(default_factory=dict)
    chaincodes: dict[str, ChaincodeDefinition] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.organizations:
            raise ConfigError("a channel needs at least one organization")
        seen = set()
        for org in self.organizations:
            if org.msp_id in seen:
                raise ConfigError(f"duplicate organization {org.msp_id!r}")
            seen.add(org.msp_id)
        # Default per-org "Endorsement" sub-policy: any peer of the org,
        # the same default the Fabric test network configures.
        for org in self.organizations:
            self.org_sub_policies.setdefault(
                org.msp_id, or_(Principal(msp_id=org.msp_id, role=Role.PEER))
            )
        self._msp_registry = MSPRegistry()
        for org in self.organizations:
            self._msp_registry.register(org.ca)

    @property
    def msp_registry(self) -> MSPRegistry:
        return self._msp_registry

    def msp_ids(self) -> list[str]:
        return [org.msp_id for org in self.organizations]

    def organization(self, msp_id: str) -> Organization:
        for org in self.organizations:
            if org.msp_id == msp_id:
                return org
        raise ConfigError(f"no organization {msp_id!r} on channel {self.channel_id!r}")

    def evaluator(self) -> PolicyEvaluator:
        return PolicyEvaluator(self._msp_registry, self.org_sub_policies)

    # -- chaincode lifecycle ---------------------------------------------
    def deploy_chaincode(
        self,
        name: str,
        endorsement_policy: Optional[str] = None,
        collections: Iterable[CollectionConfig] = (),
    ) -> ChaincodeDefinition:
        """Agree on a chaincode definition (the lifecycle 'commit' step)."""
        if name in self.chaincodes:
            raise ConfigError(f"chaincode {name!r} already deployed on {self.channel_id!r}")
        definition = ChaincodeDefinition(
            name=name,
            endorsement_policy=endorsement_policy or self.default_endorsement_policy,
            collections=tuple(collections),
        )
        member_msps = set(self.msp_ids())
        for collection in definition.collections:
            unknown = collection.member_orgs() - member_msps
            if unknown:
                raise ConfigError(
                    f"collection {collection.name!r} names organizations outside the "
                    f"channel: {sorted(unknown)}"
                )
        self.chaincodes[name] = definition
        return definition

    def chaincode(self, name: str) -> ChaincodeDefinition:
        try:
            return self.chaincodes[name]
        except KeyError:
            raise ConfigError(f"chaincode {name!r} not deployed on {self.channel_id!r}") from None

    def collection(self, chaincode_id: str, collection_name: str) -> CollectionConfig:
        return self.chaincode(chaincode_id).collection(collection_name)

    def member_collections(self, msp_id: str) -> set[tuple[str, str]]:
        """``(chaincode, collection)`` pairs whose plaintext ``msp_id`` may hold."""
        return {
            (name, collection.name)
            for name, definition in self.chaincodes.items()
            for collection in definition.collections
            if collection.is_member_org(msp_id)
        }

    def block_to_live_map(self) -> dict[tuple[str, str], int]:
        btl: dict[tuple[str, str], int] = {}
        for definition in self.chaincodes.values():
            btl.update(definition.block_to_live_map())
        return btl
