"""Organizations: a CA plus the identities it has enrolled.

An :class:`Organization` is the unit of membership in Fabric — channels,
endorsement policies and private data collections are all expressed in
terms of organizations.
"""

from __future__ import annotations

from repro.identity.ca import CertificateAuthority
from repro.identity.identity import SigningIdentity
from repro.identity.roles import Role


class Organization:
    """One consortium member: its MSP id, CA, and enrolled node identities."""

    def __init__(self, msp_id: str, name: str = "") -> None:
        self.msp_id = msp_id
        self.name = name or msp_id
        self.ca = CertificateAuthority(msp_id)
        self._identities: dict[str, SigningIdentity] = {}

    def enroll(self, enrollment_id: str, role: Role) -> SigningIdentity:
        """Enroll (or look up) a node identity under this organization."""
        qualified = f"{enrollment_id}.{self.msp_id}"
        if qualified not in self._identities:
            self._identities[qualified] = self.ca.enroll(qualified, role)
        return self._identities[qualified]

    def enroll_peer(self, name: str = "peer0") -> SigningIdentity:
        return self.enroll(name, Role.PEER)

    def enroll_client(self, name: str = "client0") -> SigningIdentity:
        return self.enroll(name, Role.CLIENT)

    def identities(self) -> list[SigningIdentity]:
        return list(self._identities.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Organization({self.msp_id!r})"
