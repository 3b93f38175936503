"""Membership Service Provider: the trust roots of a channel.

An :class:`MSPRegistry` holds the CA root keys of every organization in a
channel.  Validators consult it to decide whether a certificate presented
inside an endorsement is genuine before matching it against a policy
principal — the step that makes signature policies meaningful.
"""

from __future__ import annotations

from repro.common.errors import IdentityError
from repro.identity.ca import CertificateAuthority
from repro.identity.identity import Certificate
from repro.identity.roles import Role


class MSPRegistry:
    """Maps MSP ids to the CAs trusted for them."""

    def __init__(self) -> None:
        self._authorities: dict[str, CertificateAuthority] = {}
        # Certificate validation is pure (the CA root key never changes
        # after registration), so results are memoised by the frozen
        # certificate itself — Fabric's MSP caches deserialized identities
        # the same way.  A certificate whose CA is not registered yet is
        # rejected without caching, so it validates once the CA joins.
        self._validation_cache: dict[Certificate, bool] = {}

    def register(self, authority: CertificateAuthority) -> None:
        if authority.msp_id in self._authorities:
            raise IdentityError(f"MSP {authority.msp_id!r} already registered")
        self._authorities[authority.msp_id] = authority

    def msp_ids(self) -> list[str]:
        return sorted(self._authorities)

    def is_known(self, msp_id: str) -> bool:
        return msp_id in self._authorities

    def validate_certificate(self, certificate: Certificate) -> bool:
        """Whether the certificate chains to a registered CA."""
        authority = self._authorities.get(certificate.msp_id)
        if authority is None:
            return False
        cached = self._validation_cache.get(certificate)
        if cached is None:
            cached = authority.validate(certificate)
            self._validation_cache[certificate] = cached
        return cached

    def satisfies_principal(self, certificate: Certificate, msp_id: str, role: Role) -> bool:
        """MSP principal matching: valid cert, right org, right role."""
        if certificate.msp_id != msp_id:
            return False
        if not role.matches(certificate.role):
            return False
        return self.validate_certificate(certificate)
