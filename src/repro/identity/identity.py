"""Identities: certificates and signing identities.

Every participant in a Fabric network holds a certificate issued by its
organization's CA.  A :class:`Certificate` is the public half (presented
inside endorsements); a :class:`SigningIdentity` couples it with the
private key held by the node itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.crypto import PrivateKey, PublicKey
from repro.common.serialization import Memoized, canonical_bytes
from repro.identity.roles import Role


@dataclass(frozen=True)
class Certificate(Memoized):
    """The public identity of a node: who it is and who vouches for it.

    ``issuer_signature`` is the CA's signature over the certificate body,
    which MSP validation checks before trusting the embedded public key.
    A certificate rides inside every proposal, endorsement and envelope,
    so both of its encodings are computed once per serialization epoch.
    """

    enrollment_id: str
    msp_id: str
    role: Role
    public_key: PublicKey
    issuer_signature: bytes

    def body_bytes(self) -> bytes:
        """The portion of the certificate covered by the CA signature."""
        return self._memo("_body", lambda: canonical_bytes(
            {
                "enrollment_id": self.enrollment_id,
                "msp_id": self.msp_id,
                "role": self.role.value,
                "public_key": self.public_key.to_bytes(),
            }
        ))

    def wire_bytes(self) -> bytes:
        """``canonical_bytes(self.to_wire())``, spliced wherever it appears."""
        return self._memo("_wire", lambda: canonical_bytes(self.to_wire()))

    def to_wire(self) -> dict:
        return {
            "enrollment_id": self.enrollment_id,
            "msp_id": self.msp_id,
            "role": self.role.value,
            "public_key": self.public_key.to_bytes(),
            "issuer_signature": self.issuer_signature,
        }

    @classmethod
    def from_wire(cls, wire: dict) -> "Certificate":
        """Inverse of :meth:`to_wire`."""
        return cls(
            enrollment_id=wire["enrollment_id"],
            msp_id=wire["msp_id"],
            role=Role(wire["role"]),
            public_key=PublicKey.from_bytes(wire["public_key"]),
            issuer_signature=wire["issuer_signature"],
        )


@dataclass(frozen=True)
class SigningIdentity:
    """A certificate plus the matching private key.

    Nodes sign with it; the certificate travels with every signature so
    verifiers can (a) check the CA chain and (b) verify the signature.
    """

    certificate: Certificate
    private_key: PrivateKey

    @property
    def enrollment_id(self) -> str:
        return self.certificate.enrollment_id

    @property
    def msp_id(self) -> str:
        return self.certificate.msp_id

    @property
    def role(self) -> Role:
        return self.certificate.role

    def sign(self, message: bytes) -> bytes:
        return self.private_key.sign(message)
