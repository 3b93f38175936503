"""Wallets: file-backed persistence of signing identities.

Fabric applications keep their enrolled identities in a wallet; this is
the equivalent for the simulator, serializing certificates and private
keys to JSON under a directory so examples and long-running tools can
reload identities across processes.
"""

from __future__ import annotations

import base64
import json
from pathlib import Path

from repro.common.crypto import PrivateKey, PublicKey
from repro.common.errors import IdentityError
from repro.identity.identity import Certificate, SigningIdentity
from repro.identity.roles import Role


def _b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def _unb64(text: str) -> bytes:
    return base64.b64decode(text)


def identity_to_json(identity: SigningIdentity) -> dict:
    """Serialize a signing identity (certificate + private key)."""
    certificate = identity.certificate
    return {
        "version": 1,
        "enrollment_id": certificate.enrollment_id,
        "msp_id": certificate.msp_id,
        "role": certificate.role.value,
        "public_key": _b64(certificate.public_key.to_bytes()),
        "issuer_signature": _b64(certificate.issuer_signature),
        "private_key_x": str(identity.private_key.x),
    }


def identity_from_json(document: dict) -> SigningIdentity:
    """Deserialize; validates internal consistency of the key pair."""
    try:
        certificate = Certificate(
            enrollment_id=document["enrollment_id"],
            msp_id=document["msp_id"],
            role=Role(document["role"]),
            public_key=PublicKey.from_bytes(_unb64(document["public_key"])),
            issuer_signature=_unb64(document["issuer_signature"]),
        )
        private_key = PrivateKey(x=int(document["private_key_x"]))
        public_key = private_key.public_key()
    except (KeyError, ValueError) as exc:
        raise IdentityError(f"malformed wallet entry: {exc}") from exc
    if public_key != certificate.public_key:
        raise IdentityError(
            f"wallet entry {certificate.enrollment_id!r}: private key does not "
            "match the certificate's public key"
        )
    return SigningIdentity(certificate=certificate, private_key=private_key)


class FileWallet:
    """A directory of ``<label>.id`` JSON identity files."""

    SUFFIX = ".id"

    def __init__(self, directory: Path | str) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def _path(self, label: str) -> Path:
        if not label or "/" in label or label.startswith("."):
            raise IdentityError(f"invalid wallet label {label!r}")
        return self.directory / f"{label}{self.SUFFIX}"

    def put(self, label: str, identity: SigningIdentity) -> None:
        self._path(label).write_text(
            json.dumps(identity_to_json(identity), indent=2), encoding="utf-8"
        )

    def get(self, label: str) -> SigningIdentity:
        path = self._path(label)
        if not path.is_file():
            raise IdentityError(f"no wallet entry {label!r}")
        try:
            document = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise IdentityError(f"corrupt wallet entry {label!r}: {exc}") from exc
        return identity_from_json(document)

    def exists(self, label: str) -> bool:
        return self._path(label).is_file()

    def remove(self, label: str) -> None:
        path = self._path(label)
        if not path.is_file():
            raise IdentityError(f"no wallet entry {label!r}")
        path.unlink()

