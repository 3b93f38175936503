"""Shared substrate: errors, hashing, canonical serialization, signatures."""

from repro.common.crypto import PrivateKey, PublicKey, generate_keypair
from repro.common.errors import (
    AnalyzerError,
    ChaincodeError,
    ConfigError,
    CorpusError,
    EndorsementError,
    GossipError,
    IdentityError,
    KeyNotFoundError,
    LedgerError,
    OrderingError,
    PolicyError,
    ProposalResponseMismatchError,
    ReproError,
    TransactionInvalidError,
)
from repro.common.hashing import chain_hash, hash_key, hash_value, sha256, sha256_hex
from repro.common.serialization import canonical_bytes, from_canonical_bytes

__all__ = [
    "AnalyzerError",
    "ChaincodeError",
    "ConfigError",
    "CorpusError",
    "EndorsementError",
    "GossipError",
    "IdentityError",
    "KeyNotFoundError",
    "LedgerError",
    "OrderingError",
    "PolicyError",
    "ProposalResponseMismatchError",
    "ReproError",
    "TransactionInvalidError",
    "chain_hash",
    "hash_key",
    "hash_value",
    "sha256",
    "sha256_hex",
    "canonical_bytes",
    "from_canonical_bytes",
    "PrivateKey",
    "PublicKey",
    "generate_keypair",
]
