"""Private-data chaincode: the honest and the sloppy way.

``PrivateAssetContract`` implements the PDC workloads of Sections III-V:

* ``set_private`` takes the value from the *transient* map — the correct
  pattern, keeping the value out of every signed/ordered message;
* ``get_private`` returns the value through the response ``payload`` —
  the audit-style PDC read of §IV-B1 that, submitted as a transaction,
  leaks the value to every peer in the channel;
* ``add_private`` is the read-modify-write function of §IV-A3;
* ``del_private`` exercises the delete-only path of §IV-A4.
"""

from __future__ import annotations

from repro.chaincode.api import Chaincode, require_args
from repro.chaincode.stub import ChaincodeStub
from repro.common.errors import ChaincodeError


class PrivateAssetContract(Chaincode):
    """CRUD over one private data collection."""

    def set_private(self, stub: ChaincodeStub, args: list) -> bytes:
        """``set_private(collection, key)`` with the value in transient['value'].

        Write-only: produces a null read set, so even PDC non-member peers
        endorse it without error (Use Case 1).
        """
        require_args(args, 2, "a collection and a key")
        collection, key = args
        value = stub.get_transient("value")
        if value is None:
            raise ChaincodeError("missing transient field 'value'")
        stub.put_private_data(collection, key, value)
        return b""

    def get_private(self, stub: ChaincodeStub, args: list) -> bytes:
        """``get_private(collection, key)`` — value returned via payload.

        Read-only.  Evaluated locally this is fine; *submitted* as a
        transaction (e.g. for auditing reads) the plaintext payload is
        recorded on every peer's blockchain — the §IV-B1 leakage.
        """
        require_args(args, 2, "a collection and a key")
        collection, key = args
        return stub.get_private_data(collection, key)

    def add_private(self, stub: ChaincodeStub, args: list) -> bytes:
        """``add_private(collection, key, delta)`` — read-modify-write."""
        require_args(args, 3, "a collection, a key and an integer delta")
        collection, key, delta_text = args
        current = stub.get_private_data(collection, key)
        try:
            total = int(current.decode("utf-8")) + int(delta_text)
        except ValueError as exc:
            raise ChaincodeError(f"private key {key!r} is not numeric: {exc}") from exc
        stub.put_private_data(collection, key, str(total).encode("utf-8"))
        return b""

    def move_private(self, stub: ChaincodeStub, args: list) -> bytes:
        """``move_private(src_collection, dst_collection, key)`` — transfer.

        Cross-collection move: read the plaintext from the source
        collection, delete it there, and rewrite it into the destination.
        Endorsers must be members of the *source* collection (the read
        needs plaintext), and validation consults the endorsement policies
        of both collections — the multi-collection path of §III-B.
        """
        require_args(args, 3, "a source collection, a destination collection and a key")
        src_collection, dst_collection, key = args
        if src_collection == dst_collection:
            raise ChaincodeError("source and destination collections must differ")
        value = stub.get_private_data(src_collection, key)
        stub.del_private_data(src_collection, key)
        stub.put_private_data(dst_collection, key, value)
        return b""

    def del_private(self, stub: ChaincodeStub, args: list) -> bytes:
        """``del_private(collection, key)`` — delete-only (null read set)."""
        require_args(args, 2, "a collection and a key")
        collection, key = args
        stub.del_private_data(collection, key)
        return b""

    def verify_private(self, stub: ChaincodeStub, args: list) -> bytes:
        """``verify_private(collection, key, claimed_value)`` — hash check.

        The privacy-preserving way to prove a value: any peer compares
        ``hash(claimed_value)`` against the stored hash, never exposing
        the original.
        """
        require_args(args, 3, "a collection, a key and a claimed value")
        from repro.common.hashing import hash_value

        collection, key, claimed = args
        stored = stub.get_private_data_hash(collection, key)
        if stored is None:
            return b"absent"
        matches = stored == hash_value(claimed.encode("utf-8"))
        return b"match" if matches else b"mismatch"
