"""The chaincode shim: the world-state API chaincode programs against.

Reproduces the Fabric shim semantics the paper's analysis rests on:

* ``get_state`` / ``get_private_data`` record ``(key, version)`` reads
  (Table I) and therefore *fail at PDC non-members*, who do not hold the
  original private data (Use Case 1);
* ``put_*`` / ``del_*`` record writes derived purely from the chaincode,
  touching no state — which is why non-members endorse write-only and
  delete-only PDC transactions without error;
* ``get_private_data_hash`` works at **every** peer and records a hashed
  read carrying the *genuine version* from the hash store — the API the
  paper's endorsement-forgery attack (Section IV-A1) abuses.

Reads observe the simulation's own earlier writes (read-your-own-writes),
matching Fabric's transaction simulator.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.common.errors import ChaincodeError, KeyNotFoundError
from repro.common.hashing import hash_key
from repro.chaincode.rwset import RWSetBuilder, SimulationResult
from repro.identity.identity import Certificate
from repro.ledger.ledger import PeerLedger
from repro.protocol.proposal import Proposal

if TYPE_CHECKING:  # pragma: no cover
    from repro.network.channel import ChannelConfig


class ChaincodeStub:
    """One simulation context: proposal + peer-local state + rwset builder."""

    def __init__(
        self,
        proposal: Proposal,
        ledger: PeerLedger,
        channel: "ChannelConfig",
        local_msp_id: str,
    ) -> None:
        self._proposal = proposal
        self._ledger = ledger
        self._channel = channel
        self._local_msp_id = local_msp_id
        self._builder = RWSetBuilder()
        self._namespace = proposal.chaincode_id
        self._event: "tuple[str, bytes] | None" = None

    # -- proposal context -------------------------------------------------
    @property
    def tx_id(self) -> str:
        return self._proposal.tx_id

    @property
    def channel_id(self) -> str:
        return self._proposal.channel_id

    @property
    def local_msp_id(self) -> str:
        """MSP id of the peer running this simulation (shim extension)."""
        return self._local_msp_id

    def get_creator(self) -> Certificate:
        """The client identity that signed the proposal."""
        return self._proposal.creator

    def get_transient(self, key: str) -> Optional[bytes]:
        """Private input passed outside the signed proposal bytes."""
        return self._proposal.transient.get(key)

    def set_event(self, name: str, payload: bytes = b"") -> None:
        """Emit a chaincode event (at most one per transaction, as in Fabric).

        The event travels inside the signed proposal-response and is
        committed with the transaction — **in plaintext**, at every peer.
        Putting private data into an event payload leaks it exactly like
        the ``payload`` field of Use Case 3.
        """
        if not name:
            raise ChaincodeError("event name must be non-empty")
        self._event = (name, payload)

    @property
    def event(self) -> "tuple[str, bytes] | None":
        return self._event

    # -- public data -------------------------------------------------------
    def get_state(self, key: str) -> Optional[bytes]:
        """Read a public key; records ``(key, version)`` in the read set."""
        pending = self._builder.get_write(self._namespace, key)
        if pending is not None:
            return None if pending.is_delete else pending.value
        entry = self._ledger.world_state.get(self._namespace, key)
        self._builder.add_read(self._namespace, key, entry.version if entry else None)
        return entry.value if entry else None

    def put_state(self, key: str, value: bytes) -> None:
        """Write a public key; records ``(key, value, false)`` in the write set."""
        self._check_key(key)
        self._builder.add_write(self._namespace, key, value)

    def del_state(self, key: str) -> None:
        """Delete a public key; a write with ``is_delete=true`` (Table I)."""
        self._check_key(key)
        self._builder.add_delete(self._namespace, key)

    def set_state_validation_parameter(self, key: str, policy_text: str) -> None:
        """Attach a key-level endorsement policy to ``key``.

        From the commit of this transaction on, writes to ``key`` are
        validated against this signature policy *instead of* the
        chaincode-level policy (state-based endorsement,
        ``validator_keylevel.go``).  The key must exist — either
        committed or written earlier in this simulation.
        """
        from repro.policy.parser import parse_policy

        self._check_key(key)
        parse_policy(policy_text)  # fail at simulation time on bad policy
        exists = (
            self._builder.get_write(self._namespace, key) is not None
            or self._ledger.world_state.get(self._namespace, key) is not None
        )
        if not exists:
            raise KeyNotFoundError(self._namespace, key)
        self._builder.add_metadata_write(
            self._namespace,
            key,
            self._ledger.world_state.VALIDATION_PARAMETER,
            policy_text.encode("utf-8"),
        )

    def get_state_validation_parameter(self, key: str) -> Optional[str]:
        """The committed key-level endorsement policy of ``key``, if any."""
        raw = self._ledger.world_state.get_validation_parameter(self._namespace, key)
        return raw.decode("utf-8") if raw is not None else None

    def get_state_by_range(self, start_key: str, end_key: str) -> list[tuple[str, bytes]]:
        """Scan public keys in ``[start_key, end_key)`` (empty = unbounded).

        Records a :class:`RangeQueryInfo` so validation can detect
        *phantom reads*: keys appearing in, vanishing from, or changing
        within the range between simulation and commit invalidate the
        transaction.  The scan observes this simulation's own pending
        writes, but only committed state enters the recorded query info —
        matching Fabric's transaction simulator.
        """
        from repro.chaincode.rwset import KVRead

        committed: list[tuple[str, bytes]] = []
        recorded: list[KVRead] = []
        for key, entry in self._ledger.world_state.items(self._namespace):
            if key < start_key or (end_key and key >= end_key):
                continue
            committed.append((key, entry.value))
            recorded.append(KVRead(key=key, version=entry.version))
        self._builder.add_range_query(
            self._namespace, start_key, end_key, tuple(recorded)
        )

        # Overlay read-your-own-writes.
        merged = dict(committed)
        for key, write in self._builder.pending_writes(self._namespace).items():
            if key < start_key or (end_key and key >= end_key):
                continue
            if write.is_delete:
                merged.pop(key, None)
            else:
                merged[key] = write.value or b""
        return sorted(merged.items())

    def get_query_result(self, selector: dict) -> list[tuple[str, bytes]]:
        """CouchDB-style rich query over this namespace's JSON values.

        **Not validated at commit** (matching Fabric): unlike
        ``get_state_by_range``, nothing is recorded in the read set, so
        results can be stale or phantom-ridden by the time the
        transaction commits.  Use it for queries, never for decisions
        that writes depend on.
        """
        from repro.ledger.rich_query import execute_rich_query

        return execute_rich_query(
            self._ledger.world_state.items(self._namespace), selector
        )

    # -- private data --------------------------------------------------------
    def get_private_data(self, collection: str, key: str) -> bytes:
        """Read original private data.

        Only PDC member peers hold the original ``(key, value, version)``;
        at a non-member the key is simply absent and the shim raises
        :class:`KeyNotFoundError`, failing the endorsement — the behaviour
        Use Case 1 documents for read-only/read-write proposals.
        """
        config = self._collection_config(collection)
        if config.member_only_read and not config.is_member_org(self._local_msp_id):
            raise ChaincodeError(
                f"GetPrivateData failed: {self._local_msp_id} is not authorized to "
                f"read collection {collection!r} (memberOnlyRead)"
            )
        pending = self._builder.get_private_write(self._namespace, collection, key)
        if pending is not None:
            if pending.is_delete or pending.value is None:
                raise KeyNotFoundError(self._namespace, key, collection)
            return pending.value
        hashed = self._ledger.private_hashes.get_by_key(self._namespace, collection, key)
        self._builder.add_private_read(
            self._namespace, collection, hash_key(key), hashed.version if hashed else None
        )
        entry = self._ledger.private_data.get(self._namespace, collection, key)
        if entry is None:
            raise KeyNotFoundError(self._namespace, key, collection)
        return entry.value

    def get_private_data_hash(self, collection: str, key: str) -> Optional[bytes]:
        """Read the *hash* of private data — available at every peer.

        Records a hashed read ``(hash(key), version)`` with the same
        version ``get_private_data`` would have recorded, because both
        stores are updated atomically at commit.  This is the primitive
        that lets a malicious non-member forge a valid-looking read set.
        """
        config = self._collection_config(collection)
        assert config is not None  # existence check only; hashes are never member-gated
        hashed = self._ledger.private_hashes.get_by_key(self._namespace, collection, key)
        self._builder.add_private_read(
            self._namespace, collection, hash_key(key), hashed.version if hashed else None
        )
        return hashed.value_hash if hashed else None

    def put_private_data(self, collection: str, key: str, value: bytes) -> None:
        """Write private data; no state interaction, so *any* peer endorses it
        (unless ``memberOnlyWrite`` gates non-members)."""
        self._check_key(key)
        config = self._collection_config(collection)
        if config.member_only_write and not config.is_member_org(self._local_msp_id):
            raise ChaincodeError(
                f"PutPrivateData failed: {self._local_msp_id} is not authorized to "
                f"write collection {collection!r} (memberOnlyWrite)"
            )
        self._builder.add_private_write(self._namespace, collection, key, value)

    def del_private_data(self, collection: str, key: str) -> None:
        """Delete private data — the write-only special case of Table I."""
        self._check_key(key)
        config = self._collection_config(collection)
        if config.member_only_write and not config.is_member_org(self._local_msp_id):
            raise ChaincodeError(
                f"DelPrivateData failed: {self._local_msp_id} is not authorized to "
                f"write collection {collection!r} (memberOnlyWrite)"
            )
        self._builder.add_private_delete(self._namespace, collection, key)

    # -- internals ----------------------------------------------------------
    def _collection_config(self, collection: str):
        return self._channel.collection(self._namespace, collection)

    @staticmethod
    def _check_key(key: str) -> None:
        if not key:
            raise ChaincodeError("state keys must be non-empty")

    def build_result(self) -> SimulationResult:
        """Finish the simulation: produce rwset + off-chain private writes."""
        return self._builder.build()
