"""A JSON-document asset contract exercising rich queries.

Models the common "marbles"-style Fabric sample: assets are JSON
documents queried by owner/color via CouchDB selectors.
"""

from __future__ import annotations

import json

from repro.chaincode.api import Chaincode, require_args
from repro.chaincode.stub import ChaincodeStub
from repro.common.errors import ChaincodeError


class JsonAssetContract(Chaincode):
    """CRUD + rich queries over JSON assets under ``json:<id>``."""

    @staticmethod
    def _key(asset_id: str) -> str:
        return f"json:{asset_id}"

    def create_json_asset(self, stub: ChaincodeStub, args: list) -> bytes:
        """``create_json_asset(id, owner, color, size)``."""
        require_args(args, 4, "an id, owner, color and integer size")
        asset_id, owner, color, size = args
        document = {
            "docType": "asset",
            "id": asset_id,
            "owner": owner,
            "color": color,
            "size": int(size),
        }
        stub.put_state(self._key(asset_id), json.dumps(document).encode("utf-8"))
        return b""

    def query_by_owner(self, stub: ChaincodeStub, args: list) -> bytes:
        """``query_by_owner(owner)`` — a rich query (NOT phantom-safe)."""
        require_args(args, 1, "an owner name")
        results = stub.get_query_result({"docType": "asset", "owner": args[0]})
        ids = [json.loads(value)["id"] for _key, value in results]
        return ",".join(sorted(ids)).encode("utf-8")

    def query_selector(self, stub: ChaincodeStub, args: list) -> bytes:
        """``query_selector(json_selector)`` — raw selector passthrough."""
        require_args(args, 1, "a JSON selector")
        try:
            selector = json.loads(args[0])
        except json.JSONDecodeError as exc:
            raise ChaincodeError(f"malformed selector: {exc}") from exc
        results = stub.get_query_result(selector)
        ids = [json.loads(value)["id"] for _key, value in results]
        return ",".join(sorted(ids)).encode("utf-8")

    def transfer_json_asset(self, stub: ChaincodeStub, args: list) -> bytes:
        """``transfer_json_asset(id, new_owner)`` — read-modify-write."""
        require_args(args, 2, "an asset id and a new owner")
        asset_id, new_owner = args
        raw = stub.get_state(self._key(asset_id))
        if raw is None:
            raise ChaincodeError(f"asset {asset_id!r} does not exist")
        document = json.loads(raw)
        document["owner"] = new_owner
        stub.put_state(self._key(asset_id), json.dumps(document).encode("utf-8"))
        return b""
