"""Every definition in ``src/`` has a caller.

A top-level function or class, or a non-dunder method of a top-level
class, must be named somewhere in ``src/`` outside its own definition
(package ``__init__`` re-exports do not count), or anywhere in
``examples/`` or ``benchmarks/``.  Code that only tests reach is a second
engine waiting to drift from the first, so it is deleted — unless it is
on :data:`KEEP` with the reason it stays.  A keep-list entry that gains a
caller, or no longer exists, fails too, so the list cannot go stale.

Names are matched as identifier tokens, counted once per file, so the
whole scan costs one ``re.findall`` per file.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_IDENTIFIER = re.compile(r"[A-Za-z_]\w*")

_CHAINCODE_API = "chaincode API that tests invoke by function name"
_TEST_HOOK = "test hook: no public expression reaches this state"
_LIFECYCLE = "Fabric's approve/commit lifecycle, which membership changes will build on"

#: Qualified name -> why it stays without a caller.
KEEP = {
    "AssetContract.set_asset_policy": _CHAINCODE_API,
    "AssetContract.get_asset_policy": _CHAINCODE_API,
    "JsonAssetContract.query_by_owner": _CHAINCODE_API,
    "PerfTestContract.private_perf_test_exists": _CHAINCODE_API,
    "ChaincodeStub.get_creator": "Fabric's GetCreator, part of the shim API chaincode sees",
    "ChaincodeLifecycle": _LIFECYCLE,
    "ChaincodeLifecycle.approve_for_org": _LIFECYCLE,
    "ChaincodeLifecycle.committed_sequence": _LIFECYCLE,
    "clear_verify_cache": _TEST_HOOK,
    "EventScheduler.run_for": _TEST_HOOK,
    "EventScheduler.pending_events": _TEST_HOOK,
    "TransactionRuntime.in_flight": _TEST_HOOK,
    "Tracer.for_tx": _TEST_HOOK,
    "PrivateHashStore.put_plain": _TEST_HOOK,
    "collection_config_json": _TEST_HOOK,
    "and_": _TEST_HOOK,
    "out_of": _TEST_HOOK,
    "run_seed": _TEST_HOOK,
}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(text: str):
    """``(qualified name, name, tokens of the name inside its own body)``."""
    lines = text.splitlines()
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in ast.parse(text).body:
        if not isinstance(node, defs):
            continue
        members = [(node.name, node)]
        if isinstance(node, ast.ClassDef):
            members += [
                (f"{node.name}.{item.name}", item)
                for item in node.body
                if isinstance(item, defs[:2]) and not _is_dunder(item.name)
            ]
        for qualified, item in members:
            body = "\n".join(lines[item.lineno - 1 : item.end_lineno])
            yield qualified, item.name, _IDENTIFIER.findall(body).count(item.name)


def _orphans() -> set[str]:
    in_src: Counter = Counter()
    definitions = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        if path.name == "__init__.py":
            continue
        text = path.read_text(encoding="utf-8")
        in_src.update(_IDENTIFIER.findall(text))
        definitions.extend(_definitions(text))
    elsewhere: Counter = Counter()
    for directory in ("examples", "benchmarks"):
        for path in (ROOT / directory).rglob("*.py"):
            elsewhere.update(_IDENTIFIER.findall(path.read_text(encoding="utf-8")))
    return {
        qualified
        for qualified, name, own in definitions
        if in_src[name] <= own and not elsewhere[name]
    }


def test_every_definition_has_a_caller_or_a_reason():
    orphans = _orphans()
    assert sorted(orphans - KEEP.keys()) == [], "delete these, or give them a caller"
    assert sorted(KEEP.keys() - orphans) == [], "stale keep-list entries"
