"""The analyzer's individual detectors (Section V-C1).

* **Explicit PDC** — the project ships a ``.json`` collection
  configuration using the fixed keywords the paper lists ("Name",
  "Policy", "RequiredPeerCount", "MaxPeerCount", "BlockToLive",
  "MemberOnlyRead", ...).  Both the historical capitalised spelling and
  the current camelCase spelling are recognised.
* **Collection-level endorsement policy** — the optional
  ``EndorsementPolicy`` property inside an explicit definition; absent
  means the project falls back to the chaincode-level policy (the
  vulnerable default).
* **Implicit PDC** — ``_implicit_org_`` appearing in chaincode, the
  per-organization implicit collections (out of scope for the attacks,
  but counted for Fig. 8).
* **configtx.yaml default policy** — which implicitMeta rule the channel
  configures as its default ``Endorsement`` policy.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.core.analyzer.source import ProjectFile
from repro.core.analyzer.yaml_lite import extract_endorsement_rule

# The paper's fixed keywords, normalised to lowercase.
_CORE_KEYS = {"name", "policy"}
_AUX_KEYS = {
    "requiredpeercount",
    "maxpeercount",
    "blocktolive",
    "memberonlyread",
    "memberonlywrite",
}
_ENDORSEMENT_KEY = "endorsementpolicy"

IMPLICIT_MARKER = "_implicit_org_"


@dataclass(frozen=True)
class CollectionFinding:
    """One explicit collection definition found in a ``.json`` file."""

    file_path: str
    name: Optional[str]
    has_endorsement_policy: bool
    properties: tuple[str, ...]


@dataclass
class ExplicitPdcResult:
    collections: list[CollectionFinding] = field(default_factory=list)

    @property
    def detected(self) -> bool:
        return bool(self.collections)


def _normalise_keys(obj: dict) -> dict[str, Any]:
    return {str(k).lower(): v for k, v in obj.items()}


def _collection_objects(document: Any) -> list[dict]:
    """All dicts in a JSON document that look like collection configs."""
    found: list[dict] = []

    def walk(node: Any) -> None:
        if isinstance(node, dict):
            keys = set(_normalise_keys(node))
            if _CORE_KEYS <= keys and keys & _AUX_KEYS:
                found.append(node)
            for value in node.values():
                walk(value)
        elif isinstance(node, list):
            for item in node:
                walk(item)

    walk(document)
    return found


def detect_explicit_pdc(files: list[ProjectFile]) -> ExplicitPdcResult:
    """Scan every ``.json`` file for explicit collection definitions."""
    result = ExplicitPdcResult()
    for file in files:
        if file.extension != ".json":
            continue
        try:
            document = json.loads(file.content)
        except json.JSONDecodeError:
            continue
        for obj in _collection_objects(document):
            normalised = _normalise_keys(obj)
            result.collections.append(
                CollectionFinding(
                    file_path=file.path,
                    name=normalised.get("name"),
                    has_endorsement_policy=_ENDORSEMENT_KEY in normalised,
                    properties=tuple(sorted(normalised)),
                )
            )
    return result


def detect_implicit_pdc(files: list[ProjectFile]) -> list[str]:
    """Chaincode files that reference implicit per-org collections."""
    return [
        file.path
        for file in files
        if file.is_chaincode and IMPLICIT_MARKER in file.content
    ]


_CONFIGTX_NAME_RE = re.compile(r"(^|/)configtx\.ya?ml$")


@dataclass(frozen=True)
class ConfigtxFinding:
    file_path: str
    endorsement_rule: Optional[str]

    @property
    def is_majority(self) -> bool:
        return bool(self.endorsement_rule) and self.endorsement_rule.upper().startswith("MAJORITY")


def detect_configtx_policy(files: list[ProjectFile]) -> list[ConfigtxFinding]:
    """Extract the default Endorsement rule from every configtx.yaml."""
    findings = []
    for file in files:
        if not _CONFIGTX_NAME_RE.search(file.path):
            continue
        findings.append(
            ConfigtxFinding(
                file_path=file.path,
                endorsement_rule=extract_endorsement_rule(file.content),
            )
        )
    return findings
