"""Per-project analysis results."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.analyzer.detectors import CollectionFinding, ConfigtxFinding


@dataclass
class ProjectAnalysis:
    """Everything the analyzer determined about one project."""

    name: str
    year: Optional[int] = None
    collections: list[CollectionFinding] = field(default_factory=list)
    implicit_files: list[str] = field(default_factory=list)
    configtx: list[ConfigtxFinding] = field(default_factory=list)
    read_leak_functions: dict[str, list[str]] = field(default_factory=dict)  # file -> fns
    write_leak_functions: dict[str, list[str]] = field(default_factory=dict)
    # Beyond the paper: private values taken from plaintext args, and
    # private reads published through chaincode events.
    transient_bypass_functions: dict[str, list[str]] = field(default_factory=dict)
    event_leak_functions: dict[str, list[str]] = field(default_factory=dict)

    # -- PDC classification (Fig. 8) ---------------------------------------
    @property
    def is_explicit_pdc(self) -> bool:
        return bool(self.collections)

    @property
    def is_implicit_pdc(self) -> bool:
        return bool(self.implicit_files)

    @property
    def is_pdc(self) -> bool:
        return self.is_explicit_pdc or self.is_implicit_pdc

    @property
    def pdc_kind(self) -> str:
        if self.is_explicit_pdc and self.is_implicit_pdc:
            return "both"
        if self.is_explicit_pdc:
            return "explicit-only"
        if self.is_implicit_pdc:
            return "implicit-only"
        return "none"

    # -- endorsement policy classification (Fig. 9) -----------------------------
    @property
    def has_collection_level_policy(self) -> bool:
        return any(c.has_endorsement_policy for c in self.collections)

    @property
    def uses_chaincode_level_policy(self) -> bool:
        """Explicit PDC project with no collection-level EndorsementPolicy.

        These are the 86.51% the paper flags as vulnerable to the fake
        PDC results injection attacks.
        """
        return self.is_explicit_pdc and not self.has_collection_level_policy

    @property
    def configtx_rule(self) -> Optional[str]:
        for finding in self.configtx:
            if finding.endorsement_rule:
                return finding.endorsement_rule
        return None

    @property
    def configtx_is_majority(self) -> bool:
        return any(f.is_majority for f in self.configtx)

    # -- leakage classification (Fig. 10) ------------------------------------------
    @property
    def has_read_leak(self) -> bool:
        return any(self.read_leak_functions.values())

    @property
    def has_write_leak(self) -> bool:
        return any(self.write_leak_functions.values())

    @property
    def has_leak(self) -> bool:
        return self.has_read_leak or self.has_write_leak

    @property
    def potentially_vulnerable_to_injection(self) -> bool:
        return self.uses_chaincode_level_policy
