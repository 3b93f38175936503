"""Framework feature flags: the paper's defense switches (Section IV-C).

The defenses are *framework modifications*, not application code: the
paper implements them by patching the Fabric source.  Here they are
compile-time flags every peer (and the client gateway, for Feature 2) is
constructed with:

* ``collection_policy_on_reads`` — **New Feature 1**: during validation,
  PDC read-only transactions are also checked against the collection-level
  endorsement policy (when one is defined), closing the fake-read hole.
* ``hashed_payload_endorsement`` — **New Feature 2** (Fig. 4): endorsers
  sign the proposal-response with a SHA-256-hashed ``payload`` and return
  the original out-of-band; clients verify and assemble the hashed
  variant, so transactions never carry plaintext PDC values.
* ``filter_nonmember_endorsements`` — the supplemental feature of §V-D:
  during validation of PDC transactions, endorsements from PDC non-member
  organizations are discarded before policy evaluation, protecting sloppy
  deployments whose policies would otherwise accept them.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class FrameworkFeatures:
    """Which framework behaviours are active on a node."""

    collection_policy_on_reads: bool = False  # New Feature 1
    hashed_payload_endorsement: bool = False  # New Feature 2
    filter_nonmember_endorsements: bool = False  # supplemental feature

    @classmethod
    def original(cls) -> "FrameworkFeatures":
        """The unmodified Fabric framework (all defenses off)."""
        return cls()

    @classmethod
    def defended(cls) -> "FrameworkFeatures":
        """All defenses of the paper enabled."""
        return cls(
            collection_policy_on_reads=True,
            hashed_payload_endorsement=True,
            filter_nonmember_endorsements=True,
        )

    @classmethod
    def feature1_only(cls) -> "FrameworkFeatures":
        return cls(collection_policy_on_reads=True)

    @classmethod
    def feature2_only(cls) -> "FrameworkFeatures":
        return cls(hashed_payload_endorsement=True)

    def describe(self) -> str:
        active = [
            name
            for name, on in (
                ("Feature1(collection-policy-on-reads)", self.collection_policy_on_reads),
                ("Feature2(hashed-payload)", self.hashed_payload_endorsement),
                ("NonMemberFilter", self.filter_nonmember_endorsements),
            )
            if on
        ]
        return "original framework" if not active else "modified framework: " + ", ".join(active)
