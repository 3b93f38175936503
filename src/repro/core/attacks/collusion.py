"""Collusion analysis: the 51% discussion of Section IV-A5, operationalized.

Under ``MAJORITY Endorsement`` the injection attacks need malicious peers
from 51% of the organizations.  Under ``NOutOf`` policies, far fewer can
suffice — the paper's example: with ``2OutOf(org1..org5)`` and PDC members
{org1, org2}, the two *non-members* org3+org4 satisfy the policy alone.

:func:`analyze_collusion` answers, for a deployed chaincode + collection:

* the minimum number of colluding organizations that can forge a valid
  PDC transaction at all, and
* whether **non-members alone** can do it (the worst case: zero insider
  collusion), and with how many orgs.

This is exact subset-minimisation over the policy, feasible because
consortium channels have few organizations.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Sequence, TYPE_CHECKING

from repro.identity.identity import Certificate
from repro.policy.evaluator import PolicyEvaluator

if TYPE_CHECKING:  # pragma: no cover
    from repro.network.channel import ChannelConfig


@dataclass(frozen=True)
class CollusionReport:
    """Result of analysing one (chaincode, collection) pair."""

    chaincode_id: str
    collection: str
    policy_text: str
    member_orgs: tuple[str, ...]
    nonmember_orgs: tuple[str, ...]
    minimum_orgs: Optional[int]  # smallest satisfying org set, any orgs
    minimum_org_set: tuple[str, ...]
    nonmember_only_possible: bool
    minimum_nonmember_orgs: Optional[int]
    minimum_nonmember_set: tuple[str, ...]

    def summary(self) -> str:
        if self.minimum_orgs is None:
            return (
                f"{self.chaincode_id}/{self.collection}: policy unsatisfiable by "
                f"channel peers"
            )
        lines = [
            f"{self.chaincode_id}/{self.collection}: policy {self.policy_text!r}",
            f"  minimum colluding orgs     : {self.minimum_orgs} "
            f"{sorted(self.minimum_org_set)}",
        ]
        if self.nonmember_only_possible:
            lines.append(
                f"  NON-MEMBERS ALONE SUFFICE  : {self.minimum_nonmember_orgs} "
                f"{sorted(self.minimum_nonmember_set)} — zero insider collusion needed"
            )
        else:
            lines.append("  non-members alone          : cannot satisfy the policy")
        return "\n".join(lines)


def _org_peer_certs(channel: "ChannelConfig", msp_ids: Sequence[str]) -> list[Certificate]:
    return [channel.organization(msp).enroll_peer().certificate for msp in msp_ids]


def minimum_satisfying_orgs(
    evaluator: PolicyEvaluator,
    policy_text: str,
    channel: "ChannelConfig",
    candidate_orgs: Sequence[str],
) -> Optional[tuple[str, ...]]:
    """The smallest subset of ``candidate_orgs`` whose peers satisfy the policy.

    Returns ``None`` when no subset (including all candidates) suffices.
    Exact search, smallest-first; consortium channels are small enough.
    """
    candidates = sorted(candidate_orgs)
    for size in range(1, len(candidates) + 1):
        for subset in combinations(candidates, size):
            signers = _org_peer_certs(channel, subset)
            if evaluator.evaluate(policy_text, signers):
                return subset
    return None


def analyze_collusion(
    channel: "ChannelConfig", chaincode_id: str, collection_name: str
) -> CollusionReport:
    """Analyse the endorsement policy governing a collection's transactions.

    Uses the policy that the **vulnerable** validation path applies — the
    chaincode-level policy (Use Case 2) — since that is what an attacker
    must satisfy for read-only transactions even when a collection-level
    policy exists.
    """
    definition = channel.chaincode(chaincode_id)
    config = definition.collection(collection_name)
    members = tuple(sorted(config.member_orgs()))
    nonmembers = tuple(sorted(set(channel.msp_ids()) - set(members)))
    evaluator = channel.evaluator()
    policy_text = definition.endorsement_policy

    best_any = minimum_satisfying_orgs(evaluator, policy_text, channel, channel.msp_ids())
    best_nonmember = minimum_satisfying_orgs(evaluator, policy_text, channel, nonmembers)

    return CollusionReport(
        chaincode_id=chaincode_id,
        collection=collection_name,
        policy_text=policy_text,
        member_orgs=members,
        nonmember_orgs=nonmembers,
        minimum_orgs=len(best_any) if best_any else None,
        minimum_org_set=best_any or (),
        nonmember_only_possible=best_nonmember is not None,
        minimum_nonmember_orgs=len(best_nonmember) if best_nonmember else None,
        minimum_nonmember_set=best_nonmember or (),
    )
