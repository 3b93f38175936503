"""Policy-aware endorsement planning and the spec-level policy oracle.

The real Fabric Gateway service computes a *plan* from the chaincode's
endorsement policy: a minimal set of endorsing organizations whose
signatures will satisfy the policy, plus an ordered list of alternates to
escalate to when a member of the plan fails, times out, or is down.  This
module reproduces that planning step on top of the existing
:mod:`repro.policy` evaluation machinery, together with the one
spec-level statement of which policies validation applies:

* :func:`satisfying_prefix` — the one incremental search: grow a prefix
  of (lazily drawn) candidates until their certificates are accepted.
  The planner, the workload generators and the §IV-A attack helpers all
  pick endorsers through it.
* :func:`plan_endorsement` — split an ordered candidate pool into the
  minimal *primary* prefix whose certificates satisfy the (chaincode-level)
  policy and the remaining *backups* used for escalation.  When no prefix —
  and therefore, by monotonicity, no subset — satisfies the policy, the
  plan degenerates to "contact everyone" with ``satisfiable=False``, which
  preserves the legacy endorse-everywhere semantics the paper's attack
  probes rely on (a non-satisfying set must still be submittable so the
  validator can reject it).
* :func:`expected_policy_ok` — the **spec-level oracle** for the
  policy-selection rules of ``validator_keylevel.go`` (Section II-B3 and
  Use Case 2): given what a transaction touches and which certificates
  endorsed it, decide whether validation *should* accept it.  The
  workload generators label their operations with it, and the simulation
  invariants hold the production validator to it.
* :func:`applied_policies_satisfied` — the oracle's one adapter from a
  read/write set, and the early-quorum completion test.  Planning happens
  *before* simulation, so the initial wave is sized from the
  chaincode-level policy alone; once the first proposal response is in
  hand its read/write set reveals exactly which policies validation will
  apply (key-level policies of the keys it writes, collection-level
  write/read policies, the Feature 1 non-member filter), and this
  predicate re-checks the collected certificates against those.  A quorum
  accepted here therefore commits ``VALID`` iff the full candidate set
  would have: policy evaluation is monotone in the signer set, so
  certificates can only ever help, never hurt.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence

from repro.identity.identity import Certificate

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.defense.features import FrameworkFeatures
    from repro.network.channel import ChannelConfig
    from repro.policy.evaluator import AnyPolicy, PolicyEvaluator
    from repro.protocol.response import ProposalResponsePayload


@dataclass(frozen=True)
class EndorsementPlan:
    """An ordered endorsement plan: opening wave plus escalation backups.

    ``primary`` and ``backups`` hold whatever candidate objects the caller
    planned over (anything with a ``certificate`` attribute — peers, in
    practice); ``satisfiable`` records whether even the full pool can
    satisfy the planning policy.
    """

    primary: tuple
    backups: tuple
    satisfiable: bool

    @property
    def candidates(self) -> tuple:
        return self.primary + self.backups

    @property
    def size(self) -> int:
        return len(self.primary) + len(self.backups)


def satisfying_prefix(
    candidates: Iterable, accepts: Callable[[list[Certificate]], bool]
) -> tuple[list, bool]:
    """The shortest prefix of ``candidates`` whose certificates ``accepts``.

    Candidates are drawn one at a time, and none past the accepted prefix
    is drawn, so a lazy iterable that makes random choices per candidate
    consumes exactly the draws the prefix needs.  Returns the prefix and
    ``True``, or every candidate and ``False`` when no prefix is accepted.
    """
    chosen: list = []
    certs: list[Certificate] = []
    for candidate in candidates:
        chosen.append(candidate)
        certs.append(candidate.certificate)
        if accepts(certs):
            return chosen, True
    return chosen, False


def plan_endorsement(
    evaluator: "PolicyEvaluator",
    policy: "AnyPolicy | str",
    candidates: Sequence,
) -> EndorsementPlan:
    """Plan over ``candidates`` (ordered): minimal satisfying prefix + rest.

    Candidate order is the caller's preference order and is preserved, so
    planning is deterministic for a deterministic pool.
    """
    pool = list(candidates)
    primary, satisfiable = satisfying_prefix(
        pool, lambda certs: evaluator.evaluate(policy, certs)
    )
    return EndorsementPlan(
        primary=tuple(primary),
        backups=tuple(pool[len(primary):]),
        satisfiable=satisfiable,
    )


def expected_policy_ok(
    channel: "ChannelConfig",
    features: "FrameworkFeatures",
    chaincode_id: str,
    certs: Sequence[Certificate],
    *,
    read_only: bool,
    has_public_writes: bool,
    key_policies: Iterable[str] = (),
    collections_written: Iterable[tuple[str, str]] = (),
    collections_touched: Iterable[tuple[str, str]] = (),
) -> bool:
    """Spec-level answer to "does this endorser set satisfy validation?".

    Mirrors the policy-*selection* rules (not the implementation) of the
    validator.  Collections are ``(namespace, collection)`` pairs.
    Read-only transactions consult only the chaincode-level policy (plus,
    under New Feature 1, the collection-level policies of the collections
    read) — the keys they read are never consulted (Use Case 2).  A
    writing transaction consults ``key_policies``, the committed key-level
    policies of the public keys it writes or whose metadata it writes;
    the chaincode-level policy when it writes an ungoverned public key
    (``has_public_writes``); and per written collection its
    collection-level policy when one is defined, else the chaincode-level
    one.  The supplemental defense first discards endorsements from
    organizations that are not members of every touched collection.
    """
    evaluator = channel.evaluator()
    definition = channel.chaincode(chaincode_id)
    written = sorted(set(collections_written))
    touched = sorted(set(collections_touched) | set(written))
    signers = list(certs)

    if touched and features.filter_nonmember_endorsements:
        member_orgs: Optional[frozenset] = None
        for namespace, name in touched:
            orgs = channel.collection(namespace, name).member_orgs()
            member_orgs = orgs if member_orgs is None else member_orgs & orgs
        signers = [c for c in signers if c.msp_id in (member_orgs or set())]

    chaincode_policy_needed = False
    extra_policies: list[str] = []

    if read_only:
        chaincode_policy_needed = True
        if features.collection_policy_on_reads:
            for namespace, name in touched:
                config = channel.collection(namespace, name)
                if config.endorsement_policy is not None:
                    extra_policies.append(config.endorsement_policy)
    else:
        chaincode_policy_needed = has_public_writes
        extra_policies.extend(key_policies)
        for namespace, name in written:
            config = channel.collection(namespace, name)
            if config.endorsement_policy is not None:
                extra_policies.append(config.endorsement_policy)
            else:
                chaincode_policy_needed = True

    if chaincode_policy_needed and not evaluator.evaluate(
        definition.endorsement_policy, signers
    ):
        return False
    return all(evaluator.evaluate(text, signers) for text in extra_policies)


def applied_policies_satisfied(
    channel: "ChannelConfig",
    features: "FrameworkFeatures",
    chaincode_id: str,
    certs: Sequence[Certificate],
    payload: "ProposalResponsePayload",
    key_policy: Callable[[str, str], Optional[bytes]],
) -> bool:
    """Whether ``certs`` satisfy every policy validation will apply.

    Derives the oracle's inputs from a proposal response's read/write set.
    ``key_policy(namespace, key)`` returns a public key's committed
    ``VALIDATION_PARAMETER`` bytes or ``None``, from the state the
    transaction will be validated against
    (``WorldState.get_validation_parameter`` is one): a public write or
    metadata write to a key that carries a policy is judged by that
    policy, any other by the chaincode-level one.
    """
    results = payload.results
    has_public_writes = False
    key_policies: list[str] = []
    for ns in results.namespaces:
        for write in (*ns.writes, *ns.metadata_writes):
            policy = key_policy(ns.namespace, write.key)
            if policy is None:
                has_public_writes = True
            else:
                key_policies.append(policy.decode("utf-8"))
    return expected_policy_ok(
        channel,
        features,
        chaincode_id,
        certs,
        read_only=results.is_read_only,
        has_public_writes=has_public_writes,
        key_policies=key_policies,
        collections_written=[
            (ns.namespace, col.collection)
            for ns in results.namespaces
            for col in ns.collections
            if col.hashed_writes
        ],
        collections_touched=results.collections_touched(),
    )
