"""Tests for policy parsing, implicitMeta resolution and evaluation."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import PolicyError
from repro.identity.msp import MSPRegistry
from repro.identity.organization import Organization
from repro.identity.roles import Role
from repro.policy.ast import NOutOf, Principal, and_, or_, out_of
from repro.policy.evaluator import PolicyEvaluator
from repro.policy.implicit_meta import (
    ImplicitMetaPolicy,
    is_implicit_meta,
    majority_threshold,
    parse_implicit_meta,
)
from repro.policy.parser import parse_policy


class TestParser:
    def test_single_principal(self):
        node = parse_policy("Org1MSP.peer")
        assert node == Principal("Org1MSP", Role.PEER)

    def test_quoted_principals(self):
        node = parse_policy("AND('Org1MSP.peer', \"Org2MSP.member\")")
        assert isinstance(node, NOutOf)
        assert node.n == 2
        assert node.children[1] == Principal("Org2MSP", Role.MEMBER)

    def test_or_threshold_one(self):
        node = parse_policy("OR(Org1.peer, Org2.peer, Org3.peer)")
        assert node.n == 1 and len(node.children) == 3

    def test_outof(self):
        node = parse_policy("OutOf(2, Org1.peer, Org2.peer, Org3.peer)")
        assert node.n == 2 and len(node.children) == 3

    def test_noutof_prefix_form(self):
        """The paper writes '2OutOf(...)'; accept it as a synonym."""
        node = parse_policy("2OutOf(Org1.peer, Org2.peer, Org3.peer, Org4.peer, Org5.peer)")
        assert node.n == 2 and len(node.children) == 5

    def test_nested(self):
        node = parse_policy("OR(AND(Org1.peer, Org2.peer), Org3.admin)")
        assert node.n == 1
        inner = node.children[0]
        assert isinstance(inner, NOutOf) and inner.n == 2

    def test_msp_ids_collected(self):
        node = parse_policy("AND(Org1.peer, OR(Org2.peer, Org3.peer))")
        assert node.msp_ids() == {"Org1", "Org2", "Org3"}

    def test_case_insensitive_combinators(self):
        assert parse_policy("and(Org1.peer, Org2.peer)").n == 2
        assert parse_policy("or(Org1.peer, Org2.peer)").n == 1

    def test_roundtrip_str(self):
        text = "AND('Org1MSP.peer', 'Org2MSP.peer')"
        assert str(parse_policy(text)) == text

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "AND()",
            "AND(Org1.peer",
            "Org1",
            "Org1.wizard",
            "OutOf(5, Org1.peer, Org2.peer)",
            "XOR(Org1.peer, Org2.peer)",
            "AND(Org1.peer,) extra",
            "OutOf(x, Org1.peer)",
        ],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(PolicyError):
            parse_policy(bad)

    def test_threshold_bounds_enforced(self):
        with pytest.raises(ValueError):
            NOutOf(n=3, children=(Principal("A", Role.PEER),))


class TestImplicitMeta:
    def test_parse(self):
        policy = parse_implicit_meta("MAJORITY Endorsement")
        assert policy.rule == "MAJORITY" and policy.sub_policy == "Endorsement"

    def test_is_implicit_meta(self):
        assert is_implicit_meta("ANY Endorsement")
        assert is_implicit_meta("majority Endorsement")
        assert not is_implicit_meta("AND(Org1.peer)")

    def test_bad_rule_rejected(self):
        with pytest.raises(PolicyError):
            parse_implicit_meta("SOME Endorsement")
        with pytest.raises(PolicyError):
            ImplicitMetaPolicy(rule="MOST", sub_policy="Endorsement")

    @pytest.mark.parametrize(
        "n,expected", [(1, 1), (2, 2), (3, 2), (4, 3), (5, 3), (6, 4), (7, 4), (10, 6)]
    )
    def test_majority_threshold_eq1(self, n, expected):
        """Eq. (1): strict majority — floor(n/2) + 1."""
        assert majority_threshold(n) == expected

    def test_majority_of_zero_rejected(self):
        with pytest.raises(PolicyError):
            majority_threshold(0)

    def test_thresholds_per_rule(self):
        assert ImplicitMetaPolicy("ANY", "Endorsement").threshold(5) == 1
        assert ImplicitMetaPolicy("ALL", "Endorsement").threshold(5) == 5
        assert ImplicitMetaPolicy("MAJORITY", "Endorsement").threshold(5) == 3

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(min_value=1, max_value=1000))
    def test_majority_is_smallest_strict_majority(self, n):
        t = majority_threshold(n)
        assert t / n > 0.5
        assert (t - 1) / n <= 0.5


def _make_evaluator(org_count=3):
    orgs = [Organization(f"Org{i}MSP") for i in range(1, org_count + 1)]
    registry = MSPRegistry()
    for org in orgs:
        registry.register(org.ca)
    sub_policies = {
        org.msp_id: or_(Principal(org.msp_id, Role.PEER)) for org in orgs
    }
    return PolicyEvaluator(registry, sub_policies), orgs


class TestEvaluation:
    def test_fresh_evaluators_share_one_parse(self, monkeypatch):
        """A policy text is parsed once per process, not once per evaluator."""
        from repro.common import crypto
        from repro.policy import evaluator as evaluator_module

        crypto.clear_caches()
        calls = []
        real = evaluator_module.parse_policy

        def counted(text):
            calls.append(text)
            return real(text)

        monkeypatch.setattr(evaluator_module, "parse_policy", counted)
        policy = "OR('Org1MSP.peer', 'Org3MSP.peer')"
        peer = Organization("Org1MSP").enroll_peer().certificate
        for _ in range(2):
            evaluator, _orgs = _make_evaluator()
            evaluator.evaluate(policy, [peer])
        assert calls == [policy]

    def test_shared_parse_keeps_per_channel_implicit_meta(self):
        """ImplicitMeta still resolves against each evaluator's own orgs."""
        two, orgs2 = _make_evaluator(org_count=2)
        four, orgs4 = _make_evaluator(org_count=4)
        signers2 = [o.enroll_peer().certificate for o in orgs2[:2]]
        signers4 = [o.enroll_peer().certificate for o in orgs4[:2]]
        assert two.evaluate("MAJORITY Endorsement", signers2)
        assert not four.evaluate("MAJORITY Endorsement", signers4)

    def test_and_requires_both_orgs(self):
        evaluator, orgs = _make_evaluator()
        policy = "AND('Org1MSP.peer', 'Org2MSP.peer')"
        p1 = orgs[0].enroll_peer().certificate
        p2 = orgs[1].enroll_peer().certificate
        p3 = orgs[2].enroll_peer().certificate
        assert evaluator.evaluate(policy, [p1, p2])
        assert not evaluator.evaluate(policy, [p1, p3])
        assert not evaluator.evaluate(policy, [p1])

    def test_or_any_suffices(self):
        evaluator, orgs = _make_evaluator()
        policy = "OR('Org1MSP.peer', 'Org2MSP.peer')"
        assert evaluator.evaluate(policy, [orgs[1].enroll_peer().certificate])
        assert not evaluator.evaluate(policy, [orgs[2].enroll_peer().certificate])

    def test_outof_two_of_three(self):
        evaluator, orgs = _make_evaluator()
        policy = "OutOf(2, 'Org1MSP.peer', 'Org2MSP.peer', 'Org3MSP.peer')"
        certs = [org.enroll_peer().certificate for org in orgs]
        assert evaluator.evaluate(policy, certs[:2])
        assert evaluator.evaluate(policy, certs[1:])
        assert not evaluator.evaluate(policy, certs[:1])

    def test_majority_endorsement_three_orgs(self):
        """MAJORITY of 3 orgs = 2 orgs, any peer each (Eq. 1 semantics)."""
        evaluator, orgs = _make_evaluator()
        certs = [org.enroll_peer().certificate for org in orgs]
        assert evaluator.evaluate("MAJORITY Endorsement", certs[:2])
        assert evaluator.evaluate("MAJORITY Endorsement", [certs[0], certs[2]])
        assert not evaluator.evaluate("MAJORITY Endorsement", certs[:1])

    def test_majority_counts_orgs_not_signatures(self):
        """Two peers of the same org satisfy only that org's sub-policy."""
        evaluator, orgs = _make_evaluator()
        peer_a = orgs[0].enroll_peer("peerA").certificate
        peer_b = orgs[0].enroll_peer("peerB").certificate
        assert not evaluator.evaluate("MAJORITY Endorsement", [peer_a, peer_b])

    def test_client_cannot_satisfy_peer_principal(self):
        evaluator, orgs = _make_evaluator()
        client = orgs[0].enroll_client().certificate
        assert not evaluator.evaluate("OR('Org1MSP.peer')", [client])
        assert evaluator.evaluate("OR('Org1MSP.member')", [client])

    def test_unregistered_org_certificate_never_satisfies(self):
        evaluator, _orgs = _make_evaluator()
        outsider = Organization("MalloryMSP").enroll_peer().certificate
        assert not evaluator.evaluate("OR('MalloryMSP.peer')", [outsider])

    def test_evaluate_ast_nodes_directly(self):
        evaluator, orgs = _make_evaluator()
        node = out_of(1, Principal("Org3MSP", Role.PEER))
        assert evaluator.evaluate(node, [orgs[2].enroll_peer().certificate])

    def test_resolve_caches_strings(self):
        evaluator, _ = _make_evaluator()
        first = evaluator.resolve("MAJORITY Endorsement")
        second = evaluator.resolve("MAJORITY Endorsement")
        assert first is second

    def test_empty_signers_fail_everything(self):
        evaluator, _ = _make_evaluator()
        assert not evaluator.evaluate("OR('Org1MSP.peer')", [])
        assert not evaluator.evaluate("MAJORITY Endorsement", [])

    def test_and_or_constructors(self):
        a, b = Principal("A", Role.PEER), Principal("B", Role.PEER)
        assert and_(a, b).n == 2
        assert or_(a, b).n == 1
        assert out_of(1, a, b).n == 1


class TestNOutOfProperty:
    @settings(max_examples=50, deadline=None)
    @given(
        total=st.integers(min_value=1, max_value=6),
        threshold_frac=st.floats(min_value=0, max_value=1),
        signer_count=st.integers(min_value=0, max_value=6),
    )
    def test_noutof_matches_counting(self, total, threshold_frac, signer_count):
        """NOutOf over distinct org principals == counting distinct orgs."""
        evaluator, orgs = _make_evaluator(org_count=6)
        threshold = max(1, min(total, int(round(threshold_frac * total)) or 1))
        principals = ", ".join(f"'Org{i}MSP.peer'" for i in range(1, total + 1))
        policy = f"OutOf({threshold}, {principals})"
        signers = [
            orgs[i].enroll_peer().certificate for i in range(min(signer_count, 6))
        ]
        covered = sum(1 for i in range(total) if i < len(signers))
        assert evaluator.evaluate(policy, signers) == (covered >= threshold)
