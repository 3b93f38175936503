"""Tests for the §IV-A5 collusion analysis (51% vs NOutOf)."""

from __future__ import annotations

from repro.core.attacks import analyze_collusion, minimum_satisfying_orgs
from repro.network.presets import five_org_network, three_org_network


class TestMajorityCollusion:
    def test_three_org_majority_needs_two(self):
        net = three_org_network()
        report = analyze_collusion(net.network.channel, "pdccc", "PDC1")
        assert report.minimum_orgs == 2
        assert report.minimum_orgs > 3 / 2  # needs a majority of the orgs

    def test_nonmembers_alone_insufficient_under_majority_of_three(self):
        """Only org3 is a non-member; MAJORITY of 3 needs 2 orgs."""
        net = three_org_network()
        report = analyze_collusion(net.network.channel, "pdccc", "PDC1")
        assert report.nonmember_orgs == ("Org3MSP",)
        assert not report.nonmember_only_possible

    def test_member_sets_reported(self):
        net = three_org_network()
        report = analyze_collusion(net.network.channel, "pdccc", "PDC1")
        assert report.member_orgs == ("Org1MSP", "Org2MSP")


class TestNOutOfCollusion:
    def test_paper_example_nonmembers_suffice(self):
        """§IV-A5: 2OutOf(org1..org5) with members {org1,org2} — any two
        of the three non-members satisfy the policy alone."""
        net = five_org_network()
        report = analyze_collusion(net.network.channel, "pdccc", "PDC1")
        assert report.minimum_orgs == 2
        assert report.nonmember_only_possible
        assert report.minimum_nonmember_orgs == 2
        assert set(report.minimum_nonmember_set) <= {"Org3MSP", "Org4MSP", "Org5MSP"}
        assert report.minimum_orgs <= 5 / 2  # 2 of 5 < 51%

    def test_summary_flags_zero_insider_case(self):
        net = five_org_network()
        report = analyze_collusion(net.network.channel, "pdccc", "PDC1")
        assert "NON-MEMBERS ALONE SUFFICE" in report.summary()

    def test_majority_summary_has_no_nonmember_line(self):
        net = three_org_network()
        report = analyze_collusion(net.network.channel, "pdccc", "PDC1")
        assert "cannot satisfy" in report.summary()


class TestMinimumSatisfyingOrgs:
    def test_and_policy_needs_named_orgs(self):
        net = three_org_network()
        channel = net.network.channel
        subset = minimum_satisfying_orgs(
            channel.evaluator(),
            "AND('Org1MSP.peer', 'Org2MSP.peer')",
            channel,
            channel.msp_ids(),
        )
        assert subset == ("Org1MSP", "Org2MSP")

    def test_unsatisfiable_returns_none(self):
        net = three_org_network()
        channel = net.network.channel
        subset = minimum_satisfying_orgs(
            channel.evaluator(),
            "AND('Org1MSP.peer', 'Org2MSP.peer')",
            channel,
            ["Org3MSP"],
        )
        assert subset is None

    def test_or_policy_needs_one(self):
        net = three_org_network()
        channel = net.network.channel
        subset = minimum_satisfying_orgs(
            channel.evaluator(),
            "OR('Org1MSP.peer', 'Org3MSP.peer')",
            channel,
            channel.msp_ids(),
        )
        assert subset is not None and len(subset) == 1
