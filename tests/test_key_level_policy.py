"""Tests for key-level (state-based) endorsement policies.

This is the mechanism of ``validator_keylevel.go`` — the source file the
paper cites for its Use Case 2 analysis.  Once a key carries a validation
parameter, writes to it are validated against that policy instead of the
chaincode-level policy; *reads remain governed by the chaincode-level
policy only*, the same asymmetry the PDC fake-read attack exploits.
"""

from __future__ import annotations

from itertools import combinations

import pytest

from repro.common.errors import EndorsementError
from repro.common.tracing import PERF
from repro.peer.validator import Validator
from repro.policy.planner import applied_policies_satisfied
from repro.protocol.transaction import ValidationCode

KEY_POLICY = "AND('Org1MSP.peer', 'Org2MSP.peer')"


@pytest.fixture
def secured(public_network):
    """An asset with a key-level AND(org1, org2) policy committed."""
    client = public_network.client("Org1MSP")
    endorsers = [
        public_network.peers_of("Org1MSP")[0],
        public_network.peers_of("Org2MSP")[0],
    ]
    client.submit_transaction(
        "assetcc", "create_asset", ["gold", "100"], endorsing_peers=endorsers
    ).raise_for_status()
    client.submit_transaction(
        "assetcc", "set_asset_policy", ["gold", KEY_POLICY], endorsing_peers=endorsers
    ).raise_for_status()
    return public_network, client, endorsers


class TestSettingPolicies:
    def test_policy_committed_and_readable(self, secured):
        net, client, _ = secured
        policy = client.evaluate_transaction("assetcc", "get_asset_policy", ["gold"])
        assert policy.decode() == KEY_POLICY
        peer = net.peers_of("Org3MSP")[0]
        assert peer.ledger.world_state.get_validation_parameter(
            "assetcc", "asset:gold"
        ) == KEY_POLICY.encode()

    def test_policy_on_missing_key_rejected(self, public_network):
        client = public_network.client("Org1MSP")
        with pytest.raises(EndorsementError, match="not found"):
            client.evaluate_transaction(
                "assetcc", "set_asset_policy", ["ghost", KEY_POLICY]
            )

    def test_malformed_policy_rejected_at_simulation(self, secured):
        _, client, _ = secured
        with pytest.raises(EndorsementError):
            client.evaluate_transaction(
                "assetcc", "set_asset_policy", ["gold", "NOT A POLICY(("]
            )

    def test_unset_policy_reads_empty(self, public_network):
        client = public_network.client("Org1MSP")
        endorsers = public_network.default_endorsers()[:2]
        client.submit_transaction(
            "assetcc", "create_asset", ["plain", "1"], endorsing_peers=endorsers
        ).raise_for_status()
        assert client.evaluate_transaction("assetcc", "get_asset_policy", ["plain"]) == b""


class TestKeyLevelValidation:
    def test_write_satisfying_key_policy_commits(self, secured):
        net, client, endorsers = secured
        client.submit_transaction(
            "assetcc", "update_asset", ["gold", "200"], endorsing_peers=endorsers
        ).raise_for_status()
        assert net.peers_of("Org3MSP")[0].query_public("assetcc", "asset:gold") == b"200"

    def test_write_violating_key_policy_rejected(self, secured):
        """org1 + org3 satisfy MAJORITY but NOT the key-level AND(org1,org2)."""
        net, client, _ = secured
        wrong_endorsers = [net.peers_of("Org1MSP")[0], net.peers_of("Org3MSP")[0]]
        result = client.submit_transaction(
            "assetcc", "update_asset", ["gold", "1"], endorsing_peers=wrong_endorsers
        )
        assert result.status is ValidationCode.ENDORSEMENT_POLICY_FAILURE
        assert net.peers_of("Org2MSP")[0].query_public("assetcc", "asset:gold") == b"100"

    def test_delete_also_governed_by_key_policy(self, secured):
        net, client, _ = secured
        wrong_endorsers = [net.peers_of("Org2MSP")[0], net.peers_of("Org3MSP")[0]]
        result = client.submit_transaction(
            "assetcc", "delete_asset", ["gold"], endorsing_peers=wrong_endorsers
        )
        assert result.status is ValidationCode.ENDORSEMENT_POLICY_FAILURE

    def test_policy_change_requires_current_policy(self, secured):
        """Re-pointing the key's policy needs the CURRENT key policy."""
        net, client, _ = secured
        takeover = [net.peers_of("Org1MSP")[0], net.peers_of("Org3MSP")[0]]
        result = client.submit_transaction(
            "assetcc", "set_asset_policy", ["gold", "OR('Org3MSP.peer')"],
            endorsing_peers=takeover,
        )
        assert result.status is ValidationCode.ENDORSEMENT_POLICY_FAILURE

    def test_policy_handover(self, secured):
        """A properly endorsed policy change takes effect for later writes."""
        net, client, endorsers = secured
        client.submit_transaction(
            "assetcc", "set_asset_policy", ["gold", "OR('Org3MSP.peer')"],
            endorsing_peers=endorsers,
        ).raise_for_status()
        # Now org3 alone suffices for gold, chaincode MAJORITY is bypassed.
        result = client.submit_transaction(
            "assetcc", "update_asset", ["gold", "300"],
            endorsing_peers=[net.peers_of("Org3MSP")[0]],
        )
        assert result.status is ValidationCode.VALID

    def test_reads_still_use_chaincode_policy_only(self, secured):
        """The Use Case 2 asymmetry, key-level edition: a read-only tx on a
        key with an AND(org1,org2) key policy validates with ANY majority —
        the key-level policy is never consulted for reads."""
        net, client, _ = secured
        endorsers = [net.peers_of("Org1MSP")[0], net.peers_of("Org3MSP")[0]]
        result = client.submit_transaction(
            "assetcc", "read_asset", ["gold"], endorsing_peers=endorsers
        )
        assert result.status is ValidationCode.VALID

    def test_uncovered_writes_still_need_chaincode_policy(self, secured):
        """A tx writing a secured key AND a plain key needs both policies."""
        net, client, _ = secured
        # transfer gold -> silver: writes (delete) gold [key policy] and
        # silver [no policy -> chaincode MAJORITY]. Endorsed by org1+org2:
        # satisfies both.
        endorsers = [net.peers_of("Org1MSP")[0], net.peers_of("Org2MSP")[0]]
        client.submit_transaction(
            "assetcc", "transfer_asset", ["gold", "silver"], endorsing_peers=endorsers
        ).raise_for_status()
        assert net.peers_of("Org3MSP")[0].query_public("assetcc", "asset:silver") == b"100"

    def test_metadata_write_makes_tx_not_read_only(self, secured):
        net, client, endorsers = secured
        proposal = client._proposal("assetcc", "set_asset_policy", ["gold", KEY_POLICY])
        output = net.request_endorsement(endorsers[0], proposal)
        assert not output.response.payload.results.is_read_only


class TestPlanPathReadsKeyPolicies:
    def test_plan_escalates_until_the_key_policy_is_met(self, secured):
        """The plan's opening wave {org1, org3} meets the chaincode MAJORITY
        but not gold's AND(org1, org2): the early-quorum test reads the key
        policy from the first responder's state and escalates to org2."""
        net, client, _ = secured
        pool = [net.peers_of(f"Org{i}MSP")[0] for i in (1, 3, 2)]
        before = PERF.snapshot()
        result = client.submit_transaction(
            "assetcc", "update_asset", ["gold", "200"],
            endorsing_peers=pool, endorsement_plan=True,
        )
        assert result.status is ValidationCode.VALID
        assert len(result.envelope.endorsements) == 3
        assert PERF.delta_since(before).get("plan_escalations") == 1


# Every endorsing-org subset, in a fixed order.
SUBSETS = [
    orgs
    for size in (1, 2, 3)
    for orgs in combinations(("Org1MSP", "Org2MSP", "Org3MSP"), size)
]


class TestOracleAgreesWithValidator:
    """The spec-level oracle against the production validator, row by row.

    For each transaction shape and every subset of endorsing orgs, the
    oracle — fed the first endorser's committed state — and a memo-free
    ``Validator`` must give the same endorsement verdict.
    """

    ROWS = {
        "governed public write": ("update_asset", ["gold", "7"]),
        "governed metadata write": ("set_asset_policy", ["gold", "OR('Org3MSP.peer')"]),
        "governed and ungoverned writes": ("transfer_asset", ["gold", "silver"]),
        "ungoverned public write": ("update_asset", ["plain", "7"]),
        "read of a governed key": ("read_asset", ["gold"]),
    }

    @pytest.mark.parametrize("row", sorted(ROWS))
    def test_verdicts_agree_on_every_endorser_subset(self, secured, row):
        net, client, _ = secured
        client.submit_transaction(
            "assetcc", "create_asset", ["plain", "1"],
            endorsing_peers=net.default_endorsers()[:2],
        ).raise_for_status()
        function, args = self.ROWS[row]
        validator = Validator(net.channel, net.features, use_shared_memo=False)
        verdicts = []
        for orgs in SUBSETS:
            peers = [net.peers_of(org)[0] for org in orgs]
            proposal = client._proposal("assetcc", function, args)
            responses = [net.request_endorsement(p, proposal).response for p in peers]
            envelope = client.assemble(proposal, responses)
            oracle = applied_policies_satisfied(
                net.channel, net.features, "assetcc",
                [r.endorsement.endorser for r in responses],
                responses[0].payload,
                peers[0].ledger.world_state.get_validation_parameter,
            )
            flag = validator.flags_for([envelope], peers[0].ledger)[0]
            assert flag in (ValidationCode.VALID, ValidationCode.ENDORSEMENT_POLICY_FAILURE)
            assert oracle == (flag is ValidationCode.VALID), (row, orgs)
            verdicts.append(oracle)
        # Each row separates the subsets: some pass, some fail.
        assert True in verdicts and False in verdicts
        if row.startswith("governed"):
            # MAJORITY holds for {org1, org3}; the key policy does not.
            assert not verdicts[SUBSETS.index(("Org1MSP", "Org3MSP"))]
