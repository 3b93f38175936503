"""Tests for the gateway's conflict-retry helper."""

from __future__ import annotations

from repro.protocol.transaction import ValidationCode


class TestSubmitWithRetry:
    def _seed(self, network):
        client = network.client("Org1MSP")
        endorsers = [network.peers_of("Org1MSP")[0], network.peers_of("Org2MSP")[0]]
        client.submit_transaction(
            "pdccc", "set_private", ["PDC1", "n"],
            transient={"value": b"10"}, endorsing_peers=endorsers,
        ).raise_for_status()
        return client, endorsers

    def test_no_conflict_single_attempt(self, network):
        client, endorsers = self._seed(network)
        result = client.submit_with_retry(
            "pdccc", "add_private", ["PDC1", "n", "1"], endorsing_peers=endorsers
        )
        assert result.committed

    def test_retry_recovers_from_conflict(self, network):
        """A conflicting tx is injected between endorsement and submit on
        the first attempt; the retry re-simulates and wins."""
        client, endorsers = self._seed(network)

        # Sabotage exactly one endorsement round: after the first
        # endorsement collection, bump the key so the first submit fails.
        original_request = network.request_endorsement
        state = {"sabotaged": False}

        def sabotaging(peer, proposal):
            output = original_request(peer, proposal)
            if not state["sabotaged"] and proposal.function == "add_private" \
                    and peer.msp_id == "Org2MSP":
                state["sabotaged"] = True
                network.request_endorsement = original_request
                saboteur = network.client("Org2MSP")
                saboteur.submit_transaction(
                    "pdccc", "set_private", ["PDC1", "n"],
                    transient={"value": b"10"}, endorsing_peers=endorsers,
                ).raise_for_status()
            return output

        network.request_endorsement = sabotaging
        result = client.submit_with_retry(
            "pdccc", "add_private", ["PDC1", "n", "5"], endorsing_peers=endorsers
        )
        assert result.committed
        assert network.peers_of("Org1MSP")[0].query_private("pdccc", "PDC1", "n") == b"15"

    def test_policy_failures_not_retried(self, network):
        client, _ = self._seed(network)
        calls = {"n": 0}
        original = network.request_endorsement

        def counting(peer, proposal):
            calls["n"] += 1
            return original(peer, proposal)

        network.request_endorsement = counting
        result = client.submit_with_retry(
            "pdccc", "set_private", ["PDC1", "x"],
            transient={"value": b"1"},
            endorsing_peers=[network.peers_of("Org1MSP")[0]],
            max_attempts=3,
        )
        assert result.status is ValidationCode.ENDORSEMENT_POLICY_FAILURE
        assert calls["n"] == 1  # exactly one endorsement round: no retry

    def test_gives_up_after_max_attempts(self, network):
        """Perpetual contention: retry returns the last conflicted result."""
        client, endorsers = self._seed(network)
        original = network.submit_envelope_async

        def always_preempt(envelope, client_payload=b""):
            if envelope.function == "add_private":
                saboteur = network.client("Org2MSP")
                saboteur.submit_transaction(
                    "pdccc", "set_private", ["PDC1", "n"],
                    transient={"value": b"10"}, endorsing_peers=endorsers,
                ).raise_for_status()
            return original(envelope, client_payload)

        network.submit_envelope_async = always_preempt
        result = client.submit_with_retry(
            "pdccc", "add_private", ["PDC1", "n", "5"],
            endorsing_peers=endorsers, max_attempts=2,
        )
        # Under conflict-aware ordering the orderer delivers the same
        # verdict before the doomed attempt occupies chain space.
        assert result.status in (
            ValidationCode.MVCC_READ_CONFLICT,
            ValidationCode.ORDERER_EARLY_ABORT,
        )
