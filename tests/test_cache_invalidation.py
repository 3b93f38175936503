"""Cache-invalidation regressions across layers.

Pins the behaviours that keep the process-wide caches sound: the
endorser simulation cache must drop on any ledger height change, and
``crypto.clear_caches()`` — *the* test/bench isolation hook — must reach
every cache in the process through the clearer registry: the verify
memo, the decoded keys, the proposal-serialization memos (epoch bump),
and the endorsers' simulation caches.
"""

from __future__ import annotations

from repro.common import crypto, serialization
from repro.common.tracing import PERF
from repro.peer import endorser as endorser_mod
from repro.protocol.proposal import Proposal


class TestSimCacheHeightInvalidation:
    def _warm_query(self, network, peer):
        client = network.client("Org1MSP")
        return client.evaluate_transaction(
            "pdccc", "get_private", ["PDC1", "k"], peer=peer
        )

    def _seed_value(self, network, value=b"42"):
        client = network.client("Org1MSP")
        p1 = network.peers_of("Org1MSP")[0]
        p2 = network.peers_of("Org2MSP")[0]
        client.submit_transaction(
            "pdccc", "set_private", ["PDC1", "k"],
            transient={"value": value}, endorsing_peers=[p1, p2],
        ).raise_for_status()
        return p1

    def test_repeat_query_hits_cache_at_same_height(self, network):
        peer = self._seed_value(network)
        assert self._warm_query(network, peer) == b"42"
        hits_before = PERF.endorse_cache_hits
        assert self._warm_query(network, peer) == b"42"
        assert PERF.endorse_cache_hits == hits_before + 1
        assert peer._endorser._sim_cache_height == peer.ledger.height

    def test_commit_invalidates_cached_simulation(self, network):
        peer = self._seed_value(network)
        assert self._warm_query(network, peer) == b"42"
        assert peer._endorser._sim_cache
        # A commit moves the ledger height; the stale read result must
        # not survive it — the next query re-simulates against new state.
        self._seed_value(network, value=b"43")
        hits_before = PERF.endorse_cache_hits
        assert self._warm_query(network, peer) == b"43"
        assert PERF.endorse_cache_hits == hits_before
        assert peer._endorser._sim_cache_height == peer.ledger.height


class TestClearCachesRegistry:
    def test_clear_caches_bumps_serialization_epoch(self, network):
        epoch = serialization.memo_epoch()
        client = network.client("Org1MSP")
        proposal = client._proposal("pdccc", "get_private", ["PDC1", "k"])
        first = proposal.header_bytes()
        assert proposal.header_bytes() is first  # memoized at this epoch
        crypto.clear_caches()
        assert serialization.memo_epoch() == epoch + 1
        again = proposal.header_bytes()
        assert again is not first  # memo dropped, recomputed...
        assert again == first      # ...to identical bytes

    def test_clear_caches_reaches_endorser_sim_caches(self, network):
        client = network.client("Org1MSP")
        peer = network.peers_of("Org1MSP")[0]
        p2 = network.peers_of("Org2MSP")[0]
        client.submit_transaction(
            "pdccc", "set_private", ["PDC1", "k"],
            transient={"value": b"9"}, endorsing_peers=[peer, p2],
        ).raise_for_status()
        client.evaluate_transaction("pdccc", "get_private", ["PDC1", "k"], peer=peer)
        assert peer._endorser._sim_cache
        crypto.clear_caches()
        for node in network.peers():
            assert node._endorser._sim_cache == {}
            assert node._endorser._sim_cache_height == -1

    def test_clear_caches_still_clears_crypto_local_caches(self):
        private, public = crypto.generate_keypair(b"clear-all")
        message = b"m"
        signature = private.sign(message)
        assert public.verify(message, signature)
        assert crypto._VERIFY_CACHE
        crypto.clear_caches()
        assert not crypto._VERIFY_CACHE

    def test_clearer_registration_is_idempotent(self):
        before = len(crypto._CACHE_CLEARERS)
        crypto.register_cache_clearer(endorser_mod.clear_simulation_caches)
        crypto.register_cache_clearer(serialization.clear_serialization_memos)
        assert len(crypto._CACHE_CLEARERS) == before

    def test_dead_endorsers_drop_out_of_the_registry(self, channel):
        import gc

        from repro.chaincode.contracts import PrivateAssetContract
        from repro.network.network import FabricNetwork

        # Prior tests' networks may sit in cycle-trapped garbage; sweep
        # them first so the baseline only counts genuinely live endorsers.
        gc.collect()
        live_before = len(endorser_mod._LIVE_ENDORSERS)
        net = FabricNetwork(channel=channel)
        for org in channel.organizations:
            net.add_peer(org.msp_id)
        net.install_chaincode("pdccc", PrivateAssetContract())
        assert len(endorser_mod._LIVE_ENDORSERS) == live_before + 3
        del net
        gc.collect()
        assert len(endorser_mod._LIVE_ENDORSERS) == live_before
