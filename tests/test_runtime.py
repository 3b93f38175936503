"""Tests for the event-driven transaction runtime.

Covers the scheduler/bus primitives, the pipelined submit → order →
deliver flow (many transactions in flight, blocks cut by size *and*
timeout), seed-reproducibility of whole runs, concurrent MVCC conflicts,
and gossip-vs-delivery races under fault injection.
"""

from __future__ import annotations

import pytest

from repro.chaincode.contracts import AssetContract, PrivateAssetContract
from repro.common.errors import ConfigError, SchedulerError
from repro.identity.ca import reset_ca_instance_counter
from repro.identity.organization import Organization
from repro.network.channel import ChannelConfig
from repro.network.collection import CollectionConfig
from repro.network.network import FabricNetwork
from repro.network.presets import three_org_network
from repro.orderer.block_cutter import BlockCutter
from repro.protocol.proposal import reset_nonce_counter
from repro.protocol.transaction import ValidationCode
from repro.runtime import (
    EventScheduler,
    FaultInjector,
    LatencyModel,
    MessageBus,
    TransactionRuntime,
    ValidationCostModel,
)


# ---------------------------------------------------------------------------
# scheduler
# ---------------------------------------------------------------------------
class TestEventScheduler:
    def test_runs_in_time_order(self):
        scheduler = EventScheduler()
        order = []
        scheduler.call_later(3.0, lambda: order.append("c"))
        scheduler.call_later(1.0, lambda: order.append("a"))
        scheduler.call_later(2.0, lambda: order.append("b"))
        scheduler.run()
        assert order == ["a", "b", "c"]
        assert scheduler.now == 3.0

    def test_ties_break_in_schedule_order(self):
        scheduler = EventScheduler()
        order = []
        for tag in "abc":
            scheduler.call_later(1.0, lambda t=tag: order.append(t))
        scheduler.run()
        assert order == ["a", "b", "c"]

    def test_priority_beats_sequence_at_same_time(self):
        scheduler = EventScheduler()
        order = []
        scheduler.call_later(1.0, lambda: order.append("late"), priority=1)
        scheduler.call_later(1.0, lambda: order.append("early"), priority=0)
        scheduler.run()
        assert order == ["early", "late"]

    def test_cancel(self):
        scheduler = EventScheduler()
        fired = []
        event = scheduler.call_later(1.0, lambda: fired.append(1))
        event.cancel()
        scheduler.run()
        assert fired == []
        assert scheduler.pending_events() == 0

    def test_cannot_schedule_into_past(self):
        scheduler = EventScheduler()
        scheduler.call_later(5.0, lambda: None)
        scheduler.run()
        with pytest.raises(SchedulerError):
            scheduler.call_at(1.0, lambda: None)
        with pytest.raises(SchedulerError):
            scheduler.call_later(-1.0, lambda: None)

    def test_run_until_reports_drained_queue(self):
        scheduler = EventScheduler()
        scheduler.call_later(1.0, lambda: None)
        assert scheduler.run_until(lambda: False) is False

    def test_run_for_advances_clock_to_deadline(self):
        scheduler = EventScheduler()
        fired = []
        scheduler.call_later(1.0, lambda: fired.append(1))
        scheduler.call_later(10.0, lambda: fired.append(2))
        scheduler.run_for(5.0)
        assert fired == [1]
        assert scheduler.now == 5.0

    def test_event_budget(self):
        scheduler = EventScheduler()

        def reschedule():
            scheduler.call_later(1.0, reschedule)

        scheduler.call_later(1.0, reschedule)
        with pytest.raises(SchedulerError):
            scheduler.run(max_events=100)

    def test_seeded_rng_reproducible(self):
        draws_a = [EventScheduler(seed=9).random.random() for _ in range(1)]
        draws_b = [EventScheduler(seed=9).random.random() for _ in range(1)]
        assert draws_a == draws_b


# ---------------------------------------------------------------------------
# bus + faults
# ---------------------------------------------------------------------------
class TestMessageBus:
    def _bus(self, **kwargs):
        scheduler = EventScheduler(seed=1)
        return scheduler, MessageBus(scheduler, **kwargs)

    def test_delivers_with_latency(self):
        scheduler, bus = self._bus(latency=LatencyModel(base=2.0))
        seen = []
        bus.register("dst", lambda m: seen.append((scheduler.now, m.payload)))
        bus.send("src", "dst", "t", "hello")
        scheduler.run()
        assert seen == [(2.0, "hello")]

    def test_unknown_endpoint_rejected(self):
        _, bus = self._bus()
        with pytest.raises(ConfigError):
            bus.send("src", "nowhere", "t", None)
        bus.register("a", lambda m: None)
        with pytest.raises(ConfigError):
            bus.register("a", lambda m: None)

    def test_per_link_fifo_under_jitter(self):
        scheduler, bus = self._bus(latency=LatencyModel(base=1.0, jitter=0.9))
        seen = []
        bus.register("dst", lambda m: seen.append(m.payload))
        for i in range(20):
            bus.send("src", "dst", "t", i)
        scheduler.run()
        assert seen == list(range(20))

    def test_topic_latency_override(self):
        scheduler, bus = self._bus(
            latency=LatencyModel(base=1.0, topic_base={"slow": 9.0})
        )
        seen = []
        bus.register("dst", lambda m: seen.append(m.topic))
        bus.send("a", "dst", "slow", None)
        bus.send("b", "dst", "fast", None)
        scheduler.run()
        assert seen == ["fast", "slow"]

    def test_fault_drop_topic(self):
        faults = FaultInjector()
        faults.drop_topic("gossip-batch")
        scheduler, bus = self._bus(faults=faults)
        seen = []
        bus.register("dst", lambda m: seen.append(m.topic))
        assert bus.send("a", "dst", "gossip-batch", None) is None
        bus.send("a", "dst", "deliver-block", None)
        scheduler.run()
        assert seen == ["deliver-block"]
        assert faults.dropped == 1
        assert bus.messages_dropped == 1

    def test_fault_cut_link(self):
        faults = FaultInjector()
        faults.cut_link("a", "dst")
        scheduler, bus = self._bus(faults=faults)
        seen = []
        bus.register("dst", lambda m: seen.append(m.src))
        bus.send("a", "dst", "t", None)
        bus.send("b", "dst", "t", None)
        faults.restore_link("a", "dst")
        bus.send("a", "dst", "t", None)
        scheduler.run()
        assert seen == ["b", "a"]

    def test_random_drops_are_seeded(self):
        def run(seed):
            scheduler = EventScheduler(seed=seed)
            bus = MessageBus(scheduler, faults=FaultInjector(drop_rate=0.5))
            seen = []
            bus.register("dst", lambda m: seen.append(m.payload))
            for i in range(30):
                bus.send("src", "dst", "t", i)
            scheduler.run()
            return seen

        assert run(5) == run(5)
        assert run(5) != run(6)  # 2^-30 chance of false failure


# ---------------------------------------------------------------------------
# pipelined end-to-end flow
# ---------------------------------------------------------------------------
def _public_network(batch_size: int) -> FabricNetwork:
    """A cheap two-org network: single-endorser policy, public chaincode."""
    orgs = [Organization("Org1MSP"), Organization("Org2MSP")]
    channel = ChannelConfig(channel_id="runtimechan", organizations=orgs)
    channel.deploy_chaincode(
        "assetcc", endorsement_policy="OR('Org1MSP.member', 'Org2MSP.member')"
    )
    net = FabricNetwork(channel=channel, batch_size=batch_size)
    for org in orgs:
        net.add_peer(org.msp_id)
    net.install_chaincode("assetcc", AssetContract())
    return net


def _chain_shape(net: FabricNetwork) -> list[tuple[list[str], list[str]]]:
    """(tx ids, flags) per block on the first peer's chain."""
    peer = net.peers()[0]
    return [
        ([tx.tx_id for tx in v.block.transactions], [f.value for f in v.flags])
        for v in peer.ledger.blockchain.blocks()
    ]


class TestPipelinedRuntime:
    BATCH = 25
    LOAD = 100

    def _pipelined_run(self, seed: int) -> tuple[FabricNetwork, list, list]:
        """Submit LOAD txs before any block is cut, then drain."""
        reset_nonce_counter()
        reset_ca_instance_counter()
        net = _public_network(batch_size=self.BATCH)
        runtime = net.attach_runtime(
            seed=seed, latency=LatencyModel(base=1.0, jitter=0.25)
        )
        client = net.client("Org1MSP")
        endorser = [net.peers()[0]]
        pendings = [
            client.submit_async("assetcc", "create_asset", [f"a{i:03d}", "1"],
                                endorsing_peers=endorser)
            for i in range(self.LOAD)
        ]
        assert net.orderer.blocks_delivered == 0  # nothing cut yet
        assert runtime.in_flight() == self.LOAD
        runtime.run()
        return net, pendings, _chain_shape(net)

    def test_hundred_in_flight_all_commit_batched(self):
        net, pendings, shape = self._pipelined_run(seed=11)
        assert all(p.done for p in pendings)
        assert all(p.result().status is ValidationCode.VALID for p in pendings)
        # Block count reflects batch-size cutting, not one block per tx.
        assert net.orderer.blocks_delivered == self.LOAD // self.BATCH
        assert [len(txs) for txs, _ in shape] == [self.BATCH] * (self.LOAD // self.BATCH)
        # Every peer converged on the same chain.
        for peer in net.peers():
            assert peer.valid_tx_count == self.LOAD
            assert peer.blocks_committed == self.LOAD // self.BATCH

    def test_depth_one_cuts_one_block_per_tx(self):
        """One tx in flight at a time: each waits out the batch timer
        alone, so blocks equal transactions however large the batch."""
        net = _public_network(batch_size=self.BATCH)
        runtime = net.attach_runtime(seed=0)
        client = net.client("Org1MSP")
        for i in range(5):
            pending = client.submit_async("assetcc", "create_asset", [f"d{i}", "1"],
                                          endorsing_peers=[net.peers()[0]])
            runtime.run()
            assert pending.result().committed
        assert net.orderer.blocks_delivered == 5
        assert runtime.now >= 5 * runtime.batch_timeout

    def test_same_seed_reproduces_blocks_and_flags(self):
        _, _, first = self._pipelined_run(seed=11)
        _, _, second = self._pipelined_run(seed=11)
        assert first == second

    def test_partial_batch_cut_by_timeout(self):
        net = _public_network(batch_size=50)
        runtime = net.attach_runtime(seed=0)
        client = net.client("Org1MSP")
        pendings = [
            client.submit_async("assetcc", "create_asset", [f"t{i}", "1"],
                                endorsing_peers=[net.peers()[0]])
            for i in range(3)
        ]
        runtime.run()
        assert net.orderer.blocks_delivered == 1  # one timeout-cut block of 3
        assert all(p.result().committed for p in pendings)
        assert runtime.now >= runtime.batch_timeout

    def test_sync_wrapper_rides_the_event_loop(self):
        net = _public_network(batch_size=10)
        net.attach_runtime(seed=0)
        client = net.client("Org1MSP")
        result = client.submit_transaction(
            "assetcc", "create_asset", ["sync", "1"], endorsing_peers=[net.peers()[0]]
        )
        assert result.committed
        assert net.orderer.blocks_delivered == 1

    def test_result_before_commit_raises(self):
        net = _public_network(batch_size=10)
        net.attach_runtime(seed=0)
        client = net.client("Org1MSP")
        pending = client.submit_async(
            "assetcc", "create_asset", ["x", "1"], endorsing_peers=[net.peers()[0]]
        )
        assert not pending.done
        with pytest.raises(SchedulerError):
            pending.result()

    def test_unattached_network_commits_through_the_bus(self):
        """A network that never calls attach_runtime() runs on the default
        runtime: the synchronous submit rides the bus, and the plaintext
        push reaches the member that did not endorse before the block."""
        net = three_org_network()
        net.network.install_chaincode(net.chaincode_id, PrivateAssetContract())
        result = net.client_of(1).submit_transaction(
            net.chaincode_id, "set_private", [net.collection, "k"],
            transient={"value": b"v"},
            endorsing_peers=[net.peer_of(1), net.peer_of(3)],
        )
        assert result.committed
        bus = net.network.runtime.bus
        assert bus.messages_sent > 0
        assert bus.topic_counts["gossip-batch"] == 3
        assert bus.topic_counts["deliver-block"] == 3
        member = net.peer_of(2)
        assert member.query_private(net.chaincode_id, net.collection, "k") == b"v"
        assert not member.ledger.missing_private

    def test_attach_after_the_default_runtime_carried_traffic_rejected(self):
        net = _public_network(batch_size=1)
        net.client("Org1MSP").submit_transaction(
            "assetcc", "create_asset", ["x", "1"], endorsing_peers=[net.peers()[0]]
        ).raise_for_status()
        with pytest.raises(ConfigError):
            net.attach_runtime(seed=1)

    def test_double_attach_rejected(self):
        net = _public_network(batch_size=10)
        net.attach_runtime(seed=0)
        with pytest.raises(ConfigError):
            net.attach_runtime(seed=1)

    def test_done_callback_fires_on_commit(self):
        net = _public_network(batch_size=1)
        runtime = net.attach_runtime(seed=0)
        client = net.client("Org1MSP")
        seen = []
        pending = client.submit_async(
            "assetcc", "create_asset", ["cb", "1"], endorsing_peers=[net.peers()[0]]
        )
        pending.add_done_callback(lambda p: seen.append(p.result().status))
        runtime.run()
        assert seen == [ValidationCode.VALID]


# ---------------------------------------------------------------------------
# concurrent MVCC conflicts (the satellite acceptance test)
# ---------------------------------------------------------------------------
class TestConcurrentConflicts:
    def _race(self, seed: int) -> tuple[str, str, bytes]:
        reset_nonce_counter()
        reset_ca_instance_counter()
        net = three_org_network(batch_size=10)
        net.network.install_chaincode(net.chaincode_id, PrivateAssetContract())
        runtime = net.network.attach_runtime(seed=seed)
        endorsers = [net.peer_of(1), net.peer_of(2)]
        net.client_of(1).submit_transaction(
            net.chaincode_id, "set_private", [net.collection, "n"],
            transient={"value": b"10"}, endorsing_peers=endorsers,
        ).raise_for_status()
        # Both clients endorse against the committed version, neither sees
        # the other: a genuine read-modify-write race through the runtime.
        p1 = net.client_of(1).submit_async(
            net.chaincode_id, "add_private", [net.collection, "n", "1"],
            endorsing_peers=endorsers,
        )
        p2 = net.client_of(2).submit_async(
            net.chaincode_id, "add_private", [net.collection, "n", "5"],
            endorsing_peers=endorsers,
        )
        runtime.run()
        value = net.peer_of(1).query_private(net.chaincode_id, net.collection, "n")
        return p1.result().status.value, p2.result().status.value, value

    def test_exactly_one_wins(self):
        statuses = self._race(seed=3)
        # Under conflict-aware ordering the loser is early-aborted by the
        # orderer instead of committing on-chain as invalid.
        assert sorted(statuses[:2]) in (
            ["MVCC_READ_CONFLICT", "VALID"],
            ["ORDERER_EARLY_ABORT", "VALID"],
        )

    def test_outcome_deterministic_under_fixed_seed(self):
        assert self._race(seed=3) == self._race(seed=3)

    def test_winner_applied_loser_not(self):
        s1, s2, value = self._race(seed=3)
        expected = b"11" if s1 == "VALID" else b"15"
        assert value == expected


# ---------------------------------------------------------------------------
# scheduled gossip: dissemination races and fault injection
# ---------------------------------------------------------------------------
class TestScheduledGossip:
    def _pdc_network(self):
        net = three_org_network(batch_size=1)
        net.network.install_chaincode(net.chaincode_id, PrivateAssetContract())
        return net

    def test_gossip_rides_the_bus(self):
        net = self._pdc_network()
        runtime = net.network.attach_runtime(seed=0)
        endorsers = [net.peer_of(1), net.peer_of(2)]
        pending = net.client_of(1).submit_async(
            net.chaincode_id, "set_private", [net.collection, "g"],
            transient={"value": b"42"}, endorsing_peers=endorsers,
        )
        assert runtime.bus.topic_counts.get("gossip-batch", 0) >= 1
        runtime.run()
        assert pending.result().committed
        # Plaintext reached both member peers through scheduled messages.
        for org in (1, 2):
            assert net.peer_of(org).query_private(
                net.chaincode_id, net.collection, "g"
            ) == b"42"

    def test_dropped_gossip_recorded_missing_then_reconciled(self):
        # Two-org network with an OR endorsement policy: a single member
        # peer can endorse, so the *other* member's plaintext copy depends
        # entirely on the gossip push we are about to drop.
        orgs = [Organization("Org1MSP"), Organization("Org2MSP")]
        channel = ChannelConfig(channel_id="pdcchan", organizations=orgs)
        policy = "OR('Org1MSP.member', 'Org2MSP.member')"
        channel.deploy_chaincode(
            "pdccc",
            endorsement_policy=policy,
            collections=[
                CollectionConfig(
                    name="PDC1", policy=policy,
                    required_peer_count=1, max_peer_count=3,
                )
            ],
        )
        net = FabricNetwork(channel=channel, batch_size=1)
        for org in orgs:
            net.add_peer(org.msp_id)
        net.install_chaincode("pdccc", PrivateAssetContract())

        faults = FaultInjector()
        faults.drop_topic("gossip-batch")
        net.attach_runtime(seed=0, faults=faults)
        peer1, peer2 = net.peers_of("Org1MSP")[0], net.peers_of("Org2MSP")[0]
        result = net.client("Org2MSP").submit_transaction(
            "pdccc", "set_private", ["PDC1", "lost"],
            transient={"value": b"7"}, endorsing_peers=[peer2],
        )
        assert result.committed
        assert faults.dropped >= 1
        assert peer1.query_private("pdccc", "PDC1", "lost") is None
        assert peer1.ledger.missing_private
        # Reconciliation pulls the committed rwset from the other member.
        repaired = net.reconcile_private_data()
        assert repaired >= 1
        assert peer1.query_private("pdccc", "PDC1", "lost") == b"7"

    def test_dropped_delivery_leaves_future_unresolvable(self):
        net = self._pdc_network()
        faults = FaultInjector()
        faults.cut_link("orderer", "peer0.Org3MSP")
        runtime = net.network.attach_runtime(seed=0, faults=faults)
        endorsers = [net.peer_of(1), net.peer_of(2)]
        pending = net.client_of(1).submit_async(
            net.chaincode_id, "set_private", [net.collection, "k"],
            transient={"value": b"1"}, endorsing_peers=endorsers,
        )
        with pytest.raises(SchedulerError):
            runtime.run_until_committed(pending)
        # The other peers did commit; only the cut-off peer is behind.
        assert net.peer_of(1).blocks_committed == 1
        assert net.peer_of(3).blocks_committed == 0


# ---------------------------------------------------------------------------
# the validation station (cost model on)
# ---------------------------------------------------------------------------
class TestValidationStation:
    """Each peer validates blocks one at a time, ``per_transaction``
    sim-s per transaction, in height order."""

    PER_TX = 0.5

    def _station(self, batch_size: int, per_tx: float | None = PER_TX):
        """A network whose blocks arrive at every peer at sim-t 2.0, with
        each peer's block arrivals and commits recorded.  ``per_tx=None``
        attaches no cost model (the inline path)."""
        reset_nonce_counter()
        reset_ca_instance_counter()
        net = _public_network(batch_size=batch_size)
        cost = None if per_tx is None else ValidationCostModel(per_transaction=per_tx)
        runtime = net.attach_runtime(
            seed=3, latency=LatencyModel(base=1.0), validate_cost=cost,
        )
        arrivals: dict[tuple[str, int], float] = {}
        commits: list[tuple[str, int, float]] = []
        receive = runtime._commit_at_peer

        def record_arrival(peer, block):
            arrivals[(peer.name, block.header.number)] = runtime.now
            receive(peer, block)

        runtime._commit_at_peer = record_arrival
        for peer in net.peers():
            peer.on_commit(
                lambda p, v: commits.append((p.name, v.block.header.number, runtime.now))
            )
        return net, runtime, arrivals, commits

    def _submit(self, net, count: int, endorsers: int = 1, first: int = 0) -> list:
        client = net.client("Org1MSP")
        endorsing = net.peers()[:endorsers]
        return [
            client.submit_async("assetcc", "create_asset", [f"v{i}", "1"],
                                endorsing_peers=endorsing)
            for i in range(first, first + count)
        ]

    @pytest.mark.parametrize("size", [1, 2, 4])
    def test_block_commits_per_transaction_times_size_after_arrival(self, size):
        net, runtime, arrivals, commits = self._station(batch_size=size)
        pendings = self._submit(net, size)
        runtime.run()
        assert all(p.result().status is ValidationCode.VALID for p in pendings)
        assert sorted((name, n) for name, n, _ in commits) == sorted(arrivals)
        done = 2.0 + self.PER_TX * size
        for name, number, at in commits:
            # An idle station starts the block the moment it arrives.
            assert at == arrivals[(name, number)] + self.PER_TX * size == done
        assert all(p.committed_at == done for p in pendings)

    @pytest.mark.parametrize("endorsers", [1, 2])
    def test_charge_ignores_how_many_signatures_a_transaction_carries(
        self, endorsers
    ):
        # Two endorsements per transaction double the block's signatures
        # but not its service time.
        net, runtime, arrivals, commits = self._station(batch_size=4)
        pendings = self._submit(net, 4, endorsers=endorsers)
        runtime.run()
        block = next(net.peers()[0].ledger.blockchain.blocks()).block
        assert {len(tx.endorsements) for tx in block.transactions} == {endorsers}
        assert all(p.result().status is ValidationCode.VALID for p in pendings)
        assert [at for _, _, at in commits] == [2.0 + self.PER_TX * 4] * 2

    def test_idle_station_starts_a_late_block_at_its_arrival(self):
        net, runtime, arrivals, commits = self._station(batch_size=2)
        self._submit(net, 2)
        runtime.run()
        assert [at for _, _, at in commits] == [3.0, 3.0]
        runtime.scheduler.run_for(10.0)  # the stations sit idle
        late = self._submit(net, 2, first=2)
        runtime.run()
        assert all(p.result().status is ValidationCode.VALID for p in late)
        for peer in net.peers():
            arrived = arrivals[(peer.name, 1)]
            assert arrived > 3.0 + 10.0
            # Served from its arrival, not from the old busy-until time.
            assert (peer.name, 1, arrived + self.PER_TX * 2) in commits

    def test_zero_price_commits_like_the_inline_path(self):
        runs = []
        for per_tx in (None, 0.0):
            net, runtime, arrivals, commits = self._station(
                batch_size=2, per_tx=per_tx
            )
            self._submit(net, 6)
            runtime.run()
            runs.append((commits, _chain_shape(net)))
        (inline, inline_chain), (timed, timed_chain) = runs
        assert len(inline) == 6  # three blocks at each of two peers
        assert sorted(timed) == sorted(inline)
        assert {at for _, _, at in timed} == {2.0}
        assert timed_chain == inline_chain

    def test_back_to_back_blocks_queue_fifo(self):
        net, runtime, arrivals, commits = self._station(batch_size=2)
        self._submit(net, 6)
        runtime.run()
        for peer in net.peers():
            mine = [(n, at) for name, n, at in commits if name == peer.name]
            assert [n for n, _ in mine] == [0, 1, 2]
            # All three blocks arrive together; each waits for the one
            # ahead of it, so commits are one service time (1.0) apart.
            assert {arrivals[(peer.name, n)] for n, _ in mine} == {2.0}
            assert [at for _, at in mine] == [3.0, 4.0, 5.0]

    def test_crash_before_firing_drops_the_block_until_restart(self):
        net, runtime, arrivals, commits = self._station(batch_size=4)
        pendings = self._submit(net, 4)
        victim = net.peers()[1].name
        runtime.scheduler.run_until(lambda: (victim, 0) in arrivals)
        runtime.crash_peer(victim)  # the station holds block 0, not yet fired
        runtime.run()
        assert runtime.crash_drops == 1
        assert [n for name, n, _ in commits if name == victim] == []
        assert not any(p.done for p in pendings)  # one peer has not committed
        runtime.restart_peer(victim)
        restarted = runtime.now
        runtime.run()
        assert [(n, at) for name, n, at in commits if name == victim] == [
            (0, restarted + self.PER_TX * 4)
        ]
        assert all(p.result().status is ValidationCode.VALID for p in pendings)
        assert runtime.crash_drops == 1

    def test_refill_makes_the_later_timed_event_a_no_op(self):
        net, runtime, arrivals, commits = self._station(batch_size=4)
        pendings = self._submit(net, 4)
        victim = net.peers()[1]
        runtime.scheduler.run_until(lambda: (victim.name, 0) in arrivals)
        # A crash and an immediate restart: the restart's refill schedules
        # block 0 again, behind the event scheduled before the crash.
        runtime.crash_peer(victim.name)
        runtime.restart_peer(victim.name)
        runtime.run()
        # The first event commits the block; the refill's finds it
        # committed and does nothing.
        assert [(n, at) for name, n, at in commits if name == victim.name] == [
            (0, arrivals[(victim.name, 0)] + self.PER_TX * 4)
        ]
        assert victim.blocks_committed == 1
        assert runtime.crash_drops == 0
        assert all(p.result().status is ValidationCode.VALID for p in pendings)


# ---------------------------------------------------------------------------
# the one commit site
# ---------------------------------------------------------------------------
class TestCommitSite:
    def test_wrapping_deliver_block_after_attach_sees_later_commits(self):
        """The runtime looks ``deliver_block`` up at each commit, so a
        wrapper installed after the runtime registered the peer sees it."""
        net = _public_network(batch_size=1)
        runtime = net.attach_runtime(seed=0)
        peer = net.peers()[1]
        seen = []
        original = peer.deliver_block

        def wrapped(block):
            seen.append(block.header.number)
            return original(block)

        peer.deliver_block = wrapped
        net.client("Org1MSP").submit_async(
            "assetcc", "create_asset", ["w", "1"], endorsing_peers=[net.peers()[0]]
        )
        runtime.run()
        assert seen == [0]

    def test_futures_wait_for_every_dispatched_peer_not_a_late_joiner(self):
        """A peer added while block 0 is in flight replays it inline; the
        block's future still resolves only once both peers it was
        dispatched to have committed it."""
        net = _public_network(batch_size=1)
        slow = net.peers()[1]
        runtime = net.attach_runtime(
            seed=0,
            latency=LatencyModel(base=1.0, link_base={("orderer", slow.name): 4.0}),
        )
        dispatched = [peer.name for peer in net.peers()]
        commits: list[tuple[str, float]] = []
        pending = net.client("Org1MSP").submit_async(
            "assetcc", "create_asset", ["j", "1"], endorsing_peers=[net.peers()[0]]
        )
        runtime.scheduler.run_until(lambda: net.orderer.blocks_delivered == 1)
        late = net.add_peer("Org1MSP", "peer1")
        assert late.ledger.height == 1  # replayed block 0 at registration
        assert not pending.done
        for peer in net.peers():
            peer.on_commit(lambda p, v: commits.append((p.name, runtime.now)))
        runtime.scheduler.run_until(lambda: len(commits) == 1)
        assert commits[0][0] == dispatched[0] and not pending.done
        runtime.run()
        assert [name for name, _ in commits] == dispatched
        assert pending.result().committed
        assert pending.committed_at == commits[-1][1]


# ---------------------------------------------------------------------------
# runtime-adjacent unit behaviour (cutter, idle consensus, status query)
# ---------------------------------------------------------------------------
class TestRuntimeAdjacent:
    def test_cutter_drains_backlog_when_batch_size_lowered(self):
        from tests.test_ordering import _envelope

        cutter = BlockCutter(batch_size=10)
        for tag in "abcde":
            cutter.add(_envelope(tag))
        cutter.batch_size = 2
        batches = cutter.add(_envelope("f"))
        assert [len(b) for b in batches] == [2, 2, 2]
        assert cutter.pending_count == 0

    def test_idle_network_leaves_the_scheduler_empty(self, network):
        """Consensus after the bootstrap election schedules nothing once a
        healthy cluster is idle: the run drains, and no Raft timer waits."""
        runtime = network.runtime
        client = network.client("Org1MSP")
        endorsers = [network.peers_of("Org1MSP")[0], network.peers_of("Org2MSP")[0]]
        for i in range(3):
            client.submit_async(
                "pdccc", "set_private", ["PDC1", f"idle{i}"],
                transient={"value": b"1"}, endorsing_peers=endorsers,
            )
        runtime.run()
        assert runtime.scheduler.pending_events() == 0
        assert all(node.timer is None for node in network.orderer.raft.nodes)
        assert runtime.bus.topic_counts["raft"] == 8 + 8 * network.orderer.blocks_delivered
        leader = network.orderer.raft.leader()
        assert {node.commit_index for node in network.orderer.raft.nodes} == {leader.commit_index}

    def test_status_of_queries_each_peer_once(self, network):
        client = network.client("Org1MSP")
        endorsers = [network.peers_of("Org1MSP")[0], network.peers_of("Org2MSP")[0]]
        result = client.submit_transaction(
            "pdccc", "set_private", ["PDC1", "s"],
            transient={"value": b"1"}, endorsing_peers=endorsers,
        )
        calls = {"n": 0}
        for peer in network.peers():
            original = peer.transaction_status

            def counted(tx_id, _original=original):
                calls["n"] += 1
                return _original(tx_id)

            peer.transaction_status = counted
        assert network.status_of(result.tx_id) is ValidationCode.VALID
        assert calls["n"] == len(network.peers())


# ---------------------------------------------------------------------------
# latency model resolution rules
# ---------------------------------------------------------------------------
class TestLatencyModelPrecedence:
    """Pins the documented link-over-topic-over-base resolution order."""

    def _sample(self, model, src="a", dst="b", topic="t", seed=0):
        import random

        return model.sample(random.Random(seed), src, dst, topic)

    def test_base_used_when_nothing_matches(self):
        assert self._sample(LatencyModel(base=1.5)) == 1.5

    def test_topic_overrides_base(self):
        model = LatencyModel(base=1.0, topic_base={"t": 4.0})
        assert self._sample(model, topic="t") == 4.0
        assert self._sample(model, topic="other") == 1.0

    def test_link_overrides_topic_and_base(self):
        model = LatencyModel(
            base=1.0,
            topic_base={"t": 4.0},
            link_base={("a", "b"): 0.25},
        )
        # The exact link wins even though the topic also matches.
        assert self._sample(model, src="a", dst="b", topic="t") == 0.25
        # Any other link falls back to the topic override.
        assert self._sample(model, src="a", dst="c", topic="t") == 4.0

    def test_link_direction_matters(self):
        model = LatencyModel(base=1.0, link_base={("a", "b"): 0.25})
        assert self._sample(model, src="b", dst="a") == 1.0

    def test_jitter_applies_after_resolution(self):
        import random

        model = LatencyModel(
            base=1.0, jitter=0.5, link_base={("a", "b"): 10.0}
        )
        rng = random.Random(7)
        sample = model.sample(rng, "a", "b", "t")
        assert 9.5 <= sample <= 10.5

    def test_negative_jitter_clamped_at_zero(self):
        import random

        model = LatencyModel(base=0.1, jitter=5.0)
        rng = random.Random(3)
        samples = [model.sample(rng, "a", "b", "t") for _ in range(200)]
        assert all(s >= 0.0 for s in samples)
        assert any(s == 0.0 for s in samples)  # clamping actually kicked in


# ---------------------------------------------------------------------------
# regression: same-key write races are conflict-serialized on every seed
# ---------------------------------------------------------------------------
class TestSameKeyRaceSeedSweep:
    """Two in-flight writers of one key: exactly one VALID, one
    MVCC_READ_CONFLICT — independent of batching and message timing."""

    def _race(self, seed: int, batch_size: int) -> list[str]:
        reset_nonce_counter()
        reset_ca_instance_counter()
        net = _public_network(batch_size=batch_size)
        runtime = net.attach_runtime(
            seed=seed, latency=LatencyModel(base=1.0, jitter=0.8)
        )
        client = net.client("Org1MSP")
        endorsers = [net.peers()[0]]
        client.submit_async("assetcc", "create_asset", ["race", "10"],
                            endorsing_peers=endorsers)
        runtime.run()
        first = client.submit_async("assetcc", "add_to_asset", ["race", "1"],
                                    endorsing_peers=endorsers)
        second = client.submit_async("assetcc", "add_to_asset", ["race", "5"],
                                     endorsing_peers=endorsers)
        runtime.run()
        return sorted(
            [first.result().status.value, second.result().status.value]
        )

    @pytest.mark.parametrize("seed", range(1, 11))
    def test_exactly_one_winner_across_seeds(self, seed):
        # Odd seeds cut per-transaction blocks, even seeds batch both
        # writers into one block; the outcome must not depend on it.
        # Conflict-aware ordering changes how the loser loses (orderer
        # early abort, no chain space) but never who wins.
        batch_size = 1 if seed % 2 else 10
        assert self._race(seed, batch_size) in (
            ["MVCC_READ_CONFLICT", "VALID"],
            ["ORDERER_EARLY_ABORT", "VALID"],
        )


# ---------------------------------------------------------------------------
# mempool bound + backpressure
# ---------------------------------------------------------------------------
class TestMempoolBound:
    def _bounded_network(self, limit, batch_size=50, timeout=None):
        reset_nonce_counter()
        reset_ca_instance_counter()
        net = _public_network(batch_size=batch_size)
        runtime = net.attach_runtime(
            seed=5, mempool_limit=limit,
            **({} if timeout is None else {"batch_timeout": timeout}),
        )
        return net, runtime

    def test_submit_refused_at_bound(self):
        from repro.common.errors import MempoolFullError

        net, runtime = self._bounded_network(limit=2)
        client = net.client("Org1MSP")
        endorsers = [net.peers()[0]]
        for i in range(2):
            client.submit_async("assetcc", "create_asset", [f"m{i}", "1"],
                                endorsing_peers=endorsers)
        with pytest.raises(MempoolFullError) as excinfo:
            client.submit_async("assetcc", "create_asset", ["m2", "1"],
                                endorsing_peers=endorsers)
        assert excinfo.value.limit == 2
        assert excinfo.value.tx_id
        assert runtime.mempool_rejections == 1
        # Existing load is unaffected and drains normally.
        runtime.run()
        assert runtime.in_flight() == 0
        assert net.peers()[0].valid_tx_count == 2

    def test_bound_frees_up_after_commit(self):
        from repro.common.errors import MempoolFullError

        net, runtime = self._bounded_network(limit=1, batch_size=1)
        client = net.client("Org1MSP")
        endorsers = [net.peers()[0]]
        first = client.submit_async("assetcc", "create_asset", ["f0", "1"],
                                    endorsing_peers=endorsers)
        with pytest.raises(MempoolFullError):
            client.submit_async("assetcc", "create_asset", ["f1", "1"],
                                endorsing_peers=endorsers)
        runtime.run()
        assert first.result().status is ValidationCode.VALID
        # The slot is free again: the next submission is accepted.
        second = client.submit_async("assetcc", "create_asset", ["f2", "1"],
                                     endorsing_peers=endorsers)
        runtime.run()
        assert second.result().status is ValidationCode.VALID
        assert runtime.mempool_rejections == 1

    def test_fanout_path_fails_future_not_loop(self):
        """Plan-based submissions hit the bound inside scheduler events:
        the refused futures must fail typed, not unwind ``run()``."""
        from repro.common.errors import MempoolFullError

        net, runtime = self._bounded_network(limit=1, timeout=500.0)
        client = net.client("Org1MSP")
        pendings = [
            client.submit_async("assetcc", "create_asset", [f"p{i}", "1"],
                                endorsement_plan=True)
            for i in range(3)
        ]
        runtime.run()  # must not raise
        outcomes = sorted(
            "ok" if p.error is None else type(p.error).__name__
            for p in pendings
        )
        assert outcomes == ["MempoolFullError", "MempoolFullError", "ok"]
        assert runtime.mempool_rejections == 2

    def test_limit_below_one_rejected(self):
        with pytest.raises(ConfigError):
            self._bounded_network(limit=0)
        net, runtime = self._bounded_network(limit=None)
        assert runtime.mempool_limit is None  # default: unbounded
