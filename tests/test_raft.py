"""Tests for the Raft consensus substrate, on the runtime's scheduler and bus."""

from __future__ import annotations

import pytest

from repro.common.errors import OrderingError
from repro.orderer.raft import (
    ELECTION_TIMEOUT_BASE,
    TOPIC_RAFT,
    RaftCluster,
    RaftState,
    leader_recovery_bound,
)
from repro.runtime import EventScheduler, FaultInjector, MessageBus


def _cluster(size=3, on_commit=None):
    """A cluster on a fresh bus, its bootstrap election already run."""
    scheduler = EventScheduler(seed=0)
    bus = MessageBus(scheduler, faults=FaultInjector())
    cluster = RaftCluster(size, bus, on_commit=on_commit)
    cluster.bootstrap()
    scheduler.run()
    return cluster, scheduler


def _run_until(scheduler, predicate, within):
    """Run until ``predicate`` holds; it must within ``within`` sim-s."""
    deadline = scheduler.now + within
    while not predicate():
        assert scheduler.step() and scheduler.now <= deadline, "condition not reached"


class TestElection:
    def test_single_node_elects_itself(self):
        cluster, _ = _cluster(size=1)
        assert cluster.leader().node_id == 0

    def test_three_nodes_elect_one_leader(self):
        cluster, _ = _cluster()
        leaders = [n for n in cluster.nodes if n.state is RaftState.LEADER]
        assert len(leaders) == 1

    def test_deterministic_first_leader(self):
        """Staggered timeouts: node 0 wins the bootstrap election, at t = 0,
        with one vote round (two requests, two replies) and one empty
        AppendEntries round."""
        for _ in range(3):
            cluster, scheduler = _cluster()
            assert cluster.leader().node_id == 0
            assert scheduler.now == 0.0
            assert cluster.leader_changes == [(0.0, None), (0.0, 0)]
            assert cluster.bus.topic_counts[TOPIC_RAFT] == 8

    def test_five_nodes(self):
        cluster, _ = _cluster(size=5)
        assert cluster.leader() is not None

    def test_zero_nodes_rejected(self):
        scheduler = EventScheduler()
        with pytest.raises(OrderingError):
            RaftCluster(0, MessageBus(scheduler))

    def test_leader_failover(self):
        cluster, scheduler = _cluster()
        old = cluster.leader().node_id
        cluster.stop(old)
        _run_until(
            scheduler,
            lambda: cluster.leader() is not None and cluster.leader().node_id != old,
            within=leader_recovery_bound(3),
        )
        # The first follower to time out wins: no earlier than its timeout.
        assert scheduler.now >= ELECTION_TIMEOUT_BASE

    def test_restarted_node_rejoins_as_follower(self):
        cluster, _ = _cluster()
        cluster.stop(1)
        cluster.restart(1)
        assert cluster.nodes[1].state is RaftState.FOLLOWER


class TestReplication:
    def test_commit_applies_in_order(self):
        applied = []
        cluster, scheduler = _cluster(on_commit=applied.append)
        for payload in "abc":
            cluster.propose(payload)
        scheduler.run()
        assert applied == ["a", "b", "c"]
        assert scheduler.now == 0.0  # consensus hops take no sim time

    def test_single_node_commits(self):
        applied = []
        cluster, _ = _cluster(size=1, on_commit=applied.append)
        cluster.propose("only")
        assert applied == ["only"]

    def test_followers_replicate_log(self):
        cluster, scheduler = _cluster()
        cluster.propose("entry")
        scheduler.run()
        for node in cluster.nodes:
            assert [e.payload for e in node.log] == ["entry"]
            assert node.commit_index == 1

    def test_two_rounds_per_batch(self):
        """One AppendEntries round replicates the entry, a second carries
        its commit index to the followers: 2 x (2 requests + 2 replies)."""
        cluster, scheduler = _cluster()
        before = cluster.bus.topic_counts[TOPIC_RAFT]
        cluster.propose("x")
        scheduler.run()
        assert cluster.bus.topic_counts[TOPIC_RAFT] - before == 8

    def test_commit_survives_minority_failure(self):
        applied = []
        cluster, scheduler = _cluster(size=5, on_commit=applied.append)
        followers = [n.node_id for n in cluster.nodes if n.state is not RaftState.LEADER]
        cluster.stop(followers[0])
        cluster.stop(followers[1])
        cluster.propose("despite-two-down")
        scheduler.run_for(1.0)
        assert applied == ["despite-two-down"]

    def test_no_commit_without_majority(self):
        cluster, scheduler = _cluster()
        leader = cluster.leader()
        for node in cluster.nodes:
            if node is not leader:
                cluster.stop(node.node_id)
        cluster.propose("stuck")
        scheduler.run()  # no quorum: nothing can commit, so nothing runs
        assert scheduler.pending_events() == 0
        assert leader.commit_index == 0

    def test_recovered_follower_catches_up(self):
        cluster, scheduler = _cluster()
        victim = next(n.node_id for n in cluster.nodes if n.state is not RaftState.LEADER)
        cluster.stop(victim)
        cluster.propose("while-down")
        scheduler.run()  # committed by the majority; the dead follower is not waited on
        cluster.restart(victim)
        scheduler.run()  # heartbeats until it holds the log, then idle
        assert [e.payload for e in cluster.nodes[victim].log] == ["while-down"]


class TestIdle:
    def test_healthy_idle_cluster_schedules_nothing(self):
        cluster, scheduler = _cluster()
        for payload in range(5):
            cluster.propose(payload)
        scheduler.run()
        assert scheduler.pending_events() == 0
        assert all(node.timer is None for node in cluster.nodes)

    def test_timers_run_only_while_leaderless(self):
        cluster, scheduler = _cluster()
        cluster.stop(cluster.leader().node_id)
        assert scheduler.pending_events() > 0
        _run_until(scheduler, lambda: cluster.leader() is not None, within=20.0)
        scheduler.run()  # the new leader settles the cluster; the queue drains
        assert scheduler.pending_events() == 0

    @pytest.mark.parametrize("shape", ["follower-isolated", "leader-isolated", "two-stopped"])
    def test_cut_off_or_outvoted_nodes_keep_no_timers(self, shape):
        """A fault left in place for good: once the live majority, if any,
        has nothing to do, the queue drains."""
        applied = []
        cluster, scheduler = _cluster(on_commit=applied.append)
        leader = cluster.leader().node_id
        followers = [i for i in range(3) if i != leader]
        if shape == "follower-isolated":
            cluster.partition({followers[0]})
        elif shape == "leader-isolated":
            cluster.partition({leader})
        else:
            for i in followers:
                cluster.stop(i)
        cluster.propose("batch")
        scheduler.run()
        assert scheduler.pending_events() == 0
        if shape == "follower-isolated":
            assert applied == ["batch"]
        if shape == "leader-isolated":
            assert cluster.leader().node_id != leader  # the majority elected one


class TestPartitions:
    def test_minority_partition_cannot_commit(self):
        cluster, scheduler = _cluster(size=5)
        leader = cluster.leader().node_id
        cluster.partition({leader})  # isolate the leader alone
        cluster.propose("doomed")
        scheduler.run()  # the majority elects a leader, then goes idle
        assert scheduler.pending_events() == 0
        assert cluster.nodes[leader].commit_index == 0

    def test_majority_side_elects_new_leader(self):
        cluster, scheduler = _cluster(size=5)
        old_leader = cluster.leader().node_id
        cluster.partition({old_leader})
        # An idle cluster runs no timers; the stuck proposal starts them.
        cluster.propose("stuck")
        majority = [n.node_id for n in cluster.nodes if n.node_id != old_leader]
        _run_until(
            scheduler,
            lambda: any(
                cluster.nodes[i].state is RaftState.LEADER
                and cluster.nodes[i].current_term > cluster.nodes[old_leader].current_term
                for i in majority
            ),
            within=leader_recovery_bound(5),
        )

    def test_partition_cuts_links_on_the_bus(self):
        cluster, _ = _cluster()
        faults = cluster.bus.faults
        cluster.partition({0})
        assert len(faults._dead_links) == 4  # both directions to each of two nodes
        cluster.heal_partition()
        assert not faults._dead_links

    def test_heal_partition_converges(self):
        cluster, scheduler = _cluster()
        old_leader = cluster.leader().node_id
        cluster.partition({old_leader})
        cluster.propose("orphan")
        others = [i for i in range(3) if i != old_leader]
        _run_until(
            scheduler,
            lambda: any(cluster.nodes[i].state is RaftState.LEADER for i in others),
            within=leader_recovery_bound(3),
        )
        cluster.heal_partition()
        healed = scheduler.now
        scheduler.run()  # converges, then the idle cluster drains the queue
        assert scheduler.now - healed <= leader_recovery_bound(3)
        terms = {n.current_term for n in cluster.nodes}
        leaders = [n for n in cluster.nodes if n.state is RaftState.LEADER]
        assert len(leaders) == 1 and len(terms) == 1
        assert cluster.nodes[old_leader].state is RaftState.FOLLOWER


class TestSafety:
    def test_log_matching_after_churn(self):
        """After failover + commits, all alive logs agree on committed prefix."""
        cluster, scheduler = _cluster()
        cluster.propose("e1")
        scheduler.run()
        old_leader = cluster.leader().node_id
        cluster.stop(old_leader)
        _run_until(
            scheduler,
            lambda: cluster.leader() is not None and cluster.leader().node_id != old_leader,
            within=leader_recovery_bound(3),
        )
        cluster.propose("e2")
        scheduler.run()
        cluster.restart(old_leader)
        scheduler.run()  # heartbeats until the old leader holds the log
        # The new leader's no-op entry (payload None) committed e1 in its term.
        payloads = [
            [e.payload for e in n.log[: n.commit_index] if e.payload is not None]
            for n in cluster.nodes
        ]
        assert all(p[:2] == ["e1", "e2"] for p in payloads)

    def test_terms_monotonic(self):
        cluster, scheduler = _cluster()
        terms_before = [n.current_term for n in cluster.nodes]
        scheduler.run_for(50.0)
        assert [n.current_term for n in cluster.nodes] == terms_before
