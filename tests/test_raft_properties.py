"""Property-based Raft tests: safety under randomized fault schedules.

Hypothesis drives random interleavings of proposals, sim-time waits,
crashes, restarts and partitions of a cluster on the runtime's scheduler
and bus, observing the cluster after every state change, then checks:

* **Election safety** — at most one leader per term, ever.
* **Log matching / committed-prefix agreement** — the committed prefixes
  of any two nodes never conflict.
* **Monotone commit index** — no node's commit index ever moves back.
* **Leader completeness** — after healing, every committed prefix is a
  prefix of the leader's log.
* **Recovery** — once every fault healed, a leader exists within
  :func:`~repro.orderer.raft.leader_recovery_bound`.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.orderer.raft import HEARTBEAT_INTERVAL, RaftCluster, RaftState, leader_recovery_bound
from repro.runtime import EventScheduler, FaultInjector, MessageBus

CLUSTER_SIZE = 5

# One schedule step: (op, arg).  "wait" advances sim time by arg heartbeats.
step = st.one_of(
    st.tuples(st.just("wait"), st.integers(min_value=1, max_value=30)),
    st.tuples(st.just("propose"), st.integers(min_value=0, max_value=999)),
    st.tuples(st.just("stop"), st.integers(min_value=0, max_value=CLUSTER_SIZE - 1)),
    st.tuples(st.just("restart"), st.integers(min_value=0, max_value=CLUSTER_SIZE - 1)),
    st.tuples(st.just("partition"), st.integers(min_value=0, max_value=CLUSTER_SIZE - 1)),
    st.tuples(st.just("heal"), st.just(0)),
)


def _run_schedule(schedule):
    scheduler = EventScheduler(seed=0)
    cluster = RaftCluster(CLUSTER_SIZE, MessageBus(scheduler, faults=FaultInjector()))
    leaders_by_term: dict[int, set[int]] = {}
    commit_regressions: list[tuple[int, int, int]] = []
    last_commit = [0] * CLUSTER_SIZE

    def observe():
        for node in cluster.nodes:
            if node.alive and node.state is RaftState.LEADER:
                leaders_by_term.setdefault(node.current_term, set()).add(node.node_id)
            if node.commit_index < last_commit[node.node_id]:
                commit_regressions.append(
                    (node.node_id, last_commit[node.node_id], node.commit_index)
                )
            last_commit[node.node_id] = node.commit_index

    settle = cluster._settle

    def observed_settle():
        settle()
        observe()

    cluster._settle = observed_settle  # every state change ends in a settle
    cluster.bootstrap()
    for op, arg in schedule:
        if op == "wait":
            scheduler.run_for(arg * HEARTBEAT_INTERVAL)
        elif op == "propose":
            cluster.propose(arg)
        elif op == "stop":
            if sum(n.alive for n in cluster.nodes) > 1:  # never kill the whole cluster
                cluster.stop(arg)
        elif op == "restart":
            cluster.restart(arg)
        elif op == "partition":
            cluster.partition({arg})
        elif op == "heal":
            cluster.heal_partition()
    # Heal everything, then give the cluster its recovery bound.
    cluster.heal_partition()
    for node_id in range(CLUSTER_SIZE):
        cluster.restart(node_id)
    healed = scheduler.now
    bound = leader_recovery_bound(CLUSTER_SIZE)
    scheduler.run_for(2 * bound)
    # A leader by the bound, and no leadership change after it.
    recovered = cluster.leader() is not None and cluster.leader_changes[-1][0] <= healed + bound
    return cluster, leaders_by_term, commit_regressions, recovered


class TestRaftSafetyProperties:
    @settings(max_examples=40, deadline=None)
    @given(schedule=st.lists(step, min_size=5, max_size=40))
    def test_election_safety(self, schedule):
        """At most one leader per term, under any fault schedule."""
        _cluster, leaders_by_term, _, _ = _run_schedule(schedule)
        for term, leaders in leaders_by_term.items():
            assert len(leaders) <= 1, f"two leaders in term {term}: {leaders}"

    @settings(max_examples=40, deadline=None)
    @given(schedule=st.lists(step, min_size=5, max_size=40))
    def test_committed_prefix_agreement(self, schedule):
        """Committed prefixes never conflict across nodes."""
        cluster, _, _, _ = _run_schedule(schedule)
        prefixes = [
            [entry.payload for entry in node.log[: node.commit_index]]
            for node in cluster.nodes
        ]
        for i in range(len(prefixes)):
            for j in range(i + 1, len(prefixes)):
                shorter = min(len(prefixes[i]), len(prefixes[j]))
                assert prefixes[i][:shorter] == prefixes[j][:shorter]

    @settings(max_examples=20, deadline=None)
    @given(schedule=st.lists(step, min_size=5, max_size=30))
    def test_commit_index_monotonic_while_up(self, schedule):
        """No commit index ever moves back, and after healing every node's
        committed prefix is a prefix of the leader's full log (Leader
        Completeness, observable form)."""
        cluster, _, regressions, _ = _run_schedule(schedule)
        assert regressions == []
        leader = cluster.leader()
        if leader is None:
            return
        leader_log = [entry.payload for entry in leader.log]
        for node in cluster.nodes:
            committed = [entry.payload for entry in node.log[: node.commit_index]]
            assert committed == leader_log[: len(committed)]

    @settings(max_examples=20, deadline=None)
    @given(schedule=st.lists(step, min_size=5, max_size=30))
    def test_leader_within_the_recovery_bound(self, schedule):
        """Once every fault healed, leadership settles within the bound."""
        _cluster, _, _, recovered = _run_schedule(schedule)
        assert recovered
