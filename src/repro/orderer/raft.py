"""Raft for the ordering service, on the runtime's scheduler and bus.

Fabric's ordering service runs etcd/raft: orderers agree on the *sequence
of blocks* without ever validating transaction content.  We implement the
core of the protocol (leader election, log replication, commit-index
advancement — Ongaro & Ousterhout 2014).  Each consenter is a bus
endpoint; every RequestVote / AppendEntries and reply is a runtime
message, and heartbeats and election timeouts are scheduler timers.

The consenters share a host, as in the paper's Docker testbed, so a hop
between them takes zero latency and draws nothing from the scheduler RNG
(:meth:`~repro.runtime.bus.MessageBus.send_local`), and its delivery runs
ahead of every other event at its instant.  Only explicit faults reach
consensus: :meth:`RaftCluster.stop` / :meth:`~RaftCluster.restart` and
:meth:`~RaftCluster.partition`, which cuts links between consenters.

Timers run only while the :meth:`~RaftCluster.quorum` has work — an
unreplicated entry, a lagging follower, a candidate, or not exactly one
leader — so a healthy idle cluster schedules nothing, and a cut-off or
outvoted node cannot keep timers running.  Election timeouts are constant
per node and staggered by node index, so runs draw nothing and repeat.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.common.errors import ConfigError, OrderingError

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.bus import Message, MessageBus

#: Sim-seconds between heartbeats, and node *i*'s election timeout
#: ``BASE + i * STAGGER``: Fabric's etcdraft defaults (a 500 ms tick,
#: HeartbeatTick 1, ElectionTick 10).
HEARTBEAT_INTERVAL = 0.5
ELECTION_TIMEOUT_BASE = 5.0
ELECTION_TIMEOUT_STAGGER = 1.0

TOPIC_RAFT = "raft"


def consenter_endpoint(node_id: int) -> str:
    return f"orderer.raft{node_id}"


def leader_recovery_bound(cluster_size: int) -> float:
    """Sim-seconds within which a live majority has a leader after the last
    orderer fault: three of the longest election timeouts (a disrupting
    candidate's, the re-election, one spare round)."""
    return 3 * (ELECTION_TIMEOUT_BASE + ELECTION_TIMEOUT_STAGGER * (cluster_size - 1))


class RaftState(enum.Enum):
    FOLLOWER = "follower"
    CANDIDATE = "candidate"
    LEADER = "leader"


@dataclass(frozen=True)
class LogEntry:
    term: int
    payload: Any


@dataclass(frozen=True)
class RequestVote:
    term: int
    candidate_id: int
    last_log_index: int
    last_log_term: int


@dataclass(frozen=True)
class RequestVoteReply:
    term: int
    voter_id: int
    granted: bool


@dataclass(frozen=True)
class AppendEntries:
    term: int
    leader_id: int
    prev_log_index: int
    prev_log_term: int
    entries: tuple[LogEntry, ...]
    leader_commit: int


@dataclass(frozen=True)
class AppendEntriesReply:
    term: int
    follower_id: int
    success: bool
    match_index: int


class RaftNode:
    """One Raft participant.  Log indices are 1-based, per the paper."""

    def __init__(self, node_id: int, cluster_size: int):
        self.node_id = node_id
        self.endpoint = consenter_endpoint(node_id)
        self.cluster_size = cluster_size
        self.timeout = ELECTION_TIMEOUT_BASE + node_id * ELECTION_TIMEOUT_STAGGER
        self.state = RaftState.FOLLOWER
        self.current_term = 0
        self.voted_for: Optional[int] = None
        self.log: list[LogEntry] = []
        self.commit_index = 0
        self.last_applied = 0
        self.next_index: dict[int, int] = {}
        self.match_index: dict[int, int] = {}
        self.votes_received: set[int] = set()
        self.alive = True
        #: When the node's timer is due (heartbeat for a leader, election
        #: timeout otherwise).  Moving it costs no event: an armed timer
        #: that fires early re-arms itself at the deadline.
        self.deadline = 0.0
        self.timer = None  # the armed ScheduledEvent, if any

    def last_log_index(self) -> int:
        return len(self.log)

    def last_log_term(self) -> int:
        return self.log[-1].term if self.log else 0

    def term_at(self, index: int) -> int:
        return self.log[index - 1].term if index else 0

    def become_follower(self, term: int, now: float) -> None:
        # A leader or candidate stepping down starts a fresh timeout; a
        # follower bumped by a candidate's term keeps its own, so a
        # disruptive candidate cannot hold the cluster leaderless.
        if self.state is not RaftState.FOLLOWER:
            self.deadline = now + self.timeout
        self.state = RaftState.FOLLOWER
        self.current_term = term
        self.voted_for = None
        self.votes_received = set()


class RaftCluster:
    """Raft nodes exchanging messages over the runtime's bus.

    ``on_commit(payload)`` fires once per committed entry, in log order,
    when the *leader* applies it (a new leader's no-op entry, payload
    ``None``, is not passed on); ``on_leader()`` fires when a node wins
    an election.
    """

    def __init__(
        self,
        size: int,
        bus: "MessageBus",
        on_commit: Optional[Callable[[Any], None]] = None,
        on_leader: Optional[Callable[[], None]] = None,
    ) -> None:
        if size < 1:
            raise OrderingError("a Raft cluster needs at least one node")
        self.bus = bus
        self.scheduler = bus.scheduler
        self.nodes = [RaftNode(i, size) for i in range(size)]
        self._on_commit = on_commit
        self._on_leader = on_leader
        self._in_flight = 0  # consensus messages sent and not yet delivered
        self._isolated: set[int] = set()  # one side of the partition
        self._handlers = {
            RequestVote: self._handle_request_vote,
            RequestVoteReply: self._handle_vote_reply,
            AppendEntries: self._handle_append_entries,
            AppendEntriesReply: self._handle_append_reply,
        }
        #: ``(sim time, leader id or None)`` at every change of
        #: :meth:`leader`, and the sim time of the last orderer fault.
        self.leader_changes: list[tuple[float, Optional[int]]] = [(0.0, None)]
        self.last_fault_at = 0.0
        for node in self.nodes:
            bus.register(node.endpoint, self._receiver(node))

    def bootstrap(self) -> None:
        """Elect the first leader now, so no request waits for it."""
        self._campaign(min(self.nodes, key=lambda node: node.timeout))
        self._settle()

    def leader(self) -> Optional[RaftNode]:
        """The live leader of the highest term (a partition may leave two)."""
        leaders = [n for n in self.nodes if n.alive and n.state is RaftState.LEADER]
        return max(leaders, key=lambda n: n.current_term) if leaders else None

    def quorum(self) -> list[RaftNode]:
        """The live nodes on the side of the partition that holds a live
        majority, or none: only they can elect a leader and commit."""
        for isolated in (False, True):
            side = [n for n in self.nodes if n.alive and (n.node_id in self._isolated) == isolated]
            if len(side) > len(self.nodes) // 2:
                return side
        return []

    def propose(self, payload: Any) -> None:
        """Append ``payload`` at the leader and replicate it.  With no
        leader this only keeps the timers running: the caller proposes
        again from ``on_leader``."""
        leader = self.leader()
        if leader is not None:
            leader.log.append(LogEntry(leader.current_term, payload))
            self._send_append_entries(leader)
            self._advance_commit(leader)
        self._settle()

    # -- fault injection ----------------------------------------------------
    def node_id_of(self, endpoint: str) -> int:
        for node in self.nodes:
            if node.endpoint == endpoint:
                return node.node_id
        raise ConfigError(f"no consenter at endpoint {endpoint!r}")

    def stop(self, node_id: int) -> None:
        node = self.nodes[node_id]
        node.alive = False
        self.last_fault_at = self.scheduler.now
        if node.timer is not None:
            node.timer.cancel()
            node.timer = None
        self._settle()

    def restart(self, node_id: int) -> None:
        """Recover a stopped node as a follower (its term and log persist)."""
        node = self.nodes[node_id]
        if not node.alive:
            node.alive, node.state = True, RaftState.FOLLOWER
            node.deadline = self.last_fault_at = self.scheduler.now
        self._settle()

    def partition(self, node_ids: set[int]) -> None:
        """Nodes in ``node_ids`` talk only to each other: both directions
        of every link across the divide are cut on the bus's fault
        injector.  A new partition replaces the previous one."""
        if self.bus.faults is None:
            raise ConfigError("a partition needs the runtime's FaultInjector")
        self.heal_partition()
        self._isolated = set(node_ids)
        for src, dst in self._links_across():
            self.bus.faults.cut_link(src, dst)
        self.last_fault_at = self.scheduler.now
        self._settle()

    def heal_partition(self) -> None:
        if self._isolated:
            for src, dst in self._links_across():
                self.bus.faults.restore_link(src, dst)
            self._isolated = set()
            self.last_fault_at = self.scheduler.now
            self._settle()

    def _links_across(self) -> list[tuple[str, str]]:
        """Both directions of every link across the partition."""
        side = self._isolated
        return [(a.endpoint, b.endpoint) for a in self.nodes for b in self.nodes
                if (a.node_id in side) != (b.node_id in side)]

    # -- messages and timers ---------------------------------------------------------
    def _send(self, sender: RaftNode, target: int, message: Any) -> None:
        endpoint = self.nodes[target].endpoint
        if self.bus.send_local(sender.endpoint, endpoint, TOPIC_RAFT, message) is not None:
            self._in_flight += 1

    def _receiver(self, node: RaftNode) -> Callable[["Message"], None]:
        def receive(message: "Message") -> None:
            self._in_flight -= 1
            if node.alive:
                self._handlers[type(message.payload)](node, message.payload)
            self._settle()

        return receive

    def _active(self) -> bool:
        """Whether the quorum has work that needs the timers; a cluster
        with no quorum is idle, since nothing it does can commit."""
        quorum = self.quorum()
        leaders = [n for n in quorum if n.state is RaftState.LEADER]
        if len(leaders) != 1 or any(n.state is RaftState.CANDIDATE for n in quorum):
            return bool(quorum)
        leader = leaders[0]
        last = leader.last_log_index()
        return leader.commit_index < last or any(
            leader.match_index[n.node_id] < last for n in quorum if n is not leader
        )

    def _settle(self) -> None:
        """Record leadership; once no message is in flight at this instant,
        arm the timers of a cluster with work, or clear an idle one's."""
        leader = self.leader()
        leader_id = None if leader is None else leader.node_id
        if leader_id != self.leader_changes[-1][1]:
            self.leader_changes.append((self.scheduler.now, leader_id))
        if self._in_flight:
            return
        active, now = self._active(), self.scheduler.now
        for node in self.nodes:
            if active and node.alive and node.timer is None:
                if node.deadline <= now:  # stale since the cluster went idle
                    leading = node.state is RaftState.LEADER
                    node.deadline = now + (HEARTBEAT_INTERVAL if leading else node.timeout)
                node.timer = self.scheduler.call_at(node.deadline, lambda n=node: self._fire(n))
            elif not active and node.timer is not None:
                node.timer.cancel()
                node.timer = None

    def _fire(self, node: RaftNode) -> None:
        node.timer = None
        now = self.scheduler.now
        if now >= node.deadline:
            if node.state is RaftState.LEADER:
                node.deadline = now + HEARTBEAT_INTERVAL
                self._send_append_entries(node)
            else:
                self._campaign(node)
        self._settle()

    def _campaign(self, node: RaftNode) -> None:
        node.state = RaftState.CANDIDATE
        node.current_term += 1
        node.voted_for = node.node_id
        node.votes_received = {node.node_id}
        node.deadline = self.scheduler.now + node.timeout
        if node.cluster_size == 1:
            self._win(node)
            return
        request = RequestVote(
            node.current_term, node.node_id, node.last_log_index(), node.last_log_term()
        )
        for target in range(node.cluster_size):
            if target != node.node_id:
                self._send(node, target, request)

    def _win(self, node: RaftNode) -> None:
        node.state = RaftState.LEADER
        peers = [peer for peer in range(node.cluster_size) if peer != node.node_id]
        node.next_index = {peer: node.last_log_index() + 1 for peer in peers}
        node.match_index = {peer: 0 for peer in peers}
        node.deadline = self.scheduler.now + HEARTBEAT_INTERVAL
        if node.commit_index < node.last_log_index():
            # Entries of earlier terms commit only under one of this term
            # (Raft §5.4.2): a no-op entry carries them.
            node.log.append(LogEntry(node.current_term, None))
        self._send_append_entries(node)
        if self._on_leader is not None:
            self._on_leader()

    def _send_append_entries(self, leader: RaftNode) -> None:
        for peer, next_idx in leader.next_index.items():
            prev = next_idx - 1
            self._send(leader, peer, AppendEntries(
                leader.current_term, leader.node_id, prev, leader.term_at(prev),
                tuple(leader.log[prev:]), leader.commit_index,
            ))

    # -- message handlers ----------------------------------------------------------------
    def _handle_request_vote(self, node: RaftNode, msg: RequestVote) -> None:
        if msg.term > node.current_term:
            node.become_follower(msg.term, self.scheduler.now)
        granted = (
            msg.term == node.current_term
            and node.voted_for in (None, msg.candidate_id)
            and (msg.last_log_term, msg.last_log_index)
            >= (node.last_log_term(), node.last_log_index())
        )
        if granted:
            node.voted_for = msg.candidate_id
            node.deadline = self.scheduler.now + node.timeout
        reply = RequestVoteReply(node.current_term, node.node_id, granted)
        self._send(node, msg.candidate_id, reply)

    def _handle_vote_reply(self, node: RaftNode, msg: RequestVoteReply) -> None:
        if msg.term > node.current_term:
            node.become_follower(msg.term, self.scheduler.now)
        elif node.state is RaftState.CANDIDATE and msg.term == node.current_term and msg.granted:
            node.votes_received.add(msg.voter_id)
            if len(node.votes_received) > node.cluster_size // 2:
                self._win(node)

    def _handle_append_entries(self, node: RaftNode, msg: AppendEntries) -> None:
        now = self.scheduler.now
        if msg.term > node.current_term or (
            msg.term == node.current_term and node.state is not RaftState.FOLLOWER
        ):
            node.become_follower(msg.term, now)
        # Reject a stale leader, or a log that misses or conflicts with
        # the entry before the new ones.
        success = msg.term == node.current_term and msg.prev_log_index <= node.last_log_index()
        success = success and node.term_at(msg.prev_log_index) == msg.prev_log_term
        if msg.term == node.current_term:
            node.deadline = now + node.timeout
        if success:
            # Append, overwriting a conflicting suffix.
            for index, entry in enumerate(msg.entries, start=msg.prev_log_index + 1):
                if index <= node.last_log_index() and node.term_at(index) == entry.term:
                    continue
                del node.log[index - 1 :]
                node.log.append(entry)
            if msg.leader_commit > node.commit_index:
                node.commit_index = min(msg.leader_commit, node.last_log_index())
                node.last_applied = node.commit_index
        match = msg.prev_log_index + len(msg.entries) if success else 0
        self._send(node, msg.leader_id, AppendEntriesReply(
            node.current_term, node.node_id, success, match
        ))

    def _handle_append_reply(self, node: RaftNode, msg: AppendEntriesReply) -> None:
        if msg.term > node.current_term:
            node.become_follower(msg.term, self.scheduler.now)
        elif node.state is RaftState.LEADER and msg.success:
            match = max(node.match_index[msg.follower_id], msg.match_index)
            node.match_index[msg.follower_id] = match
            node.next_index[msg.follower_id] = match + 1
            committed = node.commit_index
            self._advance_commit(node)
            if node.commit_index > committed:
                # Followers learn the new commit index now, not with the
                # next batch: an idle cluster sends no heartbeat.
                self._send_append_entries(node)
        elif node.state is RaftState.LEADER:
            node.next_index[msg.follower_id] = max(1, node.next_index[msg.follower_id] - 1)

    def _advance_commit(self, leader: RaftNode) -> None:
        """Commit the newest current-term entry a majority holds, then apply."""
        for candidate in range(leader.last_log_index(), leader.commit_index, -1):
            if leader.term_at(candidate) != leader.current_term:
                continue
            replicas = 1 + sum(m >= candidate for m in leader.match_index.values())
            if replicas > leader.cluster_size // 2:
                leader.commit_index = candidate
                break
        while leader.last_applied < leader.commit_index:
            leader.last_applied += 1
            payload = leader.log[leader.last_applied - 1].payload
            if payload is not None and self._on_commit is not None:
                self._on_commit(payload)
