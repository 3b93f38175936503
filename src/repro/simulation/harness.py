"""Build, execute and check one simulated run.

The harness is the only module that touches the live objects; everything
upstream (config, workload, fault plan) is pure data and everything
downstream (invariants, shrinking) consumes the :class:`SimulationReport`
it produces.  ``execute(config, ops, faults)`` is the replay function:
called twice with the same inputs it produces the same history — in any
process, under any environment — which is what seed replay and trace
shrinking rely on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.chaincode.contracts.asset_contract import AssetContract
from repro.chaincode.contracts.pdc_contract import PrivateAssetContract
from repro.common.errors import ReproError
from repro.core.attacks.ops import ColludingPrivateAssetContract
from repro.core.defense.features import FrameworkFeatures
from repro.identity.ca import reset_ca_instance_counter
from repro.identity.organization import Organization
from repro.network.channel import ChannelConfig
from repro.network.collection import CollectionConfig
from repro.network.network import FabricNetwork
from repro.protocol.proposal import reset_nonce_counter
from repro.protocol.transaction import ValidationCode
from repro.runtime.executor import ValidationCostModel
from repro.runtime.faults import FaultInjector, LatencyModel
from repro.runtime.runtime import GOSSIP_TOPICS
from repro.simulation.config import SimulationConfig
from repro.simulation.faultplan import generate_fault_schedule
from repro.simulation.invariants import (
    BlockBoundaryMonitor,
    RecoveryMonitor,
    run_quiescence_checks,
    state_digest,
)
from repro.simulation.workload import (
    PDC_CHAINCODE,
    PUBLIC_CHAINCODE,
    OpSpec,
    WorkloadGenerator,
)

SIM_CHANNEL = "simchannel"
COLLUDER_FAKE_VALUE = b"1"  # the colluders' agreed forged answer

# How the ``--weaken`` switch sabotages the system under test.  Used by the
# acceptance test: a weakened validator MUST make seeds fail, proving the
# invariants actually bite.
WEAKENERS: dict = {
    "skip-endorsement-policy": lambda sim: _skip_endorsement_policy(sim),
    "forget-in-flight": lambda sim: _forget_in_flight(sim),
}


def _forget_in_flight(sim: "SimNetwork") -> None:
    """An ordering front-end that drops its oldest undelivered batch
    whenever a new leader takes over, instead of proposing it again."""
    orderer = sim.network.orderer

    def forgetful() -> None:
        del orderer._in_flight[:1]  # noqa: SLF001
        orderer._on_leader()  # noqa: SLF001

    orderer.raft._on_leader = forgetful  # noqa: SLF001


def _skip_endorsement_policy(sim: "SimNetwork") -> None:
    for peer in sim.all_peers():
        peer._validator._check_endorsement_policies = (  # noqa: SLF001
            lambda tx, ledger: True
        )


@dataclass
class SimNetwork:
    """A built simulated deployment plus handles the generator needs."""

    config: SimulationConfig
    network: FabricNetwork
    peers: dict  # name -> PeerNode
    clients: dict  # msp_id -> Gateway

    def peers_of(self, msp_id: str) -> list:
        return [p for p in self.peers.values() if p.msp_id == msp_id]

    def all_peers(self) -> list:
        return list(self.peers.values())


@dataclass
class OpOutcome:
    """What actually happened to one generated op."""

    spec: OpSpec
    tx_id: Optional[str] = None
    status: Optional[ValidationCode] = None  # None = never resolved
    error: Optional[str] = None  # client-side failure before ordering
    # Admission/retry bookkeeping (tpcc workloads; zero elsewhere).
    attempts: int = 0         # endorsement attempts (distinct tx ids)
    retries: int = 0          # backoff-and-retry events
    drops: int = 0            # MempoolFullError refusals absorbed
    attempt_tx_ids: tuple = ()  # every tx id this op put in flight


@dataclass
class SimulationReport:
    """Everything one simulated run produced."""

    config: SimulationConfig
    ops: list
    fault_actions: list
    outcomes: list
    violations: list
    stats: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        s = self.stats
        verdict = "ok" if self.ok else f"{len(self.violations)} VIOLATIONS"
        return (
            f"seed={self.config.seed} ops={len(self.ops)} "
            f"faults={len(self.fault_actions)} blocks={s.get('blocks', 0)} "
            f"valid={s.get('valid', 0)} invalid={s.get('invalid', 0)} "
            f"client_errors={s.get('client_errors', 0)} "
            f"dropped={s.get('dropped', 0)} reconciled={s.get('reconciled', 0)} "
            f"recoveries={s.get('recoveries', 0)} "
            f"backend={s.get('state_backend', 'memory')} "
            f"-> {verdict}"
        )


# ---------------------------------------------------------------------------
# Network construction
# ---------------------------------------------------------------------------

def build_network(config: SimulationConfig) -> SimNetwork:
    """Materialize the deployment a config describes.

    Identity counters are reset first so certificates, nonces and
    therefore tx-ids are identical across rebuilds of the same config —
    the foundation of seed replay.
    """
    reset_ca_instance_counter()
    reset_nonce_counter()

    organizations = [Organization(msp_id) for msp_id in config.org_ids()]
    channel = ChannelConfig(channel_id=SIM_CHANNEL, organizations=organizations)
    collections = []
    for name, members, policy in config.collections():
        principals = ", ".join(f"'{msp}.member'" for msp in members)
        collections.append(CollectionConfig(
            name=name,
            policy=f"OR({principals})",
            required_peer_count=config.required_peer_count,
            max_peer_count=config.max_peer_count,
            endorsement_policy=policy,
        ))
    if config.workload == "tpcc":
        from repro.workload.tpcc import TPCC_CHAINCODE

        channel.deploy_chaincode(
            TPCC_CHAINCODE,
            endorsement_policy=config.chaincode_policy,
            collections=collections,
        )
    else:
        channel.deploy_chaincode(
            PDC_CHAINCODE,
            endorsement_policy=config.chaincode_policy,
            collections=collections,
        )
        channel.deploy_chaincode(
            PUBLIC_CHAINCODE, endorsement_policy=config.chaincode_policy
        )

    features = (
        FrameworkFeatures.feature1_only()
        if config.features == "feature1"
        else FrameworkFeatures.original()
    )
    network = FabricNetwork(
        channel=channel,
        features=features,
        batch_size=config.batch_size,
        state_backend=config.state_backend,
        snapshot_every=config.snapshot_every,
        prune=config.prune,
        reorder=config.reorder,
        anti_entropy_every=config.anti_entropy_every,
    )

    peers: dict = {}
    clients: dict = {}
    colluding = set(config.colluding_orgs)
    for org in organizations:
        for num in range(config.peers_per_org):
            peer = network.add_peer(org.msp_id, f"peer{num}")
            peers[peer.name] = peer
        clients[org.msp_id] = network.client(org.msp_id, "client0")

    if config.workload == "tpcc":
        from repro.workload.tpcc import TPCC_CHAINCODE, TpccContract

        network.install_chaincode(TPCC_CHAINCODE, TpccContract())
    else:
        network.install_chaincode(PUBLIC_CHAINCODE, AssetContract())
        honest = [p for p in peers.values() if p.msp_id not in colluding]
        network.install_chaincode(PDC_CHAINCODE, PrivateAssetContract(), peers=honest)
        dishonest = [p for p in peers.values() if p.msp_id in colluding]
        if dishonest:
            network.install_chaincode(
                PDC_CHAINCODE,
                ColludingPrivateAssetContract(COLLUDER_FAKE_VALUE),
                peers=dishonest,
            )

    latency = LatencyModel(
        base=config.base_latency,
        jitter=config.jitter,
        # Every gossip-family topic — dissemination payloads and the
        # anti-entropy exchange — shares the gossip latency.
        topic_base={topic: config.gossip_latency for topic in GOSSIP_TOPICS},
    )
    # A nonzero validate_cost turns peer validation into a FIFO service
    # station charging per-transaction simulated time only: with no
    # per-signature term, a block's charge depends on its size and not on
    # how its signatures group by key.
    validate_cost = None
    if config.validate_cost:
        validate_cost = ValidationCostModel(
            per_signature=0.0, per_transaction=config.validate_cost
        )
    network.attach_runtime(
        seed=config.seed,
        latency=latency,
        faults=FaultInjector(),
        batch_timeout=config.batch_timeout,
        # 0 = unbounded; a bounded tpcc config exercises the admission/
        # retry policy against real MempoolFullError backpressure.
        mempool_limit=config.mempool_limit or None,
        validate_cost=validate_cost,
    )
    return SimNetwork(config=config, network=network, peers=peers, clients=clients)


# ---------------------------------------------------------------------------
# Generation (ops + fault schedule for a config)
# ---------------------------------------------------------------------------

def generate(config: SimulationConfig) -> tuple:
    """``(ops, fault_actions)`` for a config — both pure data.

    Builds a throwaway network (the generator needs real peer handles and
    certificates to resolve endorser sets); ``execute`` rebuilds an
    identical one from scratch.
    """
    sim = build_network(config)
    if config.workload == "tpcc":
        from repro.workload.tpcc import TpccWorkloadGenerator

        ops = TpccWorkloadGenerator(config, sim).generate()
    else:
        ops = WorkloadGenerator(config, sim).generate()
    consenters = [node.endpoint for node in sim.network.orderer.raft.nodes]
    fault_actions = generate_fault_schedule(
        config, sorted(sim.peers), consenters, config.horizon()
    )
    return ops, fault_actions


# ---------------------------------------------------------------------------
# Execution (the replay function)
# ---------------------------------------------------------------------------

def execute(
    config: SimulationConfig,
    ops: list,
    fault_actions: list,
    weaken: Optional[str] = None,
) -> SimulationReport:
    """Run one (config, ops, faults) triple and check every invariant.

    Every setting the run depends on is a field of ``config`` or
    recorded per op (``OpSpec.use_plan``); nothing in the process
    environment changes what it computes.
    """
    sim = build_network(config)
    runtime = sim.network.runtime
    if weaken is not None:
        WEAKENERS[weaken](sim)

    monitor = BlockBoundaryMonitor()
    monitor.attach(sim.all_peers())
    recovery = RecoveryMonitor(sim.network.channel, sim.network.features)
    recovery.attach(runtime)

    outcomes = [OpOutcome(spec=spec) for spec in ops]
    for outcome in outcomes:
        runtime.scheduler.call_at(outcome.spec.at, _submitter(sim, outcome))
    for action in fault_actions:
        runtime.scheduler.call_at(
            action.at, (lambda a=action: a.apply(runtime)), priority=-1
        )

    runtime.run()

    # Drive to quiescence: heal everything (the cluster's own partition
    # first, so its record of who reaches whom stays true), restart every
    # peer still down (a minimized trace may have lost its restart), repair
    # missed deliveries, then reconcile private data to a fixpoint.
    faults = runtime.bus.faults
    sim.network.orderer.raft.heal_partition()
    faults.heal()
    faults.drop_rate = 0.0
    faults.topic_drop_rates.clear()
    runtime.bus.latency.jitter = config.jitter
    for name in sorted(runtime.crashed_peers()):
        runtime.restart_peer(name)
    caught_up = runtime.catch_up()
    runtime.run()
    reconciled = sim.network.reconcile_private_data()

    violations = list(monitor.violations)
    violations.extend(recovery.violations)
    violations.extend(run_quiescence_checks(sim, outcomes))

    reference = sim.all_peers()[0]
    stats = {
        "sim_seconds": round(runtime.now, 6),
        "blocks": len(sim.network.orderer.delivered_blocks),
        "submitted": runtime.transactions_submitted,
        "valid": reference.valid_tx_count,
        "invalid": reference.invalid_tx_count,
        "client_errors": sum(1 for o in outcomes if o.error is not None),
        "unresolved": sum(
            1 for o in outcomes if o.tx_id is not None and o.status is None
        ),
        "dropped": faults.dropped,
        "caught_up": caught_up,
        "reconciled": reconciled,
        "attacks": sum(1 for o in outcomes if o.spec.is_attack),
        "recoveries": recovery.recoveries,
        "crash_drops": runtime.crash_drops,
        "state_backend": config.state_backend,
        "executor": config.executor,
        "workload": config.workload,
        # Contention accounting: how many committed-as-invalid transactions
        # were read/write races (vs policy or signature failures), their
        # scope split (within == rescuable by intra-block reordering,
        # cross == addressable only by early abort), the conflict-aware
        # orderer's own accounting (zeros when reorder is off), and below
        # how much admission/retry work the clients spent getting there.
        **_conflict_scope_stats(reference),
        **_reorder_stats(sim.network.orderer),
        # Snapshot checkpointing observability (zeros when the feature is
        # off): sealed snapshots across peers, the orderer's pruned-backlog
        # offset, and how far each peer's own chain prefix was archived.
        "snapshots_sealed": sum(
            1 for p in sim.all_peers() if p.sealed_snapshot_height() is not None
        ),
        "backlog_offset": sim.network.orderer.backlog_offset,
        "genesis_offset": max(
            (p.ledger.blockchain.genesis_offset for p in sim.all_peers()),
            default=0,
        ),
        "retries": sum(o.retries for o in outcomes),
        "mempool_drops": sum(o.drops for o in outcomes),
        "retry_exhausted": sum(
            1 for o in outcomes
            if o.error is not None and o.error.startswith("RetryExhaustedError")
        ),
        # Gossip-plane accounting: (collection rwset, target) records
        # pushed, wire payloads, anti-entropy digest exchanges, pull
        # repairs through either path, and wire bytes.
        "gossip_pushes": sim.network.gossip.pushes,
        "gossip_payloads": sim.network.gossip.batched_payloads,
        "gossip_digest_rounds": sim.network.gossip.digest_rounds,
        "gossip_reconcile_pulls": sim.network.gossip.reconcile_pulls,
        "gossip_bytes": sim.network.gossip.bytes_sent,
        "state_digest": state_digest(sim),
    }
    return SimulationReport(
        config=config,
        ops=list(ops),
        fault_actions=list(fault_actions),
        outcomes=outcomes,
        violations=violations,
        stats=stats,
    )


def _conflict_scope_stats(reference) -> dict:
    """Classify the reference peer's MVCC/phantom aborts by conflict scope."""
    from repro.orderer.reorder import conflict_scopes

    within = cross = 0
    for validated in reference.ledger.blockchain.all_blocks():
        scopes = conflict_scopes(validated.block.transactions, validated.flags)
        for scope in scopes.values():
            if scope == "within-block":
                within += 1
            else:
                cross += 1
    return {
        "mvcc_aborts": within + cross,
        "mvcc_within_block": within,
        "mvcc_cross_block": cross,
    }


def _reorder_stats(orderer) -> dict:
    """The conflict-aware pipeline's totals (zeros when reorder is off)."""
    pipeline = getattr(orderer, "reorderer", None)
    if pipeline is None:
        return {
            "reorder": False,
            "reorder_batches": 0,
            "reorder_displaced": 0,
            "reorder_max_distance": 0,
            "early_aborts": 0,
        }
    return {
        "reorder": True,
        "reorder_batches": pipeline.batches,
        "reorder_displaced": pipeline.displaced,
        "reorder_max_distance": pipeline.max_distance,
        "early_aborts": pipeline.early_aborts,
    }


def _submitter(sim: SimNetwork, outcome: OpOutcome) -> Callable[[], None]:
    """Closure that submits one op when its scheduled instant arrives."""

    def submit() -> None:
        spec = outcome.spec
        endorsing = [
            sim.peers[name] for name in spec.endorsers if name in sim.peers
        ]
        if not endorsing:
            # Never fall through to the gateway: an empty sequence would
            # silently endorse at the network's default peers.
            outcome.error = "no endorsing peers resolved"
            return
        client = sim.clients[spec.client_org]
        transient = (
            {"value": spec.transient_value}
            if spec.transient_value is not None
            else None
        )
        if sim.config.workload == "tpcc":
            _submit_with_retry(sim, outcome, client, endorsing, transient)
            return
        try:
            pending = client.submit_async(
                spec.chaincode_id,
                spec.function,
                list(spec.args),
                transient=transient,
                endorsing_peers=endorsing,
                # Plan ops treat the spec's endorsers as an ordered candidate
                # pool (quorum first, escalation backups after); None keeps
                # the legacy endorse-every-listed-peer semantics.
                endorsement_plan=True if spec.use_plan else None,
            )
        except ReproError as exc:
            outcome.error = f"{type(exc).__name__}: {exc}"
            return
        outcome.tx_id = pending.tx_id

        def note_done(p, outcome=outcome) -> None:
            # Plan-based endorsement resolves exceptionally on timeout or
            # exhaustion — a client-side error, not a committed status.
            if p.error is not None:
                outcome.error = f"{type(p.error).__name__}: {p.error}"
            else:
                outcome.status = p.result().status

        pending.add_done_callback(note_done)

    return submit


def _submit_with_retry(
    sim: SimNetwork, outcome: OpOutcome, client, endorsing, transient
) -> None:
    """Submit one tpcc op through the admission/retry policy.

    The retry rng is derived from ``(seed, op index)`` — independent of
    every other op, so retried schedules replay byte-identically.
    """
    from repro.workload.retry import RetryPolicy, submit_with_retry_async

    spec = outcome.spec
    config = sim.config

    def sync(handle) -> None:
        # Keep the outcome current after every attempt: if a fault drops
        # an envelope mid-retry, the run never settles and liveness
        # accounting needs the dropped attempt's tx id on the outcome.
        outcome.tx_id = handle.tx_id
        outcome.attempts = handle.attempts
        outcome.retries = handle.retries
        outcome.drops = handle.mempool_drops
        outcome.attempt_tx_ids = handle.attempt_tx_ids

    def on_final(handle) -> None:
        sync(handle)
        outcome.status = handle.status
        if handle.error is not None:
            outcome.error = f"{type(handle.error).__name__}: {handle.error}"

    try:
        submit_with_retry_async(
            sim.network,
            client,
            spec.chaincode_id,
            spec.function,
            list(spec.args),
            transient=transient,
            endorsing_peers=endorsing,
            policy=RetryPolicy(budget=config.retry_budget),
            rng=random.Random(f"retry-{config.seed}-{spec.index}"),
            on_attempt=sync,
            on_final=on_final,
        )
    except ReproError as exc:
        outcome.error = f"{type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# The one-call entry point
# ---------------------------------------------------------------------------

def run_seed(
    seed: int,
    ops: int,
    weaken: Optional[str] = None,
    workload: str = "mixed",
) -> SimulationReport:
    """Expand ``seed`` into (config, workload, faults) and execute it."""
    config = SimulationConfig.generate_workload(workload, seed, ops)
    ops_list, fault_actions = generate(config)
    return execute(config, ops_list, fault_actions, weaken=weaken)
