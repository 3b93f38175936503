"""Run one round of a workload and read the metrics off it.

A *round* is one complete seeded run: build the network, drive the
requests, drain to quiescence, run the invariant checks.  The
:class:`Probe` watches it from outside — wall timers around the build
and check phases, a commit listener on every peer, a delivery handler on
the orderer, crash/restart listeners on the runtime — so the same code
measures the three ``harness.execute`` workloads and the closed loop.
"""

from __future__ import annotations

import hashlib
import statistics
from dataclasses import dataclass, field
from time import perf_counter
from typing import Optional

from repro.common import crypto
from repro.common.tracing import PERF
from repro.protocol.transaction import ValidationCode
from repro.runtime.runtime import GOSSIP_TOPICS
from repro.simulation import harness
from repro.simulation.invariants import Violation, state_digest

import spans as span_mod
from workloads import (
    SETUP_KINDS,
    SLO_SIM_S,
    ClosedLoopDriver,
    Workload,
    build_closed_network,
    closed_ops,
    harness_inputs,
)

VALID = ValidationCode.VALID
_MVCC = (ValidationCode.MVCC_READ_CONFLICT, ValidationCode.PHANTOM_READ_CONFLICT)


def percentile(ordered: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list (an actual sample).

    An empty list reads 0.0: at self-test sizes a workload can commit
    nothing, and the metric must still be a number.
    """
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


# ---------------------------------------------------------------------------
# Watching one run
# ---------------------------------------------------------------------------

class Probe:
    """Wall timers and listeners around one run's build / pipeline / check."""

    def __init__(self, build, check, recorder: Optional[span_mod.SpanRecorder] = None) -> None:
        if recorder is not None:
            build = recorder.leaf(build, "simulation", "simulation.build")
            check = recorder.leaf(check, "simulation", "simulation.check")
        self._build, self._check = build, check
        self._recorder = recorder
        self.build_s = 0.0
        self.check_s = 0.0
        self.sim: Optional[harness.SimNetwork] = None
        self.perf_start: dict = {}
        self.perf_end: dict = {}
        #: tx id -> sim instant the *last* peer committed it VALID.
        self.committed_at: dict = {}
        self._valid_commits: dict = {}
        #: (sim instant, tx ids) per block the orderer delivered.
        self.blocks_cut: list = []
        self._recovering: dict = {}  # peer name -> (restart instant, target height)
        self.recovery_sim_s: list = []

    # -- the two timed phases ------------------------------------------------
    def build(self, config):
        started = perf_counter()
        sim = self._build(config)
        self.build_s += perf_counter() - started
        self._attach(sim)
        self.perf_start = PERF.snapshot()
        return sim

    def check(self, sim, outcomes):
        self.perf_end = PERF.snapshot()  # the pipeline ends where checking starts
        started = perf_counter()
        try:
            return self._check(sim, outcomes)
        finally:
            self.check_s += perf_counter() - started

    # -- listeners -------------------------------------------------------------
    def _attach(self, sim: harness.SimNetwork) -> None:
        self.sim = sim
        runtime = sim.network.runtime
        self._now = lambda: runtime.now
        self._peer_count = len(sim.peers)
        for peer in sim.all_peers():
            peer.on_commit(self._on_commit)
        sim.network.orderer.register_delivery(self._on_block_cut, replay=False)
        runtime.on_restart(self._on_restart)
        if self._recorder is not None:
            self._recorder.sim_clock = self._now

    def _on_commit(self, peer, validated) -> None:
        now = self._now()
        counts = self._valid_commits
        for tx, flag in zip(validated.block.transactions, validated.flags):
            if flag is VALID:
                seen = counts.get(tx.tx_id, 0) + 1
                counts[tx.tx_id] = seen
                if seen == self._peer_count:
                    self.committed_at[tx.tx_id] = now
        recovering = self._recovering.get(peer.name)
        if recovering is not None and validated.number + 1 >= recovering[1]:
            self.recovery_sim_s.append(now - recovering[0])
            del self._recovering[peer.name]

    def _on_block_cut(self, block) -> None:
        self.blocks_cut.append((self._now(), [tx.tx_id for tx in block.transactions]))

    def _on_restart(self, peer) -> None:
        # Fires after storage recovery, before the peer pulls its backlog:
        # "caught up" means reaching what the orderer had cut by then.
        target = self.sim.network.orderer.delivered_count
        if peer.ledger.height >= target:
            self.recovery_sim_s.append(0.0)
        else:
            self._recovering[peer.name] = (self._now(), target)


# ---------------------------------------------------------------------------
# One round
# ---------------------------------------------------------------------------

@dataclass
class Inputs:
    """Everything a round needs, generated from the seed before timing."""

    workload: Workload
    config: object  # SimulationConfig
    ops: list
    faults: list
    gen_s: float


def make_inputs(workload: Workload, seed: int, ops: int) -> Inputs:
    started = perf_counter()
    config = workload.make_config(seed, ops)
    if workload.loop == "closed":
        op_list, faults = closed_ops(seed, ops), []
    else:
        op_list, faults = harness_inputs(config)
    return Inputs(workload, config, op_list, faults, perf_counter() - started)


@dataclass(eq=False)
class RoundResult:
    workload: str
    seed: int
    traced: bool
    run_wall_s: float
    build_s: float
    check_s: float
    attempted: int
    valid_ops: int
    slo_met: int
    latencies: list  # sim-s, requests committed VALID, ascending
    sim_span_s: float  # first due -> last VALID commit
    violations: list
    fingerprint: dict  # must repeat exactly for one (workload, seed, ops)
    counters: dict
    # -- traced rounds only
    span_self: dict = field(default_factory=dict)  # name -> (self s, calls)
    queue_waits: list = field(default_factory=list)  # orderer submit -> cut, sim-s
    lateness_sim_s: float = 0.0  # how late the open-loop generator fired
    recorder: Optional[span_mod.SpanRecorder] = None

    @property
    def pipeline_wall_s(self) -> float:
        return self.run_wall_s - self.build_s - self.check_s


def _run_closed(probe: Probe, inputs: Inputs, recorder) -> harness.SimulationReport:
    """The closed loop's counterpart of ``harness._execute``."""
    sim = probe.build(inputs.config)
    runtime = sim.network.runtime
    driver = ClosedLoopDriver(sim, inputs.ops)
    if recorder is not None:
        driver._done = recorder.wrap(driver._done, "workload", "workload.drive")
    driver.run()
    caught_up = runtime.catch_up()
    runtime.run()
    reconciled = 0
    for _ in range(10):
        repaired = sim.network.reconcile_private_data()
        reconciled += repaired
        if repaired == 0:
            break
    violations = list(probe.check(sim, driver.outcomes))
    if driver.wrong_query_results:
        violations.append(Violation(
            "query-result",
            f"{driver.wrong_query_results} of {driver.queries} queries returned "
            "a value other than the one written",
        ))
    stats = {
        "sim_seconds": round(runtime.now, 6),
        "blocks": len(sim.network.orderer.delivered_blocks),
        "caught_up": caught_up,
        "reconciled": reconciled,
        "queries": driver.queries,
        "state_digest": state_digest(sim),
    }
    return harness.SimulationReport(
        config=inputs.config, ops=inputs.ops, fault_actions=[],
        outcomes=driver.outcomes, violations=violations, stats=stats,
    )


def run_round(inputs: Inputs, traced: bool = False) -> RoundResult:
    """One complete run of ``inputs``; traced rounds also record spans."""
    # Identities and signatures are deterministic, so a previous round's
    # verification verdicts would answer this round's checks.
    crypto.clear_caches()
    recorder = span_mod.SpanRecorder() if traced else None
    closed = inputs.workload.loop == "closed"
    probe = Probe(
        build_closed_network if closed else harness.build_network,
        harness.run_quiescence_checks,
        recorder,
    )
    if closed:
        def run():
            return _run_closed(probe, inputs, recorder)
    else:
        def run():
            return harness.execute(inputs.config, inputs.ops, inputs.faults)
    saved = (harness.build_network, harness.run_quiescence_checks)
    if not closed:
        harness.build_network, harness.run_quiescence_checks = probe.build, probe.check
    if recorder is not None:
        recorder.install()
        run = recorder.wrap(run, "simulation", "simulation.harness")
    started = perf_counter()
    try:
        report = run()
    finally:
        run_wall_s = perf_counter() - started
        harness.build_network, harness.run_quiescence_checks = saved
        if recorder is not None:
            recorder.uninstall()
    return _read_round(inputs, report, probe, run_wall_s, recorder)


# ---------------------------------------------------------------------------
# Reading a finished round
# ---------------------------------------------------------------------------

def _read_round(inputs, report, probe, run_wall_s, recorder) -> RoundResult:
    sim = probe.sim
    requests = [o for o in report.outcomes if o.spec.kind not in SETUP_KINDS]
    latencies = []
    last_commit = 0.0
    for outcome in requests:
        if outcome.status is VALID:
            done = probe.committed_at.get(outcome.tx_id)
            if done is not None:
                latencies.append(round(done - outcome.spec.at, 6))
                last_commit = max(last_commit, done)
    latencies.sort()
    first_due = min((o.spec.at for o in requests), default=0.0)
    violations = [str(v) for v in report.violations]
    violations += _gate_violations(sim, probe, requests, len(latencies))

    stats = report.stats
    fingerprint = {
        "sim_seconds": stats["sim_seconds"],
        "blocks": stats["blocks"],
        "state_digest": stats["state_digest"],
        "attempted": len(requests),
        "valid_ops": len(latencies),
        "latency_digest": hashlib.sha256(repr(latencies).encode()).hexdigest()[:16],
        "events": sim.network.runtime.scheduler.events_processed,
        "bus_messages": sim.network.runtime.bus.messages_sent,
    }
    result = RoundResult(
        workload=inputs.workload.name,
        seed=inputs.config.seed,
        traced=recorder is not None,
        run_wall_s=run_wall_s,
        build_s=probe.build_s,
        check_s=probe.check_s,
        attempted=len(requests),
        valid_ops=len(latencies),
        slo_met=sum(1 for lat in latencies if lat <= SLO_SIM_S),
        latencies=latencies,
        sim_span_s=max(last_commit - first_due, 1e-9),
        violations=violations,
        fingerprint=fingerprint,
        counters=_counters(report, probe, requests),
        recorder=recorder,
    )
    if recorder is not None:
        result.span_self = recorder.self_times()
        result.queue_waits, result.lateness_sim_s = _orderer_waits(
            recorder, probe.blocks_cut, requests
        )
    return result


def _gate_violations(sim, probe, requests, committed) -> list:
    """The benchmark's own output checks, on top of the program's invariants."""
    problems = []
    # Peers must agree on committed state.  The program's checks compare
    # chains and replay them against a reference model; this is the
    # independent end-state comparison.
    public, plaintext = _peer_digests(sim)
    if len(set(public.values())) > 1:
        problems.append(f"peers disagree on chain/world state/private hashes: {public}")
    for scope, held in plaintext.items():
        if len(set(held.values())) > 1:
            problems.append(f"member peers disagree on {scope} plaintext: {held}")
    # An acknowledged VALID transaction must be on every peer's chain —
    # including peers that crashed and recovered since.
    missing = 0
    for outcome in requests:
        if outcome.status is VALID:
            for peer in sim.all_peers():
                if peer.transaction_status(outcome.tx_id) is not VALID:
                    missing += 1
                    break
    if missing:
        problems.append(f"{missing} acknowledged VALID transactions missing at some peer")
    acknowledged = sum(1 for o in requests if o.status is VALID)
    if acknowledged != committed:
        problems.append(
            f"{acknowledged} requests acknowledged VALID but {committed} seen "
            "committed VALID at every peer"
        )
    return problems


def _peer_digests(sim) -> tuple:
    """Per-peer fingerprints of committed state.

    ``({peer: digest of chain + flags + world state + private hashes},
    {(chaincode, collection): {member peer: digest of plaintext}})`` —
    the first must agree across *all* peers, the second across a
    collection's member peers (a non-member that endorsed a private write
    legitimately keeps that plaintext, so non-members are not compared).
    """
    channel = sim.network.channel
    public: dict = {}
    plaintext: dict = {}
    for name, peer in sorted(sim.peers.items()):
        ledger = peer.ledger
        digest = hashlib.sha256()
        for validated in ledger.blockchain.all_blocks():
            digest.update(validated.block.header.block_hash())
            digest.update("".join(flag.name for flag in validated.flags).encode())
        for chaincode_id, definition in sorted(channel.chaincodes.items()):
            for key, entry in sorted(ledger.world_state.items(chaincode_id)):
                digest.update(repr((key, entry.value, entry.version.to_wire())).encode())
            for collection in definition.collections:
                scope = (chaincode_id, collection.name)
                for key_hash in sorted(ledger.private_hashes.key_hashes(*scope)):
                    entry = ledger.private_hashes.get(*scope, key_hash)
                    digest.update(repr(
                        (scope, key_hash, entry.value_hash, entry.version.to_wire())
                    ).encode())
                if collection.is_member_org(peer.msp_id):
                    rows = sorted(
                        (key, entry.value) for key, entry in ledger.private_data.items(*scope)
                    )
                    plaintext.setdefault(scope, {})[name] = hashlib.sha256(
                        repr(rows).encode()
                    ).hexdigest()[:16]
        public[name] = digest.hexdigest()[:16]
    return public, plaintext


def _counters(report, probe, requests) -> dict:
    """Counts the program already keeps, read at the same boundaries."""
    sim = probe.sim
    network, runtime = sim.network, sim.network.runtime
    perf = {
        name: probe.perf_end.get(name, 0) - probe.perf_start.get(name, 0)
        for name in probe.perf_end
    }
    reference = sim.all_peers()[0]
    chain_valid, chain_invalid = reference.valid_tx_count, reference.invalid_tx_count
    mvcc = sum(
        1
        for validated in reference.ledger.blockchain.all_blocks()
        for flag in validated.flags
        if flag in _MVCC
    )
    pipeline = network.orderer.reorderer  # every workload orders conflict-aware
    ordered = chain_valid + chain_invalid + pipeline.early_aborts
    gossip_messages = sum(runtime.bus.topic_counts.get(t, 0) for t in GOSSIP_TOPICS)
    disk_bytes = sum(
        entry.stat().st_size
        for peer in sim.all_peers()
        for entry in _backend_files(peer.ledger.backend)
    )
    return {
        "perf": perf,
        "chain_valid": chain_valid,
        "chain_invalid": chain_invalid,
        "mvcc_aborts": mvcc,
        "early_aborts": pipeline.early_aborts,
        "ordered": ordered,
        "reorder_displaced": pipeline.displaced,
        "blocks": report.stats["blocks"],
        "events": runtime.scheduler.events_processed,
        "bus_messages": runtime.bus.messages_sent,
        "bus_dropped": runtime.bus.messages_dropped + runtime.crash_drops,
        "mempool_rejections": runtime.mempool_rejections,
        "catch_up_blocks": report.stats["caught_up"],
        "recovery_sim_s_max": max(probe.recovery_sim_s, default=0.0),
        "gossip_messages": gossip_messages,
        "gossip_bytes": network.gossip.bytes_sent,
        "reconcile_pulls": network.gossip.reconcile_pulls,
        "digest_rounds": network.gossip.digest_rounds,
        "retries": sum(o.retries for o in requests),
        "retry_exhausted": sum(
            1 for o in requests
            if o.error is not None and o.error.startswith("RetryExhaustedError")
        ),
        "mempool_drops": sum(o.drops for o in requests),
        "snapshots_sealed": sum(
            1 for p in sim.all_peers() if p.latest_sealed_snapshot() is not None
        ),
        "disk_bytes": disk_bytes,
    }


def _backend_files(backend) -> list:
    directory = getattr(backend, "directory", None)  # WAL engine only
    return [p for p in directory.iterdir() if p.is_file()] if directory else []


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def end_to_end_metrics(rounds: list, counted: int, setup_s: float, peak_rss_mib: float) -> dict:
    """The nine end-to-end metrics from untraced rounds.

    Wall metrics are medians over every round run; simulated-time metrics
    pool the first ``counted`` rounds only, so they are a pure function of
    the seed however many extra rounds the time budget allowed.
    """
    pooled = rounds[:counted]
    latencies = sorted(lat for r in pooled for lat in r.latencies)
    attempted = sum(r.attempted for r in pooled)
    valid = sum(r.valid_ops for r in pooled)
    return {
        "setup_s": setup_s,
        "committed_tx_per_wall_s": statistics.median(
            r.valid_ops / r.pipeline_wall_s for r in rounds
        ),
        "run_wall_s": statistics.median(r.run_wall_s for r in rounds),
        "peak_rss_mib": peak_rss_mib,
        "committed_tx_per_sim_s": valid / sum(r.sim_span_s for r in pooled),
        "commit_latency_sim_p50_s": percentile(latencies, 0.50),
        "commit_latency_sim_p90_s": percentile(latencies, 0.90),
        "slo_met_share": sum(r.slo_met for r in pooled) / attempted,
        "committed_op_share": valid / attempted,
    }


def per_layer_metrics(traced: list, untraced: list, gen_s: float) -> dict:
    """The per-layer table from traced rounds (sums over rounds)."""
    busy: dict = {}
    calls: dict = {}
    for r in traced:
        for name, (seconds, count) in r.span_self.items():
            busy[name] = busy.get(name, 0.0) + seconds
            calls[name] = calls.get(name, 0) + count

    def total(key: str) -> float:
        return sum(r.counters[key] for r in traced)

    def perf(key: str) -> float:
        return sum(r.counters["perf"].get(key, 0) for r in traced)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def layer_busy(prefix: str) -> float:
        return sum(s for name, s in busy.items() if name.startswith(prefix))

    committed = sum(r.valid_ops for r in traced)
    attempted = sum(r.attempted for r in traced)
    blocks_at_peers = calls.get("peer.commit", 0)
    queue_waits = sorted(wait for r in traced for wait in r.queue_waits)
    traced_pipeline = sum(r.pipeline_wall_s for r in traced)
    untraced_pipeline = sum(r.pipeline_wall_s for r in untraced)
    verifications = (
        perf("verify_individual") + perf("verify_batched") + perf("verify_cache_hits")
    )
    metrics = {
        "client.busy_s": layer_busy("client."),
        "client.proposals_sent": perf("proposals_sent"),
        "client.plan_escalations": perf("plan_escalations"),
        "client.plan_timeouts": perf("plan_timeouts"),
        "peer.endorse_busy_s": busy.get("peer.endorse", 0.0),
        "peer.endorse_calls": calls.get("peer.endorse", 0),
        "peer.endorse_cache_hit_share": ratio(
            perf("endorse_cache_hits"), calls.get("peer.endorse", 0)
        ),
        "peer.validate_busy_s": busy.get("peer.validate", 0.0),
        "peer.validate_blocks": calls.get("peer.validate", 0),
        "peer.vscc_memo_hit_share": ratio(
            perf("vscc_memo_hits"), perf("vscc_memo_hits") + perf("vscc_memo_misses")
        ),
        "peer.commit_busy_s": busy.get("peer.commit", 0.0),
        "peer.valid_tx_share": ratio(
            total("chain_valid"), total("chain_valid") + total("chain_invalid")
        ),
        "peer.mvcc_abort_share": ratio(
            total("mvcc_aborts"), total("chain_valid") + total("chain_invalid")
        ),
        "crypto.sign_busy_s": busy.get("crypto.sign", 0.0),
        "crypto.verify_busy_s": busy.get("crypto.verify", 0.0),
        "crypto.verifications": verifications,
        "crypto.verify_cache_hit_share": ratio(perf("verify_cache_hits"), verifications),
        "crypto.modexp_per_committed_tx": ratio(
            perf("modexp_full") + perf("modexp_windowed") + perf("multiexp_calls"),
            committed,
        ),
        "crypto.table_builds": perf("table_builds"),
        "orderer.submit_busy_s": busy.get("orderer.submit", 0.0),
        "orderer.reorder_busy_s": busy.get("orderer.reorder", 0.0),
        "orderer.blocks": total("blocks"),
        "orderer.txs_per_block": ratio(
            total("chain_valid") + total("chain_invalid"), total("blocks")
        ),
        "orderer.queue_wait_sim_s_p50": percentile(queue_waits, 0.5),
        "orderer.early_abort_share": ratio(total("early_aborts"), total("ordered")),
        "orderer.reorder_displaced": total("reorder_displaced"),
        "gossip.disseminate_busy_s": busy.get("gossip.disseminate", 0.0),
        "gossip.reconcile_busy_s": busy.get("gossip.reconcile", 0.0),
        "gossip.wire_messages_per_committed_tx": ratio(total("gossip_messages"), committed),
        "gossip.bytes_per_committed_tx": ratio(total("gossip_bytes"), committed),
        "gossip.reconcile_pulls": total("reconcile_pulls"),
        "gossip.digest_rounds": total("digest_rounds"),
        "runtime.events": total("events"),
        "runtime.wall_us_per_event": ratio(untraced_pipeline * 1e6, sum(
            r.counters["events"] for r in untraced
        )),
        "runtime.self_busy_s": layer_busy("runtime."),
        "runtime.bus_messages": total("bus_messages"),
        "runtime.bus_dropped": total("bus_dropped"),
        "runtime.mempool_rejections": total("mempool_rejections"),
        "runtime.catch_up_blocks": total("catch_up_blocks"),
        "runtime.recovery_sim_s_max": max(
            r.counters["recovery_sim_s_max"] for r in traced
        ),
        "workload.gen_s": gen_s,
        "workload.drive_busy_s": busy.get("workload.drive", 0.0),
        "workload.retry_share": ratio(total("retries"), attempted),
        "workload.retry_exhausted": total("retry_exhausted"),
        "workload.mempool_drops": total("mempool_drops"),
        "workload.loadgen_lateness_sim_s_max": max(r.lateness_sim_s for r in traced),
        "workload.slo_miss_share": 1.0 - ratio(sum(r.slo_met for r in traced), attempted),
        "workload.failed_op_share": 1.0 - ratio(
            sum(r.valid_ops for r in traced), attempted
        ),
        "storage.commit_busy_s": busy.get("storage.commit", 0.0) + busy.get("storage.sync", 0.0),
        "storage.commits": calls.get("storage.commit", 0),
        "storage.flushes_per_block": ratio(calls.get("storage.commit", 0), blocks_at_peers),
        "storage.wal_bytes_per_committed_tx": ratio(total("disk_bytes"), committed),
        "storage.reopen_s": busy.get("storage.reopen", 0.0),
        "ledger.snapshot_busy_s": busy.get("ledger.snapshot", 0.0),
        "ledger.snapshots_sealed": total("snapshots_sealed"),
        "simulation.build_s": busy.get("simulation.build", 0.0),
        "simulation.check_busy_s": busy.get("simulation.check", 0.0),
        "simulation.harness_busy_s": busy.get("simulation.harness", 0.0),
        "simulation.violations": sum(len(r.violations) for r in traced + untraced),
        "trace.overhead_share": ratio(traced_pipeline - untraced_pipeline, untraced_pipeline),
    }
    return metrics


#: Per-layer busy metrics that together account for the pipeline wall.
PIPELINE_BUSY = (
    "client.busy_s", "peer.endorse_busy_s", "peer.validate_busy_s",
    "peer.commit_busy_s", "crypto.sign_busy_s", "crypto.verify_busy_s",
    "orderer.submit_busy_s", "orderer.reorder_busy_s",
    "gossip.disseminate_busy_s", "gossip.reconcile_busy_s",
    "runtime.self_busy_s", "workload.drive_busy_s", "storage.commit_busy_s",
    "storage.reopen_s", "ledger.snapshot_busy_s", "simulation.harness_busy_s",
)


def layer_sum_error(metrics: dict, traced: list) -> float:
    """|layer table − traced pipeline wall| as a share of the pipeline wall."""
    pipeline = sum(r.pipeline_wall_s for r in traced)
    covered = sum(metrics[name] for name in PIPELINE_BUSY)
    return abs(covered - pipeline) / pipeline


def _orderer_waits(recorder, blocks_cut: list, requests: list) -> tuple:
    """Queue waits (submit -> block cut, sim-s) and the generator's lateness.

    Both come from span sim-times: ``orderer.submit`` spans carry the tx
    id and the instant the envelope reached the orderer; ``peer.endorse``
    spans carry the instant an op's first proposal was simulated, which
    for a synchronously endorsed (non-plan) op is the instant the
    generator fired.
    """
    arrived: dict = {}
    endorsed: dict = {}
    for span in recorder.spans:
        ident = span[span_mod.IDENT]
        if ident is None:
            continue
        if span[span_mod.NAME] == "orderer.submit":
            arrived[ident] = span[span_mod.SIM]
        elif span[span_mod.NAME] == "peer.endorse":
            endorsed.setdefault(ident, span[span_mod.SIM])
    waits = [
        cut_at - arrived[tx_id]
        for cut_at, tx_ids in blocks_cut
        for tx_id in tx_ids
        if tx_id in arrived
    ]
    lateness = 0.0
    for outcome in requests:
        first_tx = outcome.attempt_tx_ids[0] if outcome.attempt_tx_ids else outcome.tx_id
        if not outcome.spec.use_plan and first_tx in endorsed:
            lateness = max(lateness, abs(endorsed[first_tx] - outcome.spec.at))
    return waits, lateness


def check_shape(workload: Workload, metrics: dict) -> list:
    """The workload's shape constraints, checked on a traced round's table."""
    problems = []
    for name, low, high in workload.shape:
        value = metrics[name]
        if (low is not None and value < low) or (high is not None and value > high):
            problems.append(
                f"{workload.name}: {name}={value:.4g} outside "
                f"[{'' if low is None else low}, {'' if high is None else high}]"
            )
    return problems
