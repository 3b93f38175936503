"""Defense overhead measurement (Fig. 11).

Measures, per transaction, the two latencies the paper reports:

* **execution latency** — steps 1-5 of Fig. 2: proposal creation,
  chaincode simulation at each endorser, endorsement signing, the
  endorsers' gossip push of private writes to collection members, and the
  client-side response checks (where New Feature 2 adds one SHA-256 and
  one extra comparison per endorser);
* **validation latency** — steps 13-18 at one committing peer: signature
  verification, endorsement-policy evaluation (where New Feature 1 adds
  the collection-level check for reads), MVCC, and commit.

Each configuration is measured over N runs (the paper uses 100) for the
three transaction types read / write / delete, the configurations
interleaved run by run (:func:`measure_cells`).  Absolute numbers are
simulator-scale, not Docker-network-scale; the claim under test is the
*relative* one — that the modified framework adds only minor overhead.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.chaincode.contracts import ConstrainedPrivateAssetContract
from repro.core.defense.features import FrameworkFeatures
from repro.network.presets import TestNetwork, three_org_network
from repro.peer.node import PeerNode

COLLECTION_POLICY = "AND('Org1MSP.peer', 'Org2MSP.peer')"
TX_TYPES = ("read", "write", "delete")
DEFAULT_RUNS = 100


@dataclass
class LatencyStats:
    """Summary statistics over per-run latencies (milliseconds)."""

    samples_ms: list = field(default_factory=list)

    def add(self, seconds: float) -> None:
        self.samples_ms.append(seconds * 1000.0)

    @property
    def mean(self) -> float:
        return statistics.fmean(self.samples_ms) if self.samples_ms else 0.0

    @property
    def median(self) -> float:
        return statistics.median(self.samples_ms) if self.samples_ms else 0.0

    @property
    def p95(self) -> float:
        if not self.samples_ms:
            return 0.0
        ordered = sorted(self.samples_ms)
        return ordered[min(len(ordered) - 1, int(0.95 * len(ordered)))]


@dataclass
class TxLatency:
    """Execution + validation latency for one (framework, tx-type) cell."""

    framework: str
    tx_type: str
    execution: LatencyStats = field(default_factory=LatencyStats)
    validation: LatencyStats = field(default_factory=LatencyStats)


def _build_network(features: FrameworkFeatures) -> TestNetwork:
    net = three_org_network(collection_policy=COLLECTION_POLICY, features=features)
    net.network.install_chaincode(net.chaincode_id, ConstrainedPrivateAssetContract())
    return net


class _ValidationTimer:
    """Times one peer's block deliveries, but only while armed.

    Setup traffic (seeding keys for delete runs) must not pollute the
    validation statistics, so the timer records samples only between
    :meth:`arm` and :meth:`disarm`.  It wraps the peer's ``deliver_block``,
    which the runtime looks up at every commit.
    """

    def __init__(self, peer: PeerNode, stats: LatencyStats) -> None:
        self._stats = stats
        self._armed = False
        original = peer.deliver_block

        def timed(block):
            start = time.perf_counter()
            result = original(block)
            if self._armed:
                self._stats.add(time.perf_counter() - start)
            return result

        peer.deliver_block = timed  # type: ignore[method-assign]

    def arm(self) -> None:
        self._armed = True

    def disarm(self) -> None:
        self._armed = False


class LatencyCell:
    """One (framework, tx-type) cell: set up once, measured run by run."""

    def __init__(
        self,
        features: FrameworkFeatures,
        tx_type: str,
        framework_label: Optional[str] = None,
    ) -> None:
        if tx_type not in TX_TYPES:
            raise ValueError(f"tx_type must be one of {TX_TYPES}")
        self._tx_type = tx_type
        self._net = net = _build_network(features)
        self.result = TxLatency(
            framework=framework_label or features.describe(), tx_type=tx_type
        )
        self._timer = _ValidationTimer(net.peer_of(2), self.result.validation)
        self._client = net.client_of(1)
        self._endorsers = [net.peer_of(1), net.peer_of(2)]
        # A read target that exists for every run.
        if tx_type == "read":
            self._seed("bench-key")

    def _seed(self, key: str) -> None:
        net = self._net
        self._client.submit_transaction(
            net.chaincode_id, "set_private", [net.collection, key],
            transient={"value": b"12"}, endorsing_peers=self._endorsers,
        ).raise_for_status()

    def step(self, run: int) -> None:
        """Measure one transaction (run number ``run``) of this cell."""
        net, client = self._net, self._client
        if self._tx_type == "read":
            function, args, transient = "get_private", [net.collection, "bench-key"], None
        elif self._tx_type == "write":
            function, args, transient = (
                "set_private", [net.collection, f"bench-{run}"], {"value": b"12"},
            )
        else:  # delete
            self._seed(f"bench-{run}")
            function, args, transient = "del_private", [net.collection, f"bench-{run}"], None

        start = time.perf_counter()
        proposal = client._proposal(net.chaincode_id, function, args, transient)
        responses = [
            net.network.request_endorsement(peer, proposal).response
            for peer in self._endorsers
        ]
        client._check_consistency(proposal, responses)
        envelope = client.assemble(proposal, responses)
        # The endorsers' gossip pushes are messages on the bus; delivering
        # them (and staging the plaintext at members) is execution work.
        net.network.runtime.run()
        self.result.execution.add(time.perf_counter() - start)

        self._timer.arm()
        try:
            net.network.submit_envelope(envelope).raise_for_status()
        finally:
            self._timer.disarm()


def measure_cells(cells: Sequence[LatencyCell], runs: int) -> None:
    """Drive every cell run by run: ``for run: for cell: cell.step(run)``.

    Cells compared against each other must be measured interleaved: the
    host's speed state can outlast a whole 0.2 s cell, so cells measured
    one after another read a state flip as overhead of whichever came
    second.  Interleaved, every cell samples every state equally.  The
    cyclic collector is held off for the duration (as ``timeit`` does):
    one collection pause inside a 0.1 ms validation sample moves that
    cell's mean by a third.
    """
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for run in range(runs):
            for cell in cells:
                cell.step(run)
    finally:
        if gc_was_enabled:
            gc.enable()


def measure_tx_latency(
    features: FrameworkFeatures,
    tx_type: str,
    runs: int = DEFAULT_RUNS,
    framework_label: Optional[str] = None,
) -> TxLatency:
    """Measure one Fig. 11 cell (the one-cell case of :func:`measure_cells`)."""
    cell = LatencyCell(features, tx_type, framework_label)
    measure_cells([cell], runs)
    return cell.result


def measure_fig11(
    runs: int = DEFAULT_RUNS,
    progress: Optional[Callable[[str], None]] = None,
) -> dict:
    """All six Fig. 11 cells: {original, modified} x {read, write, delete}."""
    frameworks = [
        ("original", FrameworkFeatures.original()),
        ("modified", FrameworkFeatures.defended()),
    ]
    cells = {}
    for label, features in frameworks:
        for tx_type in TX_TYPES:
            if progress:
                progress(f"{label} framework, {tx_type} transactions")
            cells[(label, tx_type)] = LatencyCell(features, tx_type, label)
    measure_cells(list(cells.values()), runs)
    return {key: cell.result for key, cell in cells.items()}


def overhead_pct(results: dict, tx_type: str, phase: str) -> float:
    """Relative overhead of the modified framework for one phase.

    Computed over the *median* latency: single-run outliers (GC pauses,
    scheduler noise) would otherwise dominate the comparison, which is
    about the systematic per-transaction cost of the defenses.
    """
    original = getattr(results[("original", tx_type)], phase).median
    modified = getattr(results[("modified", tx_type)], phase).median
    if original == 0:
        return 0.0
    return 100.0 * (modified - original) / original


def render_fig11(results: dict) -> str:
    lines = [
        "Fig. 11 — Impact of defense measures on per-transaction latency "
        "(ms, median [p95]; overhead on medians)",
        f"{'tx type':<8} {'phase':<11} {'original':>18} {'modified':>18} {'overhead':>10}",
    ]
    for tx_type in TX_TYPES:
        for phase in ("execution", "validation"):
            original = getattr(results[("original", tx_type)], phase)
            modified = getattr(results[("modified", tx_type)], phase)
            lines.append(
                f"{tx_type:<8} {phase:<11} "
                f"{original.median:>8.3f} [{original.p95:>6.3f}]  "
                f"{modified.median:>8.3f} [{modified.p95:>6.3f}]  "
                f"{overhead_pct(results, tx_type, phase):>8.1f}%"
            )
    return "\n".join(lines)
