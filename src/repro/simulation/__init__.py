"""Deterministic simulation testing (DST) for the Fabric reproduction.

FoundationDB-style testing loop over the seeded event runtime of
:mod:`repro.runtime`:

* :mod:`~repro.simulation.config` — a seed expands into a randomly
  shaped network (orgs, peers, collections, policies, batching, latency);
* :mod:`~repro.simulation.workload` — a seeded generator emits a
  randomized mix of public/PDC reads, writes, deletes, cross-collection
  transfers and attack transactions as pure-data :class:`OpSpec` records;
* :mod:`~repro.simulation.faultplan` — a fault-schedule generator
  composes link cuts/heals, topic drops, loss and jitter bursts over
  simulated time;
* :mod:`~repro.simulation.invariants` — global safety invariants checked
  at block boundaries and at quiescence (hash chains, cross-peer
  agreement, an independent reference re-validation of the whole history,
  PDC privacy, endorsement-policy soundness, gossip convergence,
  liveness accounting);
* :mod:`~repro.simulation.harness` — builds the network from a config,
  executes a (workload, fault schedule) pair and reports violations;
* :mod:`~repro.simulation.shrink` — greedy ddmin shrinking of a failing
  run down to a minimal trace, rendered as a standalone repro script.

Everything is a pure function of the seed: ``run_seed(seed, ops)`` twice
produces byte-identical histories, which is what makes a failing seed a
complete bug report.
"""

from repro.simulation.config import SimulationConfig
from repro.simulation.faultplan import FaultAction, generate_fault_schedule
from repro.simulation.harness import (
    SimulationReport,
    build_network,
    execute,
    generate,
    run_seed,
)
from repro.simulation.invariants import RecoveryMonitor, Violation
from repro.simulation.shrink import ShrinkResult, render_repro_script, shrink_failing_run
from repro.simulation.workload import OpSpec, WorkloadGenerator

__all__ = [
    "SimulationConfig",
    "FaultAction",
    "generate_fault_schedule",
    "OpSpec",
    "WorkloadGenerator",
    "Violation",
    "RecoveryMonitor",
    "SimulationReport",
    "build_network",
    "execute",
    "generate",
    "run_seed",
    "ShrinkResult",
    "shrink_failing_run",
    "render_repro_script",
]
