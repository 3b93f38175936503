"""Simulated validation service time for multi-core peers.

The discrete-event runtime is single-threaded by design — determinism
comes from one scheduler draining one queue — and every signature is
verified inline, in the calling process.  How many cores a peer spreads
that work over is a fact of the deployment, not of the program ("TPC-C
on Hyperledger Fabric", arXiv:2112.11277, measures multi-core peers as
the deployment baseline), so it is modelled in simulated time rather
than executed: :class:`ValidationCostModel` charges a block's validation
*service time* as the makespan of a deterministic shard plan
(:func:`plan_shards`) over the configured worker count.  Simulated
throughput thereby reflects the parallelism real multi-core hardware
would deliver, decoupled from the wall clock of the host this simulator
happens to run on.  The model only charges time: nothing is sent to
another process, because one verification costs less than one
inter-process round trip (docs/architecture.md §11).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.common.errors import ConfigError


# ---------------------------------------------------------------------------
# Deterministic shard planning
# ---------------------------------------------------------------------------

def plan_shards(weights: Sequence[int], shards: int) -> list[list[int]]:
    """Greedy LPT assignment of weighted items to at most ``shards`` bins.

    Returns a list of bins, each a sorted list of item indices; empty bins
    are dropped.  The plan is a pure function of ``(weights, shards)`` —
    items are placed heaviest first (ties by index) onto the least-loaded
    bin (ties by bin index) — so the cost model charges the same makespan
    for the same block on every run.
    """
    if shards < 1:
        raise ConfigError(f"shard count must be >= 1, got {shards}")
    if not weights:
        return []
    if shards == 1:
        return [list(range(len(weights)))]
    order = sorted(range(len(weights)), key=lambda i: (-weights[i], i))
    loads = [0] * shards
    bins: list[list[int]] = [[] for _ in range(shards)]
    for i in order:
        target = min(range(shards), key=lambda j: (loads[j], j))
        bins[target].append(i)
        loads[target] += weights[i]
    return [sorted(b) for b in bins if b]


def shard_makespan(weights: Sequence[int], shards: int) -> int:
    """Max bin load of the :func:`plan_shards` plan (0 for no items)."""
    plan = plan_shards(weights, shards)
    return max((sum(weights[i] for i in b) for b in plan), default=0)


# ---------------------------------------------------------------------------
# Simulated-time cost model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ValidationCostModel:
    """Charge block validation its simulated *service time*.

    The discrete-event clock normally treats validation as instantaneous;
    this model makes it a service station: committing a block costs
    ``per_transaction * n_tx + per_signature * makespan`` simulated
    seconds, where the makespan comes from :func:`plan_shards` over the
    block's per-key signature groups and ``workers`` cores.  A key's
    signatures stay on one core, since a core that sees all of them
    validates the key and builds its window table once.

    The defaults are relative units: one per signature and a quarter of
    one for each transaction's bookkeeping.
    """

    per_signature: float = 1.0
    per_transaction: float = 0.25
    workers: int = 1

    def service_seconds(self, group_sizes: Sequence[int], tx_count: int) -> float:
        makespan = shard_makespan(list(group_sizes), self.workers)
        return self.per_transaction * tx_count + self.per_signature * makespan
