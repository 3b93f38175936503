"""Hot-key abort ablation over the TPC-C-style contention workload.

A grid of (warehouse count x open-loop arrival rate) cells runs the
``tpcc`` workload family through the full simulation harness — contended
NewOrder/Payment traffic with private order-lines, a bounded mempool and
the client-side admission/retry policy — and reports a **tpmC-style
metric: committed NewOrder transactions per simulated minute**, next to
the complete abort/retry/drop breakdown.

Every cell runs twice: with arrival-order batching (the reference)
and with conflict-aware ordering (``reorder=True`` — intra-block
reordering plus orderer early abort of provably doomed transactions).

The shape the grid must show (and gates on):

* fewer warehouses = hotter district ``next_o_id`` keys = a *nonzero and
  rising* MVCC abort rate — contention is structural, not incidental;
* higher arrival rate against the bounded mempool = admission refusals
  absorbed by backoff-and-retry (drops, retries, exhaustions all > 0
  somewhere on the grid);
* on the hottest (single-warehouse) cells, conflict-aware ordering is
  worth the trouble: a lower on-chain MVCC abort rate, with the waste
  converted into orderer early aborts, at every size — and >= 1.3x the
  reference tpmC wherever the cell is long enough to measure tpmC (see
  :data:`MIN_MEASURED_NEW_ORDERS`).

Environment knobs:

* ``REPRO_BENCH_TX`` — operations per cell (default 60; CI quick mode
  passes a smaller count).
"""

from __future__ import annotations

import os
import time
from dataclasses import replace

from repro.common import crypto
from repro.protocol.transaction import ValidationCode
from repro.simulation.config import SimulationConfig
from repro.simulation.harness import execute, generate

from _bench_utils import record, write_bench

#: (warehouses, arrival rate per simulated second) grid cells.
GRID = [(1, 2.0), (1, 6.0), (2, 2.0), (2, 6.0)]

#: Committed NewOrders a reordered hot cell needs before its tpmC is a
#: measurement: below it one NewOrder more or less moves tpmC by more
#: than the 1.3x the gate asks for.  At 16 ops a hot cell commits 3 (and
#: the reference, which cuts 13 blocks to the reordered cell's 9, can
#: read higher); from 30 ops — the size CI runs — it commits 5 to 11.
MIN_MEASURED_NEW_ORDERS = 5
#: The size from which every hot cell is long enough to gate tpmC.
GATED_TPMC_OPS = 30


def _ops(default: int = 60) -> int:
    return int(os.environ.get("REPRO_BENCH_TX", default))


def _cell_config(warehouses: int, rate: float, ops: int) -> SimulationConfig:
    """One grid cell: fixed three-org deployment, varying contention."""
    return SimulationConfig(
        seed=808, ops=ops, org_count=3, peers_per_org=1,
        pdc1_members=("Org1MSP", "Org2MSP"),
        chaincode_policy="MAJORITY Endorsement",
        batch_size=4, batch_timeout=1.0, base_latency=0.3, jitter=0.0,
        gossip_latency=0.5, attack_weight=0.0, fault_windows=0,
        mean_gap=round(1.0 / rate, 6),
        workload="tpcc", warehouses=warehouses, districts_per_warehouse=1,
        arrival_rate=rate, bursts=((10.0, 25.0, 3.0),),
        retry_budget=2, mempool_limit=12,
        # Validation is a service station (0.25 simulated s/tx), so a
        # block slot burned on a doomed transaction costs real simulated
        # time — the waste the conflict-aware orderer exists to cut.
        validate_cost=0.25,
    )


def _run_cell(warehouses: int, rate: float, ops: int, reorder: bool) -> dict:
    config = replace(_cell_config(warehouses, rate, ops), reorder=reorder)
    cell_ops, faults = generate(config)

    started = time.perf_counter()
    report = execute(config, cell_ops, faults)
    wall_s = time.perf_counter() - started
    assert report.ok, [str(v) for v in report.violations[:5]]

    stats = report.stats
    committed_new_orders = sum(
        1 for o in report.outcomes
        if o.spec.kind == "tpcc_new_order" and o.status is ValidationCode.VALID
    )
    sim_minutes = stats["sim_seconds"] / 60.0
    chain_total = stats["valid"] + stats["invalid"]
    return {
        "warehouses": warehouses,
        "arrival_rate": rate,
        "reorder": reorder,
        "ops": ops,
        "sim_s": stats["sim_seconds"],
        "wall_s": round(wall_s, 2),
        "blocks": stats["blocks"],
        "committed": stats["valid"],
        "aborted": stats["invalid"],
        "committed_new_orders": committed_new_orders,
        "tpmC": round(committed_new_orders / sim_minutes, 3),
        "mvcc_aborts": stats["mvcc_aborts"],
        "mvcc_abort_rate": round(stats["mvcc_aborts"] / max(1, chain_total), 4),
        "early_aborts": stats["early_aborts"],
        "reorder_displaced": stats["reorder_displaced"],
        "retries": stats["retries"],
        "mempool_drops": stats["mempool_drops"],
        "retry_exhausted": stats["retry_exhausted"],
        "client_errors": stats["client_errors"],
        "state_digest": stats["state_digest"][:16],
    }


def test_tpcc_contention_ablation(results_dir):
    ops = _ops()
    try:
        rows = [
            _run_cell(w, rate, ops, reorder)
            for w, rate in GRID
            for reorder in (False, True)
        ]
    finally:
        crypto.clear_caches()

    by_cell = {
        (row["warehouses"], row["arrival_rate"], row["reorder"]): row
        for row in rows
    }

    # Every cell made progress.
    for row in rows:
        assert row["committed_new_orders"] > 0, row
        # Sanity ceiling: contention slows the workload down, it must not
        # wedge it — the chain keeps committing transactions throughout.
        assert row["mvcc_abort_rate"] < 0.9, row
        assert row["committed"] > 0, row

    # Hot cells really are hot: the single-warehouse/single-district
    # configs collide on the district hot key at every arrival rate.
    for rate in (2.0, 6.0):
        reference = by_cell[(1, rate, False)]
        reordered = by_cell[(1, rate, True)]
        assert reference["mvcc_aborts"] > 0, reference
        # Conflict-aware ordering converts on-chain abort waste into
        # orderer early aborts, and the saved chain space + faster retry
        # turnaround buys real throughput on the hot cells.
        assert reordered["early_aborts"] > 0, reordered
        assert reordered["mvcc_abort_rate"] < reference["mvcc_abort_rate"], (
            reference, reordered,
        )
        measured = reordered["committed_new_orders"] >= MIN_MEASURED_NEW_ORDERS
        if ops >= GATED_TPMC_OPS:
            assert measured, (reordered, "too short to gate tpmC at this size")
        if measured:
            assert reordered["tpmC"] >= 1.3 * reference["tpmC"], (
                reference, reordered,
            )
    # The retry layer absorbed real backpressure somewhere on the grid.
    assert sum(row["retries"] for row in rows) > 0
    assert sum(row["mempool_drops"] for row in rows) > 0

    lines = [
        f"Ablation — tpcc hot-key contention (3 orgs, MAJORITY, PDC1 "
        f"order-lines, {ops} ops/cell, mempool=12, retry budget 2)",
        f"{'wh':>3} {'rate':>5} {'ord':>4} {'tpmC':>8} {'commit':>7} "
        f"{'abort':>6} {'mvcc%':>6} {'early':>6} {'retries':>8} {'drops':>6} "
        f"{'exhaust':>8} {'sim s':>8}",
    ]
    for row in rows:
        lines.append(
            f"{row['warehouses']:>3} {row['arrival_rate']:>5.1f} "
            f"{'yes' if row['reorder'] else 'no':>4} "
            f"{row['tpmC']:>8.1f} {row['committed']:>7} {row['aborted']:>6} "
            f"{100 * row['mvcc_abort_rate']:>5.1f}% {row['early_aborts']:>6} "
            f"{row['retries']:>8} "
            f"{row['mempool_drops']:>6} {row['retry_exhausted']:>8} "
            f"{row['sim_s']:>8.1f}"
        )
    record(results_dir, "ablation_tpcc", "\n".join(lines))

    payload = {
        "workload": {
            "family": "tpcc",
            "orgs": 3,
            "pdc1_members": ["Org1MSP", "Org2MSP"],
            "policy": "MAJORITY Endorsement",
            "ops_per_cell": ops,
            "batch_size": 4,
            "mempool_limit": 12,
            "retry_budget": 2,
            "burst": [10.0, 25.0, 3.0],
            "validate_cost": 0.25,
            "reorder_legs": [False, True],
        },
        "metric": "committed NewOrders per simulated minute (tpmC-style)",
        "rows": rows,
    }
    write_bench("tpcc", payload)
