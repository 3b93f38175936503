"""Measurement harnesses behind the benchmark suite."""

from repro.bench.latency import (
    DEFAULT_RUNS,
    TX_TYPES,
    LatencyCell,
    LatencyStats,
    TxLatency,
    measure_cells,
    measure_fig11,
    measure_tx_latency,
    overhead_pct,
    render_fig11,
)

__all__ = [
    "DEFAULT_RUNS",
    "LatencyCell",
    "LatencyStats",
    "TX_TYPES",
    "TxLatency",
    "measure_cells",
    "measure_fig11",
    "measure_tx_latency",
    "overhead_pct",
    "render_fig11",
]
