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
from repro.bench.throughput import (
    DEFAULT_CELLS,
    DEFAULT_TRANSACTIONS,
    ThroughputCell,
    measure_throughput,
    measure_throughput_matrix,
    render_throughput,
)

__all__ = [
    "DEFAULT_CELLS",
    "DEFAULT_RUNS",
    "DEFAULT_TRANSACTIONS",
    "LatencyCell",
    "LatencyStats",
    "TX_TYPES",
    "ThroughputCell",
    "TxLatency",
    "measure_cells",
    "measure_fig11",
    "measure_throughput",
    "measure_throughput_matrix",
    "measure_tx_latency",
    "overhead_pct",
    "render_fig11",
    "render_throughput",
]
