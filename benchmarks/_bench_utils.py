"""Helpers shared by the benchmark modules (not a test file)."""

from __future__ import annotations

import os
from pathlib import Path


def bench_runs(default: int = 30) -> int:
    """Per-cell run count for latency sweeps (paper: 100)."""
    return int(os.environ.get("REPRO_BENCH_RUNS", default))


def record(results_dir: Path, name: str, text: str) -> None:
    """Print a rendered table/figure and archive it under results/."""
    print()
    print(text)
    (results_dir / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
