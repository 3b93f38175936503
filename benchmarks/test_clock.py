"""Self-test of ``benchmarks/clock.py`` (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/test_clock.py -q     # a few seconds

One ``--scale 0.15`` round (a 0.1 round decodes nothing, so the
``from_canonical_bytes`` row would read 0): the timers see every target,
the table's rows sum to no more than the round (the targets never call
one another, and a timer counts only outermost calls), and every swapped
binding is put back.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE / "e2e"), str(HERE)]

import clock  # noqa: E402


@pytest.fixture
def wal_scratch(tmp_path, monkeypatch):
    """WAL peers under ``tmp_path``, whatever root an earlier run cached."""
    import tempfile

    from repro.storage import factory

    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.setattr(factory, "_temp_root", None)


def test_rows_sum_to_no_more_than_the_round(wal_scratch):
    from repro.common import serialization
    from workloads import WORKLOADS

    originals = (serialization.canonical_bytes, serialization.from_canonical_bytes)
    ops = round(WORKLOADS["pdc_faults"].ops * 0.15)
    measured = clock.clock_round("pdc_faults", sub_seed=700, ops=ops)
    rows = measured["rows"]
    assert set(rows) == {label for label, _, _ in clock.TARGETS}
    assert all(calls > 0 for _, calls in rows.values()), rows
    assert sum(seconds for seconds, _ in rows.values()) <= measured["run_wall_s"]
    assert (serialization.canonical_bytes, serialization.from_canonical_bytes) == originals


def test_the_command_prints_the_table(wal_scratch):
    output = io.StringIO()
    with contextlib.redirect_stdout(output):
        code = clock.main(["--workload", "tpcc_wide", "--scale", "0.1"])
    assert code == 0
    lines = output.getvalue().splitlines()
    assert lines[0].startswith("tpcc_wide, sub-seed 700: run_wall_s")
    assert any(line.startswith("| `canonical_bytes` |") for line in lines)
    assert lines[-1].startswith("| everything else |")
