"""Self-test of the benchmark itself (not part of tier-1).

    python -m pytest benchmarks/e2e -q        # < 60 s: every workload at --scale 0.05

Checks the things a later change to the benchmark could silently break:
the result schema names exactly what ``BENCHMARK.json`` names, the layer
table accounts for the traced pipeline wall, simulated metrics repeat
exactly, and the tracing wrappers leave nothing behind.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import compare  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from repro.simulation import harness, invariants  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMALL = ["--seed", "5", "--scale", "0.05", "--repeats", "1", "--seconds", "0"]

#: What the wrapped attributes held before any traced run.
ORIGINALS = {(owner, attr): vars(owner)[attr] for owner, attr, *_ in spans.TARGETS}
ORIGINAL_BUILD = harness.build_network


def captured(entry_point, argv: list) -> tuple:
    """``(exit code, standard output)`` of one of the benchmark's mains."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = entry_point(argv)
    return code, buffer.getvalue()


def run_benchmark(argv: list) -> tuple:
    """``(exit code, last stdout line as JSON, results/latest.json)``."""
    code, output = captured(run.main, argv)
    document = json.loads((run.RESULTS / "latest.json").read_text())
    return code, json.loads(output.strip().splitlines()[-1]), document


@pytest.fixture(scope="module", autouse=True)
def results_in_tmp(tmp_path_factory):
    """Keep the self-test's output away from ``results/`` (real baselines)."""
    saved, run.RESULTS = run.RESULTS, tmp_path_factory.mktemp("results")
    yield
    run.RESULTS = saved


@pytest.fixture(scope="module")
def full_run(results_in_tmp):
    return run_benchmark(SMALL)


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert "setup_s" in [m["name"] for m in SPEC["end_to_end"]]


def test_result_schema_matches_benchmark_json(full_run):
    code, last_line, document = full_run
    assert code == 0 and last_line["correct"] is True and last_line["failed"] == 0
    assert set(last_line) == {"correct", "attempted", "failed", "metrics"}
    end_to_end = [m["name"] for m in SPEC["end_to_end"]]
    per_layer = [m["name"] for m in SPEC["per_layer"]]
    assert list(document["workloads"]) == list(WORKLOADS)
    for name, result in document["workloads"].items():
        assert sorted(result["end_to_end"]) == sorted(end_to_end), name
        assert sorted(result["per_layer"]) == sorted(per_layer), name
        for metric in end_to_end + per_layer:
            assert f"{name}/{metric}" in last_line["metrics"]
    assert set(document["environment"]) >= {"nproc", "python", "git_head"}


def test_layer_table_sums_to_pipeline_wall(full_run):
    _, _, document = full_run
    for name, result in document["workloads"].items():
        assert result["layer_sum_error"] <= 0.05, name
        assert result["per_layer"]["workload.loadgen_lateness_sim_s_max"]["value"] == 0


def test_driver_modes_print_one_table_each():
    argv = SMALL + ["--workload", "tpcc_hot"]
    _, untraced, _ = run_benchmark(argv + ["--trace", "0"])
    assert sorted(untraced["metrics"]) == sorted(m["name"] for m in SPEC["end_to_end"])
    _, traced, _ = run_benchmark(argv + ["--trace", "1"])
    assert sorted(traced["metrics"]) == sorted(m["name"] for m in SPEC["per_layer"])


def test_simulated_metrics_repeat_exactly(full_run, tmp_path):
    _, _, first = full_run
    baseline = tmp_path / "first.json"
    baseline.write_text(json.dumps(first))
    run_benchmark(SMALL + ["--workload", "pdc_defended_closed"])
    _, report = captured(
        compare.main, [str(baseline), str(run.RESULTS / "latest.json"), "--exact"]
    )
    # Wall metrics may breach their bounds at this size; exactness may not.
    assert "must repeat exactly" not in report, report


def test_wrappers_are_fully_removed(full_run):
    for (owner, attr), original in ORIGINALS.items():
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr} still wrapped"
    assert harness.build_network is ORIGINAL_BUILD
    assert harness.run_quiescence_checks is invariants.run_quiescence_checks
