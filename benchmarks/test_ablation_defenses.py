"""Ablation — per-feature defense cost.

Fig. 11 measures the fully-modified framework; this ablation separates
the cost of Feature 1 (extra policy evaluation at validation), Feature 2
(extra hash + hash-check on the endorse/assemble path) and the
non-member endorsement filter, so each design choice's price is visible
in isolation.
"""

from __future__ import annotations

import pytest

from repro.bench.latency import LatencyCell, measure_cells, measure_tx_latency
from repro.core.defense.features import FrameworkFeatures

from _bench_utils import bench_runs, record

CONFIGS = [
    ("original", FrameworkFeatures.original()),
    ("feature1", FrameworkFeatures.feature1_only()),
    ("feature2", FrameworkFeatures.feature2_only()),
    ("filter", FrameworkFeatures(filter_nonmember_endorsements=True)),
    ("all", FrameworkFeatures.defended()),
]


@pytest.fixture(scope="module")
def per_feature_results():
    # The paper's 100 runs per cell.  Validation is ~0.1 ms of memo hits:
    # one ~4 ms preemption sample moves a cell's *mean* past 1.3x, so the
    # gate below reads medians (as Fig. 11's overhead does).
    runs = max(100, bench_runs())
    cells = {label: LatencyCell(features, "read", label) for label, features in CONFIGS}
    measure_cells(list(cells.values()), runs)
    return {label: cell.result for label, cell in cells.items()}


class TestPerFeatureCost:
    def test_render(self, per_feature_results, results_dir):
        lines = [
            "Ablation — per-feature defense cost (read transactions, ms median)",
            f"{'config':<10} {'execution':>12} {'validation':>12}",
        ]
        for label, result in per_feature_results.items():
            lines.append(
                f"{label:<10} {result.execution.median:>12.3f} {result.validation.median:>12.3f}"
            )
        record(results_dir, "ablation_defense_features", "\n".join(lines))

    def test_each_feature_is_minor(self, per_feature_results):
        baseline = per_feature_results["original"]
        for label, result in per_feature_results.items():
            if label == "original":
                continue
            assert result.validation.median < baseline.validation.median * 1.3, label
            assert result.execution.median < baseline.execution.median * 1.3, label

    @pytest.mark.parametrize("label", [c[0] for c in CONFIGS])
    def test_bench_validation_per_config(self, benchmark, label):
        features = dict(CONFIGS)[label]
        result = benchmark.pedantic(
            lambda: measure_tx_latency(features, "read", runs=3), rounds=1, iterations=1
        )
        assert result.validation.mean > 0
