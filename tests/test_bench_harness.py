"""Smoke tests for the Fig. 11 measurement harness itself."""

from __future__ import annotations

import pytest

from repro.bench.latency import (
    LatencyStats,
    measure_tx_latency,
    overhead_pct,
    render_fig11,
)
from repro.core.defense.features import FrameworkFeatures


class TestLatencyStats:
    def test_empty_stats(self):
        stats = LatencyStats()
        assert stats.mean == 0.0 and stats.median == 0.0
        assert stats.p95 == 0.0

    def test_basic_statistics(self):
        stats = LatencyStats()
        for seconds in (0.010, 0.020, 0.030):
            stats.add(seconds)
        assert stats.mean == pytest.approx(20.0)
        assert stats.median == pytest.approx(20.0)
        assert stats.p95 == pytest.approx(30.0)


class TestMeasurementHarness:
    @pytest.mark.parametrize("tx_type", ["read", "write", "delete"])
    def test_each_tx_type_measures(self, tx_type):
        result = measure_tx_latency(FrameworkFeatures.original(), tx_type, runs=2)
        assert len(result.execution.samples_ms) == 2
        assert len(result.validation.samples_ms) == 2
        assert result.execution.mean > 0 and result.validation.mean > 0

    def test_unknown_tx_type_rejected(self):
        with pytest.raises(ValueError):
            measure_tx_latency(FrameworkFeatures.original(), "mint", runs=1)

    def test_seeding_excluded_from_validation_samples(self):
        """Delete runs seed a key per run; only the measured delete's
        delivery may be timed."""
        result = measure_tx_latency(FrameworkFeatures.original(), "delete", runs=3)
        assert len(result.validation.samples_ms) == 3

    def test_render_and_overhead(self):
        results = {
            (label, tx): measure_tx_latency(
                features, tx, runs=2, framework_label=label
            )
            for label, features in (
                ("original", FrameworkFeatures.original()),
                ("modified", FrameworkFeatures.defended()),
            )
            for tx in ("read", "write", "delete")
        }
        text = render_fig11(results)
        assert "Fig. 11" in text and "overhead" in text
        value = overhead_pct(results, "read", "validation")
        assert isinstance(value, float)
