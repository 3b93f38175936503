"""Fig. 10 — PDC leakage issues among explicit PDC projects.

Paper: 91.67% (231/252) leak PDC; 231 via read functions, 20 of those
also via write functions.
"""

from __future__ import annotations

import pytest

from repro.core.analyzer.languages import scan_file
from repro.core.analyzer.source import ProjectFile
from repro.core.corpus.templates import go_chaincode

from _bench_utils import record


class TestFig10:
    def test_leakage_split(self, paper_study, results_dir):
        record(results_dir, "fig10_leakage", paper_study.render_fig10())
        assert paper_study.read_leak_count == 231
        assert paper_study.write_leak_count == 20
        assert paper_study.leak_any_count == 231
        assert paper_study.leakage_pct == pytest.approx(91.67, abs=0.01)

    def test_write_leaks_are_subset(self, paper_study):
        """Every write-leaky project is also read-leaky (the paper's '20
        of these 231' phrasing)."""
        assert paper_study.write_leak_count <= paper_study.read_leak_count
        assert paper_study.leak_any_count == paper_study.read_leak_count

    def test_bench_leak_detection(self, benchmark):
        file = ProjectFile(path="cc.go", content=go_chaincode("col", True, True))

        found = benchmark(scan_file, file)
        assert found["read_leak"] and found["write_leak"]
