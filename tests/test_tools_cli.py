"""Tests for the command-line tools."""

from __future__ import annotations

import pytest

from repro.core.corpus import generate_corpus, small_spec
from repro.tools import collusion as collusion_cli
from repro.tools import scan as scan_cli
from repro.tools import study as study_cli


@pytest.fixture
def corpus_dir(tmp_path):
    corpus = generate_corpus(small_spec(scale=8))
    pdc = [p for p, d in zip(corpus.projects, corpus.descriptors) if d.explicit][:5]
    plain = [p for p, d in zip(corpus.projects, corpus.descriptors) if not d.explicit][:5]
    for project in pdc + plain:
        project.materialize(tmp_path)
    return tmp_path


class TestScanCli:
    def test_scan_directory(self, corpus_dir, capsys):
        assert scan_cli.main([str(corpus_dir)]) == 0
        out = capsys.readouterr().out
        assert "scanned 10 project(s)" in out
        assert "explicit PDC" in out

    def test_scan_single_project(self, corpus_dir, capsys):
        project = next(corpus_dir.iterdir())
        assert scan_cli.main([str(project), "--single"]) == 0

    def test_scan_verbose_lists_functions(self, corpus_dir, capsys):
        assert scan_cli.main([str(corpus_dir), "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "read-leak" in out or "no PDC usage" in out

    def test_scan_empty_directory_fails(self, tmp_path):
        assert scan_cli.main([str(tmp_path)]) == 1


class TestStudyCli:
    def test_study_runs_and_materialises(self, tmp_path, capsys):
        target = tmp_path / "corpus"
        assert study_cli.main(["--materialize", str(target), "--limit", "5"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 7" in out and "Fig. 10" in out
        assert len(list(target.iterdir())) == 5


class TestCollusionCli:
    def test_default_presets(self, capsys):
        assert collusion_cli.main([]) == 0
        out = capsys.readouterr().out
        assert "MAJORITY" in out
        assert "NON-MEMBERS ALONE SUFFICE" in out

    def test_custom_policy(self, capsys):
        assert collusion_cli.main(
            ["--policy", "OR('Org1MSP.peer', 'Org4MSP.peer')", "--orgs", "4",
             "--members", "1", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "minimum colluding orgs     : 1" in out


class TestScanJson:
    def test_json_output_parses(self, corpus_dir, capsys):
        import json as json_module

        assert scan_cli.main([str(corpus_dir), "--json"]) == 0
        payload = json_module.loads(capsys.readouterr().out)
        assert len(payload) == 10
        explicit = [p for p in payload if p["pdc_kind"] != "none"]
        assert explicit, "the sample contains PDC projects"
        sample = explicit[0]
        assert {"name", "pdc_kind", "collections", "injection_vulnerable",
                "read_leaks", "write_leaks", "transient_bypass", "event_leaks"} <= set(sample)
