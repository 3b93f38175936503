"""Tests for the explicit/implicit PDC and configtx detectors + scanner."""

from __future__ import annotations

import json

import pytest

from repro.core.analyzer.detectors import (
    detect_configtx_policy,
    detect_explicit_pdc,
    detect_implicit_pdc,
)
from repro.core.analyzer.scanner import analyze_project
from repro.core.analyzer.source import (
    FilesystemProject,
    InMemoryProject,
    ProjectFile,
    discover_projects,
)
from repro.core.corpus.templates import (
    collection_config_json,
    configtx_yaml,
    decoy_package_json,
    implicit_pdc_chaincode,
    public_only_chaincode,
)


def _files(**contents) -> list[ProjectFile]:
    return [ProjectFile(path=path, content=body) for path, body in contents.items()]


class TestExplicitDetector:
    def test_collection_config_detected(self):
        files = _files(**{"collections_config.json": collection_config_json()})
        result = detect_explicit_pdc(files)
        assert result.detected
        assert result.collections[0].name == "assetCollection"
        assert not any(c.has_endorsement_policy for c in result.collections)

    def test_endorsement_policy_detected(self):
        files = _files(
            **{"c.json": collection_config_json(with_endorsement_policy=True)}
        )
        result = detect_explicit_pdc(files)
        assert any(c.has_endorsement_policy for c in result.collections)

    def test_package_json_not_flagged(self):
        files = _files(**{"package.json": decoy_package_json("p")})
        assert not detect_explicit_pdc(files).detected

    def test_capitalised_keywords_accepted(self):
        """Older Fabric docs capitalise the keywords the paper lists."""
        config = json.dumps(
            [
                {
                    "Name": "col",
                    "Policy": "OR('Org1MSP.member')",
                    "RequiredPeerCount": 0,
                    "MaxPeerCount": 3,
                    "BlockToLive": 0,
                    "MemberOnlyRead": True,
                }
            ]
        )
        files = _files(**{"col.json": config})
        result = detect_explicit_pdc(files)
        assert result.detected and result.collections[0].name == "col"

    def test_nested_config_found(self):
        doc = json.dumps({"deep": {"collections": json.loads(collection_config_json())}})
        files = _files(**{"nested.json": doc})
        assert detect_explicit_pdc(files).detected

    def test_invalid_json_skipped(self):
        files = _files(**{"broken.json": "{not json"})
        assert not detect_explicit_pdc(files).detected

    def test_name_and_policy_alone_insufficient(self):
        """Plenty of JSON has name+policy; the PDC-specific keys decide."""
        files = _files(**{"x.json": json.dumps({"name": "a", "policy": "b"})})
        assert not detect_explicit_pdc(files).detected

    def test_non_json_files_ignored(self):
        files = _files(**{"config.yaml": collection_config_json()})
        assert not detect_explicit_pdc(files).detected


class TestImplicitDetector:
    def test_implicit_marker_found(self):
        files = _files(**{"cc.go": implicit_pdc_chaincode()})
        assert detect_implicit_pdc(files) == ["cc.go"]

    def test_marker_in_non_chaincode_ignored(self):
        files = _files(**{"README.json": json.dumps({"note": "_implicit_org_X"})})
        assert detect_implicit_pdc(files) == []

    def test_no_marker(self):
        files = _files(**{"cc.go": public_only_chaincode()})
        assert detect_implicit_pdc(files) == []


class TestConfigtxDetector:
    def test_rule_extracted(self):
        files = _files(**{"network/configtx.yaml": configtx_yaml("MAJORITY Endorsement")})
        findings = detect_configtx_policy(files)
        assert len(findings) == 1
        assert findings[0].is_majority

    def test_any_rule_not_majority(self):
        files = _files(**{"configtx.yaml": configtx_yaml("ANY Endorsement")})
        assert not detect_configtx_policy(files)[0].is_majority

    def test_other_yaml_ignored(self):
        files = _files(**{"docker-compose.yaml": configtx_yaml()})
        assert detect_configtx_policy(files) == []

    def test_yml_extension_accepted(self):
        files = _files(**{"configtx.yml": configtx_yaml()})
        assert len(detect_configtx_policy(files)) == 1


class TestScanner:
    def _project(self, **files) -> InMemoryProject:
        project = InMemoryProject(name="p", year=2020)
        for path, content in files.items():
            project.add(path, content)
        return project

    def test_full_analysis(self):
        from repro.core.corpus.templates import go_chaincode

        project = self._project(
            **{
                "collections_config.json": collection_config_json(),
                "chaincode/cc.go": go_chaincode("assetCollection", True, True),
                "network/configtx.yaml": configtx_yaml(),
            }
        )
        analysis = analyze_project(project)
        assert analysis.is_explicit_pdc
        assert not analysis.is_implicit_pdc
        assert analysis.pdc_kind == "explicit-only"
        assert analysis.uses_chaincode_level_policy
        assert analysis.configtx_is_majority
        assert analysis.has_read_leak and analysis.has_write_leak
        assert analysis.potentially_vulnerable_to_injection

    def test_non_pdc_project(self):
        project = self._project(**{"cc.go": public_only_chaincode()})
        analysis = analyze_project(project)
        assert analysis.pdc_kind == "none"
        assert not analysis.is_pdc
        assert not analysis.has_leak

    def test_both_kinds(self):
        project = self._project(
            **{
                "collections_config.json": collection_config_json(),
                "chaincode/implicit.go": implicit_pdc_chaincode(),
            }
        )
        assert analyze_project(project).pdc_kind == "both"

    def test_beyond_paper_detectors_fill_their_fields(self):
        event_leaky = """package main
func announce(stub shim.ChaincodeStubInterface, args []string) (string, error) {
\tasset, err := stub.GetPrivateData("demo", args[0])
\tif err != nil {
\t\treturn "", err
\t}
\tstub.SetEvent("AssetRead", asset)
\treturn "ok", nil
}
"""
        project = self._project(
            **{
                "collections_config.json": collection_config_json(),
                "chaincode/implicit.go": implicit_pdc_chaincode(),
                "chaincode/events.go": event_leaky,
            }
        )
        analysis = analyze_project(project)
        assert analysis.transient_bypass_functions == {
            "chaincode/implicit.go": ["storeOrgSecret"]
        }
        assert analysis.event_leak_functions == {"chaincode/events.go": ["announce"]}
        # Neither finding is a Fig. 10 payload leak.
        assert not analysis.has_leak

    def test_collection_policy_not_vulnerable(self):
        project = self._project(
            **{"c.json": collection_config_json(with_endorsement_policy=True)}
        )
        analysis = analyze_project(project)
        assert not analysis.uses_chaincode_level_policy
        assert not analysis.potentially_vulnerable_to_injection


class TestFilesystemScanning:
    def test_materialized_project_scans_identically(self, tmp_path):
        from repro.core.corpus.templates import go_chaincode

        project = InMemoryProject(name="fsproj", year=2019)
        project.add("collections_config.json", collection_config_json())
        project.add("chaincode/cc.go", go_chaincode("assetCollection", True, False))
        root = project.materialize(tmp_path)

        fs_project = FilesystemProject(root)
        assert fs_project.year == 2019
        in_memory = analyze_project(project)
        from_disk = analyze_project(fs_project)
        assert from_disk.is_explicit_pdc == in_memory.is_explicit_pdc
        assert from_disk.has_read_leak == in_memory.has_read_leak
        assert from_disk.read_leak_functions == in_memory.read_leak_functions

    def test_discover_projects(self, tmp_path):
        for name in ("p1", "p2"):
            InMemoryProject(name=name).add("a.json", "{}").materialize(tmp_path)
        projects = discover_projects(tmp_path)
        assert [p.name for p in projects] == ["p1", "p2"]

    def test_missing_directory_rejected(self, tmp_path):
        from repro.common.errors import AnalyzerError

        with pytest.raises(AnalyzerError):
            FilesystemProject(tmp_path / "ghost")

    def test_binary_and_oversize_skipped(self, tmp_path):
        root = tmp_path / "p"
        root.mkdir()
        (root / "ok.json").write_text("{}")
        (root / "blob.bin").write_bytes(b"\x00" * 10)
        (root / "huge.go").write_text("x" * 1_100_000)
        files = list(FilesystemProject(root).files())
        assert [f.path for f in files] == ["ok.json"]
