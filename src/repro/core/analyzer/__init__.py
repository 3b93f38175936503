"""The static analyzer for Fabric projects (Section V-C)."""

from repro.core.analyzer.detectors import (
    CollectionFinding,
    ConfigtxFinding,
    detect_configtx_policy,
    detect_explicit_pdc,
    detect_implicit_pdc,
)
from repro.core.analyzer.languages import (
    extract_functions,
    scan_file,
)
from repro.core.analyzer.report import ProjectAnalysis
from repro.core.analyzer.scanner import analyze_corpus, analyze_project
from repro.core.analyzer.source import (
    FilesystemProject,
    InMemoryProject,
    ProjectFile,
    discover_projects,
)
from repro.core.analyzer.yaml_lite import extract_endorsement_rule, parse_yaml_lite

__all__ = [
    "CollectionFinding",
    "ConfigtxFinding",
    "detect_configtx_policy",
    "detect_explicit_pdc",
    "detect_implicit_pdc",
    "extract_functions",
    "scan_file",
    "ProjectAnalysis",
    "analyze_corpus",
    "analyze_project",
    "FilesystemProject",
    "InMemoryProject",
    "ProjectFile",
    "discover_projects",
    "extract_endorsement_rule",
    "parse_yaml_lite",
]
