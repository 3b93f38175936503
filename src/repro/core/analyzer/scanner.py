"""The static analyzer's entry points."""

from __future__ import annotations

from typing import Iterable

from repro.core.analyzer.detectors import (
    detect_configtx_policy,
    detect_explicit_pdc,
    detect_implicit_pdc,
)
from repro.core.analyzer.languages import scan_file
from repro.core.analyzer.report import ProjectAnalysis
from repro.core.analyzer.source import project_files


def analyze_project(project) -> ProjectAnalysis:
    """Run every detector over one project source."""
    files = project_files(project)
    analysis = ProjectAnalysis(
        name=getattr(project, "name", "<anonymous>"),
        year=getattr(project, "year", None),
    )
    explicit = detect_explicit_pdc(files)
    analysis.collections = explicit.collections
    analysis.implicit_files = detect_implicit_pdc(files)
    analysis.configtx = detect_configtx_policy(files)
    for file in files:
        if not file.is_chaincode:
            continue
        for detector, functions in scan_file(file).items():
            if functions:
                getattr(analysis, f"{detector}_functions")[file.path] = functions
    return analysis


def analyze_corpus(projects: Iterable) -> list[ProjectAnalysis]:
    """Analyze every project; order of results follows input order."""
    return [analyze_project(project) for project in projects]
