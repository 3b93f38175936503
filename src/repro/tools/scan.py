"""CLI: static-analyze Fabric projects on disk.

Usage::

    python -m repro.tools.scan PATH [--single] [--verbose]

``PATH`` is a directory whose child directories are projects (the layout
``discover_projects`` expects), or with ``--single`` one project root.
Prints a per-project report and the aggregate study statistics — the
offline equivalent of the paper's GitHub scan.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.core.analyzer import FilesystemProject, analyze_project, discover_projects
from repro.core.analyzer.report import ProjectAnalysis
from repro.core.study import aggregate


def analysis_to_json(analysis: ProjectAnalysis) -> dict:
    """A machine-readable per-project report."""
    return {
        "name": analysis.name,
        "year": analysis.year,
        "pdc_kind": analysis.pdc_kind,
        "collections": [
            {
                "file": c.file_path,
                "name": c.name,
                "has_endorsement_policy": c.has_endorsement_policy,
            }
            for c in analysis.collections
        ],
        "implicit_files": analysis.implicit_files,
        "configtx_rule": analysis.configtx_rule,
        "uses_chaincode_level_policy": analysis.uses_chaincode_level_policy,
        "injection_vulnerable": analysis.potentially_vulnerable_to_injection,
        "read_leaks": analysis.read_leak_functions,
        "write_leaks": analysis.write_leak_functions,
        # Beyond the paper's §V-C payload analysis.
        "transient_bypass": analysis.transient_bypass_functions,
        "event_leaks": analysis.event_leak_functions,
    }


def _describe(analysis: ProjectAnalysis, verbose: bool) -> str:
    if not analysis.is_pdc:
        return f"{analysis.name}: no PDC usage"
    policy = "collection-level" if analysis.has_collection_level_policy else "chaincode-level"
    flags = []
    if analysis.potentially_vulnerable_to_injection:
        flags.append("INJECTION-VULNERABLE")
    if analysis.has_read_leak:
        flags.append("READ-LEAK")
    if analysis.has_write_leak:
        flags.append("WRITE-LEAK")
    line = f"{analysis.name}: {analysis.pdc_kind} PDC, {policy} policy"
    if analysis.configtx_rule:
        line += f", default policy {analysis.configtx_rule!r}"
    if flags:
        line += "  [" + ", ".join(flags) + "]"
    if verbose:
        for path, functions in sorted(analysis.read_leak_functions.items()):
            line += f"\n    read-leak  {path}: {', '.join(functions)}"
        for path, functions in sorted(analysis.write_leak_functions.items()):
            line += f"\n    write-leak {path}: {', '.join(functions)}"
        # Beyond the paper: neither finding counts towards Fig. 10.
        for path, functions in sorted(analysis.transient_bypass_functions.items()):
            line += f"\n    transient-bypass {path}: {', '.join(functions)}  (beyond paper)"
        for path, functions in sorted(analysis.event_leak_functions.items()):
            line += f"\n    event-leak {path}: {', '.join(functions)}  (beyond paper)"
    return line


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.tools.scan", description="Static analyzer for Fabric PDC usage"
    )
    parser.add_argument("path", help="directory of projects (or one project with --single)")
    parser.add_argument("--single", action="store_true", help="PATH is one project root")
    parser.add_argument("--verbose", action="store_true", help="list leaky functions per file")
    parser.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    args = parser.parse_args(argv)

    if args.single:
        projects = [FilesystemProject(args.path)]
    else:
        projects = discover_projects(args.path)
    if not projects:
        print(f"no projects found under {args.path}", file=sys.stderr)
        return 1

    analyses = [analyze_project(project) for project in projects]
    if args.json:
        print(json.dumps([analysis_to_json(a) for a in analyses], indent=2))
        return 0
    for analysis in analyses:
        print(_describe(analysis, args.verbose))

    results = aggregate(analyses)
    print()
    print(f"scanned {results.total_projects} project(s): "
          f"{results.explicit_count} explicit PDC, {results.implicit_count} implicit")
    if results.explicit_count:
        print(f"  injection-vulnerable (chaincode-level policy): "
              f"{results.chaincode_level_count} ({results.injection_vulnerable_pct:.2f}%)")
        print(f"  leaking PDC through payloads: "
              f"{results.leak_any_count} ({results.leakage_pct:.2f}%)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
