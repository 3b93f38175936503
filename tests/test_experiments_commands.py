"""Every command EXPERIMENTS.md quotes still names something that exists.

EXPERIMENTS.md is the page of current claims, and each claim says how to
regenerate it.  A quoted ``python -m <module>`` must import, and a quoted
``python3 <script>`` or ``pytest <path>`` must name a path in the repo,
so a rename or a deletion cannot leave a recipe that no longer runs.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_QUOTED = re.compile(r"```.*?```|`[^`]+`", re.DOTALL)
_MODULE = re.compile(r"\bpython3?\s+-m\s+([\w.]+)")
_SCRIPT = re.compile(r"\bpython3?\s+([\w./-]+\.py)\b")
# pytest takes several paths, possibly across a line break.
_PYTEST = re.compile(r"\bpytest((?:\s+[\w./=:-]+)+)")


def _quoted_commands() -> tuple[set[str], set[str]]:
    text = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    modules: set[str] = set()
    paths: set[str] = set()
    for span in _QUOTED.findall(text):
        modules.update(_MODULE.findall(span))
        paths.update(_SCRIPT.findall(span))
        for arguments in _PYTEST.findall(span):
            paths.update(
                a.split("::")[0] for a in arguments.split()
                if not a.startswith("-") and ("/" in a or a.endswith(".py"))
            )
    return modules, paths


MODULES, PATHS = _quoted_commands()


def test_the_page_quotes_commands():
    assert "repro.tools.study" in MODULES
    assert "benchmarks/test_fig10_leakage.py" in PATHS


@pytest.mark.parametrize("module", sorted(MODULES))
def test_quoted_module_imports(module):
    importlib.import_module(module)


@pytest.mark.parametrize("path", sorted(PATHS))
def test_quoted_path_exists(path):
    assert (ROOT / path).exists()
