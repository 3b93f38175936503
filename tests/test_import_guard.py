"""The protocol layers never import the attack package.

The client, the peers, the orderer and the workload generators run honest
Fabric; ``repro.core.attacks`` builds adversaries on top of them.  A
protocol module that reached into the attack package would let attack
code decide what the honest pipeline does (the spec-level policy oracle
once lived there), so every import statement of these packages, at any
nesting depth, is checked.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro

ATTACKS = "repro.core.attacks"
GUARDED = (
    "policy", "client", "peer", "orderer", "runtime", "workload", "network", "ledger",
)
ROOT = Path(repro.__file__).parent


def _names(node: ast.AST) -> list[str]:
    """Every dotted module name an import statement can bind."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.module and not node.level:
        return [node.module] + [f"{node.module}.{a.name}" for a in node.names]
    return []


def attack_imports(directory: Path) -> list[str]:
    """``file:line`` of every import of the attack package under ``directory``."""
    found = []
    for path in sorted(directory.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if any(
                name == ATTACKS or name.startswith(ATTACKS + ".")
                for name in _names(node)
            ):
                found.append(f"{path.relative_to(directory).as_posix()}:{node.lineno}")
    return sorted(found)


@pytest.mark.parametrize("package", GUARDED)
def test_package_imports_nothing_from_the_attack_package(package):
    directory = ROOT / package
    assert directory.is_dir(), package
    assert attack_imports(directory) == []


def test_the_guard_sees_every_import_form(tmp_path):
    (tmp_path / "a.py").write_text("from repro.core.attacks.ops import favourable_endorsers\n")
    (tmp_path / "b.py").write_text("def f():\n    import repro.core.attacks\n")
    (tmp_path / "c.py").write_text("from repro.core import attacks\n")
    (tmp_path / "d.py").write_text("from repro.core.defense import features\n")
    assert attack_imports(tmp_path) == ["a.py:1", "b.py:2", "c.py:1"]
