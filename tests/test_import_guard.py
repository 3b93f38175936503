"""Import boundaries: the protocol layers never import the attack
package, and no module imports a deserializer that can execute code.

The client, the peers, the orderer and the workload generators run honest
Fabric; ``repro.core.attacks`` builds adversaries on top of them.  A
protocol module that reached into the attack package would let attack
code decide what the honest pipeline does (the spec-level policy oracle
once lived there), so every import statement of these packages, at any
nesting depth, is checked.

Every stored row is a ``struct`` framing or canonical bytes, decoded by
code that can only raise ``CodecError`` on garbage; ``pickle``,
``marshal`` and ``shelve`` would turn a corrupt row into code execution,
so no module under ``repro`` imports them, and a WAL run with snapshots
and pruning loads none of them.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

ATTACKS = "repro.core.attacks"
GUARDED = (
    "policy", "client", "peer", "orderer", "runtime", "workload", "network", "ledger",
)
ROOT = Path(repro.__file__).parent
DESERIALIZERS = ("pickle", "_pickle", "marshal", "shelve")


def _names(node: ast.AST) -> list[str]:
    """Every dotted module name an import statement can bind."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.module and not node.level:
        return [node.module] + [f"{node.module}.{a.name}" for a in node.names]
    return []


def banned_imports(directory: Path, banned: tuple[str, ...]) -> list[str]:
    """``file:line`` of every import of a ``banned`` module (or of one of
    its submodules) under ``directory``."""
    found = []
    for path in sorted(directory.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if any(
                name == module or name.startswith(module + ".")
                for name in _names(node)
                for module in banned
            ):
                found.append(f"{path.relative_to(directory).as_posix()}:{node.lineno}")
    return sorted(found)


def attack_imports(directory: Path) -> list[str]:
    """``file:line`` of every import of the attack package under ``directory``."""
    return banned_imports(directory, (ATTACKS,))


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


def test_no_module_imports_a_code_executing_deserializer():
    assert banned_imports(ROOT, DESERIALIZERS) == []


def test_the_deserializer_guard_sees_every_import_form(tmp_path):
    (tmp_path / "a.py").write_text("import pickle\n")
    (tmp_path / "b.py").write_text("def f():\n    from _pickle import loads\n")
    (tmp_path / "c.py").write_text("import marshal, json\n")
    (tmp_path / "d.py").write_text("import shelve as s\nimport pickletools\n")
    assert banned_imports(tmp_path, DESERIALIZERS) == ["a.py:1", "b.py:2", "c.py:1", "d.py:1"]


_RUN_AND_REPORT = """
import sys
before = set(sys.modules)
from repro.tools.simulate import main
code = main(["--seeds", "1", "--ops", "30", "--backend", "wal",
             "--snapshot-every", "4", "--prune"])
print(code, sorted((set(sys.modules) - before) & set(sys.argv[1:])))
"""


def test_a_wal_run_with_snapshots_and_pruning_loads_no_deserializer(tmp_path):
    """``marshal`` is in ``sys.modules`` before any user code runs (the
    import system itself loads it), so the check is on what the run adds."""
    env = dict(os.environ, PYTHONPATH=str(ROOT.parent), TMPDIR=str(tmp_path))
    env.pop("REPRO_STATE_BACKEND", None)
    done = subprocess.run(
        [sys.executable, "-c", _RUN_AND_REPORT, *DESERIALIZERS],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 []", done.stdout
