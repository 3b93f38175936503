"""Tests for the simulated validation service time.

Covers the cost model that charges a block's validation per
transaction, and the rule that all work runs inline.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path

import pytest

import repro
from repro.common.errors import ConfigError
from repro.runtime.executor import ValidationCostModel


# ---------------------------------------------------------------------------
# The cost model
# ---------------------------------------------------------------------------

class TestValidationCostModel:
    def test_charges_per_transaction(self):
        model = ValidationCostModel(per_transaction=0.5)
        assert model.service_seconds(3) == 1.5
        assert model.service_seconds(0) == 0.0

    def test_defaults(self):
        model = ValidationCostModel()
        assert (model.per_signature, model.per_transaction, model.workers) == (
            0.0, 0.25, 1,
        )
        assert model.service_seconds(4) == 1.0

    def test_contract_keywords_accept_only_the_no_op_values(self):
        model = ValidationCostModel(
            per_signature=0.0, per_transaction=0.75, workers=1
        )
        assert model.service_seconds(2) == 1.5

    @pytest.mark.parametrize(
        "kwargs",
        [{"workers": 2}, {"workers": 0}, {"per_signature": 1.0}],
    )
    def test_signature_or_worker_pricing_rejected(self, kwargs):
        # Behaviour removed: the charge no longer depends on a block's
        # signatures or a modelled core count.
        with pytest.raises(ConfigError):
            ValidationCostModel(**kwargs)

    def test_one_class_under_both_import_paths(self):
        # The simulation and the benchmark import it from the executor
        # module; the runtime package re-exports the same class.
        from repro import runtime

        assert runtime.ValidationCostModel is ValidationCostModel

    def test_model_is_immutable(self):
        model = ValidationCostModel()
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.per_transaction = 4.0  # type: ignore[misc]


# ---------------------------------------------------------------------------
# Work runs inline
# ---------------------------------------------------------------------------

class TestInlineExecution:
    def test_src_imports_no_process_machinery(self):
        """Nothing under ``src/repro`` imports a process or thread pool:
        cores are modelled in simulated time, never spawned."""
        banned = ("multiprocessing", "concurrent", "threading")
        root = Path(repro.__file__).parent
        found = []
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    modules = [node.module or ""]
                else:
                    continue
                found += [
                    (path.relative_to(root).as_posix(), module)
                    for module in modules
                    if module.split(".")[0] in banned
                ]
        assert found == []
