"""Tests for the simulated validation service time.

Covers the deterministic LPT shard planner and the cost model that
charges a block's validation over a peer's modelled core count.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path

import pytest

import repro
from repro.common.errors import ConfigError
from repro.runtime.executor import (
    ValidationCostModel,
    plan_shards,
    shard_makespan,
)


# ---------------------------------------------------------------------------
# Shard planning
# ---------------------------------------------------------------------------

class TestPlanShards:
    def test_partition_exactly_once(self):
        weights = [5, 1, 4, 4, 2, 9, 3, 1]
        plan = plan_shards(weights, 3)
        flat = sorted(i for b in plan for i in b)
        assert flat == list(range(len(weights)))

    def test_deterministic(self):
        weights = [3, 3, 3, 7, 1, 1, 2]
        assert plan_shards(weights, 4) == plan_shards(list(weights), 4)

    def test_single_shard_is_everything(self):
        assert plan_shards([2, 5, 1], 1) == [[0, 1, 2]]

    def test_empty(self):
        assert plan_shards([], 4) == []
        assert shard_makespan([], 4) == 0

    def test_bad_shard_count(self):
        with pytest.raises(ConfigError):
            plan_shards([1], 0)

    def test_makespan_bounds(self):
        weights = [5, 1, 4, 4, 2, 9, 3, 1]
        serial = sum(weights)
        for shards in (1, 2, 3, 4, 8):
            span = shard_makespan(weights, shards)
            assert max(weights) <= span <= serial
        assert shard_makespan(weights, 1) == serial

    def test_lpt_balances(self):
        # 4 equal items over 2 bins must split 2/2, not 3/1.
        plan = plan_shards([1, 1, 1, 1], 2)
        assert sorted(len(b) for b in plan) == [2, 2]

    def test_ties_broken_by_index(self):
        # Equal weights go in index order onto the lowest-numbered
        # least-loaded bin, so the plan is fixed, not merely balanced.
        assert plan_shards([1, 1, 1, 1], 2) == [[0, 2], [1, 3]]

    def test_more_shards_than_items_drops_empty_bins(self):
        assert plan_shards([3, 1], 5) == [[0], [1]]
        assert shard_makespan([3, 1], 5) == 3

    def test_heaviest_item_bounds_makespan(self):
        # 7 alone on one bin; 3 + 3 + 1 fill the other up to it.
        assert plan_shards([7, 3, 3, 1], 2) == [[0], [1, 2, 3]]
        assert shard_makespan([7, 3, 3, 1], 2) == 7


# ---------------------------------------------------------------------------
# The cost model
# ---------------------------------------------------------------------------

class TestValidationCostModel:
    def test_service_time_scales_with_workers(self):
        groups = [3, 3, 3, 3]
        one = ValidationCostModel(workers=1).service_seconds(groups, tx_count=4)
        four = ValidationCostModel(workers=4).service_seconds(groups, tx_count=4)
        # 12 signatures serially vs a 3-signature makespan, same tx term.
        assert one == 0.25 * 4 + 12
        assert four == 0.25 * 4 + 3

    def test_default_is_one_worker(self):
        model = ValidationCostModel()
        assert model.workers == 1
        assert model.service_seconds([2, 2], tx_count=0) == 4.0

    def test_empty_block_costs_tx_term_only(self):
        model = ValidationCostModel(per_transaction=0.5, workers=4)
        assert model.service_seconds([], tx_count=2) == 1.0

    def test_a_key_group_stays_on_one_core(self):
        # Four cores cannot split one key's five signatures: the makespan
        # is that group, not 8 / 4.
        model = ValidationCostModel(workers=4)
        assert model.service_seconds([5, 1, 1, 1], tx_count=4) == 0.25 * 4 + 5

    def test_zero_per_signature_prices_transactions_only(self):
        # The simulation's validate_cost setting: a block's charge depends
        # on its size, not on how its signatures group by key.
        model = ValidationCostModel(per_signature=0.0, per_transaction=0.5)
        assert model.service_seconds([4, 1], tx_count=3) == 1.5
        assert model.service_seconds([1, 1, 1, 1, 1], tx_count=3) == 1.5

    def test_every_keyword_enters_the_charge(self):
        model = ValidationCostModel(
            per_signature=2.0, per_transaction=1.0, workers=2
        )
        # tx term 2 * 1.0; makespan of [3, 1] over two cores is 3.
        assert model.service_seconds([3, 1], tx_count=2) == 2.0 + 2.0 * 3

    def test_bad_worker_count_rejected(self):
        with pytest.raises(ConfigError):
            ValidationCostModel(workers=0).service_seconds([1], tx_count=1)

    def test_model_is_immutable(self):
        model = ValidationCostModel()
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.workers = 4  # type: ignore[misc]


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
