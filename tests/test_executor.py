"""Tests for the pluggable execution backends.

Covers the spec/worker resolution chain, the deterministic LPT shard
planner, both backends' ordered ``map``, the active-backend registry and
its scoped pin, the cost model, and — the load-bearing property —
byte-identity of sharded ``verify_batch`` / offloaded signing against
the serial reference.
"""

from __future__ import annotations

import pytest

from repro.common import crypto
from repro.common.crypto import generate_keypair, verify_batch
from repro.common.errors import ConfigError
from repro.common.tracing import PERF
from repro.runtime.executor import (
    ENV_VAR,
    ProcessPoolBackend,
    SerialBackend,
    ValidationCostModel,
    current_backend,
    pinned_backend,
    plan_shards,
    reset_backend,
    resolve_executor_kind,
    resolve_worker_count,
    set_backend,
    shard_makespan,
)


@pytest.fixture(autouse=True)
def _clean_executor_env(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    reset_backend()
    crypto.clear_verify_cache()
    yield
    reset_backend()
    crypto.clear_verify_cache()


# ---------------------------------------------------------------------------
# Spec resolution
# ---------------------------------------------------------------------------

class TestResolution:
    def test_default_is_serial(self):
        assert resolve_executor_kind() == "serial"

    def test_env_over_default(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "process:3")
        assert resolve_executor_kind() == "process:3"

    def test_explicit_over_env(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "process")
        assert resolve_executor_kind("serial") == "serial"

    @pytest.mark.parametrize("bad", ["thread", "process:x", "process:0", "pool:2"])
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ConfigError):
            resolve_executor_kind(bad)

    def test_worker_count_precedence(self):
        # kind default: serial -> 1, process -> 4
        assert resolve_worker_count(spec="serial") == 1
        assert resolve_worker_count(spec="process") == 4
        # spec-inline beats the kind default
        assert resolve_worker_count(spec="process:2") == 2
        # explicit beats everything
        assert resolve_worker_count(workers=8, spec="process:2") == 8

    def test_bad_worker_counts_rejected(self):
        with pytest.raises(ConfigError):
            resolve_worker_count(spec="process:nope")
        with pytest.raises(ConfigError):
            resolve_worker_count(workers=0)


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


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------

def _double(payload):
    return payload * 2


class TestBackends:
    def test_serial_map_order(self):
        backend = SerialBackend(workers=1)
        assert backend.map(_double, [1, 2, 3]) == [2, 4, 6]
        assert not backend.parallel
        assert backend.describe() == "serial:1"

    def test_serial_with_workers_is_parallel_for_planning(self):
        assert SerialBackend(workers=4).parallel

    def test_process_map_order_and_counters(self):
        backend = ProcessPoolBackend(workers=2)
        try:
            before = PERF.snapshot()
            assert backend.map(_double, list(range(8))) == [
                0, 2, 4, 6, 8, 10, 12, 14
            ]
            delta = PERF.delta_since(before)
            assert delta.get("executor_tasks") == 8
            assert delta.get("executor_remote_tasks") == 8
        finally:
            backend.shutdown()

    def test_current_backend_follows_env(self, monkeypatch):
        assert current_backend().kind == "serial"
        # The variable is read once: a change takes effect at the next
        # reset_backend(), not at the next call.
        monkeypatch.setenv(ENV_VAR, "process:2")
        assert current_backend().kind == "serial"
        reset_backend()
        backend = current_backend()
        assert backend.kind == "process"
        assert backend.workers == 2
        assert current_backend() is backend
        monkeypatch.setenv(ENV_VAR, "serial")
        reset_backend()
        assert current_backend().kind == "serial"

    def test_set_backend_pins_over_env(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "process:2")
        pinned = set_backend("serial", workers=3)
        assert current_backend() is pinned
        assert pinned.kind == "serial" and pinned.workers == 3
        set_backend(None)
        assert current_backend().kind == "process"

    def test_pinned_backend_is_scoped_and_leaks_no_pool(self):
        outer = set_backend("serial", workers=3)
        for _ in range(2):  # consecutive scopes on one spec: one pool each
            with pinned_backend("process:2") as pinned:
                assert current_backend() is pinned
                assert pinned.describe() == "process:2"
                assert pinned.map(_double, [1, 2]) == [2, 4]
                assert pinned._pool is not None
            # The scope shut down what it built and restored what was active.
            assert pinned._pool is None
            assert current_backend() is outer

    def test_pinned_backend_keeps_a_matching_active_backend(self):
        # A process whose active backend already is what the config
        # recorded serves every run from its one pool.
        outer = set_backend("process:2")
        assert outer.map(_double, [1]) == [2]
        pool = outer._pool
        with pinned_backend("process:2") as pinned:
            assert pinned is outer
        assert current_backend() is outer and outer._pool is pool

    def test_pinned_backend_restores_on_error(self):
        outer = current_backend()
        with pytest.raises(RuntimeError):
            with pinned_backend("serial:4"):
                assert current_backend().workers == 4
                raise RuntimeError("boom")
        assert current_backend() is outer


# ---------------------------------------------------------------------------
# Byte-identity of the offloaded crypto
# ---------------------------------------------------------------------------

def _workload(n_keys=4, per_key=4, forge=()):
    """(public_key, message, signature) triples with optional forgeries."""
    items = []
    for k in range(n_keys):
        private, public = generate_keypair(f"shard-key-{k}".encode())
        for m in range(per_key):
            message = f"msg-{k}-{m}".encode()
            signature = private.sign(message)
            if (k, m) in forge:
                signature = signature[:-1] + bytes([signature[-1] ^ 1])
            items.append((public, message, signature))
    return items


class TestShardedVerifyIdentity:
    @pytest.mark.parametrize("forge", [(), ((0, 1), (2, 3)), ((1, 0),)])
    def test_serial_workers_match_reference(self, forge):
        items = _workload(forge=set(forge))
        crypto.clear_verify_cache()
        reference = [public.verify(msg, sig) for public, msg, sig in items]
        for workers in (2, 3, 4, 7):
            set_backend("serial", workers=workers)
            crypto.clear_verify_cache()
            assert verify_batch(items) == reference

    def test_process_backend_matches_reference(self):
        items = _workload(forge={(0, 0), (3, 2)})
        crypto.clear_verify_cache()
        reference = [public.verify(msg, sig) for public, msg, sig in items]
        set_backend("process", workers=2)
        crypto.clear_verify_cache()
        before = PERF.snapshot()
        assert verify_batch(items) == reference
        delta = PERF.delta_since(before)
        # The shards really went to worker processes, and their counter
        # deltas (one equation per item) folded back into the parent.
        assert delta.get("executor_remote_tasks", 0) >= 2
        assert delta.get("verify_individual", 0) == len(items)

    def test_fast_path_toggle_reaches_pool_workers(self):
        # A worker keeps the module globals it was forked with, so the
        # setter must retire the live pool: the merged PERF delta of a
        # sharded batch shows which kernels the workers actually ran.
        items = _workload()
        set_backend("process", workers=2)
        verify_batch(items)  # fork the pool with the fast path on
        saved = crypto.fast_path_enabled()
        try:
            crypto.set_fast_path(False)
            crypto.clear_caches()
            before = PERF.snapshot()
            assert all(verify_batch(items))
            delta = PERF.delta_since(before)
            assert delta.get("executor_remote_tasks", 0) >= 2
            assert delta.get("modexp_windowed", 0) == 0
            assert delta.get("modexp_full", 0) > 0
            crypto.set_fast_path(True)
            crypto.clear_caches()
            before = PERF.snapshot()
            assert all(verify_batch(items))
            delta = PERF.delta_since(before)
            assert delta.get("executor_remote_tasks", 0) >= 2
            assert delta.get("modexp_full", 0) == 0
            assert delta.get("modexp_windowed", 0) > 0
        finally:
            crypto.set_fast_path(saved)
            crypto.clear_caches()

    def test_small_batches_stay_serial(self):
        items = _workload(n_keys=2, per_key=2)
        set_backend("serial", workers=4)
        before = PERF.snapshot()
        flags = verify_batch(items)
        assert all(flags)
        assert PERF.delta_since(before).get("executor_tasks", 0) == 0

    def test_sharded_results_populate_cache(self):
        items = _workload()
        set_backend("serial", workers=4)
        crypto.clear_verify_cache()
        verify_batch(items)
        before = PERF.snapshot()
        assert all(public.verify(msg, sig) for public, msg, sig in items)
        assert PERF.delta_since(before).get("verify_cache_hits") == len(items)


class TestSignOffload:
    def test_sign_with_backend_identity(self):
        private, public = generate_keypair(b"sign-offload")
        message = b"the payload"
        inline = private.sign(message)
        assert crypto.sign_with_backend(private, message) == inline
        set_backend("process", workers=2)
        assert crypto.sign_with_backend(private, message) == inline
        assert public.verify(message, inline)


# ---------------------------------------------------------------------------
# Contention equivalence across backends
# ---------------------------------------------------------------------------

class TestTpccContentionEquivalence:
    """Two clients race a NewOrder on the same district's hot key.

    Exactly one commits and one aborts on MVCC — and the whole history
    (state digest, per-op outcomes, abort attribution) must be
    byte-identical whether execution ran on the serial reference or the
    process pool.
    """

    def _race(self, executor: str):
        from repro.protocol.transaction import ValidationCode
        from repro.simulation.config import SimulationConfig
        from repro.simulation.harness import execute
        from repro.simulation.workload import OpSpec
        from repro.workload import TPCC_CHAINCODE

        config = SimulationConfig(
            seed=777, ops=3, org_count=3, peers_per_org=1,
            pdc1_members=("Org1MSP", "Org2MSP"),
            chaincode_policy="MAJORITY Endorsement",
            batch_size=2, batch_timeout=1.0, base_latency=0.3,
            jitter=0.0, gossip_latency=0.5, attack_weight=0.0,
            fault_windows=0, mean_gap=1.0,
            workload="tpcc", warehouses=1, districts_per_warehouse=1,
            arrival_rate=1.0, retry_budget=0, mempool_limit=0,
            executor=executor,
        )
        endorsers = ("peer0.Org1MSP", "peer0.Org2MSP")
        common = dict(
            chaincode_id=TPCC_CHAINCODE, endorsers=endorsers,
            expect_policy_ok=True,
        )
        ops = [
            OpSpec(index=0, at=0.1, kind="tpcc_load",
                   function="load_warehouse", args=("1", "1", "3", "5"),
                   client_org="Org1MSP", **common),
            # Both NewOrders read-modify-write district:1:1 before either
            # commits; batch_size=2 packs them into one block.
            OpSpec(index=1, at=10.0, kind="tpcc_new_order",
                   function="new_order",
                   args=("", "1", "1", "1", "1", "1", "00001"),
                   client_org="Org1MSP", **common),
            OpSpec(index=2, at=10.001, kind="tpcc_new_order",
                   function="new_order",
                   args=("", "1", "1", "2", "2", "1", "00002"),
                   client_org="Org2MSP", **common),
        ]
        report = execute(config, ops, [])
        assert report.ok, [str(v) for v in report.violations[:5]]
        statuses = sorted(o.status.value for o in report.outcomes[1:])
        assert statuses == ["MVCC_READ_CONFLICT", "VALID"]
        assert report.outcomes[0].status is ValidationCode.VALID
        assert report.stats["mvcc_aborts"] == 1
        return report

    def test_exactly_one_commit_per_conflicting_pair(self):
        self._race("serial")

    def test_race_outcome_identical_across_backends(self):
        from repro.simulation.harness import compare_reports

        serial = self._race("serial")
        parallel = self._race("process:2")
        assert serial.stats["state_digest"] == parallel.stats["state_digest"]
        assert compare_reports(serial, parallel) == []
        # The abort lands on the same transaction in both histories.
        loser = [o.tx_id for o in serial.outcomes
                 if o.status is not None and o.status.value != "VALID"]
        loser_par = [o.tx_id for o in parallel.outcomes
                     if o.status is not None and o.status.value != "VALID"]
        assert loser == loser_par and len(loser) == 1


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

    def test_workers_follow_backend_when_unset(self):
        set_backend("serial", workers=2)
        model = ValidationCostModel()
        assert model.effective_workers() == 2
        assert model.service_seconds([2, 2], tx_count=0) == 2.0

    def test_empty_block_costs_tx_term_only(self):
        model = ValidationCostModel(per_transaction=0.5, workers=4)
        assert model.service_seconds([], tx_count=2) == 1.0
