"""Tests for the TPC-C-style contention workload stack.

Covers the :class:`~repro.workload.tpcc.TpccContract` semantics (hot-key
read-modify-writes, the restock rule, private order-lines), the seeded
open-loop load generator (determinism, empirical-rate convergence, burst
windows), the admission/retry policy over the bounded mempool (backoff
within budget, typed exhaustion, commit idempotence), the tpcc config
family's wire roundtrip, and full invariant-checked simulation sweeps of
the contended workload.
"""

from __future__ import annotations

import random

import pytest

from repro.common.errors import EndorsementError, RetryExhaustedError
from repro.identity.ca import reset_ca_instance_counter
from repro.identity.organization import Organization
from repro.network.channel import ChannelConfig
from repro.network.collection import CollectionConfig
from repro.network.network import FabricNetwork
from repro.protocol.proposal import reset_nonce_counter
from repro.protocol.transaction import ValidationCode
from repro.simulation.config import SimulationConfig
from repro.simulation.harness import build_network, execute, generate, run_seed
from repro.simulation.workload import OpSpec
from repro.workload import (
    BurstWindow,
    OpenLoopGenerator,
    RetryPolicy,
    TPCC_CHAINCODE,
    TpccContract,
    submit_with_retry_async,
)
from repro.workload.tpcc import INITIAL_STOCK, RESTOCK_QUANTITY, STOCK_FLOOR


# ---------------------------------------------------------------------------
# Network helpers
# ---------------------------------------------------------------------------

def _tpcc_network(batch_size: int = 5) -> FabricNetwork:
    """Three orgs, PDC1 = {Org1, Org2}, the tpcc contract everywhere."""
    orgs = [Organization(f"Org{i}MSP") for i in (1, 2, 3)]
    channel = ChannelConfig(channel_id="tpccchan", organizations=orgs)
    channel.deploy_chaincode(
        TPCC_CHAINCODE,
        endorsement_policy="MAJORITY Endorsement",
        collections=[
            CollectionConfig(
                name="PDC1",
                policy="OR('Org1MSP.member', 'Org2MSP.member')",
                required_peer_count=0,
                max_peer_count=3,
            )
        ],
    )
    net = FabricNetwork(channel=channel, batch_size=batch_size)
    for org in orgs:
        net.add_peer(org.msp_id)
    net.install_chaincode(TPCC_CHAINCODE, TpccContract())
    return net


def _loaded_network(batch_size: int = 5) -> FabricNetwork:
    net = _tpcc_network(batch_size=batch_size)
    endorsers = net.default_endorsers()[:2]
    net.client("Org1MSP").submit_transaction(
        TPCC_CHAINCODE, "load_warehouse", ["1", "2", "3", "5"],
        endorsing_peers=endorsers,
    ).raise_for_status()
    return net


def _tx_occurrences(net: FabricNetwork, tx_id: str) -> int:
    """How many times ``tx_id`` appears on the first peer's chain."""
    peer = net.peers()[0]
    return sum(
        1
        for validated in peer.ledger.blockchain.blocks()
        for tx in validated.block.transactions
        if tx.tx_id == tx_id
    )


# ---------------------------------------------------------------------------
# The contract
# ---------------------------------------------------------------------------

class TestTpccContract:
    def test_load_populates_tables(self):
        net = _loaded_network()
        peer = net.peers()[0]
        assert peer.query_public(TPCC_CHAINCODE, "warehouse:1") == b"0"
        assert peer.query_public(TPCC_CHAINCODE, "district:1:1") == b"1"
        assert peer.query_public(TPCC_CHAINCODE, "district:1:2") == b"1"
        assert peer.query_public(TPCC_CHAINCODE, "customer:1:2:3") == b"0"
        assert peer.query_public(TPCC_CHAINCODE, "stock:1:5") == (
            str(INITIAL_STOCK).encode()
        )

    def test_new_order_advances_the_hot_key(self):
        net = _loaded_network()
        endorsers = net.default_endorsers()[:2]
        client = net.client("Org1MSP")
        result = client.submit_transaction(
            TPCC_CHAINCODE, "new_order", ["", "1", "1", "2", "3", "2", "r1"],
            endorsing_peers=endorsers,
        )
        result.raise_for_status()
        assert result.payload == b"1"
        peer = net.peers()[0]
        assert peer.query_public(TPCC_CHAINCODE, "district:1:1") == b"2"
        assert peer.query_public(TPCC_CHAINCODE, "order:1:1:000001") == b"2:3:2"
        # 50 - 2 stays above the floor: no restock.
        assert peer.query_public(TPCC_CHAINCODE, "stock:1:3") == b"48"

    def test_restock_rule_keeps_stock_positive(self):
        net = _loaded_network()
        endorsers = net.default_endorsers()[:2]
        client = net.client("Org1MSP")
        # Drain item 1 with max-quantity orders until the restock fires.
        quantity = INITIAL_STOCK
        for n in range(12):
            client.submit_transaction(
                TPCC_CHAINCODE, "new_order",
                ["", "1", "1", "1", "1", "5", f"d{n}"],
                endorsing_peers=endorsers,
            ).raise_for_status()
            quantity = quantity + (RESTOCK_QUANTITY if quantity - 5 < STOCK_FLOOR else 0) - 5
            assert quantity >= STOCK_FLOOR - 5
        peer = net.peers()[0]
        stored = int(peer.query_public(TPCC_CHAINCODE, "stock:1:1"))
        assert stored == quantity
        assert stored > 0

    def test_private_order_line_lands_in_collection(self):
        net = _loaded_network()
        endorsers = net.default_endorsers()[:2]  # Org1 + Org2 = PDC1 members
        result = net.client("Org1MSP").submit_transaction(
            TPCC_CHAINCODE, "new_order", ["PDC1", "1", "1", "1", "2", "1", "x9"],
            transient={"value": b"1:2:1"}, endorsing_peers=endorsers,
        )
        result.raise_for_status()
        members = [p for p in net.peers() if p.msp_id in ("Org1MSP", "Org2MSP")]
        outsider = next(p for p in net.peers() if p.msp_id == "Org3MSP")
        for peer in members:
            assert peer.query_private(TPCC_CHAINCODE, "PDC1", "ol:1:1:x9") == b"1:2:1"
        # Everyone holds the hash; the non-member never the plaintext.
        assert outsider.query_private_hash(TPCC_CHAINCODE, "PDC1", "ol:1:1:x9")
        assert outsider.query_private(TPCC_CHAINCODE, "PDC1", "ol:1:1:x9") is None

    def test_missing_customer_fails_endorsement(self):
        net = _loaded_network()
        with pytest.raises(EndorsementError, match="customer"):
            net.client("Org1MSP").submit_transaction(
                TPCC_CHAINCODE, "new_order", ["", "1", "1", "99", "1", "1", "r"],
                endorsing_peers=net.default_endorsers()[:2],
            )

    def test_order_line_without_collection_fails(self):
        net = _loaded_network()
        with pytest.raises(EndorsementError, match="collection"):
            net.client("Org1MSP").submit_transaction(
                TPCC_CHAINCODE, "new_order", ["", "1", "1", "1", "1", "1", "r"],
                transient={"value": b"v"},
                endorsing_peers=net.default_endorsers()[:2],
            )

    def test_payment_updates_both_balances(self):
        net = _loaded_network()
        endorsers = net.default_endorsers()[:2]
        client = net.client("Org2MSP")
        client.submit_transaction(
            TPCC_CHAINCODE, "payment", ["1", "2", "3", "250"],
            endorsing_peers=endorsers,
        ).raise_for_status()
        peer = net.peers()[0]
        assert peer.query_public(TPCC_CHAINCODE, "warehouse:1") == b"250"
        assert peer.query_public(TPCC_CHAINCODE, "customer:1:2:3") == b"-250"

    def test_stock_level_reads_without_writing(self):
        net = _loaded_network()
        result = net.client("Org1MSP").submit_transaction(
            TPCC_CHAINCODE, "stock_level", ["1", "4"],
            endorsing_peers=net.default_endorsers()[:2],
        )
        result.raise_for_status()
        assert result.payload == str(INITIAL_STOCK).encode()


# ---------------------------------------------------------------------------
# The open-loop generator (satellite: seed-swept determinism + rate)
# ---------------------------------------------------------------------------

class TestOpenLoopGenerator:
    @pytest.mark.parametrize("seed", [1, 7, 42, 1234])
    def test_deterministic_per_seed(self, seed):
        make = lambda: OpenLoopGenerator(  # noqa: E731
            seed=seed, rate=2.0, clients=4,
            bursts=(BurstWindow(5.0, 9.0, 3.0),), start=1.0,
        )
        assert make().arrivals(500) == make().arrivals(500)

    def test_different_seeds_diverge(self):
        a = OpenLoopGenerator(seed=1, rate=2.0).arrivals(50)
        b = OpenLoopGenerator(seed=2, rate=2.0).arrivals(50)
        assert a != b

    def test_times_strictly_increase_and_clients_in_range(self):
        arrivals = OpenLoopGenerator(seed=3, rate=5.0, clients=3, start=2.0).arrivals(300)
        times = [at for at, _ in arrivals]
        assert times == sorted(times)
        assert times[0] > 2.0
        assert {c for _, c in arrivals} <= {0, 1, 2}

    @pytest.mark.parametrize("seed", [11, 12, 13, 14, 15])
    @pytest.mark.parametrize("rate", [0.5, 2.0, 8.0])
    def test_empirical_rate_converges(self, seed, rate):
        count = 4000
        arrivals = OpenLoopGenerator(seed=seed, rate=rate).arrivals(count)
        elapsed = arrivals[-1][0]
        empirical = count / elapsed
        # 4000 exponential draws: the mean is within a few percent whp.
        assert empirical == pytest.approx(rate, rel=0.08)

    @pytest.mark.parametrize("seed", [21, 22, 23])
    def test_burst_window_multiplies_the_rate(self, seed):
        burst = BurstWindow(start=100.0, end=200.0, multiplier=4.0)
        gen = OpenLoopGenerator(seed=seed, rate=2.0, bursts=(burst,))
        arrivals = gen.arrivals(3000)
        inside = sum(1 for at, _ in arrivals if burst.start <= at < burst.end)
        inside_rate = inside / (burst.end - burst.start)
        assert inside_rate == pytest.approx(8.0, rel=0.2)
        assert gen.rate_at(150.0) == 8.0
        assert gen.rate_at(99.0) == 2.0
        assert gen.rate_at(200.0) == 2.0

    def test_overlapping_bursts_stack(self):
        gen = OpenLoopGenerator(
            seed=1, rate=1.0,
            bursts=(BurstWindow(0.0, 10.0, 2.0), BurstWindow(5.0, 15.0, 3.0)),
        )
        assert gen.rate_at(2.0) == 2.0
        assert gen.rate_at(7.0) == 6.0
        assert gen.rate_at(12.0) == 3.0

    def test_wire_roundtrip(self):
        burst = BurstWindow(1.5, 4.0, 2.5)
        assert BurstWindow.from_wire(burst.to_wire()) == burst

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            OpenLoopGenerator(seed=1, rate=0.0)
        with pytest.raises(ValueError):
            OpenLoopGenerator(seed=1, rate=1.0, clients=0)


# ---------------------------------------------------------------------------
# The retry policy
# ---------------------------------------------------------------------------

class TestRetryPolicy:
    def test_backoff_grows_exponentially_with_bounded_jitter(self):
        policy = RetryPolicy(budget=5, base_backoff=0.5, multiplier=2.0, jitter=0.5)
        rng = random.Random("backoff")
        for n in range(5):
            delay = policy.backoff(n, rng)
            base = 0.5 * (2.0 ** n)
            assert base <= delay <= base * 1.5

    def test_backoff_deterministic_per_rng(self):
        policy = RetryPolicy()
        a = [policy.backoff(n, random.Random("x")) for n in range(4)]
        b = [policy.backoff(n, random.Random("x")) for n in range(4)]
        assert a == b


# ---------------------------------------------------------------------------
# Admission/retry over the bounded mempool (satellite: backpressure)
# ---------------------------------------------------------------------------

def _bounded_tpcc(limit, batch_size=1, batch_timeout=5.0):
    reset_nonce_counter()
    reset_ca_instance_counter()
    net = _tpcc_network(batch_size=batch_size)
    runtime = net.attach_runtime(
        seed=9, mempool_limit=limit, batch_timeout=batch_timeout,
    )
    # Load through the runtime so the chain never forks around it.
    load = net.client("Org1MSP").submit_async(
        TPCC_CHAINCODE, "load_warehouse", ["1", "2", "3", "5"],
        endorsing_peers=net.default_endorsers()[:2],
    )
    runtime.run()
    assert load.result().status is ValidationCode.VALID
    return net, runtime


class TestAdmissionRetry:
    def test_mempool_refusal_retried_within_budget(self):
        net, runtime = _bounded_tpcc(limit=1)
        client = net.client("Org1MSP")
        endorsers = net.default_endorsers()[:2]
        # Fill the single mempool slot so the retried op is refused first.
        filler = client.submit_async(
            TPCC_CHAINCODE, "payment", ["1", "1", "1", "10"],
            endorsing_peers=endorsers,
        )
        # A NewOrder against district 1 shares no keys with the filler
        # payment, so the only obstacle is admission.
        handle = submit_with_retry_async(
            net, client, TPCC_CHAINCODE, "new_order",
            ["", "1", "1", "2", "1", "1", "nn1"],
            endorsing_peers=endorsers,
            policy=RetryPolicy(budget=3, base_backoff=2.0),
            rng=random.Random("t1"),
        )
        assert handle.mempool_drops == 1  # refused synchronously
        assert not handle.done
        runtime.run()
        assert handle.done
        assert handle.status is ValidationCode.VALID
        assert handle.error is None
        # The mempool refusal resubmits the *same* envelope: one attempt,
        # one tx id, two submissions.
        assert handle.attempts == 1
        assert handle.submissions == 2
        assert handle.attempt_tx_ids == (handle.tx_id,)
        assert filler.result().status is ValidationCode.VALID

    def test_budget_exhaustion_raises_typed_error(self):
        # A huge batch timeout keeps the filler in flight while every
        # backoff-and-resubmit runs into the still-full mempool.
        net, runtime = _bounded_tpcc(limit=1, batch_size=50, batch_timeout=1000.0)
        client = net.client("Org1MSP")
        endorsers = net.default_endorsers()[:2]
        client.submit_async(
            TPCC_CHAINCODE, "payment", ["1", "1", "1", "10"],
            endorsing_peers=endorsers,
        )
        handle = submit_with_retry_async(
            net, client, TPCC_CHAINCODE, "payment", ["1", "1", "2", "20"],
            endorsing_peers=endorsers,
            policy=RetryPolicy(budget=2, base_backoff=0.1),
            rng=random.Random("t2"),
        )
        runtime.run()
        assert handle.done
        assert handle.status is None
        assert isinstance(handle.error, RetryExhaustedError)
        assert handle.error.attempts == 1
        assert handle.mempool_drops == 3  # initial refusal + 2 retries
        # The refused envelope never entered the pipeline: not on chain.
        assert net.peers()[0].transaction_status(handle.tx_id) is None

    def test_retries_never_duplicate_a_commit(self):
        net, runtime = _bounded_tpcc(limit=1)
        client = net.client("Org1MSP")
        endorsers = net.default_endorsers()[:2]
        client.submit_async(
            TPCC_CHAINCODE, "payment", ["1", "1", "1", "10"],
            endorsing_peers=endorsers,
        )
        handle = submit_with_retry_async(
            net, client, TPCC_CHAINCODE, "new_order",
            ["", "1", "2", "1", "2", "1", "nd1"],
            endorsing_peers=endorsers,
            policy=RetryPolicy(budget=3, base_backoff=2.0),
            rng=random.Random("t3"),
        )
        runtime.run()
        assert handle.status is ValidationCode.VALID
        assert handle.submissions == 2
        # Resubmitting after a refusal must not commit the envelope twice.
        assert _tx_occurrences(net, handle.tx_id) == 1

    def test_mvcc_abort_retried_as_fresh_transaction(self):
        # batch_size=2 packs the two racing read-modify-writes of the
        # warehouse ytd hot key into one block: one commits, one aborts.
        net, runtime = _bounded_tpcc(limit=None, batch_size=2, batch_timeout=2.0)
        endorsers = net.default_endorsers()[:2]
        handles = [
            submit_with_retry_async(
                net, net.client(org), TPCC_CHAINCODE, "payment",
                ["1", "1", "1", amount], endorsing_peers=endorsers,
                policy=RetryPolicy(budget=2, base_backoff=0.3),
                rng=random.Random(f"race-{org}"),
            )
            for org, amount in (("Org1MSP", "100"), ("Org2MSP", "7"))
        ]
        runtime.run()
        assert all(h.done and h.status is ValidationCode.VALID for h in handles)
        winner, loser = sorted(handles, key=lambda h: h.attempts)
        assert winner.attempts == 1
        # The loser re-endorsed a fresh proposal: two distinct tx ids, the
        # aborted one still on chain exactly once, flagged invalid.
        assert loser.attempts == 2
        assert loser.retries == 1
        aborted, final = loser.attempt_tx_ids
        assert aborted != final
        assert _tx_occurrences(net, aborted) == 1
        assert _tx_occurrences(net, final) == 1
        peer = net.peers()[0]
        assert peer.transaction_status(aborted) is ValidationCode.MVCC_READ_CONFLICT
        assert peer.transaction_status(final) is ValidationCode.VALID
        # Both payments applied exactly once: ytd = 100 + 7.
        assert peer.query_public(TPCC_CHAINCODE, "warehouse:1") == b"107"

    def test_mvcc_budget_exhaustion_keeps_the_final_status(self):
        net, runtime = _bounded_tpcc(limit=None, batch_size=2, batch_timeout=2.0)
        endorsers = net.default_endorsers()[:2]
        handles = [
            submit_with_retry_async(
                net, net.client(org), TPCC_CHAINCODE, "payment",
                ["1", "1", "1", "5"], endorsing_peers=endorsers,
                policy=RetryPolicy(budget=0),
                rng=random.Random(f"nb-{org}"),
            )
            for org in ("Org1MSP", "Org2MSP")
        ]
        runtime.run()
        statuses = sorted(h.status.value for h in handles)
        assert statuses == ["MVCC_READ_CONFLICT", "VALID"]
        assert all(h.error is None and h.attempts == 1 for h in handles)

    def test_policy_failures_are_terminal(self):
        """A committed policy failure is deterministic: one endorsement
        round, no retry, and the final status is kept."""
        net, runtime = _bounded_tpcc(limit=None)
        handle = submit_with_retry_async(
            net, net.client("Org1MSP"), TPCC_CHAINCODE, "payment",
            ["1", "1", "1", "5"],
            endorsing_peers=net.default_endorsers()[:1],  # MAJORITY needs two
            policy=RetryPolicy(budget=3),
            rng=random.Random("policy"),
        )
        runtime.run()
        assert handle.status is ValidationCode.ENDORSEMENT_POLICY_FAILURE
        assert handle.error is None
        assert handle.attempts == 1 and handle.retries == 0

    def test_chaincode_errors_are_terminal(self):
        net, runtime = _bounded_tpcc(limit=None)
        handle = submit_with_retry_async(
            net, net.client("Org1MSP"), TPCC_CHAINCODE, "payment",
            ["9", "1", "1", "5"],  # warehouse 9 was never loaded
            endorsing_peers=net.default_endorsers()[:2],
            policy=RetryPolicy(budget=3),
            rng=random.Random("terminal"),
        )
        assert handle.done
        assert isinstance(handle.error, EndorsementError)
        assert handle.retries == 0


# ---------------------------------------------------------------------------
# The tpcc config family
# ---------------------------------------------------------------------------

class TestTpccConfig:
    def test_generation_is_deterministic(self):
        assert SimulationConfig.generate_tpcc(5, 60) == SimulationConfig.generate_tpcc(5, 60)

    def test_wire_roundtrip_preserves_bursts(self):
        for seed in range(1, 12):
            config = SimulationConfig.generate_tpcc(seed, 40)
            again = SimulationConfig.from_wire(config.to_wire())
            assert again == config
            assert isinstance(again.bursts, tuple)

    def test_mixed_configs_still_roundtrip(self):
        config = SimulationConfig.generate(3, 40)
        assert SimulationConfig.from_wire(config.to_wire()) == config
        assert config.workload == "mixed"

    def test_workload_dispatch(self):
        assert SimulationConfig.generate_workload("tpcc", 1, 10).workload == "tpcc"
        assert SimulationConfig.generate_workload("mixed", 1, 10).workload == "mixed"
        with pytest.raises(ValueError):
            SimulationConfig.generate_workload("ycsb", 1, 10)

    def test_horizon_spans_the_arrival_schedule(self):
        for seed in range(1, 8):
            config = SimulationConfig.generate_tpcc(seed, 50)
            # ops arrivals at ~arrival_rate per second need ~ops/rate time.
            assert config.horizon() >= 0.9 * config.ops / config.arrival_rate


# ---------------------------------------------------------------------------
# The workload generator + full simulation sweeps
# ---------------------------------------------------------------------------

class TestTpccSimulation:
    def test_generator_output_is_deterministic(self):
        config = SimulationConfig.generate_tpcc(4, 30)
        ops_a, faults_a = generate(config)
        ops_b, faults_b = generate(config)
        assert ops_a == ops_b
        assert faults_a == faults_b

    def test_loads_precede_traffic(self):
        config = SimulationConfig.generate_tpcc(6, 30)
        ops, _ = generate(config)
        loads = [op for op in ops if op.kind == "tpcc_load"]
        traffic = [op for op in ops if op.kind != "tpcc_load"]
        assert len(loads) == config.warehouses
        assert traffic
        assert max(op.at for op in loads) < min(op.at for op in traffic)
        assert all(op.chaincode_id == TPCC_CHAINCODE for op in ops)

    def test_private_new_orders_carry_transients(self):
        config = SimulationConfig.generate_tpcc(2, 60)
        ops, _ = generate(config)
        private = [
            op for op in ops
            if op.kind == "tpcc_new_order" and op.transient_value is not None
        ]
        assert private
        for op in private:
            assert op.args[0] == "PDC1"
            keys = op.private_write_keys()
            assert list(keys) == ["PDC1"]
            assert keys["PDC1"] == {f"ol:{op.args[1]}:{op.args[2]}:{op.args[6]}"}

    @pytest.mark.parametrize("seed", [1, 2, 3, 5])
    def test_invariants_hold_under_contention(self, seed):
        report = run_seed(seed, 40, workload="tpcc")
        assert report.ok, [str(v) for v in report.violations[:5]]
        assert report.stats["workload"] == "tpcc"
        # The hot district keys really collide and the retry layer spent
        # work on them.  Without reordering the losers commit on-chain as
        # invalid; with REPRO_REORDER=1 the orderer early-aborts them
        # instead — either way the conflicts must show up somewhere.
        assert report.stats["mvcc_aborts"] + report.stats["early_aborts"] > 0
        assert report.stats["retries"] > 0

    def test_bounded_seed_exercises_backpressure(self):
        # Seed 1 draws mempool_limit=8 (pinned by the config rng stream);
        # regenerate here so the test fails loudly if the draw moves.
        config = SimulationConfig.generate_tpcc(1, 40)
        assert config.mempool_limit > 0
        report = run_seed(1, 40, workload="tpcc")
        assert report.ok, [str(v) for v in report.violations[:5]]
        assert report.stats["mempool_drops"] > 0

    def test_build_network_installs_tpcc_everywhere(self):
        config = SimulationConfig.generate_tpcc(3, 10)
        sim = build_network(config)
        assert TPCC_CHAINCODE in sim.network.channel.chaincodes
        assert len(sim.all_peers()) == 3
        assert sorted(sim.clients) == ["Org1MSP", "Org2MSP", "Org3MSP"]

    def test_exactly_one_commit_per_conflicting_pair(self):
        """Two clients race a NewOrder on the same district's hot key:
        exactly one commits and one aborts on MVCC."""
        config = SimulationConfig(
            seed=777, ops=3, org_count=3, peers_per_org=1,
            pdc1_members=("Org1MSP", "Org2MSP"),
            chaincode_policy="MAJORITY Endorsement",
            batch_size=2, batch_timeout=1.0, base_latency=0.3,
            jitter=0.0, gossip_latency=0.5, attack_weight=0.0,
            fault_windows=0, mean_gap=1.0,
            workload="tpcc", warehouses=1, districts_per_warehouse=1,
            arrival_rate=1.0, retry_budget=0, mempool_limit=0,
        )
        common = dict(
            chaincode_id=TPCC_CHAINCODE, endorsers=("peer0.Org1MSP", "peer0.Org2MSP"),
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
