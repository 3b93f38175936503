"""Tests for the deterministic simulation subsystem (repro.simulation)."""

from __future__ import annotations

import ast
import dataclasses
import json
from pathlib import Path

import pytest

import repro
from repro.chaincode.contracts import PrivateAssetContract
from repro.common.errors import ConfigError
from repro.identity.organization import Organization
from repro.network.channel import ChannelConfig
from repro.network.collection import CollectionConfig
from repro.network.network import FabricNetwork
from repro.runtime.executor import ValidationCostModel
from repro.simulation import (
    SimulationConfig,
    Violation,
    generate_fault_schedule,
    run_seed,
)
from repro.simulation.harness import WEAKENERS, build_network, execute, generate
from repro.simulation.invariants import (
    check_gossip_convergence,
    check_pdc_privacy,
)
from repro.simulation.shrink import (
    ddmin,
    load_trace,
    render_repro_script,
    shrink_failing_run,
)
from repro.simulation.workload import OpSpec

SWEEP_SEEDS = range(1, 9)  # the pinned seed block the suite keeps green
SWEEP_OPS = 40


# ---------------------------------------------------------------------------
# generation determinism
# ---------------------------------------------------------------------------
class TestConfigGeneration:
    def test_same_seed_same_config(self):
        assert SimulationConfig.generate(7, 50) == SimulationConfig.generate(7, 50)

    def test_different_seeds_vary_the_shape(self):
        configs = [SimulationConfig.generate(s, 50) for s in range(1, 30)]
        assert len({c.org_count for c in configs}) > 1
        assert len({c.batch_size for c in configs}) > 1
        assert any(c.colluding_orgs for c in configs)
        assert any(c.features == "feature1" for c in configs)

    def test_wire_roundtrip(self):
        config = SimulationConfig.generate(13, 25)
        assert SimulationConfig.from_wire(config.to_wire()) == config

    def test_feature1_configs_carry_a_collection_policy(self):
        for seed in range(1, 60):
            config = SimulationConfig.generate(seed, 10)
            if config.features == "feature1":
                assert config.pdc1_policy is not None

    def test_members_are_a_strict_subset_of_orgs(self):
        for seed in range(1, 30):
            config = SimulationConfig.generate(seed, 10)
            orgs = set(config.org_ids())
            assert set(config.pdc1_members) < orgs
            assert set(config.pdc2_members) <= orgs


class TestWorkloadGeneration:
    def test_same_config_same_ops_and_faults(self):
        config = SimulationConfig.generate(5, 30)
        ops_a, faults_a = generate(config)
        ops_b, faults_b = generate(config)
        assert [o.to_wire() for o in ops_a] == [o.to_wire() for o in ops_b]
        assert [f.to_wire() for f in faults_a] == [f.to_wire() for f in faults_b]

    def test_ops_are_time_ordered_and_complete(self):
        config = SimulationConfig.generate(2, 50)
        ops, _ = generate(config)
        assert len(ops) == 50
        assert all(a.at <= b.at for a, b in zip(ops, ops[1:]))
        assert all(op.endorsers for op in ops)

    def test_op_wire_roundtrip(self):
        config = SimulationConfig.generate(3, 30)
        ops, _ = generate(config)
        for op in ops:
            assert OpSpec.from_wire(op.to_wire()) == op

    def test_fault_windows_are_paired(self):
        """Every cut/drop/burst is undone later in the schedule."""
        for seed in range(1, 15):
            config = SimulationConfig.generate(seed, 30)
            sim = build_network(config)
            actions = generate_fault_schedule(
                config, sorted(sim.peers), config.horizon()
            )
            open_links: set = set()
            dead_topics: set = set()
            rates: dict = {}
            for action in actions:
                if action.kind == "cut_link":
                    open_links.add((action.src, action.dst))
                elif action.kind == "restore_link":
                    open_links.discard((action.src, action.dst))
                elif action.kind == "drop_topic":
                    dead_topics.add(action.topic)
                elif action.kind == "allow_topic":
                    dead_topics.discard(action.topic)
                elif action.kind in ("topic_rate", "drop_rate"):
                    rates[action.kind + action.topic] = action.rate
            assert not open_links
            assert not dead_topics
            assert all(rate == 0.0 for rate in rates.values())


# ---------------------------------------------------------------------------
# the sweep: every pinned seed must hold every invariant
# ---------------------------------------------------------------------------
class TestSeedSweep:
    @pytest.mark.parametrize("seed", SWEEP_SEEDS)
    def test_invariants_hold(self, seed):
        report = run_seed(seed, SWEEP_OPS)
        assert report.ok, "\n".join(str(v) for v in report.violations)

    def test_sweep_exercises_the_interesting_paths(self):
        """The pinned block isn't vacuous: attacks, faults, invalid txs."""
        reports = [run_seed(seed, SWEEP_OPS) for seed in SWEEP_SEEDS]
        assert sum(r.stats["attacks"] for r in reports) > 0
        assert sum(r.stats["invalid"] for r in reports) > 0
        assert sum(r.stats["dropped"] for r in reports) > 0
        assert sum(len(r.fault_actions) for r in reports) > 0


class TestSeedReplay:
    def test_same_seed_identical_history(self):
        first = run_seed(4, 30)
        second = run_seed(4, 30)
        assert first.stats == second.stats
        assert [o.tx_id for o in first.outcomes] == [o.tx_id for o in second.outcomes]
        assert [o.status for o in first.outcomes] == [o.status for o in second.outcomes]

    def test_execute_replays_from_wire_data(self):
        """A trace that went through JSON replays to the same history."""
        config = SimulationConfig.generate(6, 25)
        ops, faults = generate(config)
        direct = execute(config, ops, faults)
        wire = json.loads(json.dumps({
            "config": config.to_wire(),
            "ops": [o.to_wire() for o in ops],
            "faults": [f.to_wire() for f in faults],
            "violations": [],
        }))
        config2, ops2, faults2 = load_trace(wire)
        replayed = execute(config2, ops2, faults2)
        assert replayed.stats == direct.stats
        assert [str(v) for v in replayed.violations] == [
            str(v) for v in direct.violations
        ]


# ---------------------------------------------------------------------------
# a run is a function of its recorded config, not of the process environment
# ---------------------------------------------------------------------------
#: Every retired variable at a value that, were it still read, would change
#: the run: timeouts below a hop delay, a two-slot mempool, every fast path
#: flipped against its default.
RETIRED_VARIABLES = {
    "REPRO_ENDORSE_TIMEOUT": "0.1",
    "REPRO_MEMPOOL_LIMIT": "2",
    "REPRO_ENDORSE_PLAN": "0",
    "REPRO_SHARED_VSCC": "0",
    "REPRO_ENDORSE_CACHE": "0",
    "REPRO_REORDER": "1",
    "REPRO_GOSSIP_BATCH": "1",
    "REPRO_SNAPSHOT_EVERY": "3",
    "REPRO_PRUNE": "1",
    "REPRO_ANTI_ENTROPY_EVERY": "1",
    "REPRO_VERIFY_CACHE": "0",
    "REPRO_CRYPTO_FAST": "0",
    "REPRO_EXECUTOR_WORKERS": "3",
    "REPRO_EXECUTOR": "process:2",
}

#: The one environment read ``src/repro`` keeps: where state is stored,
#: never what a run computes.
ENVIRONMENT_READS = {"storage/factory.py": 1}


def _history(report) -> tuple:
    return (
        report.stats["state_digest"],
        report.stats["blocks"],
        [(o.tx_id, o.status, o.error) for o in report.outcomes],
    )


class TestReplayIsSelfContained:
    @pytest.fixture(scope="class")
    def triple(self):
        config = SimulationConfig.generate(3, 40)
        assert config.plan_rate > 0
        return (config, *generate(config))

    @pytest.fixture(scope="class")
    def clean(self, triple):
        report = execute(*triple)
        assert report.ok, report.summary()
        return _history(report)

    @pytest.mark.parametrize("variable", sorted(RETIRED_VARIABLES))
    def test_retired_variable_cannot_reach_a_run(
        self, triple, clean, variable, monkeypatch
    ):
        monkeypatch.setenv(variable, RETIRED_VARIABLES[variable])
        assert _history(execute(*triple)) == clean

    def test_environment_surface_is_one_read(self):
        """``os.environ`` / ``os.getenv`` / ``os.putenv`` appear in
        ``src/repro`` only as the one named ``os.environ.get`` read —
        the layer cannot grow back unnoticed."""
        names = ("environ", "environb", "getenv", "putenv", "unsetenv")
        root = Path(repro.__file__).parent
        mentions: dict = {}
        reads: dict = {}
        for path in sorted(root.rglob("*.py")):
            key = path.relative_to(root).as_posix()
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.alias):
                    name = node.name.rpartition(".")[2]
                else:
                    name = None
                if name in names:
                    mentions[key] = mentions.get(key, 0) + 1
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "get"
                    and isinstance(node.func.value, ast.Attribute)
                    and node.func.value.attr == "environ"
                ):
                    reads[key] = reads.get(key, 0) + 1
        assert mentions == reads == ENVIRONMENT_READS

    def test_retired_executor_variable_is_not_recorded(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "process:2")
        assert SimulationConfig.generate(3, 40).executor == "serial"

    def test_executor_recorded_in_stats_and_wire(self):
        report = run_seed(2, 15)
        assert report.stats["executor"] == report.config.executor == "serial"
        wire = report.config.to_wire()
        assert wire["executor"] == "serial"
        assert SimulationConfig.from_wire(wire).executor == "serial"

    def test_a_process_pool_executor_is_refused(self):
        with pytest.raises(ConfigError):
            SimulationConfig(seed=1, ops=1, executor="process:2")
        wire = SimulationConfig(seed=1, ops=1, executor="serial:4").to_wire()
        with pytest.raises(ConfigError):
            SimulationConfig.from_wire({**wire, "executor": "process:2"})

    def test_per_record_gossip_is_refused(self):
        assert SimulationConfig(seed=1, ops=1).gossip_batch is True
        with pytest.raises(ConfigError, match="gossip_batch"):
            SimulationConfig(seed=1, ops=1, gossip_batch=False)

    def test_per_record_gossip_trace_is_refused(self):
        wire = SimulationConfig.generate(3, 10).to_wire()
        assert SimulationConfig.from_wire(wire).gossip_batch is True
        with pytest.raises(ConfigError, match="gossip_batch"):
            SimulationConfig.from_wire({**wire, "gossip_batch": False})

    @pytest.mark.parametrize("bad", [
        "thread", "process", "process:x", "process:0", "pool:2",
        "serial:0", "serial:x", "serial:", "Serial", "",
    ])
    def test_bad_executor_specs_refused(self, bad):
        with pytest.raises(ConfigError):
            SimulationConfig(seed=1, ops=1, executor=bad)

    @pytest.mark.parametrize("spec", ["serial", "serial:1", "serial:4"])
    def test_serial_specs_accepted(self, spec):
        config = SimulationConfig(seed=1, ops=1, executor=spec)
        assert SimulationConfig.from_wire(config.to_wire()).executor == spec

    @pytest.mark.parametrize("workload", ["mixed", "tpcc"])
    def test_every_generator_records_serial(self, workload, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "process:2")
        config = SimulationConfig.generate_workload(workload, 5, 20)
        assert config.executor == "serial"

    def test_recorded_executor_has_no_effect(self, triple, clean):
        config, ops, faults = triple
        report = execute(dataclasses.replace(config, executor="serial:4"), ops, faults)
        assert report.ok, report.summary()
        assert report.stats["executor"] == "serial:4"
        assert _history(report) == clean

    def test_replay_refuses_a_process_pool_trace(self, tmp_path):
        """An old trace recorded under the pool fails loudly instead of
        silently replaying serial."""
        from repro.tools.simulate import main

        config = SimulationConfig.generate(3, 10)
        ops, faults = generate(config)
        trace = {
            "config": {**config.to_wire(), "executor": "process:2"},
            "ops": [o.to_wire() for o in ops],
            "faults": [f.to_wire() for f in faults],
            "violations": [],
        }
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(trace))
        with pytest.raises(ConfigError, match="process:2"):
            main(["--replay", str(path)])
        trace["config"]["executor"] = "serial:2"
        path.write_text(json.dumps(trace))
        assert main(["--replay", str(path)]) == 0


def _pdc_network(**settings) -> FabricNetwork:
    """Three orgs, one peer each, PDC1 = {org1, org2}."""
    orgs = [Organization(f"Org{i}MSP") for i in (1, 2, 3)]
    channel = ChannelConfig(channel_id="coexist", organizations=orgs)
    channel.deploy_chaincode(
        "pdccc",
        endorsement_policy="MAJORITY Endorsement",
        collections=[CollectionConfig(
            name="PDC1", policy="OR('Org1MSP.member', 'Org2MSP.member')",
            required_peer_count=1, max_peer_count=3,
        )],
    )
    net = FabricNetwork(channel=channel, **settings)
    for org in orgs:
        net.add_peer(org.msp_id)
    net.install_chaincode("pdccc", PrivateAssetContract())
    return net


class TestDifferentlyConfiguredNetworksCoexist:
    def test_each_network_behaves_per_its_own_arguments(self):
        """Settings are constructor arguments, so two networks in one
        process hold different ones — what a process-global environment
        could not express."""
        fast = _pdc_network(reorder=True, snapshot_every=5, prune=True)
        plain = _pdc_network()
        for i in range(7):  # driven alternately, one transaction each
            for net in (fast, plain):
                endorsers = [net.peers_of("Org1MSP")[0], net.peers_of("Org2MSP")[0]]
                net.client("Org1MSP").submit_transaction(
                    "pdccc", "set_private", ["PDC1", f"k{i}"],
                    transient={"value": b"v%d" % i}, endorsing_peers=endorsers,
                ).raise_for_status()

        assert fast.orderer.reorderer is not None
        assert plain.orderer.reorderer is None
        for peer in fast.peers():
            assert peer.latest_sealed_snapshot().manifest.height == 5
            assert peer.ledger.blockchain.genesis_offset > 0  # pruned below it
        for peer in plain.peers():
            assert peer.latest_sealed_snapshot() is None
            assert peer.ledger.blockchain.genesis_offset == 0
        assert {p.ledger.height for p in fast.peers() + plain.peers()} == {7}


class TestValidateCostSetting:
    @pytest.mark.parametrize("validate_cost", [0.0, 0.25])
    def test_validate_cost_prices_each_transaction_only(self, validate_cost):
        """``validate_cost`` is the per-transaction price of the peers'
        validation station; ``0.0`` leaves validation inline."""
        config = dataclasses.replace(
            SimulationConfig.generate(1, SWEEP_OPS), validate_cost=validate_cost
        )
        model = build_network(config).network.runtime.validate_cost
        if not validate_cost:
            assert model is None
            return
        assert model == ValidationCostModel(per_transaction=validate_cost)
        assert (model.per_signature, model.workers) == (0.0, 1)
        assert model.service_seconds(4) == 4 * validate_cost


# ---------------------------------------------------------------------------
# teeth: a sabotaged validator must be caught and shrunk small
# ---------------------------------------------------------------------------
class TestWeakenedValidator:
    @pytest.mark.parametrize("reorder", [False, True])
    def test_skipping_policy_check_fails_seeds(self, reorder):
        failing = []
        for seed in range(1, 6):
            config = dataclasses.replace(
                SimulationConfig.generate(seed, SWEEP_OPS), reorder=reorder
            )
            ops, faults = generate(config)
            if not execute(config, ops, faults, weaken="skip-endorsement-policy").ok:
                failing.append(seed)
        assert failing, "weakened validator went undetected"

    def test_weakening_reaches_the_peers_only(self):
        # The reordering orderer predicts flags with a validator of its
        # own; a weakened peer must not weaken that prediction too.
        config = dataclasses.replace(SimulationConfig.generate(1, SWEEP_OPS), reorder=True)
        sim = build_network(config)
        WEAKENERS["skip-endorsement-policy"](sim)
        patched = "_check_endorsement_policies"
        assert all(patched in vars(peer._validator) for peer in sim.all_peers())
        assert patched not in vars(sim.network.orderer.reorderer._validator)

    def test_failure_shrinks_to_a_tiny_trace(self):
        # Seed 2 is the first pinned seed whose stream carries an op endorsed
        # by a non-satisfying set (seed 1's no longer does).
        config = SimulationConfig.generate(2, SWEEP_OPS)
        ops, faults = generate(config)
        report = execute(config, ops, faults, weaken="skip-endorsement-policy")
        assert not report.ok
        result = shrink_failing_run(
            config, ops, faults, weaken="skip-endorsement-policy",
            max_executions=80,
        )
        assert len(result.ops) <= 10
        assert not result.report.ok
        # The minimized trace renders as a self-contained repro script.
        script = render_repro_script(result, weaken="skip-endorsement-policy")
        assert f"seed {config.seed}" in script
        assert "execute(config, ops, faults" in script


class TestDdmin:
    def test_minimizes_to_the_failure_core(self):
        items = list(range(20))
        failing = lambda subset: 3 in subset and 11 in subset  # noqa: E731
        assert sorted(ddmin(items, failing)) == [3, 11]

    def test_single_culprit(self):
        assert ddmin(list(range(16)), lambda s: 9 in s) == [9]

    def test_respects_budget(self):
        calls = []

        def failing(subset):
            calls.append(1)
            return 5 in subset

        budget = [3]
        ddmin(list(range(64)), failing, budget=budget)
        assert len(calls) <= 3

    def test_empty_result_when_failure_is_unconditional(self):
        assert ddmin([1, 2, 3], lambda s: True) == []


# ---------------------------------------------------------------------------
# invariant checkers (unit level)
# ---------------------------------------------------------------------------
class TestInvariantCheckers:
    def _tiny_run(self):
        config = SimulationConfig(seed=99, ops=0, org_count=3,
                                  pdc1_members=("Org1MSP", "Org2MSP"))
        ops = [OpSpec(
            index=0, at=1.0, kind="pdc_set", chaincode_id="pdccc",
            function="set_private", args=("PDC1", "k1"),
            client_org="Org1MSP",
            endorsers=("peer0.Org1MSP", "peer0.Org2MSP"),
            expect_policy_ok=True, transient_value=b"41",
        )]
        return config, ops

    def test_clean_run_has_no_violations(self):
        config, ops = self._tiny_run()
        report = execute(config, ops, [])
        assert report.ok
        assert report.stats["valid"] == 1

    def test_planted_plaintext_at_nonmember_is_flagged(self):
        config, ops = self._tiny_run()
        sim = build_network(config)
        outsider = sim.peers["peer0.Org3MSP"]
        from repro.ledger.version import Version

        outsider.ledger.private_data.put("pdccc", "PDC1", "k1", b"41", Version(0, 0))
        violations = check_pdc_privacy(sim, _outcomes_for(ops))
        assert any(v.invariant == "pdc-privacy" for v in violations)
        assert any(v.peer == "peer0.Org3MSP" for v in violations)

    def test_endorser_transient_plaintext_is_allowed(self):
        """A non-member endorser may retain what it endorsed itself."""
        config, ops = self._tiny_run()
        ops = [OpSpec(**{**ops[0].__dict__,
                         "endorsers": ("peer0.Org3MSP",)})]
        sim = build_network(config)
        outsider = sim.peers["peer0.Org3MSP"]
        from repro.ledger.version import Version

        outsider.ledger.private_data.put("pdccc", "PDC1", "k1", b"41", Version(0, 0))
        assert check_pdc_privacy(sim, _outcomes_for(ops)) == []

    def test_stale_member_plaintext_is_flagged(self):
        config, ops = self._tiny_run()
        sim = build_network(config)
        member = sim.peers["peer0.Org1MSP"]
        from repro.ledger.version import Version

        # Plaintext with no committed hash behind it: convergence failure.
        member.ledger.private_data.put("pdccc", "PDC1", "k1", b"9", Version(0, 0))
        violations = check_gossip_convergence(sim, _outcomes_for(ops))
        assert any(v.invariant == "gossip-convergence" for v in violations)

    def test_violation_string_names_the_invariant(self):
        v = Violation("pdc-privacy", "detail", peer="p", tx_id="t")
        assert "pdc-privacy" in str(v) and "p" in str(v) and "t" in str(v)


def _outcomes_for(ops):
    from repro.simulation.harness import OpOutcome

    return [OpOutcome(spec=spec) for spec in ops]
