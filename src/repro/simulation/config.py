"""Randomly shaped — but seed-deterministic — simulation configurations.

One :class:`SimulationConfig` captures everything about a simulated
deployment *as plain data*: the network shape, collection memberships and
policies, defense features, orderer batching, latency/fault intensity and
workload mix.  ``SimulationConfig.generate(seed, ops)`` expands a seed
into a config; the same seed always yields the same config, and a config
round-trips through JSON (``to_wire``/``from_wire``) so a failing trace
can be replayed from a file by a process that never saw the seed — or
the environment: every setting a run depends on is a field here, and
only ``state_backend`` (how peers store state, never what they store)
takes its default from an environment variable.
"""

from __future__ import annotations

import random
import re
from dataclasses import asdict, dataclass, field
from typing import Optional

from repro.common.errors import ConfigError
from repro.storage import resolve_backend_kind


@dataclass(frozen=True)
class SimulationConfig:
    """Everything needed to rebuild one simulated deployment."""

    seed: int
    ops: int
    org_count: int = 3
    peers_per_org: int = 1
    pdc1_members: tuple = ("Org1MSP", "Org2MSP")
    pdc2_members: tuple = ()  # empty = no second collection
    pdc1_policy: Optional[str] = None  # collection-level endorsement policy
    pdc2_policy: Optional[str] = None
    chaincode_policy: str = "MAJORITY Endorsement"
    features: str = "original"  # "original" | "feature1"
    batch_size: int = 5
    batch_timeout: float = 5.0
    base_latency: float = 1.0
    jitter: float = 0.0
    gossip_latency: float = 1.5
    required_peer_count: int = 0
    max_peer_count: int = 2
    attack_weight: float = 0.1
    fault_windows: int = 1
    mean_gap: float = 1.0
    colluding_orgs: tuple = ()  # orgs running the forged-read contract
    plan_rate: float = 0.0  # fraction of ops submitted via endorsement plans
    state_backend: str = "memory"  # peer-ledger storage engine: memory | wal
    # Recorded, no effect: every run verifies and signs inline.  Kept so
    # traces that carry it still load; only serial | serial:N is accepted.
    executor: str = "serial"
    extra: dict = field(default_factory=dict)  # forward-compat escape hatch
    # -- the tpcc workload family (defaults keep mixed-workload wire data
    # and older traces loading unchanged) ------------------------------------
    workload: str = "mixed"  # workload family: mixed | tpcc
    warehouses: int = 0
    districts_per_warehouse: int = 0
    arrival_rate: float = 0.0  # open-loop arrivals per simulated second
    bursts: tuple = ()  # ((start, end, rate multiplier), ...) burst windows
    retry_budget: int = 0  # admission/retry policy budget per logical tx
    mempool_limit: int = 0  # submit-pipeline bound; 0 = unbounded
    # -- fast paths a seed never draws: set by the caller (simulate's
    # --snapshot-every / --prune / --reorder / --anti-entropy-every), the
    # first three pinned to the reference behaviour by their own invariant
    # (snapshot-equivalence, reorder-soundness) ------------------------------
    snapshot_every: int = 0  # blocks between snapshot manifests; 0 = off
    prune: bool = False  # archive pre-snapshot blocks once sealed
    reorder: bool = False  # reorder batches + early-abort doomed txs
    # Recorded, no effect: dissemination always sends one payload per
    # target.  Kept so callers that set it still load; only True is accepted.
    gossip_batch: bool = True
    anti_entropy_every: float = 0.0  # digest-loop cadence (sim s); 0 = off
    # -- peer validation service time: simulated seconds charged per block
    # transaction (0 = instantaneous, the legacy clock).  Nonzero makes
    # chain space cost real time, so committed-as-invalid waste shows up
    # as throughput, not just as a counter. ----------------------------------
    validate_cost: float = 0.0

    def __post_init__(self) -> None:
        if not re.fullmatch(r"serial(:[1-9][0-9]*)?", self.executor):
            raise ConfigError(
                f"executor {self.executor!r} is not serial or serial:N; "
                "there is no process pool"
            )
        if not self.gossip_batch:
            raise ConfigError(
                "gossip_batch must be True: dissemination always sends one "
                "payload per target"
            )

    # -- derived helpers -----------------------------------------------------
    def org_ids(self) -> list[str]:
        return [f"Org{i}MSP" for i in range(1, self.org_count + 1)]

    def collections(self) -> list[tuple]:
        """``(name, members, policy)`` for each configured collection."""
        cols = [("PDC1", self.pdc1_members, self.pdc1_policy)]
        if self.pdc2_members:
            cols.append(("PDC2", self.pdc2_members, self.pdc2_policy))
        return cols

    def horizon(self) -> float:
        """Approximate simulated time span of the workload."""
        return max(10.0, self.ops * self.mean_gap)

    # -- generation ----------------------------------------------------------
    @classmethod
    def generate(cls, seed: int, ops: int) -> "SimulationConfig":
        """Expand ``seed`` into a randomly shaped deployment."""
        rng = random.Random(f"simconfig-{seed}")
        org_count = rng.randint(3, 5)
        org_ids = [f"Org{i}MSP" for i in range(1, org_count + 1)]
        peers_per_org = 1 if rng.random() < 0.7 else 2

        pdc1_members = tuple(sorted(rng.sample(org_ids, rng.randint(2, org_count - 1))))
        pdc2_members: tuple = ()
        if rng.random() < 0.5:
            pdc2_members = tuple(sorted(rng.sample(org_ids, rng.randint(2, org_count - 1))))

        pdc1_policy = cls._maybe_collection_policy(rng, pdc1_members)
        pdc2_policy = cls._maybe_collection_policy(rng, pdc2_members) if pdc2_members else None

        if rng.random() < 0.75:
            chaincode_policy = "MAJORITY Endorsement"
        else:
            principals = ", ".join(f"'{msp}.peer'" for msp in org_ids)
            chaincode_policy = f"OutOf(2, {principals})"

        # New Feature 1 only changes behaviour when a collection-level
        # policy exists, so force one when the defended framework is drawn.
        features = "original"
        if rng.random() < 0.25:
            features = "feature1"
            if pdc1_policy is None:
                members = ", ".join(f"'{msp}.peer'" for msp in pdc1_members)
                pdc1_policy = f"OR({members})"

        colluding: tuple = ()
        if rng.random() < 0.35:
            outsiders = [o for o in org_ids if o not in pdc1_members]
            pool = outsiders or org_ids
            colluding = tuple(sorted(rng.sample(pool, 1)))

        return cls(
            seed=seed,
            ops=ops,
            org_count=org_count,
            peers_per_org=peers_per_org,
            pdc1_members=pdc1_members,
            pdc2_members=pdc2_members,
            pdc1_policy=pdc1_policy,
            pdc2_policy=pdc2_policy,
            chaincode_policy=chaincode_policy,
            features=features,
            batch_size=rng.randint(1, 15),
            batch_timeout=rng.choice([0.5, 2.0, 5.0, 10.0]),
            base_latency=round(rng.uniform(0.2, 3.0), 3),
            jitter=round(rng.uniform(0.0, 1.2), 3),
            gossip_latency=round(rng.uniform(0.2, 6.0), 3),
            required_peer_count=0 if rng.random() < 0.8 else 1,
            max_peer_count=rng.randint(1, 3),
            attack_weight=round(rng.uniform(0.0, 0.25), 3),
            fault_windows=rng.randint(0, 3),
            mean_gap=round(rng.uniform(0.3, 1.5), 3),
            colluding_orgs=colluding,
            # How much of the workload exercises the plan-based endorsement
            # path (drawn last so older seeds keep their earlier draws).
            plan_rate=round(rng.uniform(0.0, 0.8), 3),
            # Not drawn from the rng: the engine changes durability, never
            # behaviour, so it is an environment decision (REPRO_STATE_BACKEND
            # or --backend), not part of the seed's randomness.
            state_backend=resolve_backend_kind(),
        )

    @staticmethod
    def _maybe_collection_policy(rng: random.Random, members: tuple) -> Optional[str]:
        roll = rng.random()
        if roll < 0.55 or not members:
            # The common (and vulnerable) deployment: no collection-level
            # policy — 86.51% of the projects in the paper's GitHub study.
            return None
        principals = [f"'{msp}.peer'" for msp in members]
        if roll < 0.8 or len(members) < 2:
            return f"OR({', '.join(principals)})"
        both = rng.sample(list(principals), 2)
        return f"AND({both[0]}, {both[1]})"

    # -- tpcc generation -----------------------------------------------------
    @classmethod
    def generate_tpcc(cls, seed: int, ops: int) -> "SimulationConfig":
        """Expand ``seed`` into a contended TPC-C-style deployment.

        The shape is narrower than :meth:`generate` on purpose — a fixed
        three-org network whose private order-lines live in ``PDC1`` —
        and wilder where contention lives: warehouse/district counts,
        open-loop arrival rate, burst windows, the retry budget and the
        mempool bound all vary per seed.
        """
        rng = random.Random(f"tpcc-config-{seed}")
        org_ids = ["Org1MSP", "Org2MSP", "Org3MSP"]
        members = tuple(sorted(rng.sample(org_ids, 2)))
        arrival_rate = round(rng.uniform(1.0, 4.0), 3)
        bursts: tuple = ()
        if rng.random() < 0.5:
            start = round(rng.uniform(2.0, 10.0), 3)
            bursts = ((start, round(start + rng.uniform(3.0, 8.0), 3),
                       round(rng.uniform(2.0, 4.0), 3)),)
        return cls(
            seed=seed,
            ops=ops,
            org_count=3,
            peers_per_org=1,
            pdc1_members=members,
            pdc2_members=(),
            pdc1_policy=None,
            pdc2_policy=None,
            chaincode_policy="MAJORITY Endorsement",
            features="original",
            batch_size=rng.randint(2, 8),
            batch_timeout=rng.choice([0.5, 1.0, 2.0]),
            base_latency=round(rng.uniform(0.2, 0.8), 3),
            jitter=0.0,
            gossip_latency=round(rng.uniform(0.2, 1.5), 3),
            required_peer_count=0,
            max_peer_count=2,
            attack_weight=0.0,
            fault_windows=rng.randint(0, 1),
            # horizon() spans the open-loop schedule via ops * mean_gap.
            mean_gap=round(1.0 / arrival_rate, 6),
            colluding_orgs=(),
            plan_rate=0.0,
            state_backend=resolve_backend_kind(),
            workload="tpcc",
            warehouses=rng.randint(1, 3),
            districts_per_warehouse=rng.randint(1, 2),
            arrival_rate=arrival_rate,
            bursts=bursts,
            retry_budget=rng.randint(1, 3),
            mempool_limit=rng.choice([0, 8, 16]),
        )

    @classmethod
    def generate_workload(cls, workload: str, seed: int, ops: int) -> "SimulationConfig":
        """Dispatch to the named workload family's generator."""
        if workload == "tpcc":
            return cls.generate_tpcc(seed, ops)
        if workload == "mixed":
            return cls.generate(seed, ops)
        raise ValueError(f"unknown workload family {workload!r}")

    # -- wire format ---------------------------------------------------------
    def to_wire(self) -> dict:
        data = asdict(self)
        for key in ("pdc1_members", "pdc2_members", "colluding_orgs"):
            data[key] = list(data[key])
        data["bursts"] = [list(burst) for burst in data["bursts"]]
        return data

    @classmethod
    def from_wire(cls, data: dict) -> "SimulationConfig":
        data = dict(data)
        for key in ("pdc1_members", "pdc2_members", "colluding_orgs"):
            data[key] = tuple(data.get(key, ()))
        data["bursts"] = tuple(
            tuple(burst) for burst in data.get("bursts", ())
        )
        return cls(**data)
