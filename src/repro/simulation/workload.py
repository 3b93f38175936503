"""Seeded randomized workload generation.

The generator turns a :class:`~repro.simulation.config.SimulationConfig`
plus a built network into a list of :class:`OpSpec` records — **pure
data**: function, args, transient value, submission time, client org and
the exact endorser peer names.  Execution never draws randomness of its
own, so a list of specs replays identically, and the shrinker can delete
specs one by one without disturbing the rest of the schedule.

Each spec also carries ``expect_policy_ok``: the generation-time verdict
of the spec-level policy oracle (:func:`repro.policy.planner
.expected_policy_ok`).  At quiescence the invariant layer holds the
validator to it — a transaction endorsed by a non-satisfying set that
commits ``VALID`` (or vice versa) is an invariant violation, which is
what gives the endorsement-policy soundness check its teeth.

The mix covers the paper's surface: public CRUD + range scans (phantom
pressure), PDC set/get/add/delete, cross-collection ``move_private``
transfers, and attack transactions — favourable-endorser PDC writes that
exclude a victim member org (§IV-A), deliberately non-satisfying endorser
sets, and forged reads through colluding peers (§IV-A1) when the config
drew colluding organizations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.core.attacks.ops import favourable_endorsers, nonsatisfying_endorsers
from repro.policy.planner import expected_policy_ok, satisfying_prefix

if TYPE_CHECKING:  # pragma: no cover
    from repro.simulation.config import SimulationConfig
    from repro.simulation.harness import SimNetwork

PUBLIC_CHAINCODE = "assetcc"
PDC_CHAINCODE = "pdccc"


@dataclass(frozen=True)
class OpSpec:
    """One generated operation, fully resolved at generation time."""

    index: int
    at: float
    kind: str
    chaincode_id: str
    function: str
    args: tuple
    client_org: str
    endorsers: tuple  # peer names, e.g. ("peer0.Org1MSP",)
    expect_policy_ok: bool
    transient_value: Optional[bytes] = None
    is_attack: bool = False
    #: Submit through the policy-aware endorsement plan: ``endorsers`` then
    #: acts as an ordered candidate pool (satisfying set first, escalation
    #: backups after) instead of an endorse-everyone set.
    use_plan: bool = False

    def private_write_keys(self) -> dict:
        """``{collection: {key, ...}}`` written in plaintext by this op.

        Derived from the function signature alone; the gossip convergence
        checker uses it to map unresolved gaps back to keys.  The PDC
        privacy checker does not: no non-member may retain plaintext, so
        it needs no per-op exemption.
        """
        fn, args = self.function, self.args
        if fn in ("set_private", "add_private", "del_private"):
            return {args[0]: {args[1]}}
        if fn == "move_private":
            return {args[0]: {args[2]}, args[1]: {args[2]}}
        if fn == "new_order" and self.transient_value is not None and args[0]:
            # (collection, w, d, c, item, qty, olref) — the contract writes
            # the order-line under the client-chosen ``olref`` suffix, so
            # the private key is derivable from the spec alone.
            return {args[0]: {f"ol:{args[1]}:{args[2]}:{args[6]}"}}
        return {}

    def to_wire(self) -> dict:
        return {
            "index": self.index,
            "at": self.at,
            "kind": self.kind,
            "chaincode_id": self.chaincode_id,
            "function": self.function,
            "args": list(self.args),
            "client_org": self.client_org,
            "endorsers": list(self.endorsers),
            "expect_policy_ok": self.expect_policy_ok,
            "transient_value": (
                None if self.transient_value is None
                else self.transient_value.decode("latin-1")
            ),
            "is_attack": self.is_attack,
            "use_plan": self.use_plan,
        }

    @classmethod
    def from_wire(cls, data: dict) -> "OpSpec":
        return cls(
            index=data["index"],
            at=data["at"],
            kind=data["kind"],
            chaincode_id=data["chaincode_id"],
            function=data["function"],
            args=tuple(data["args"]),
            client_org=data["client_org"],
            endorsers=tuple(data["endorsers"]),
            expect_policy_ok=data["expect_policy_ok"],
            transient_value=(
                None if data.get("transient_value") is None
                else data["transient_value"].encode("latin-1")
            ),
            is_attack=data.get("is_attack", False),
            use_plan=data.get("use_plan", False),
        )


@dataclass
class _KeyModel:
    """Generation-time guess of which keys exist (approximate on purpose).

    The model tracks keys *as if* every submitted transaction committed;
    faults and MVCC conflicts make reality lag behind, so some generated
    operations target keys that never materialised.  Those fail at
    endorsement (recorded as client errors) — realistic traffic, and no
    invariant depends on the model being exact.
    """

    public: list = field(default_factory=list)
    private: dict = field(default_factory=dict)  # collection -> [keys]
    counter: int = 0

    def fresh_key(self, prefix: str) -> str:
        self.counter += 1
        return f"{prefix}{self.counter:04d}"


class WorkloadGenerator:
    """Expands ``(config, network)`` into a deterministic list of OpSpecs."""

    def __init__(self, config: "SimulationConfig", sim: "SimNetwork") -> None:
        self._config = config
        self._sim = sim
        self._rng = random.Random(f"workload-{config.seed}")
        self._model = _KeyModel(private={name: [] for name, _, _ in config.collections()})
        self._channel = sim.network.channel
        self._features = sim.network.features

    # -- public API ----------------------------------------------------------
    def generate(self) -> list:
        specs: list[OpSpec] = []
        at = 0.0
        for index in range(self._config.ops):
            at += self._rng.expovariate(1.0 / self._config.mean_gap)
            spec = self._next_op(index, round(at, 6))
            specs.append(spec)
        return specs

    # -- op selection ---------------------------------------------------------
    def _next_op(self, index: int, at: float) -> OpSpec:
        rng = self._rng
        if rng.random() < self._config.attack_weight:
            spec = self._attack_op(index, at)
            if spec is not None:
                return spec
        kinds = [
            ("pub_create", 3.0),
            ("pub_read", 1.5),
            ("pub_update", 1.5),
            ("pub_add", 2.0),
            ("pub_delete", 0.8),
            ("pub_transfer", 1.0),
            ("pub_range", 0.7),
            ("pdc_set", 3.0),
            ("pdc_get", 1.0),
            ("pdc_add", 2.0),
            ("pdc_del", 0.8),
            ("pdc_move", 1.0),
        ]
        names = [k for k, _ in kinds]
        weights = [w for _, w in kinds]
        for _ in range(8):
            kind = rng.choices(names, weights=weights)[0]
            spec = self._honest_op(index, at, kind)
            if spec is not None:
                return spec
        # Always-possible fallback.
        return self._honest_op(index, at, "pub_create")  # type: ignore[return-value]

    # -- honest operations -----------------------------------------------------
    def _honest_op(self, index: int, at: float, kind: str) -> Optional[OpSpec]:
        rng, model = self._rng, self._model
        cols = [name for name, _, _ in self._config.collections()]

        if kind == "pub_create":
            key = model.fresh_key("a")
            model.public.append(key)
            return self._public_spec(index, at, kind, "create_asset",
                                     (key, str(rng.randrange(100, 1000))))
        if kind == "pub_read":
            if not model.public:
                return None
            return self._public_spec(index, at, kind, "read_asset",
                                     (rng.choice(model.public),), read_only=True)
        if kind == "pub_update":
            if not model.public:
                return None
            return self._public_spec(index, at, kind, "update_asset",
                                     (rng.choice(model.public), str(rng.randrange(1000))))
        if kind == "pub_add":
            if not model.public:
                return None
            return self._public_spec(index, at, kind, "add_to_asset",
                                     (rng.choice(model.public), str(rng.randrange(1, 50))))
        if kind == "pub_delete":
            if not model.public:
                return None
            key = rng.choice(model.public)
            model.public.remove(key)
            return self._public_spec(index, at, kind, "delete_asset", (key,))
        if kind == "pub_transfer":
            if not model.public:
                return None
            src = rng.choice(model.public)
            dst = model.fresh_key("a")
            model.public.remove(src)
            model.public.append(dst)
            return self._public_spec(index, at, kind, "transfer_asset", (src, dst))
        if kind == "pub_range":
            return self._public_spec(index, at, kind, "list_assets", (), read_only=True)

        if kind == "pdc_set":
            col = rng.choice(cols)
            if model.private[col] and rng.random() < 0.4:
                key = rng.choice(model.private[col])
            else:
                key = model.fresh_key("p")
                model.private[col].append(key)
            value = str(rng.randrange(100, 10000)).encode()
            return self._pdc_spec(index, at, kind, "set_private", (col, key),
                                  col, transient=value, needs_plaintext=False)
        if kind == "pdc_get":
            col = rng.choice(cols)
            if not model.private[col]:
                return None
            return self._pdc_spec(index, at, kind, "get_private",
                                  (col, rng.choice(model.private[col])),
                                  col, read_only=True, needs_plaintext=True)
        if kind == "pdc_add":
            col = rng.choice(cols)
            if not model.private[col]:
                return None
            return self._pdc_spec(index, at, kind, "add_private",
                                  (col, rng.choice(model.private[col]), str(rng.randrange(1, 20))),
                                  col, needs_plaintext=True)
        if kind == "pdc_del":
            col = rng.choice(cols)
            if not model.private[col]:
                return None
            key = rng.choice(model.private[col])
            model.private[col].remove(key)
            return self._pdc_spec(index, at, kind, "del_private", (col, key),
                                  col, needs_plaintext=False)
        if kind == "pdc_move":
            if len(cols) < 2:
                return None
            src_col, dst_col = rng.sample(cols, 2)
            if not model.private[src_col]:
                return None
            key = rng.choice(model.private[src_col])
            model.private[src_col].remove(key)
            if key not in model.private[dst_col]:
                model.private[dst_col].append(key)
            return self._move_spec(index, at, (src_col, dst_col, key))
        return None

    # -- endorser selection ----------------------------------------------------
    def _org_members(self, collection: str) -> set:
        for name, members, _ in self._config.collections():
            if name == collection:
                return set(members)
        return set()

    def _honest_orgs(self) -> list:
        colluding = set(self._config.colluding_orgs)
        return [o for o in self._config.org_ids() if o not in colluding]

    def _pick_endorsers(
        self,
        *,
        restrict_orgs: Optional[set],
        read_only: bool,
        has_public_writes: bool,
        collections_written: tuple = (),
        collections_touched: tuple = (),
    ) -> tuple:
        """Smallest random org set the oracle accepts; full set otherwise.

        Honest clients aim for a satisfying set; when the deployment makes
        that impossible (e.g. plaintext reads restricted to two member
        orgs under a MAJORITY-of-five chaincode policy — the PDC/policy
        tension of §III), the client still submits with every peer it may
        use, and the spec is labelled ``expect_policy_ok=False``.
        """
        rng = self._rng
        orgs = self._honest_orgs()
        if restrict_orgs is not None:
            orgs = [o for o in orgs if o in restrict_orgs]
        if not orgs:
            return (), False
        rng.shuffle(orgs)
        chaincode = self._active_chaincode
        written = [(chaincode, c) for c in collections_written]
        touched = [(chaincode, c) for c in collections_touched]
        peers, satisfied = satisfying_prefix(
            (self._peer_for(org) for org in orgs),
            lambda certs: expected_policy_ok(
                self._channel, self._features, chaincode, certs,
                read_only=read_only, has_public_writes=has_public_writes,
                collections_written=written, collections_touched=touched,
            ),
        )
        return tuple(p.name for p in peers), satisfied

    def _peer_for(self, org: str):
        candidates = self._sim.peers_of(org)
        return self._rng.choice(candidates)

    def _plan_flag(self) -> bool:
        """Draw whether this op goes through the endorsement-plan path."""
        return self._rng.random() < self._config.plan_rate

    def _with_backups(self, endorsers: tuple, restrict_orgs: Optional[set]) -> tuple:
        """Append shuffled unused-org peers as escalation backups.

        Only meaningful for plan ops: the satisfying prefix stays first,
        and a random number of extra candidates gives the collector
        something to escalate to — randomizing plan size per op.
        """
        rng = self._rng
        used_orgs = {name.split(".", 1)[1] for name in endorsers}
        pool = [
            org for org in self._honest_orgs()
            if org not in used_orgs
            and (restrict_orgs is None or org in restrict_orgs)
        ]
        rng.shuffle(pool)
        take = rng.randint(0, len(pool))
        return endorsers + tuple(self._peer_for(org).name for org in pool[:take])

    # -- spec assembly ----------------------------------------------------------
    def _public_spec(self, index, at, kind, function, args, read_only=False) -> OpSpec:
        self._active_chaincode = PUBLIC_CHAINCODE
        endorsers, ok = self._pick_endorsers(
            restrict_orgs=None, read_only=read_only,
            has_public_writes=not read_only,
        )
        use_plan = self._plan_flag()
        if use_plan and ok:
            endorsers = self._with_backups(endorsers, None)
        return OpSpec(
            index=index, at=at, kind=kind, chaincode_id=PUBLIC_CHAINCODE,
            function=function, args=tuple(args),
            client_org=self._rng.choice(self._honest_orgs()),
            endorsers=endorsers, expect_policy_ok=ok,
            use_plan=use_plan,
        )

    def _pdc_spec(self, index, at, kind, function, args, collection, *,
                  transient=None, read_only=False, needs_plaintext=False) -> OpSpec:
        self._active_chaincode = PDC_CHAINCODE
        restrict = self._org_members(collection) if needs_plaintext else None
        written = () if read_only else (collection,)
        endorsers, ok = self._pick_endorsers(
            restrict_orgs=restrict, read_only=read_only, has_public_writes=False,
            collections_written=written, collections_touched=(collection,),
        )
        use_plan = self._plan_flag()
        if use_plan and ok:
            endorsers = self._with_backups(endorsers, restrict)
        return OpSpec(
            index=index, at=at, kind=kind, chaincode_id=PDC_CHAINCODE,
            function=function, args=tuple(args),
            client_org=self._rng.choice(self._honest_orgs()),
            endorsers=endorsers, expect_policy_ok=ok,
            transient_value=transient,
            use_plan=use_plan,
        )

    def _move_spec(self, index, at, args) -> OpSpec:
        src_col, dst_col, _key = args
        self._active_chaincode = PDC_CHAINCODE
        # The plaintext read restricts endorsers to source-collection
        # members; validation consults both collections' write policies.
        endorsers, ok = self._pick_endorsers(
            restrict_orgs=self._org_members(src_col),
            read_only=False, has_public_writes=False,
            collections_written=(src_col, dst_col),
            collections_touched=(src_col, dst_col),
        )
        use_plan = self._plan_flag()
        if use_plan and ok:
            endorsers = self._with_backups(endorsers, self._org_members(src_col))
        return OpSpec(
            index=index, at=at, kind="pdc_move", chaincode_id=PDC_CHAINCODE,
            function="move_private", args=tuple(args),
            client_org=self._rng.choice(self._honest_orgs()),
            endorsers=endorsers, expect_policy_ok=ok,
            use_plan=use_plan,
        )

    # -- attack operations -------------------------------------------------------
    def _attack_op(self, index: int, at: float) -> Optional[OpSpec]:
        rng = self._rng
        choices = ["favourable_write", "nonsatisfying_write"]
        if self._config.colluding_orgs and self._model.private["PDC1"]:
            choices.append("forged_read")
        kind = rng.choice(choices)

        if kind == "forged_read":
            return self._forged_read_spec(index, at)

        collection = "PDC1"
        members = sorted(self._org_members(collection))
        all_peers = self._sim.all_peers()

        if kind == "favourable_write":
            victim = rng.choice(members)
            chosen = favourable_endorsers(
                self._channel, self._features, PDC_CHAINCODE, collection,
                all_peers, rng, avoid_org=victim,
            )
            expect = chosen is not None
            if chosen is None:
                # The attack is unavailable; submit the best effort anyway
                # (a probe the validator must reject).
                chosen = [p for p in all_peers if p.msp_id != victim][:2]
                if not chosen:
                    return None
            key = (rng.choice(self._model.private[collection])
                   if self._model.private[collection] and rng.random() < 0.6
                   else self._model.fresh_key("atk"))
            if key not in self._model.private[collection]:
                self._model.private[collection].append(key)
            return OpSpec(
                index=index, at=at, kind="attack_favourable_write",
                chaincode_id=PDC_CHAINCODE, function="set_private",
                args=(collection, key), client_org=rng.choice(self._config.org_ids()),
                endorsers=tuple(p.name for p in chosen),
                expect_policy_ok=expect,
                transient_value=str(rng.randrange(10)).encode(),
                is_attack=True,
            )

        chosen = nonsatisfying_endorsers(
            self._channel, self._features, PDC_CHAINCODE, collection,
            all_peers, rng,
        )
        if chosen is None:
            return None
        key = (rng.choice(self._model.private[collection])
               if self._model.private[collection]
               else self._model.fresh_key("atk"))
        return OpSpec(
            index=index, at=at, kind="attack_nonsatisfying_write",
            chaincode_id=PDC_CHAINCODE, function="set_private",
            args=(collection, key), client_org=rng.choice(self._config.org_ids()),
            endorsers=tuple(p.name for p in chosen),
            expect_policy_ok=False,
            transient_value=str(rng.randrange(10)).encode(),
            is_attack=True,
        )

    def _forged_read_spec(self, index: int, at: float) -> Optional[OpSpec]:
        """§IV-A1: colluders return a fake value with a genuine read set."""
        rng = self._rng
        colluders = [
            p for org in self._config.colluding_orgs for p in self._sim.peers_of(org)
        ]
        if not colluders:
            return None
        certs = [p.certificate for p in colluders]
        expect = expected_policy_ok(
            self._channel, self._features, PDC_CHAINCODE, certs,
            read_only=True, has_public_writes=False,
            collections_touched=((PDC_CHAINCODE, "PDC1"),),
        )
        key = rng.choice(self._model.private["PDC1"])
        return OpSpec(
            index=index, at=at, kind="attack_forged_read",
            chaincode_id=PDC_CHAINCODE, function="get_private",
            args=("PDC1", key),
            client_org=rng.choice(self._config.org_ids()),
            endorsers=tuple(p.name for p in colluders),
            expect_policy_ok=expect,
            is_attack=True,
        )
