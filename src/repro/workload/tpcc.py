"""TPC-C-inspired contention workload over the Fabric reproduction.

Follows the template of "TPC-C on Hyperledger Fabric" (Klenik et al.):
the classic warehouse / district / customer / stock / order tables live
in public world state, and each NewOrder's order-lines are written to a
private data collection — so the contended traffic exercises the PDC
machinery (transient inputs, hash commits, gossip) the paper studies.

The contention is *structural*, exactly as in TPC-C: every NewOrder of a
district performs a read-modify-write of that district's ``next_o_id``
counter, so two NewOrders racing into the same block conflict on MVCC
and exactly one survives.  Stock updates follow TPC-C's restock rule
(quantity below 10 after the order → add 91), which keeps stock positive
forever — a NewOrder never fails at endorsement, only at validation.

:class:`TpccWorkloadGenerator` expands a tpcc-flavoured
:class:`~repro.simulation.config.SimulationConfig` into pure-data
:class:`~repro.simulation.workload.OpSpec` records: warehouse loads
first, then an open-loop Poisson/burst arrival stream of NewOrder /
Payment / StockLevel transactions produced by
:class:`~repro.workload.loadgen.OpenLoopGenerator`.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Optional

from repro.chaincode.api import Chaincode, require_args
from repro.chaincode.stub import ChaincodeStub
from repro.common.errors import ChaincodeError
from repro.policy.planner import expected_policy_ok, satisfying_prefix
from repro.simulation.workload import OpSpec
from repro.workload.loadgen import OpenLoopGenerator

if TYPE_CHECKING:  # pragma: no cover
    from repro.simulation.config import SimulationConfig
    from repro.simulation.harness import SimNetwork

TPCC_CHAINCODE = "tpcc"

#: TPC-C restock rule: when an order would leave stock below this floor…
STOCK_FLOOR = 10
#: …the warehouse restocks by this much (the spec's ``+91``).
RESTOCK_QUANTITY = 91
#: Initial stock loaded per item.
INITIAL_STOCK = 50


class TpccContract(Chaincode):
    """The TPC-C-style chaincode: five tables keyed under one namespace.

    * ``warehouse:<w>``          — year-to-date payment total
    * ``district:<w>:<d>``       — the district's ``next_o_id`` counter
      (the hot key: every NewOrder read-modify-writes it)
    * ``customer:<w>:<d>:<c>``   — customer balance
    * ``stock:<w>:<i>``          — per-item stock quantity
    * ``order:<w>:<d>:<o>``      — one committed order row
    * private ``ol:<w>:<d>:<ref>`` — the order-line payload, written to a
      collection from the transient map (never on-chain in plaintext)
    """

    # -- keys -----------------------------------------------------------------
    @staticmethod
    def warehouse_key(w: str) -> str:
        return f"warehouse:{w}"

    @staticmethod
    def district_key(w: str, d: str) -> str:
        return f"district:{w}:{d}"

    @staticmethod
    def customer_key(w: str, d: str, c: str) -> str:
        return f"customer:{w}:{d}:{c}"

    @staticmethod
    def stock_key(w: str, i: str) -> str:
        return f"stock:{w}:{i}"

    @staticmethod
    def order_key(w: str, d: str, o_id: int) -> str:
        return f"order:{w}:{d}:{o_id:06d}"

    @staticmethod
    def order_line_key(w: str, d: str, ref: str) -> str:
        return f"ol:{w}:{d}:{ref}"

    # -- helpers ---------------------------------------------------------------
    @staticmethod
    def _read_int(stub: ChaincodeStub, key: str, what: str) -> int:
        raw = stub.get_state(key)
        if raw is None:
            raise ChaincodeError(f"{what} {key!r} does not exist")
        try:
            return int(raw.decode("utf-8"))
        except ValueError as exc:
            raise ChaincodeError(f"{what} {key!r} is not numeric: {exc}") from exc

    # -- transactions ----------------------------------------------------------
    def load_warehouse(self, stub: ChaincodeStub, args: list) -> bytes:
        """``load_warehouse(w, districts, customers, items)`` — setup.

        Write-only population of one warehouse: ytd counter, every
        district's ``next_o_id``, customer balances and item stock.
        """
        require_args(args, 4, "a warehouse id, district, customer and item counts")
        w, districts, customers, items = args
        stub.put_state(self.warehouse_key(w), b"0")
        for d in range(1, int(districts) + 1):
            stub.put_state(self.district_key(w, str(d)), b"1")
            for c in range(1, int(customers) + 1):
                stub.put_state(self.customer_key(w, str(d), str(c)), b"0")
        for i in range(1, int(items) + 1):
            stub.put_state(self.stock_key(w, str(i)), str(INITIAL_STOCK).encode())
        return b""

    def new_order(self, stub: ChaincodeStub, args: list) -> bytes:
        """``new_order(collection, w, d, c, item, qty, olref)`` — the hot path.

        Read-modify-writes the district's ``next_o_id`` (the TPC-C hot
        key), checks the customer exists, updates stock under the restock
        rule, writes the order row, and — when a transient ``value`` is
        supplied — records the order-line privately in ``collection``.
        The ``olref`` suffix is client-chosen, so the private key is
        derivable from the args alone (the privacy invariants rely on
        that).  Returns the order id.
        """
        require_args(
            args, 7,
            "a collection, warehouse, district, customer, item, quantity and "
            "order-line ref",
        )
        collection, w, d, c, item, qty_text, olref = args
        qty = int(qty_text)

        o_id = self._read_int(stub, self.district_key(w, d), "district")
        stub.put_state(self.district_key(w, d), str(o_id + 1).encode())

        if stub.get_state(self.customer_key(w, d, c)) is None:
            raise ChaincodeError(f"customer {c!r} of {w}:{d} does not exist")

        quantity = self._read_int(stub, self.stock_key(w, item), "stock")
        if quantity - qty < STOCK_FLOOR:
            quantity += RESTOCK_QUANTITY
        quantity -= qty
        stub.put_state(self.stock_key(w, item), str(quantity).encode())

        stub.put_state(
            self.order_key(w, d, o_id), f"{c}:{item}:{qty}".encode()
        )

        value = stub.get_transient("value")
        if value is not None:
            if not collection:
                raise ChaincodeError("order-line value supplied without a collection")
            stub.put_private_data(collection, self.order_line_key(w, d, olref), value)
        return str(o_id).encode("utf-8")

    def payment(self, stub: ChaincodeStub, args: list) -> bytes:
        """``payment(w, d, c, amount)`` — warehouse ytd + customer balance.

        The warehouse ytd counter is the workload's second hot key: every
        payment of a warehouse read-modify-writes it.
        """
        require_args(args, 4, "a warehouse, district, customer and amount")
        w, d, c, amount_text = args
        amount = int(amount_text)
        ytd = self._read_int(stub, self.warehouse_key(w), "warehouse")
        stub.put_state(self.warehouse_key(w), str(ytd + amount).encode())
        balance = self._read_int(stub, self.customer_key(w, d, c), "customer")
        stub.put_state(self.customer_key(w, d, c), str(balance - amount).encode())
        return str(ytd + amount).encode("utf-8")

    def stock_level(self, stub: ChaincodeStub, args: list) -> bytes:
        """``stock_level(w, item)`` — read-only stock query."""
        require_args(args, 2, "a warehouse and an item id")
        w, item = args
        return str(self._read_int(stub, self.stock_key(w, item), "stock")).encode()


class TpccWorkloadGenerator:
    """Expands a tpcc config into warehouse loads + open-loop traffic.

    Same contract as :class:`~repro.simulation.workload.WorkloadGenerator`:
    the output is pure data (``OpSpec`` records), execution draws no
    randomness of its own, and every spec carries the generation-time
    policy-oracle verdict so the invariant layer can hold the validator
    to it under contended traffic too.
    """

    #: NewOrder / Payment / StockLevel weights (TPC-C is NewOrder-heavy).
    MIX = (("new_order", 0.6), ("payment", 0.3), ("stock_level", 0.1))

    def __init__(self, config: "SimulationConfig", sim: "SimNetwork") -> None:
        self._config = config
        self._sim = sim
        self._rng = random.Random(f"tpcc-workload-{config.seed}")
        self._channel = sim.network.channel
        self._features = sim.network.features

    # -- public API ------------------------------------------------------------
    def generate(self) -> list:
        config = self._config
        specs: list[OpSpec] = []
        for w in range(1, config.warehouses + 1):
            specs.append(self._load_spec(len(specs), w))
        traffic = max(0, config.ops - len(specs))
        arrivals = OpenLoopGenerator(
            seed=config.seed,
            rate=config.arrival_rate,
            clients=len(config.org_ids()),
            bursts=config.bursts,
            start=self.traffic_start(),
        ).arrivals(traffic)
        orgs = config.org_ids()
        for at, client_index in arrivals:
            org = orgs[client_index % len(orgs)]
            specs.append(self._traffic_spec(len(specs), at, org))
        return specs

    def traffic_start(self) -> float:
        """When the open-loop stream opens: after the loads have committed.

        Loads go through the full pipeline (endorse → batch-timeout cut →
        deliver), so traffic waits out two batch timeouts plus a few
        network hops — a NewOrder against an unloaded warehouse would
        just die at endorsement.
        """
        config = self._config
        return round(2 * config.batch_timeout + 8 * config.base_latency + 2.0, 3)

    # -- spec assembly ----------------------------------------------------------
    def _load_spec(self, index: int, w: int) -> OpSpec:
        # Stagger the loads slightly so their envelopes order deterministically.
        at = round(0.1 * w, 6)
        endorsers, ok = self._pick_endorsers(restrict_orgs=None, read_only=False)
        return OpSpec(
            index=index, at=at, kind="tpcc_load", chaincode_id=TPCC_CHAINCODE,
            function="load_warehouse",
            args=(str(w), str(self._config.districts_per_warehouse), "3", "5"),
            client_org=self._rng.choice(self._config.org_ids()),
            endorsers=endorsers, expect_policy_ok=ok,
        )

    def _traffic_spec(self, index: int, at: float, org: str) -> OpSpec:
        rng = self._rng
        kind = rng.choices(
            [k for k, _ in self.MIX], weights=[w for _, w in self.MIX]
        )[0]
        w = str(rng.randint(1, self._config.warehouses))
        d = str(rng.randint(1, self._config.districts_per_warehouse))
        c = str(rng.randint(1, 3))
        item = str(rng.randint(1, 5))

        if kind == "new_order":
            qty = str(rng.randint(1, 5))
            olref = f"{index:05d}"
            private = rng.random() < 0.7
            collection = "PDC1" if private else ""
            transient = (
                f"{c}:{item}:{qty}".encode() if private else None
            )
            restrict = self._org_members("PDC1") if private else None
            endorsers, ok = self._pick_endorsers(
                restrict_orgs=restrict, read_only=False,
                collections_written=("PDC1",) if private else (),
                collections_touched=("PDC1",) if private else (),
            )
            return OpSpec(
                index=index, at=at, kind="tpcc_new_order",
                chaincode_id=TPCC_CHAINCODE, function="new_order",
                args=(collection, w, d, c, item, qty, olref),
                client_org=org, endorsers=endorsers, expect_policy_ok=ok,
                transient_value=transient,
            )
        if kind == "payment":
            endorsers, ok = self._pick_endorsers(restrict_orgs=None, read_only=False)
            return OpSpec(
                index=index, at=at, kind="tpcc_payment",
                chaincode_id=TPCC_CHAINCODE, function="payment",
                args=(w, d, c, str(rng.randint(1, 500))),
                client_org=org, endorsers=endorsers, expect_policy_ok=ok,
            )
        endorsers, ok = self._pick_endorsers(restrict_orgs=None, read_only=True)
        return OpSpec(
            index=index, at=at, kind="tpcc_stock_level",
            chaincode_id=TPCC_CHAINCODE, function="stock_level",
            args=(w, item),
            client_org=org, endorsers=endorsers, expect_policy_ok=ok,
        )

    # -- endorser selection ------------------------------------------------------
    def _org_members(self, collection: str) -> set:
        for name, members, _ in self._config.collections():
            if name == collection:
                return set(members)
        return set()

    def _pick_endorsers(
        self,
        *,
        restrict_orgs: Optional[set],
        read_only: bool,
        collections_written: tuple = (),
        collections_touched: tuple = (),
    ) -> tuple:
        """Smallest org set the spec-level oracle accepts; full set otherwise."""
        rng = self._rng
        orgs = list(self._config.org_ids())
        if restrict_orgs is not None:
            orgs = [o for o in orgs if o in restrict_orgs]
        if not orgs:
            return (), False
        rng.shuffle(orgs)
        written = [(TPCC_CHAINCODE, c) for c in collections_written]
        touched = [(TPCC_CHAINCODE, c) for c in collections_touched]
        peers, satisfied = satisfying_prefix(
            (rng.choice(self._sim.peers_of(org)) for org in orgs),
            lambda certs: expected_policy_ok(
                self._channel, self._features, TPCC_CHAINCODE, certs,
                read_only=read_only,
                has_public_writes=not read_only,
                collections_written=written,
                collections_touched=touched,
            ),
        )
        return tuple(p.name for p in peers), satisfied
