"""Span recording from outside the program.

The program has no span model of its own yet (ROADMAP: observability),
so the traced run times each layer at its boundary by swapping the
public callables listed in :data:`TARGETS` for wrappers — class
attributes for methods, module attributes for functions — and swapping
the originals back afterwards.  Spans stay in memory until the run ends.

A span is ``[name, layer, wall start, wall end, sim time, parent index,
ident]``; a layer's *busy* time is the sum of its spans' self times
(duration minus the part covered by child spans), so the table adds up
to the root spans' duration with nothing counted twice.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter
from typing import Callable, Optional

from repro.client.gateway import Gateway
from repro.common import crypto
from repro.common.crypto import PrivateKey, PublicKey
from repro.gossip.anti_entropy import AntiEntropyEngine
from repro.gossip.dissemination import GossipNetwork
from repro.network.network import FabricNetwork
from repro.orderer.reorder import ReorderPipeline
from repro.orderer.service import OrderingService
from repro.peer.committer import Committer
from repro.peer.node import PeerNode
from repro.peer.validator import Validator
from repro.runtime.runtime import TransactionRuntime
from repro.storage import MemoryBackend, WalBackend

NAME, LAYER, START, END, SIM, PARENT, IDENT = range(7)


def _tx_id(args: tuple) -> str:
    return args[1].tx_id  # a Proposal or a TransactionEnvelope


def _block_number(args: tuple) -> int:
    return args[1].header.number


#: ``(owner, attribute, layer, span name, ident extractor)``.  The
#: gateway's two underscore methods are the client half of the retry and
#: plan paths (``workload.retry`` and ``runtime.endorse`` call them
#: directly), so without them client work on those paths would be booked
#: to whoever happened to call it.
TARGETS = (
    (Gateway, "submit_async", "client", "client.submit", None),
    (Gateway, "evaluate_transaction", "client", "client.evaluate", None),
    (Gateway, "_endorse_and_assemble", "client", "client.endorse_and_assemble", None),
    (Gateway, "_finalize_endorsement", "client", "client.finalize", _tx_id),
    (Gateway, "assemble", "client", "client.assemble", _tx_id),
    (PeerNode, "endorse", "peer", "peer.endorse", _tx_id),
    (Validator, "validate_block", "peer", "peer.validate", _block_number),
    (Committer, "commit_block", "peer", "peer.commit", _block_number),
    (PrivateKey, "sign", "crypto", "crypto.sign", None),
    (PublicKey, "verify", "crypto", "crypto.verify", None),
    (crypto, "verify_batch", "crypto", "crypto.verify", None),
    (OrderingService, "submit", "orderer", "orderer.submit", _tx_id),
    (OrderingService, "flush", "orderer", "orderer.submit", None),
    (ReorderPipeline, "process_batch", "orderer", "orderer.reorder", None),
    (GossipNetwork, "disseminate", "gossip", "gossip.disseminate", lambda a: a[2]),
    (FabricNetwork, "reconcile_private_data", "gossip", "gossip.reconcile", None),
    (AntiEntropyEngine, "on_message", "gossip", "gossip.reconcile", None),
    (TransactionRuntime, "run", "runtime", "runtime.run", None),
    (TransactionRuntime, "catch_up", "runtime", "runtime.catch_up", None),
    (MemoryBackend, "commit", "storage", "storage.commit", None),
    (WalBackend, "commit", "storage", "storage.commit", None),
    (WalBackend, "sync", "storage", "storage.sync", None),
    (WalBackend, "reopen", "storage", "storage.reopen", None),
    (PeerNode, "produce_snapshot", "ledger", "ledger.snapshot", None),
)


class SpanRecorder:
    """Installs the wrappers, collects spans, and removes the wrappers."""

    def __init__(self) -> None:
        self.spans: list = []
        #: Cleared while the harness builds or checks: those regions are
        #: timed as single leaf spans, not attributed to the layers they
        #: happen to exercise.
        self.enabled = True
        self.sim_clock: Callable[[], float] = lambda: 0.0
        self._stack: list = []
        self._installed: list = []

    # -- wrapping ------------------------------------------------------------
    def wrap(
        self, original: Callable, layer: str, name: str,
        ident: Optional[Callable[[tuple], object]] = None,
    ) -> Callable:
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if not self.enabled:
                return original(*args, **kwargs)
            span = [
                name, layer, 0.0, 0.0, self.sim_clock(),
                stack[-1] if stack else -1,
                ident(args) if ident is not None else None,
            ]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()

        traced.__wrapped__ = original  # type: ignore[attr-defined]
        return traced

    def install(self) -> None:
        for owner, attr, layer, name, ident in TARGETS:
            original = vars(owner)[attr]
            setattr(owner, attr, self.wrap(original, layer, name, ident))
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def leaf(self, fn: Callable, layer: str, name: str) -> Callable:
        """Wrap ``fn`` as one opaque span: nothing inside it is recorded."""

        def body(*args, **kwargs):
            self.enabled = False
            try:
                return fn(*args, **kwargs)
            finally:
                self.enabled = True

        return self.wrap(body, layer, name)

    # -- analysis ------------------------------------------------------------
    def self_times(self) -> dict:
        """``{span name: (self seconds, calls)}`` over every recorded span."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child_time[span[PARENT]] += span[END] - span[START]
        totals: dict = defaultdict(lambda: [0.0, 0])
        for span, covered in zip(self.spans, child_time):
            entry = totals[span[NAME]]
            entry[0] += span[END] - span[START] - covered
            entry[1] += 1
        return {name: (seconds, calls) for name, (seconds, calls) in totals.items()}

    def write_chrome_trace(self, path) -> None:
        """Chrome trace-event JSON: one lane per layer, microsecond clock."""
        if not self.spans:
            return
        origin = min(span[START] for span in self.spans)
        lanes: dict = {}
        events = []
        for index, span in enumerate(self.spans):
            lane = lanes.setdefault(span[LAYER], len(lanes) + 1)
            args = {"sim_s": round(span[SIM], 6), "span": index, "parent": span[PARENT]}
            if span[IDENT] is not None:
                args["id"] = span[IDENT]
            events.append({
                "name": span[NAME], "cat": span[LAYER], "ph": "X",
                "ts": round((span[START] - origin) * 1e6, 1),
                "dur": round((span[END] - span[START]) * 1e6, 1),
                "pid": 1, "tid": lane, "args": args,
            })
        for layer, lane in lanes.items():
            events.append({
                "name": "thread_name", "ph": "M", "pid": 1, "tid": lane,
                "args": {"name": layer},
            })
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
