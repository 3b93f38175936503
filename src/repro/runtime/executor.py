"""Pluggable execution backends for pure CPU-bound work.

The discrete-event runtime is single-threaded by design — determinism
comes from one scheduler draining one queue.  But the *work* a peer does
per event (1536-bit modexps in batch verification, endorsement signing)
is pure CPU, and a real Fabric peer spreads exactly that work across
cores ("TPC-C on Hyperledger Fabric", arXiv:2112.11277, measures
multi-core peers as the deployment baseline).  This module makes the
placement of that CPU work pluggable without touching its meaning:

* :class:`SerialBackend` — the byte-identical reference.  ``map`` runs
  every task inline, in submission order, in the calling process.
* :class:`ProcessPoolBackend` — a ``multiprocessing`` pool.  Tasks are
  dispatched with ``apply_async`` and the results gathered **in
  submission order**, so the merged output is independent of worker
  scheduling.  Worker functions are plain module-level functions over
  picklable payloads (ints/bytes), and every task returns its result
  plus a PERF-counter delta so the parent can aggregate cross-process
  counters back into :data:`repro.common.tracing.PERF`.

Both backends expose ``workers``: the *shard plan* (how a batch is split
by :func:`plan_shards`) depends only on that number, never on which
backend executes the shards.  A serial backend with ``workers=4``
computes the identical per-shard work the pool would, inline — which is
what makes the ``parallel-equivalence`` simulation invariant (process
run byte-identical to the serial reference) checkable at all.

Selection follows the storage-factory idiom: explicit argument over the
``REPRO_EXECUTOR`` environment variable over the serial default, the
variable read once per process (and again after :func:`reset_backend`).
The worker count rides in the spec (``process:4``).

:class:`ValidationCostModel` is the simulated-time face of the same
plan: it charges a block's validation *service time* as the makespan of
the shard plan over the configured worker count, so simulated
throughput reflects the parallelism that the offload mechanism (or real
multi-core hardware) would deliver — honestly decoupled from the wall
clock of the host this simulator happens to run on.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.common.errors import ConfigError
from repro.common.tracing import PERF

ENV_VAR = "REPRO_EXECUTOR"

#: Recognised backend kinds (the spec may carry an inline worker count,
#: e.g. ``process:4``).
EXECUTOR_KINDS = ("serial", "process")

_DEFAULT_PROCESS_WORKERS = 4


def _parse_spec(spec: str) -> tuple[str, Optional[int]]:
    """Split ``"kind"`` / ``"kind:N"`` into ``(kind, workers-or-None)``."""
    kind, _, arg = spec.partition(":")
    if kind not in EXECUTOR_KINDS:
        known = ", ".join(EXECUTOR_KINDS)
        raise ConfigError(f"unknown executor kind {spec!r}: pick one of {known}")
    workers: Optional[int] = None
    if arg:
        try:
            workers = int(arg)
        except ValueError:
            raise ConfigError(f"invalid worker count in executor spec {spec!r}")
        if workers < 1:
            raise ConfigError(f"executor spec {spec!r} needs at least 1 worker")
    return kind, workers


def resolve_executor_kind(kind: Optional[str] = None) -> str:
    """Resolve an executor spec: explicit over ``REPRO_EXECUTOR`` over serial."""
    resolved = kind or os.environ.get(ENV_VAR) or "serial"
    _parse_spec(resolved)  # validate eagerly, at configuration time
    return resolved


def resolve_worker_count(
    workers: Optional[int] = None, spec: Optional[str] = None
) -> int:
    """Worker count: explicit over spec-inline over kind default."""
    if workers is None:
        kind, workers = _parse_spec(spec if spec is not None else resolve_executor_kind())
        if workers is None:
            workers = _DEFAULT_PROCESS_WORKERS if kind == "process" else 1
    if workers < 1:
        raise ConfigError(f"executor worker count must be >= 1, got {workers}")
    return workers


# ---------------------------------------------------------------------------
# Deterministic shard planning
# ---------------------------------------------------------------------------

def plan_shards(weights: Sequence[int], shards: int) -> list[list[int]]:
    """Greedy LPT assignment of weighted items to at most ``shards`` bins.

    Returns a list of bins, each a sorted list of item indices; empty bins
    are dropped.  The plan is a pure function of ``(weights, shards)`` —
    items are placed heaviest first (ties by index) onto the least-loaded
    bin (ties by bin index) — so every backend, every process, and the
    cost model all derive the same plan from the same inputs.
    """
    if shards < 1:
        raise ConfigError(f"shard count must be >= 1, got {shards}")
    if not weights:
        return []
    if shards == 1:
        return [list(range(len(weights)))]
    order = sorted(range(len(weights)), key=lambda i: (-weights[i], i))
    loads = [0] * shards
    bins: list[list[int]] = [[] for _ in range(shards)]
    for i in order:
        target = min(range(shards), key=lambda j: (loads[j], j))
        bins[target].append(i)
        loads[target] += weights[i]
    return [sorted(b) for b in bins if b]


def shard_makespan(weights: Sequence[int], shards: int) -> int:
    """Max bin load of the :func:`plan_shards` plan (0 for no items)."""
    plan = plan_shards(weights, shards)
    return max((sum(weights[i] for i in b) for b in plan), default=0)


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------

class ExecutionBackend:
    """Where pure CPU-bound tasks run.  ``map`` preserves payload order."""

    kind = "abstract"
    #: True when tasks execute in another process (their PERF deltas must
    #: then be merged back by the caller — inline tasks already counted).
    remote = False

    def __init__(self, workers: int = 1) -> None:
        if workers < 1:
            raise ConfigError(f"executor worker count must be >= 1, got {workers}")
        self.workers = workers

    @property
    def parallel(self) -> bool:
        return self.workers > 1

    def map(self, fn: Callable, payloads: Sequence) -> list:
        raise NotImplementedError

    def shutdown(self) -> None:
        """Release any pooled resources (idempotent)."""

    def describe(self) -> str:
        return f"{self.kind}:{self.workers}"


class SerialBackend(ExecutionBackend):
    """The reference: every task runs inline, in order, in-process."""

    kind = "serial"

    def map(self, fn: Callable, payloads: Sequence) -> list:
        PERF.executor_tasks += len(payloads)
        return [fn(payload) for payload in payloads]


def _init_worker() -> None:
    """Pool-worker initializer: pin the child to the serial reference.

    A forked child inherits the parent's module state — including the
    active :class:`ProcessPoolBackend` — so without this a task could
    try to re-offload into a pool handle that only works from the parent.
    """
    global _ACTIVE
    _ACTIVE = SerialBackend()


class ProcessPoolBackend(ExecutionBackend):
    """A ``multiprocessing`` pool with deterministic ordered merge.

    The pool is created lazily on first ``map`` (fork start method where
    available, so workers inherit warmed caches; spawn otherwise).  Each
    payload becomes one ``apply_async`` task; results are gathered in
    submission order, making the merged output independent of which
    worker finished first.
    """

    kind = "process"
    remote = True

    def __init__(self, workers: int = _DEFAULT_PROCESS_WORKERS) -> None:
        super().__init__(workers)
        self._pool = None

    def _ensure_pool(self):
        if self._pool is None:
            try:
                ctx = multiprocessing.get_context("fork")
            except ValueError:  # pragma: no cover - non-POSIX hosts
                ctx = multiprocessing.get_context("spawn")
            self._pool = ctx.Pool(self.workers, initializer=_init_worker)
        return self._pool

    def map(self, fn: Callable, payloads: Sequence) -> list:
        if not payloads:
            return []
        PERF.executor_tasks += len(payloads)
        PERF.executor_remote_tasks += len(payloads)
        pool = self._ensure_pool()
        handles = [pool.apply_async(fn, (payload,)) for payload in payloads]
        return [handle.get() for handle in handles]

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None


# ---------------------------------------------------------------------------
# The active backend
# ---------------------------------------------------------------------------

_ACTIVE: Optional[ExecutionBackend] = None


def _build(spec: str, workers: Optional[int] = None) -> ExecutionBackend:
    kind, _ = _parse_spec(spec)
    workers = resolve_worker_count(workers, spec=spec)
    if kind == "process":
        return ProcessPoolBackend(workers)
    return SerialBackend(workers)


def current_backend() -> ExecutionBackend:
    """The backend hot call sites offload through.

    Whatever :func:`set_backend` or :func:`pinned_backend` installed;
    otherwise the ``REPRO_EXECUTOR`` spec, resolved on first use and kept
    until :func:`reset_backend` — the environment says where a process
    runs its work once, it is not re-read per call.
    """
    global _ACTIVE
    if _ACTIVE is None:
        _ACTIVE = _build(resolve_executor_kind())
    return _ACTIVE


def set_backend(
    kind: Optional[str] = None, workers: Optional[int] = None
) -> ExecutionBackend:
    """Install the active backend, shutting the previous one down.

    An explicit backend bypasses the environment; ``None`` returns to it.
    """
    global _ACTIVE
    reset_backend()
    if kind is not None:
        _ACTIVE = _build(kind, workers)
    return current_backend()


@contextmanager
def pinned_backend(spec: str):
    """Scope in which :func:`current_backend` is the backend ``spec`` names.

    ``harness.execute`` runs under the spec its config recorded.  An
    active backend that already is that spec is kept (one pool serves a
    whole ``REPRO_EXECUTOR=process:2`` process); otherwise the scope
    builds one, shuts it down on exit — a pool lives for one run at most
    — and restores what was active, untouched.
    """
    global _ACTIVE
    previous = current_backend()
    backend = _build(spec)
    if backend.describe() == previous.describe():
        backend = previous
    _ACTIVE = backend
    try:
        yield backend
    finally:
        _ACTIVE = previous
        if backend is not previous:
            backend.shutdown()


def reset_backend() -> None:
    """Drop the active backend; the next use re-resolves ``REPRO_EXECUTOR``."""
    global _ACTIVE
    if _ACTIVE is not None:
        _ACTIVE.shutdown()
    _ACTIVE = None


@atexit.register
def _shutdown_at_exit() -> None:  # pragma: no cover - interpreter teardown
    reset_backend()


# ---------------------------------------------------------------------------
# Simulated-time cost model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ValidationCostModel:
    """Charge block validation its simulated *service time*.

    The discrete-event clock normally treats validation as instantaneous;
    this model makes it a service station: committing a block costs
    ``per_transaction * n_tx + per_signature * makespan`` simulated
    seconds, where the makespan comes from :func:`plan_shards` over the
    block's per-key signature groups and the configured worker count —
    the *same* plan the executor uses for real offload, so the model
    charges exactly the parallelism that actually executed.  ``workers``
    of ``None`` follows :func:`current_backend`, which is how the
    workers-vs-throughput ablation varies parallelism per leg.

    Defaults are calibrated against the measured serial cost of the
    batched verifier on this codebase's 1536-bit group (~1 simulated
    unit per signature, a quarter unit of per-transaction bookkeeping).
    """

    per_signature: float = 1.0
    per_transaction: float = 0.25
    workers: Optional[int] = None

    def effective_workers(self) -> int:
        return self.workers if self.workers is not None else current_backend().workers

    def service_seconds(self, group_sizes: Sequence[int], tx_count: int) -> float:
        makespan = shard_makespan(list(group_sizes), self.effective_workers())
        return self.per_transaction * tx_count + self.per_signature * makespan
