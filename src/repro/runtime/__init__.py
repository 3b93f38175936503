"""The event-driven transaction runtime.

A deterministic, seedable discrete-event scheduler
(:class:`EventScheduler`), a message bus with per-link queues
(:class:`MessageBus`), pluggable latency/fault models
(:class:`LatencyModel`, :class:`FaultInjector`), and the
:class:`TransactionRuntime` that rewires a
:class:`~repro.network.network.FabricNetwork` onto them so hundreds of
transactions can race through endorsement → ordering → delivery
concurrently.  Attach one with ``network.attach_runtime(seed=...)``.

The package also hosts the pluggable :mod:`execution backends
<repro.runtime.executor>`: the serial byte-identical reference and the
``multiprocessing`` pool that CPU-bound crypto offloads through, selected
via ``REPRO_EXECUTOR`` (``serial`` | ``process[:N]``).
"""

from repro.runtime.bus import Endpoint, Message, MessageBus
from repro.runtime.clock import SimulatedClock
from repro.runtime.executor import (
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    ValidationCostModel,
    current_backend,
    plan_shards,
    reset_backend,
    resolve_executor_kind,
    resolve_worker_count,
    set_backend,
    shard_makespan,
)
from repro.runtime.faults import (
    FaultInjector,
    LatencyModel,
    lossy_faults,
    no_latency,
    wan_latency,
)
from repro.runtime.runtime import (
    DEFAULT_BATCH_TIMEOUT,
    PendingTransaction,
    TransactionRuntime,
)
from repro.runtime.scheduler import EventScheduler, ScheduledEvent

__all__ = [
    "DEFAULT_BATCH_TIMEOUT",
    "Endpoint",
    "EventScheduler",
    "ExecutionBackend",
    "FaultInjector",
    "LatencyModel",
    "Message",
    "MessageBus",
    "PendingTransaction",
    "ProcessPoolBackend",
    "ScheduledEvent",
    "SerialBackend",
    "SimulatedClock",
    "TransactionRuntime",
    "ValidationCostModel",
    "current_backend",
    "lossy_faults",
    "no_latency",
    "plan_shards",
    "reset_backend",
    "resolve_executor_kind",
    "resolve_worker_count",
    "set_backend",
    "shard_makespan",
    "wan_latency",
]
