"""The event-driven transaction runtime.

A deterministic, seedable discrete-event scheduler
(:class:`EventScheduler`), a message bus with per-link queues
(:class:`MessageBus`), pluggable latency/fault models
(:class:`LatencyModel`, :class:`FaultInjector`), and the
:class:`TransactionRuntime` that runs a
:class:`~repro.network.network.FabricNetwork` on them so hundreds of
transactions can race through endorsement → ordering → delivery
concurrently.  Every network has one; configure it with
``network.attach_runtime(seed=...)`` before any traffic.

The package also hosts the :mod:`validation cost model
<repro.runtime.executor>` that charges a block's validation
``per_transaction`` simulated seconds per transaction.
"""

from repro.runtime.bus import Endpoint, Message, MessageBus
from repro.runtime.clock import SimulatedClock
from repro.runtime.executor import ValidationCostModel
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
    "FaultInjector",
    "LatencyModel",
    "Message",
    "MessageBus",
    "PendingTransaction",
    "ScheduledEvent",
    "SimulatedClock",
    "TransactionRuntime",
    "ValidationCostModel",
    "lossy_faults",
    "no_latency",
    "wan_latency",
]
