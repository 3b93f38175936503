"""Simulated validation service time.

The discrete-event runtime is single-threaded by design — determinism
comes from one scheduler draining one queue — and every signature is
verified inline, in the calling process.  Validation itself costs no
simulated time; :class:`ValidationCostModel` charges each block a
service time of ``per_transaction`` simulated seconds per transaction,
which the runtime turns into a per-peer FIFO station
(docs/architecture.md §11).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ConfigError


@dataclass(frozen=True)
class ValidationCostModel:
    """Charge block validation ``per_transaction * n_tx`` simulated seconds.

    ``per_signature`` and ``workers`` survive as keywords that accept only
    ``0.0`` and ``1``: the charge depends on a block's size alone, never
    on its signatures or a modelled core count.
    """

    per_signature: float = 0.0
    per_transaction: float = 0.25
    workers: int = 1

    def __post_init__(self) -> None:
        if self.per_signature != 0.0:
            raise ConfigError(
                f"per_signature must be 0.0, got {self.per_signature}: "
                "validation is charged per transaction only"
            )
        if self.workers != 1:
            raise ConfigError(
                f"workers must be 1, got {self.workers}: "
                "validation is charged per transaction only"
            )

    def service_seconds(self, tx_count: int) -> float:
        return self.per_transaction * tx_count
