"""Greedy trace minimization (ddmin) and repro-script rendering.

Given a failing run's report, the shrinker deletes chunks of its
operations (then fault actions, a heal or restart like any other) while
the run keeps failing, converging on a 1-minimal trace: removing any
single remaining element makes the failure disappear.  Because ops are
pure data and execution replays deterministically, each candidate subset
is just another ``execute`` call.

The minimized trace is rendered two ways: a JSON trace (re-runnable via
``python -m repro.tools.simulate --replay FILE``) and a standalone Python
repro script for a bug report.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.simulation.config import SimulationConfig
from repro.simulation.faultplan import FaultAction
from repro.simulation.harness import SimulationReport, execute
from repro.simulation.workload import OpSpec


@dataclass
class ShrinkResult:
    """Outcome of minimizing one failing run."""

    config: SimulationConfig
    ops: list
    fault_actions: list
    report: SimulationReport  # the failing report for the minimized trace
    executions: int  # how many candidate runs the search spent
    errors: list = field(default_factory=list)  # "Type: message" per raising candidate

    def to_trace(self) -> dict:
        return {
            "config": self.config.to_wire(),
            "ops": [op.to_wire() for op in self.ops],
            "faults": [action.to_wire() for action in self.fault_actions],
            "violations": [str(v) for v in self.report.violations],
        }


def load_trace(data: dict) -> tuple:
    """Inverse of :meth:`ShrinkResult.to_trace` (minus the report)."""
    config = SimulationConfig.from_wire(data["config"])
    ops = [OpSpec.from_wire(item) for item in data["ops"]]
    fault_actions = [FaultAction.from_wire(item) for item in data["faults"]]
    return config, ops, fault_actions


def ddmin(
    items: list,
    failing: Callable[[list], bool],
    budget: Optional[list] = None,
) -> list:
    """Classic delta-debugging minimization of ``items``.

    ``failing(subset)`` must be True for the full list; returns a subset
    that still fails and (budget permitting) is 1-minimal.  ``budget`` is
    a single-element mutable counter of remaining ``failing`` calls.
    """
    def spend() -> bool:
        if budget is None:
            return True
        if budget[0] <= 0:
            return False
        budget[0] -= 1
        return True

    current = list(items)
    granularity = 2
    while len(current) >= 2:
        chunk = max(1, len(current) // granularity)
        subsets = [current[i:i + chunk] for i in range(0, len(current), chunk)]
        reduced = False
        for index in range(len(subsets)):
            candidate = [
                item for j, subset in enumerate(subsets) if j != index
                for item in subset
            ]
            if not candidate:
                continue
            if not spend():
                return current
            if failing(candidate):
                current = candidate
                granularity = max(granularity - 1, 2)
                reduced = True
                break
        if not reduced:
            if granularity >= len(current):
                break
            granularity = min(len(current), granularity * 2)
    # Try the empty-ops degenerate case too (a pure fault-schedule bug).
    if current and spend() and failing([]):
        return []
    return current


def shrink_failing_run(
    failing: SimulationReport,
    weaken: Optional[str] = None,
    max_executions: int = 150,
) -> ShrinkResult:
    """Minimize a failing run's trace to a smallest still-failing one.  A
    candidate whose run raises does not reproduce the failure; its error
    is kept on the result."""
    budget = [max_executions]  # ddmin spends one per candidate run
    errors: list = []
    smallest = [failing]  # ddmin adopts every candidate that still fails

    def fails(candidate_ops: list, candidate_faults: list) -> bool:
        try:
            report = execute(failing.config, candidate_ops, candidate_faults, weaken=weaken)
        except Exception as exc:  # noqa: BLE001 - a candidate, not the sweep, failed
            errors.append(f"{type(exc).__name__}: {exc}")
            return False
        if not report.ok:
            smallest[0] = report
        return not report.ok

    small_ops = ddmin(failing.ops, lambda c: fails(c, failing.fault_actions), budget=budget)
    small_faults = ddmin(failing.fault_actions, lambda c: fails(small_ops, c), budget=budget)
    return ShrinkResult(
        config=failing.config,
        ops=small_ops,
        fault_actions=small_faults,
        report=smallest[0],  # the run of small_ops and small_faults
        executions=max_executions - budget[0],
        errors=errors,
    )


def render_repro_script(result: ShrinkResult, weaken: Optional[str] = None) -> str:
    """A standalone Python script replaying the minimized failing trace."""
    trace = result.to_trace()
    weaken_arg = f", weaken={weaken!r}" if weaken else ""
    violations = "\n".join(f"#   {line}" for line in trace["violations"]) or "#   (none)"
    return f'''#!/usr/bin/env python3
"""Auto-generated minimal repro (seed {result.config.seed},
{len(result.ops)} ops, {len(result.fault_actions)} fault actions).

Violations at generation time:
{violations}
"""
import json

from repro.simulation.harness import execute
from repro.simulation.shrink import load_trace

TRACE = json.loads(r\'\'\'{json.dumps(trace, indent=1)}\'\'\')

config, ops, faults = load_trace(TRACE)
report = execute(config, ops, faults{weaken_arg})
print(report.summary())
for violation in report.violations:
    print(violation)
raise SystemExit(0 if report.ok else 1)
'''
