"""Deterministic simulation sweep: ``python -m repro.tools.simulate``.

Runs ``--seeds`` randomized simulations of ``--ops`` operations each and
checks every global invariant at block boundaries and quiescence.  On a
failure the trace is greedily shrunk (ddmin) to a minimal still-failing
trace, written as a JSON trace plus a standalone repro script.

Examples::

    python -m repro.tools.simulate --seeds 25 --ops 500
    python -m repro.tools.simulate --seeds 5 --ops 100 \\
        --weaken skip-endorsement-policy --trace-dir /tmp/traces
    python -m repro.tools.simulate --replay /tmp/traces/trace-seed3.json
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

from repro.simulation.config import SimulationConfig
from repro.storage import BACKEND_KINDS
from repro.simulation.harness import WEAKENERS, SimulationReport, execute, generate
from repro.simulation.invariants import Violation
from repro.simulation.shrink import (
    ShrinkResult,
    load_trace,
    render_repro_script,
    shrink_failing_run,
)


def _fast_path_settings(args) -> dict:
    """The ``SimulationConfig`` fields the fast-path flags set."""
    return {
        "snapshot_every": args.snapshot_every,
        "prune": args.prune,
        "reorder": args.reorder,
        "anti_entropy_every": args.anti_entropy_every,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.simulate",
        description="randomized workload + fault simulation with invariant checks",
    )
    parser.add_argument("--seeds", type=int, default=10,
                        help="number of seeds to sweep (default 10)")
    parser.add_argument("--ops", type=int, default=200,
                        help="operations per seed (default 200)")
    parser.add_argument("--seed-base", type=int, default=1,
                        help="first seed of the sweep (default 1)")
    parser.add_argument("--weaken", choices=sorted(WEAKENERS), default=None,
                        help="deliberately sabotage the system under test "
                             "(the invariants must then fail)")
    parser.add_argument("--no-shrink", action="store_true",
                        help="report failures without minimizing them")
    parser.add_argument("--shrink-budget", type=int, default=120,
                        help="max replays the shrinker may spend per failure")
    parser.add_argument("--trace-dir", type=Path, default=None,
                        help="where to write failing traces/repro scripts "
                             "(default: current directory)")
    parser.add_argument("--replay", type=Path, default=None,
                        help="replay a saved JSON trace instead of sweeping")
    parser.add_argument("--backend", choices=list(BACKEND_KINDS), default=None,
                        help="peer-ledger storage engine (default: the "
                             "REPRO_STATE_BACKEND env var, else memory)")
    parser.add_argument("--snapshot-every", type=int, default=0,
                        help="peer snapshot checkpoint cadence in blocks; "
                             "enables the snapshot-equivalence invariant "
                             "(default: off)")
    parser.add_argument("--prune", action="store_true",
                        help="archive pre-snapshot blocks once a snapshot "
                             "seals (peer chains and the orderer backlog; "
                             "default: off)")
    parser.add_argument("--reorder", action="store_true",
                        help="conflict-aware ordering: reorder each batch "
                             "along its conflict graph and early-abort "
                             "provably doomed transactions; enables the "
                             "reorder-soundness invariant (default: off)")
    parser.add_argument("--anti-entropy-every", type=float, default=0.0,
                        help="cadence of the periodic anti-entropy timer in "
                             "simulated seconds; 0 = no timer, gaps repair "
                             "only in the quiescence sweep (default: 0)")
    parser.add_argument("--workload", choices=["mixed", "tpcc"], default="mixed",
                        help="workload family: the mixed asset/PDC mix, or the "
                             "contended TPC-C-style mix with open-loop arrivals "
                             "and the admission/retry policy (default mixed)")
    args = parser.parse_args(argv)

    if args.replay is not None:
        return _replay(args.replay, args.weaken, args.backend)

    failures = 0
    started = time.time()
    for seed in range(args.seed_base, args.seed_base + args.seeds):
        seed_started = time.time()
        config = dataclasses.replace(
            SimulationConfig.generate_workload(args.workload, seed, args.ops),
            **_fast_path_settings(args),
        )
        if args.backend is not None:
            config = dataclasses.replace(config, state_backend=args.backend)
        ops, fault_actions = generate(config)
        try:
            report, raised = execute(config, ops, fault_actions, weaken=args.weaken), False
        except Exception as exc:  # noqa: BLE001 - a raising run fails its seed only
            error = Violation("raised", f"{type(exc).__name__}: {exc}")
            report, raised = SimulationReport(config, ops, fault_actions, [], [error]), True
        print(f"{report.summary()} ({time.time() - seed_started:.1f}s)")
        if report.ok:
            continue
        failures += 1
        for violation in report.violations[:8]:
            print(f"    {violation}")
        if len(report.violations) > 8:
            print(f"    ... and {len(report.violations) - 8} more")
        if raised:  # the shrinker minimizes violations, not raises: dump it whole
            _dump(ShrinkResult(config, ops, fault_actions, report, executions=0), args)
        elif not args.no_shrink:
            _dump(_shrink(report, args), args)

    elapsed = time.time() - started
    print(f"{args.seeds} seeds, {failures} failing ({elapsed:.1f}s total)")
    return 1 if failures else 0


def _shrink(failing, args) -> ShrinkResult:
    print(f"    shrinking seed {failing.config.seed} ({len(failing.ops)} ops, "
          f"{len(failing.fault_actions)} fault actions)...")
    result = shrink_failing_run(
        failing, weaken=args.weaken, max_executions=args.shrink_budget
    )
    raised = f", {len(result.errors)} raised (first: {result.errors[0]})" if result.errors else ""
    print(f"    minimized to {len(result.ops)} ops + "
          f"{len(result.fault_actions)} fault actions "
          f"in {result.executions} replays{raised}:")
    for op in result.ops:
        print(f"      op {op.index} @{op.at}: {op.kind} "
              f"{op.function}{op.args} via {op.endorsers}")
    for action in result.fault_actions:
        target = action.topic or f"{action.src}->{action.dst}"
        print(f"      fault @{action.at}: {action.kind} {target}")
    return result


def _dump(result: ShrinkResult, args) -> None:
    config = result.config
    out_dir = args.trace_dir or Path(".")
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_path = out_dir / f"trace-seed{config.seed}.json"
    trace_path.write_text(json.dumps(result.to_trace(), indent=1))
    script_path = out_dir / f"repro-seed{config.seed}.py"
    script_path.write_text(render_repro_script(result, weaken=args.weaken))
    print(f"    trace: {trace_path}  repro script: {script_path}")


def _replay(
    path: Path,
    weaken: str | None,
    backend: str | None = None,
) -> int:
    config, ops, fault_actions = load_trace(json.loads(path.read_text()))
    if backend is not None:
        config = dataclasses.replace(config, state_backend=backend)
    report = execute(config, ops, fault_actions, weaken=weaken)
    print(report.summary())
    for violation in report.violations:
        print(f"    {violation}")
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
