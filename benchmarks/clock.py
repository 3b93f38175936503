#!/usr/bin/env python3
"""Where one benchmark round's wall time goes, by the clock.

    python3 benchmarks/clock.py --workload pdc_faults --seed 7
    python3 benchmarks/clock.py --workload tpcc_wide --scale 0.5

Runs one untraced round of an end-to-end workload through
``benchmarks/e2e/measure.run_round`` with a ``perf_counter`` timer
swapped in around each callable of :data:`TARGETS`, and prints one row
per callable: its inclusive seconds, its share of the round, and its
calls.  A timer counts only the *outermost* call of its callable — a
recursive or re-entrant call is already inside a timed one — so no row
counts the same instant twice.  The default callables never call one
another, so the rows sum to no more than the round.

Function targets are swapped in every loaded module that bound them by
name (``from m import f``), not only where they are defined; method
targets are swapped on their class.  Everything is swapped back when the
round ends.  Thin wrappers, not cProfile: a profiler taxes every Python
call, which over-charges code made of many small calls (the recursive
encoders) against code made of few big ones (native OpenSSL calls).

The round is round 0 of ``run.py --seed S``: sub-seed ``S * 100``.  A
ten-request warm-up round on sub-seed 0 runs first and is not timed, so
one-off process costs (imports, OpenSSL's first key) stay out
of the table, as ``run.py`` keeps them out of ``run_wall_s``.
"""

from __future__ import annotations

import argparse
import importlib
import shutil
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
E2E = HERE / "e2e"

#: ``(row label, module, attribute path)``.  Signing, the verifications
#: the verdict memo did not answer, the canonical encoder, and its
#: decoder (snapshot manifests, and the envelopes of every block a
#: restarted peer reads back).
TARGETS = (
    ("PrivateKey.sign", "repro.common.crypto", "PrivateKey.sign"),
    ("PublicKey._verify_uncached", "repro.common.crypto", "PublicKey._verify_uncached"),
    ("canonical_bytes", "repro.common.serialization", "canonical_bytes"),
    ("from_canonical_bytes", "repro.common.serialization", "from_canonical_bytes"),
)


class Clock:
    """Installs the timers, accumulates ``[seconds, calls]`` per row.

    While :attr:`paused` the timers count nothing.
    """

    def __init__(self) -> None:
        self.rows: dict = {}
        self.paused = False
        self._swapped: list = []

    def _timer(self, label: str, original: Callable) -> Callable:
        row = self.rows.setdefault(label, [0.0, 0])
        running = [False]

        def timed(*args, **kwargs):
            if running[0] or self.paused:
                return original(*args, **kwargs)
            running[0] = True
            started = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                row[0] += perf_counter() - started
                row[1] += 1
                running[0] = False

        timed.__wrapped__ = original  # type: ignore[attr-defined]
        return timed

    def install(self) -> None:
        for label, module_name, path in TARGETS:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            timed = self._timer(label, original)
            if parents:  # a method: swap it on its class
                holders = [owner]
            else:  # a function: swap every module-level binding of it
                holders = [
                    module for module in list(sys.modules.values())
                    if module is not None and vars(module).get(attr) is original
                ]
            for holder in holders:
                setattr(holder, attr, timed)
                self._swapped.append((holder, attr, original))

    def uninstall(self) -> None:
        while self._swapped:
            holder, attr, original = self._swapped.pop()
            setattr(holder, attr, original)


def clock_round(workload_name: str, sub_seed: int, ops: int) -> dict:
    """One timed round: ``{"run_wall_s": s, "rows": {label: (s, calls)}}``.

    ``run_round`` reads its metrics off the finished run after it stops
    the round's clock; the timers pause for that part, so every row is
    inside ``run_wall_s``.
    """
    import measure
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    measure.run_round(measure.make_inputs(workload, 0, 10))  # the warm-up
    inputs = measure.make_inputs(workload, sub_seed, ops)
    clock = Clock()
    read_round = measure._read_round

    def read_paused(*args, **kwargs):
        clock.paused = True
        return read_round(*args, **kwargs)

    measure._read_round = read_paused
    clock.install()
    try:
        result = measure.run_round(inputs)
    finally:
        clock.uninstall()
        measure._read_round = read_round
    if result.violations:
        raise RuntimeError(f"round {sub_seed} of {workload_name}: {result.violations[:3]}")
    return {
        "run_wall_s": result.run_wall_s,
        "rows": {label: tuple(row) for label, row in clock.rows.items()},
    }


def render(workload_name: str, sub_seed: int, measured: dict) -> str:
    total = measured["run_wall_s"]
    lines = [
        f"{workload_name}, sub-seed {sub_seed}: run_wall_s {total:.3f} s",
        "",
        "| callable | seconds | share of round | calls |",
        "|---|---|---|---|",
    ]
    for label, (seconds, calls) in measured["rows"].items():
        lines.append(f"| `{label}` | {seconds:.3f} | {100 * seconds / total:.1f} % | {calls} |")
    covered = sum(seconds for seconds, _ in measured["rows"].values())
    lines.append(f"| everything else | {total - covered:.3f} | {100 * (total - covered) / total:.1f} % | |")
    return "\n".join(lines)


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies the workload's request count, as run.py does")
    args = parser.parse_args(argv)
    sub_seed = args.seed * 100

    # WAL-backed peers allocate their directories through ``tempfile``.
    scratch = tempfile.mkdtemp(prefix="clock-")
    tempfile.tempdir = scratch
    sys.path[:0] = [str(ROOT / "src"), str(E2E)]
    try:
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            print(f"clock.py: unknown workload {args.workload!r}; choose from "
                  f"{list(WORKLOADS)}", file=sys.stderr)
            return 2
        ops = max(12, round(WORKLOADS[args.workload].ops * args.scale))
        measured = clock_round(args.workload, sub_seed, ops)
        print(render(args.workload, sub_seed, measured))
    finally:
        tempfile.tempdir = None
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
