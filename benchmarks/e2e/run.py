#!/usr/bin/env python3
"""The repo's end-to-end benchmark: one command, every metric by name.

    python3 benchmarks/e2e/run.py --seed 7                    # everything
    python3 benchmarks/e2e/run.py --workload tpcc_hot --seed 7 --seconds 15 --trace 0

With no ``--trace`` each selected workload gets its untraced rounds (the
end-to-end metrics) and then one traced round (the per-layer table);
``--trace 0`` / ``--trace 1`` run only the untraced / only the traced
half, which is how the regression driver calls it.  The last line of
standard output is one JSON object ``{correct, attempted, failed,
metrics}``; everything else about the run lands in
``benchmarks/e2e/results/latest.json``.

``--seconds`` is a floor on measuring time and ``--repeats`` a floor on
rounds.  Round *i* runs the workload generated from sub-seed
``seed * 100 + i``; simulated-time metrics pool the first ``--repeats``
rounds only, so they are a pure function of ``--seed`` on any machine,
while wall metrics are medians over every round that ran.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()  # before the program's imports: they are set-up

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
RESULTS = HERE / "results"

SETUP_REPEATS = 3
MAX_ROUNDS_FACTOR = 4  # the time floor never buys more than 4x --repeats rounds
WARMUP_SHARE = 0.05
#: The warm-up always runs the same inputs: what a 10-request run costs
#: depends heavily on which 10 requests it draws, and set-up time should
#: measure the program, not the draw.
WARMUP_SEED = 0


def parse_args(argv: list) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", metavar="NAME",
                        help="workload to run (repeatable; default: all four)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measure at least this long per workload "
                             "(default: run_seconds from BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics only; 1: per-layer metrics only")
    parser.add_argument("--repeats", type=int, default=3,
                        help="rounds whose simulated-time metrics are pooled")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies every workload's request count")
    return parser.parse_args(argv)


def main(argv: list) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"run.py: no program to measure under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])

    # WAL-backed peers allocate their directories through ``tempfile``;
    # keep them (and everything else this process writes) in the checkout.
    RESULTS.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="tmp-", dir=RESULTS))
    tempfile.tempdir = str(scratch)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        return _run(args, spec)
    finally:
        tempfile.tempdir = None
        shutil.rmtree(scratch, ignore_errors=True)


def _run(args: argparse.Namespace, spec: dict) -> int:
    import measure  # noqa: F401  (pulls in the program; timed as set-up)
    from workloads import WORKLOADS

    import_s = time.perf_counter() - PROCESS_START
    names = args.workload or list(WORKLOADS)
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"run.py: unknown workload(s) {unknown}; choose from {list(WORKLOADS)}",
              file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    results = {}
    for name in names:
        results[name] = bench_workload(WORKLOADS[name], args, import_s, units)
        print_workload(name, results[name])

    document = {
        "schema": 1,
        "seed": args.seed,
        "scale": args.scale,
        "repeats": args.repeats,
        "seconds": args.seconds,
        "environment": environment(),
        "workloads": results,
    }
    (RESULTS / "latest.json").write_text(json.dumps(document, indent=1))

    correct = all(r["correct"] for r in results.values())
    metrics = {}
    for name, result in results.items():
        prefix = "" if len(results) == 1 else f"{name}/"
        for table in ("end_to_end", "per_layer"):
            for metric, entry in result[table].items():
                metrics[prefix + metric] = {"value": entry["value"], "unit": entry["unit"]}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


def environment() -> dict:
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        head = "unknown"  # the driver's checkout is not a git repository
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_head": head,
        "argv": sys.argv[1:],
    }


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------

def bench_workload(workload, args, import_s: float, units: dict) -> dict:
    from measure import make_inputs, run_round

    ops = max(12, round(workload.ops * args.scale))
    warm_ops = max(10, round(ops * WARMUP_SHARE))
    problems: list = []
    inputs: dict = {}

    def round_inputs(i: int):
        if i not in inputs:
            inputs[i] = make_inputs(workload, args.seed * 100 + i, ops)
        return inputs[i]

    # -- set-up: generate the first round's inputs and run the warm-up,
    # several times over so one slow repetition cannot move the median.
    setup_reps, warm_prints = [], []
    for _ in range(SETUP_REPEATS):
        inputs.clear()
        started = time.perf_counter()
        round_inputs(0)
        warm = run_round(make_inputs(workload, WARMUP_SEED, warm_ops))
        setup_reps.append(time.perf_counter() - started)
        warm_prints.append(warm.fingerprint)
        problems += warm.violations
    if any(p != warm_prints[0] for p in warm_prints):
        problems.append(f"warm-up repeats of one seed disagree: {warm_prints}")

    # -- measuring
    untraced, traced, twins = [], [], []
    max_rounds = MAX_ROUNDS_FACTOR * args.repeats
    measuring = time.perf_counter()

    def more(rounds: list, floor: int) -> bool:
        if len(rounds) < floor:
            return True
        return time.perf_counter() - measuring < args.seconds and len(rounds) < max_rounds

    if args.trace != 1:
        while more(untraced, args.repeats):
            untraced.append(run_round(round_inputs(len(untraced))))
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # A traced round is paired with the untraced round of the same inputs:
    # the pair gives the tracing overhead, and their fingerprints must
    # match (observing a run must not change it).
    while args.trace != 0 and (not traced or (args.trace == 1 and more(traced, 1))):
        i = len(traced)
        twins.append(untraced[i] if i < len(untraced) else run_round(round_inputs(i)))
        traced.append(run_round(round_inputs(i), traced=True))
        if traced[i].fingerprint != twins[i].fingerprint:
            problems.append(
                f"traced and untraced runs of sub-seed {traced[i].seed} disagree: "
                f"{traced[i].fingerprint} vs {twins[i].fingerprint}"
            )
    every_round = untraced + twins[len(untraced):] + traced
    for r in every_round:
        problems += r.violations

    result = {
        "why": workload.why,
        "loop": workload.loop,
        "requests_per_round": ops,
        "config": round_inputs(0).config.to_wire(),
        "end_to_end": {},
        "per_layer": {},
        "rounds": [round_summary(r) for r in every_round],
        "setup_reps_s": setup_reps,
        "import_s": import_s,
        "shape_problems": [],
    }
    if untraced:
        setup = [import_s + rep for rep in setup_reps]
        result["end_to_end"] = end_to_end_table(
            untraced, args.repeats, setup, peak_rss_mib, units
        )
    if traced:
        problems += per_layer_table(
            workload, traced, twins, round_inputs(0).gen_s, units, result
        )
    result["attempted"] = sum(r.attempted for r in every_round)
    result["failed"] = len(problems)
    result["correct"] = not problems
    result["violations"] = problems
    return result


def end_to_end_table(untraced, counted, setup, peak_rss_mib, units) -> dict:
    from measure import end_to_end_metrics

    values = end_to_end_metrics(untraced, counted, statistics.median(setup), peak_rss_mib)
    spreads = {
        "setup_s": setup,
        "committed_tx_per_wall_s": [r.valid_ops / r.pipeline_wall_s for r in untraced],
        "run_wall_s": [r.run_wall_s for r in untraced],
    }
    latency_samples = sum(len(r.latencies) for r in untraced[:counted])
    table = {}
    for name, value in values.items():
        entry = {"value": value, "unit": units[name]}
        if name in spreads:
            entry.update(min=min(spreads[name]), max=max(spreads[name]),
                         samples=len(spreads[name]))
        elif name.startswith("commit_latency"):
            entry["samples"] = latency_samples
        table[name] = entry
    return table


def per_layer_table(workload, traced, twins, gen_s, units, result) -> list:
    """Fill the per-layer part of ``result``; returns the problems found."""
    from measure import check_shape, layer_sum_error, per_layer_metrics

    problems = []
    values = per_layer_metrics(traced, twins, gen_s)
    error = layer_sum_error(values, traced)
    if error > 0.05:
        problems.append(f"layer table misses the traced pipeline wall by {error:.1%} (> 5%)")
    lateness = values["workload.loadgen_lateness_sim_s_max"]
    if lateness > 1e-9:
        problems.append(f"open-loop generator fired late: {lateness} sim-s")
    result["layer_sum_error"] = error
    result["shape_problems"] = check_shape(workload, values)
    result["per_layer"] = {
        name: {"value": value, "unit": units[name]} for name, value in values.items()
    }
    trace_path = RESULTS / f"trace_{workload.name}.json"
    traced[0].recorder.write_chrome_trace(trace_path)
    result["trace_file"] = trace_path.name
    return problems


def round_summary(r) -> dict:
    return {
        "seed": r.seed,
        "traced": r.traced,
        "run_wall_s": r.run_wall_s,
        "build_s": r.build_s,
        "check_s": r.check_s,
        "pipeline_wall_s": r.pipeline_wall_s,
        "attempted": r.attempted,
        "valid_ops": r.valid_ops,
        "slo_met": r.slo_met,
        "sim_span_s": r.sim_span_s,
        "fingerprint": r.fingerprint,
    }


def print_workload(name: str, result: dict) -> None:
    verdict = "correct" if result["correct"] else "INCORRECT"
    print(f"== {name} ({result['loop']} loop, {result['requests_per_round']} "
          f"requests/round, {len(result['rounds'])} rounds) -> {verdict}")
    for table in ("end_to_end", "per_layer"):
        for metric, entry in result[table].items():
            extra = ""
            if "min" in entry:
                extra = (f"   [min {entry['min']:.4g}, max {entry['max']:.4g}, "
                         f"n={entry['samples']}]")
            elif "samples" in entry:
                extra = f"   [n={entry['samples']}]"
            print(f"  {metric:<42} {entry['value']:>14.6g} {entry['unit']}{extra}")
    for problem in result["violations"]:
        print(f"  VIOLATION: {problem}")
    for problem in result["shape_problems"]:
        print(f"  SHAPE: {problem}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
