#!/usr/bin/env python3
"""Compare two result files against the bounds in ``BENCHMARK.json``.

    python3 benchmarks/e2e/compare.py A.json B.json

``A`` is the baseline (the parent commit), ``B`` the candidate.  For
every workload and end-to-end metric the candidate may be worse than the
baseline by at most the metric's bound (a share of the baseline value);
anything beyond is a breach and the exit code is 1.

When both files come from the same program and the same inputs (same
``git_head``, seed, scale and repeats — or ``--exact`` to say so when the
checkout has no git), the simulated-time metrics and every pooled
round's fingerprint must also be *identical*: they are pure functions of
the seed, so any difference is nondeterminism, not noise.

Per-layer metrics are printed side by side and never gate.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent

#: End-to-end metrics measured on the simulated clock.
SIMULATED = (
    "committed_tx_per_sim_s", "commit_latency_sim_p50_s",
    "commit_latency_sim_p90_s", "slo_met_share", "committed_op_share",
)


def worsening(baseline: float, candidate: float, better: str) -> float:
    """How much worse the candidate is, as a share of the baseline (<0 = better)."""
    if baseline == 0:
        return 0.0 if candidate == 0 else float("inf")
    change = (candidate - baseline) / abs(baseline)
    return change if better == "lower" else -change


def same_inputs(a: dict, b: dict) -> bool:
    return all(a[key] == b[key] for key in ("seed", "scale", "repeats"))


def same_program(a: dict, b: dict) -> bool:
    head = a["environment"]["git_head"]
    return head != "unknown" and head == b["environment"]["git_head"]


def compare(a: dict, b: dict, spec: dict, exact: bool) -> list:
    """Print the comparison; return the list of breaches."""
    breaches = []
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    layer_direction = {m["name"]: m["better"] for m in spec["per_layer"]}
    for name in (w["name"] for w in spec["workloads"]):
        if name not in a["workloads"] or name not in b["workloads"]:
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        print(f"== {name}")
        for metric, entry in wa["end_to_end"].items():
            if metric not in wb["end_to_end"]:
                continue
            base, cand = entry["value"], wb["end_to_end"][metric]["value"]
            rule = bounds[metric]
            worse = worsening(base, cand, rule["better"])
            verdict = "ok"
            if worse > rule["bound"]:
                verdict = f"BREACH (bound {rule['bound']:.0%})"
                breaches.append(f"{name}: {metric} worse by {worse:.1%}")
            elif exact and metric in SIMULATED and base != cand:
                verdict = "BREACH (must repeat exactly)"
                breaches.append(f"{name}: {metric} differs: {base!r} vs {cand!r}")
            print(f"  {metric:<28} {base:>12.6g} -> {cand:>12.6g} {entry['unit']:<9}"
                  f" worse by {worse:>+7.1%}  {verdict}")
        if exact:
            prints_a = [r["fingerprint"] for r in wa["rounds"] if not r["traced"]]
            prints_b = [r["fingerprint"] for r in wb["rounds"] if not r["traced"]]
            pooled = a["repeats"]
            if prints_a[:pooled] != prints_b[:pooled]:
                breaches.append(f"{name}: round fingerprints (counts, digests) differ")
                print("  round fingerprints                                  "
                      "BREACH (must repeat exactly)")
        for metric, entry in wa["per_layer"].items():
            if metric not in wb["per_layer"]:
                continue
            base, cand = entry["value"], wb["per_layer"][metric]["value"]
            worse = worsening(base, cand, layer_direction[metric])
            print(f"    {metric:<40} {base:>12.6g} -> {cand:>12.6g} {entry['unit']:<9}"
                  f" worse by {worse:>+8.1%}")
    return breaches


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("baseline", type=Path)
    parser.add_argument("candidate", type=Path)
    parser.add_argument("--exact", action="store_true",
                        help="both files are the same program on the same inputs")
    args = parser.parse_args(argv)
    a = json.loads(args.baseline.read_text())
    b = json.loads(args.candidate.read_text())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    exact = same_inputs(a, b) and (args.exact or same_program(a, b))
    if args.exact and not same_inputs(a, b):
        print("compare.py: --exact needs equal seed, scale and repeats", file=sys.stderr)
        return 2
    print(f"baseline {a['environment']['git_head'][:12]} seed {a['seed']}  vs  "
          f"candidate {b['environment']['git_head'][:12]} seed {b['seed']}"
          f"{'  (exact mode)' if exact else ''}")
    breaches = compare(a, b, spec, exact)
    for breach in breaches:
        print(f"BREACH: {breach}")
    print(f"{len(breaches)} breach(es)")
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
