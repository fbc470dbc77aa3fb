"""Compare two recorded result sets of the benchmark, workload by workload.

Usage, from the repository root::

    python3 perfbench/run.py --workload reads_session --seed 1 --record base.jsonl
    ...                                   (same runs on the other commit, new.jsonl)
    python3 perfbench/compare.py base.jsonl new.jsonl

End-to-end metrics (``--trace 0`` records): each side's median, quartiles
and run count per workload row. A metric whose quartile spread, as a share
of its median, exceeds its bound in ``BENCHMARK.json`` on either side is
*unresolved*, unless every run of one side beats every run of the other.

Per-layer metrics (``--trace 1`` records): runs are paired by seed, and a
layer's times are diffed only for pairs whose work counters for that layer
match exactly. Different work is a behaviour change, not a slowdown, and is
reported as such.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

from layers import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(base: list[float], new: list[float], bound: float, better: str) -> str:
    """Classify one metric's change by the benchmark's bound."""
    sign = 1.0 if better == "lower" else -1.0
    if sign * max(new) < sign * min(base):
        return "better (every run)"
    worse_all = sign * min(new) > sign * max(base)
    if max(spread(base), spread(new)) > bound:
        return "WORSE (every run)" if worse_all else "unresolved (spread > bound)"
    b, n = statistics.median(base), statistics.median(new)
    change = sign * (n - b) / abs(b) if b else 0.0
    if change > bound:
        return "WORSE"
    if change < -bound:
        return "better"
    return "within bound"


def values_by(records, workload: str, trace: int, metric: str) -> list[float]:
    return [r["result"]["metrics"][metric]["value"] for r in records
            if r["workload"] == workload and r["trace"] == trace
            and metric in r["result"]["metrics"]]


def end_to_end(base, new, spec) -> list[str]:
    lines = []
    workloads = sorted({r["workload"] for r in base + new if r["trace"] == 0})
    for workload in workloads:
        fails = []
        for side in (base, new):
            runs = [r for r in side if r["workload"] == workload and r["trace"] == 0]
            fails.append(f"{sum(r['result']['failed'] for r in runs)}/"
                         f"{sum(r['result']['attempted'] for r in runs)}")
        lines.append(f"[{workload}]  failed/attempted: base {fails[0]}, new {fails[1]}")
        for m in spec["end_to_end"]:
            b = values_by(base, workload, 0, m["name"])
            n = values_by(new, workload, 0, m["name"])
            if not b or not n:
                continue
            (bq1, bmed, bq3), (nq1, nmed, nq3) = quartiles(b), quartiles(n)
            delta = (nmed - bmed) / bmed * 100 if bmed else 0.0
            lines.append(
                f"  {m['name']:<14} base {bmed:>10.4g} [{bq1:.4g}, {bq3:.4g}] n={len(b):<3}"
                f" new {nmed:>10.4g} [{nq1:.4g}, {nq3:.4g}] n={len(n):<3}"
                f" {delta:+6.1f}% {m['unit']:<5} "
                f"{verdict(b, n, m['bound'], m['better'])} (bound {m['bound']:.0%})")
    return lines


def per_layer(base, new) -> list[str]:
    lines = []

    def by_seed(records, workload):
        return {r["seed"]: r["result"]["metrics"] for r in records
                if r["workload"] == workload and r["trace"] == 1}

    workloads = sorted({r["workload"] for r in base + new if r["trace"] == 1})
    for workload in workloads:
        b_runs, n_runs = by_seed(base, workload), by_seed(new, workload)
        seeds = sorted(set(b_runs) & set(n_runs))
        lines.append(f"[{workload}] per layer, {len(seeds)} seed pair(s)")
        for layer in LAYERS:
            lines.append(f"  {layer.name}: should move {layer.moves}")
            same, changed = [], 0
            for seed in seeds:
                b, n = b_runs[seed], n_runs[seed]
                keys = [c for c in layer.counters if c in b and c in n]
                if all(b[c]["value"] == n[c]["value"] for c in keys):
                    same.append(seed)
                else:
                    changed += 1
            for name in layer.times:
                b_vals = [b_runs[s][name]["value"] for s in same if name in b_runs[s]]
                n_vals = [n_runs[s][name]["value"] for s in same if name in n_runs[s]]
                if not b_vals or not any(b_vals + n_vals):
                    continue
                bmed, nmed = statistics.median(b_vals), statistics.median(n_vals)
                delta = f"{(nmed - bmed) / bmed * 100:+6.1f}%" if bmed else "   n/a"
                lines.append(f"    {name:<28} base {bmed:.4g} new {nmed:.4g} {delta}"
                             f"  ({len(same)} same work)")
            if changed:
                lines.append(f"    work changed on {changed} seed(s): "
                             "behaviour change, times not compared")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--benchmark", default=os.path.join(
        os.path.dirname(HERE), "BENCHMARK.json"))
    args = parser.parse_args(argv)
    with open(args.benchmark) as fh:
        spec = json.load(fh)
    base, new = load(args.base), load(args.new)
    print("\n".join(end_to_end(base, new, spec) + per_layer(base, new)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
