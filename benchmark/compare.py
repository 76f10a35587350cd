#!/usr/bin/env python3
"""Compares two sets of benchmark result files.

    benchmark/compare.py <set_a_dir> <set_b_dir>

A set is a directory of result files as benchmark/run_set.sh leaves them.
For every workload and end-to-end metric it prints both sets' medians and
quartiles, each set's spread (quartile distance over median), the relative
difference of the medians, and a verdict using the bounds of BENCHMARK.json:

    ok          B's median is no worse than A's by more than the bound
    regressed   B's median is worse than A's by more than the bound
    unresolved  a set's own spread exceeds the bound, so the medians decide nothing
    changed     an exact metric differs for a seed both sets ran, without being worse

The distributed counts and the final fit repeat exactly for one seed on one
program, so for every seed both sets ran they must match to the last digit.
Per-layer metrics of traced runs are listed side by side without a verdict.
Exits 1 when any metric regressed.
"""

import json
import pathlib
import statistics
import sys

EXACT = {"dist4_wire_mb", "dist4_max_rank_mb", "dist4_collectives", "final_fit"}


def load(directory):
    """{(workload, trace): {seed: {metric: value}}} of the correct runs in a directory."""
    runs = {}
    for path in sorted(pathlib.Path(directory).glob("*.seed*.trace[01].json")):
        record = json.loads(path.read_text())
        if not record["correct"]:
            print(f"skipping {path}: run was not correct", file=sys.stderr)
            continue
        values = {name: m["value"] for name, m in record["metrics"].items()}
        runs.setdefault((record["workload"], record["trace"]), {})[record["seed"]] = values
    return runs


def summary(values):
    """Median, first and third quartile, and quartile distance over median."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / abs(median) if median else float("inf")


def worse_by(a, b, better):
    """How much worse b is than a, as a share of a; negative when better."""
    if a == 0:
        return 0.0 if b == 0 else float("inf")
    return (b - a) / abs(a) if better == "lower" else (a - b) / abs(a)


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    spec = json.loads((pathlib.Path(__file__).parent.parent / "BENCHMARK.json").read_text())
    set_a, set_b = load(sys.argv[1]), load(sys.argv[2])
    regressed = False
    for workload in (w["name"] for w in spec["workloads"]):
        a_runs, b_runs = set_a.get((workload, 0), {}), set_b.get((workload, 0), {})
        if not a_runs or not b_runs:
            print(f"\n{workload}: no untraced runs in both sets")
            continue
        print(f"\n{workload}: {len(a_runs)} runs in A, {len(b_runs)} in B")
        print(f"  {'metric':20} {'A median [q1, q3]':>34} {'B median [q1, q3]':>34} "
              f"{'spread A':>9} {'spread B':>9} {'B worse by':>11} {'bound':>6}  verdict")
        for metric in spec["end_to_end"]:
            name, bound, better = metric["name"], metric["bound"], metric["better"]
            a = summary([run[name] for run in a_runs.values()])
            b = summary([run[name] for run in b_runs.values()])
            worse = worse_by(a[0], b[0], better)
            if a[3] > bound or b[3] > bound:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "regressed"
            else:
                verdict = "ok"
            if name in EXACT:
                pairs = [(a_runs[s][name], b_runs[s][name]) for s in a_runs.keys() & b_runs.keys()]
                if any(worse_by(x, y, better) > 0 for x, y in pairs):
                    verdict = "regressed"
                elif any(x != y for x, y in pairs):
                    verdict = "changed"
            regressed |= verdict == "regressed"
            cell = "{:.6g} [{:.6g}, {:.6g}]".format
            print(f"  {name:20} {cell(*a[:3]):>34} {cell(*b[:3]):>34} "
                  f"{a[3]:9.2%} {b[3]:9.2%} {worse:+11.2%} {bound:6.0%}  {verdict}")
        a_traced, b_traced = set_a.get((workload, 1), {}), set_b.get((workload, 1), {})
        for seed in sorted(a_traced.keys() & b_traced.keys()):
            print(f"  per-layer, seed {seed} (no verdict: one traced run per set)")
            for layer in spec["per_layer"]:
                x, y = a_traced[seed].get(layer["name"]), b_traced[seed].get(layer["name"])
                if x is None or y is None:
                    continue
                change = f"{(y - x) / abs(x):+.1%}" if x else "n/a"
                print(f"    {layer['name']:34} {x:14.6g} {y:14.6g} {layer['unit']:9} {change}")
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()
