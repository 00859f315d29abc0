#!/usr/bin/env python3
"""Steadiness check and trajectory record for the perfbench benchmark.

usage, from the root of a checkout:
    python3 perfbench/steadiness.py [--append perfbench/trajectory.json --label TEXT]

Runs the benchmark ten times per workload, on seeds 1 to 10, for the
run_seconds of BENCHMARK.json.
Prints, for every end-to-end metric, the median, the quartiles
(statistics.quantiles, n=4) and the spread (quartile distance over the
median) next to the metric's bound; a spread above a third of its bound
is marked WIDE. --append adds the figures to a trajectory file as one
entry and, when the file holds an earlier entry, prints each median's
change against it, marked OUT when the change is worse than the bound.
Exits 1 if an operation failed, a spread is wide or a median is out.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time


def run(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, check=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


def compare(before, after, bounds, lower):
    """Prints each median's change from before to after; False if one got
    worse by more than its bound."""
    ok = True
    for workload, metrics in after.items():
        for name, m in metrics.items():
            old = before.get(workload, {}).get(name)
            if old is None:
                continue
            change = m["median"] / old["median"] - 1
            worse = change if lower[name] else -change
            out = worse > bounds[name]
            ok = ok and not out
            print(f"{workload:16} {name:22} median {old['median']:<12.6g} -> "
                  f"{m['median']:<12.6g} {change:+7.3f} "
                  f"bound {bounds[name]:.2f}{'  OUT' if out else ''}")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--append", metavar="FILE")
    ap.add_argument("--label", default="")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    lower = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    seeds = list(range(1, 11))

    figures, ok = {}, True
    for workload in workloads:
        values, units = {}, {}
        for seed in seeds:
            result = run(workload, seed, seconds)
            if result["failed"]:
                ok = False
                print(f"{workload} seed {seed}: {result['failed']} of "
                      f"{result['attempted']} operations failed", file=sys.stderr)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        figures[workload] = {}
        for name, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            wide = spread > bounds[name] / 3
            ok = ok and not wide
            figures[workload][name] = {
                "unit": units[name], "median": med, "q1": q1, "q3": q3,
                "spread": spread, "values": vs,
            }
            print(f"{workload:16} {name:22} median {med:<12.6g} "
                  f"q1 {q1:<12.6g} q3 {q3:<12.6g} spread {spread:6.3f} "
                  f"bound {bounds[name]:.2f}{'  WIDE' if wide else ''}",
                  flush=True)

    if args.append:
        doc = {"schema": "perfbench-trajectory-v1", "entries": []}
        if os.path.exists(args.append):
            with open(args.append) as f:
                doc = json.load(f)
        if doc["entries"]:
            ok = compare(doc["entries"][-1]["workloads"], figures, bounds,
                         lower) and ok
        doc["entries"].append({
            "label": args.label,
            "date": time.strftime("%Y-%m-%d"),
            "host": {"cpus": os.cpu_count(), "machine": platform.machine(),
                     "system": platform.system()},
            "run_seconds": seconds,
            "seeds": seeds,
            "workloads": figures,
        })
        with open(args.append, "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
