#!/usr/bin/env python3
"""Steadiness runs of the popgame benchmark, and the baseline they record.

Runs the command of BENCHMARK.json --runs times per workload, each with
another seed, and prints for every metric the median, the quartiles, and
the spread (interquartile distance over the median) beside the metric's
bound. With --trace it also makes traced runs, so the traced figures and
the per-layer metrics sit beside the untraced ones. With --out it writes
the figures as JSON: perfbench/baseline.json is the committed baseline.

    python3 perfbench/steady.py --runs 10 --trace --out perfbench/baseline.json
    python3 perfbench/steady.py --workloads serve-miss --runs 5

Run it from the repository root. It exits 1 if a run fails, reports an
incorrect output, or an end-to-end spread (setup_s aside) reaches its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(int(trace))]
    started = time.monotonic()
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=900)
    took = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    return result, took


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else 0.0, "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--trace", action="store_true", help="also make traced runs")
    parser.add_argument("--out", help="write the figures to this JSON file")
    opts = parser.parse_args()

    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = opts.workloads or [w["name"] for w in bench["workloads"]]
    seeds = list(range(opts.first_seed, opts.first_seed + opts.runs))
    modes = [False, True] if opts.trace else [False]
    ok = True
    report = {"nproc": os.cpu_count(), "run_seconds": bench["run_seconds"],
              "seeds": seeds, "workloads": {}}
    for workload in workloads:
        entry = {}
        for trace in modes:
            metrics, took, attempted, failed = {}, [], 0, 0
            for seed in seeds:
                result, seconds = run_once(bench["command"], workload, seed,
                                           bench["run_seconds"], trace)
                took.append(seconds)
                attempted += result["attempted"]
                failed += result["failed"]
                if not result["correct"] or result["failed"]:
                    ok = False
                    print(f"  {workload} seed {seed}: {result['failed']} failed")
                for name, m in result["metrics"].items():
                    metrics.setdefault(name, {"unit": m["unit"], "values": []})
                    metrics[name]["values"].append(m["value"])
            key = "traced" if trace else "untraced"
            entry[key] = {"attempted": attempted, "failed": failed,
                          "run_wall_s": summary(took)["median"],
                          "metrics": {n: dict(summary(m["values"]), unit=m["unit"])
                                      for n, m in metrics.items()}}
            print(f"{workload} ({key}, {len(seeds)} runs, {summary(took)['median']:.1f} s each)")
            for name, m in entry[key]["metrics"].items():
                bound = bounds.get(name) if not trace else None
                flag = ""
                if bound is not None:
                    flag = f"bound {bound:.2f}"
                    if name != "setup_s" and m["spread"] >= bound:
                        ok = False
                        flag += "  OVER BOUND"
                    elif m["spread"] >= bound / 3:
                        flag += "  over a third of the bound"
                print(f"  {name:36} median {m['median']:<14.6g} q1 {m['q1']:<12.6g}"
                      f" q3 {m['q3']:<12.6g} spread {m['spread']:.4f} {flag}")
        if "traced" in entry:
            # Tracing cost: the traced run's end-to-end medians against the
            # untraced ones.
            entry["tracing_cost"] = {
                name: entry["traced"]["metrics"]["traced." + name]["median"] / m["median"] - 1
                for name, m in entry["untraced"]["metrics"].items() if m["median"]}
            print("  tracing cost: " + ", ".join(
                f"{k} {v:+.1%}" for k, v in entry["tracing_cost"].items()))
        report["workloads"][workload] = entry
    if opts.out:
        with open(opts.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
