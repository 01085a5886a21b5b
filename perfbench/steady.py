#!/usr/bin/env python3
"""Steadiness check: run workloads over several seeds and report, for every
end-to-end metric, the median and the spread (q3 - q1) / median, next to the
metric's bound in BENCHMARK.json.

    python3 perfbench/steady.py --workloads stream-ingest,spark-lineitem,spark-groupby \
        --seeds 1-10 --seconds 10 --write perfbench/steadiness.json

Run from the repository root. Each run is one `perfbench/run.py` process.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def seeds_arg(s):
    if "-" in s:
        lo, hi = s.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in s.split(",")]


def run_once(workload, seed, seconds, trace):
    t0 = time.time()
    r = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
                        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                       cwd=ROOT, capture_output=True, text=True)
    wall = time.time() - t0
    lines = [l for l in r.stdout.splitlines() if l.strip()]
    if r.returncode != 0 or not lines:
        sys.stderr.write(r.stdout[-2000:] + r.stderr[-4000:])
        raise SystemExit("%s seed %d failed (exit %d)" % (workload, seed, r.returncode))
    return json.loads(lines[-1]), wall


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--write", help="write the summary as JSON to this file")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    summary = {"seconds": seconds, "seeds": args.seeds, "trace": args.trace, "workloads": {}}
    for w in args.workloads.split(","):
        values, walls, fails = {}, [], []
        for seed in args.seeds:
            res, wall = run_once(w, seed, seconds, args.trace)
            walls.append(wall)
            fails.append([res["failed"], res["attempted"], res["correct"]])
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print("%s seed=%d wall=%.1fs correct=%s failed=%d/%d %s" % (
                w, seed, wall, res["correct"], res["failed"], res["attempted"],
                " ".join("%s=%.4g" % (k, v["value"]) for k, v in res["metrics"].items())), flush=True)
        rows = {}
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
                          "within_third_of_bound": None if bound is None else spread < bound / 3,
                          "values": vs}
            print("  %-28s median=%-12.5g spread=%.4f bound=%s" % (name, med, spread, bound))
        summary["workloads"][w] = {"metrics": rows, "wall_s": walls, "failed_attempted_correct": fails}
    if args.write:
        with open(args.write, "w") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
