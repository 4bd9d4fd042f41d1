#!/usr/bin/env python3
"""Run the benchmark on several seeds and report how much each metric spreads.

    python3 perfbench/steady.py --workload serve-hot --seeds 1-10 [--seconds 20]
        [--out .perfbench_run/steady-serve-hot.json]

For every end-to-end metric it prints the median and the spread, the distance
between the first and third quartile (statistics.quantiles(values, n=4)) as a
share of the median, for the host-adjusted value and, beside it, the raw
value of the same runs. BENCHMARK.json's bounds are checked against it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values):
    q = statistics.quantiles(values, n=4)
    m = statistics.median(values)
    return (q[2] - q[0]) / m if m else float("nan")


def run_once(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"run failed: {workload} seed {seed}")
    raw = {}
    for line in lines:
        if line.startswith("perfbench-raw "):
            raw = json.loads("{" + line[len("perfbench-raw "):] + "}")
    return json.loads(lines[-1]), raw


def seeds_of(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--out")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    runs = []
    for seed in seeds_of(args.seeds):
        result, raw = run_once(args.workload, seed, seconds, 0)
        runs.append({"seed": seed, "result": result, "raw": raw})
        m = result["metrics"]
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} " +
              " ".join(f"{k}={v['value']:.4g}" for k, v in m.items()), flush=True)
    print(f"{'metric':16} {'median':>12} {'spread':>8} {'raw med':>12} {'raw spr':>8} {'bound':>6}")
    ok = True
    for metric in bench["end_to_end"]:
        name = metric["name"]
        adj = [r["result"]["metrics"][name]["value"] for r in runs]
        raw = [r["raw"][name] for r in runs if name in r["raw"]]
        s = spread(adj)
        rs = f"{statistics.median(raw):12.5g} {spread(raw):8.3f}" if len(raw) == len(adj) else f"{'-':>12} {'-':>8}"
        flag = "" if name == "setup_s" or s <= metric["bound"] else "  OVER BOUND"
        if flag:
            ok = False
        print(f"{name:16} {statistics.median(adj):12.5g} {s:8.3f} {rs} {metric['bound']:6.2f}{flag}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"workload": args.workload, "seconds": seconds, "runs": runs}, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
