#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports, per metric, the
median and the quartile spread (distance between first and third
quartile as a share of the median) against a third of the metric's
bound in BENCHMARK.json.

    python3 perfbench/repeat.py --workload W [--seeds 1,2,...] [--trace 1]
                                [--save runs.json] [--against parent.json]

--save writes the values per metric; --against compares the medians with
a saved set (say, the parent commit's) and fails on any end-to-end metric
worse than the saved median by more than its bound.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import stats  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save")
    parser.add_argument("--against")
    args = parser.parse_args()

    root = os.path.dirname(HERE)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    values = {}
    ok = True
    for seed in args.seeds.split(","):
        cmd = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", args.workload, "--seed", seed,
               "--seconds", str(bench["run_seconds"]),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=root)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ok = ok and proc.returncode == 0 and result["correct"]
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %s rc=%d %s" % (seed, proc.returncode, json.dumps(
            {k: round(v["value"], 6) for k, v in result["metrics"].items()})))

    if args.save:
        with open(args.save, "w") as f:
            json.dump(values, f, indent=1)
    baseline = {}
    if args.against:
        with open(args.against) as f:
            baseline = json.load(f)
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    for m in metrics:
        v = values[m["name"]]
        line = "%-32s median %-12.6g" % (m["name"], stats.median(v))
        if len(v) >= 2:
            line += " spread %.4f" % stats.spread(v)
        if "bound" in m and len(v) >= 2:
            steady = stats.spread(v) < m["bound"] / 3.0
            line += " (bound %.2f: %s)" % (
                m["bound"], "steady" if steady else "NOT below bound/3")
        if "bound" in m and m["name"] in baseline:
            worse = stats.regressed(baseline[m["name"]], v, m["bound"],
                                    m["better"])
            ok = ok and not worse
            line += " vs saved median %.6g: %s" % (
                stats.median(baseline[m["name"]]),
                "REGRESSED" if worse else "within bound")
        print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
