#!/usr/bin/env python3
"""Compares the state mix of the serve_traced jobs with `dynvote serve`.

    python3 perfbench/serve_mix.py [--seeds 16]

For each paper placement it runs the development pool's serve jobs and
the same number of jobs in the shape `dynvote serve` uses (360-day
warm-up, 2 measured years, 1000 arrivals/day) on the same seeds, and
prints the share of arrivals rejected because their origin was down,
the share of served decisions made while some copy was down, the share
denied, and control messages per served decision:

- over each serve job as a whole, warm-up included (the work it times);
- over its measured days only, after the warm-up;
- over the measured years of the `dynvote serve` shape (steady state).

A window's counts are a run's counts minus those of the same run
stopped where the window starts: the sample path up to a time does not
depend on the horizon. Takes a few minutes on four cores.
"""

import argparse
import os
import re
import sys
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

CLI_SHAPE = "warmup_days=360 batches=20 batch_years=0.1"


def counts(driver, keys):
    """Summed mix counts of the serve jobs `keys`."""
    text, _ = run.numbered(keys)
    jobs = run.run_driver(driver, "mix", "serve_traced", 1, text,
                          timeout=3600)["jobs"]
    return {k: sum(j[k] for j in jobs) for k in jobs[0] if k != "id"}


def until_warmup(key):
    """The same job stopped where its warm-up ends."""
    days = float(re.search(r"warmup_days=(\S+)", key).group(1))
    shape = "warmup_days=0 batches=1 batch_years=%r" % (days / 365.0)
    return re.sub(r"warmup_days=.*", shape, key)


def shares(c):
    return (c["rejected"] / c["arrivals"], c["degraded"] / c["served"],
            c["denied"] / c["served"], c["control_msgs"] / c["served"])


def window(driver, keys):
    whole = counts(driver, keys)
    before = counts(driver, [until_warmup(k) for k in keys])
    return whole, {k: whole[k] - before[k] for k in whole}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=run.SIM_SEEDS)
    args = parser.parse_args()
    driver = run.build()
    with ThreadPoolExecutor(max_workers=run.nproc()) as pool:
        futures = {}
        for c in run.CONFIGS:
            bench = [run.serve_job(c, k) for k in range(args.seeds)]
            cli = [re.sub(r"warmup_days=.*", CLI_SHAPE, key) for key in bench]
            futures[c] = (pool.submit(window, driver, bench),
                          pool.submit(window, driver, cli))
        print("rejected, degraded and denied shares, control msgs per "
              "decision")
        print("config  %-29s  %-29s  %s" % ("serve job, whole",
                                           "serve job, measured days",
                                           "dynvote serve, measured years"))
        for c in run.CONFIGS:
            (whole, measured), (_, cli) = (f.result() for f in futures[c])
            print("%-6s  " % c + "  ".join(
                "%.4f %.4f %.5f %5.2f" % shares(x)
                for x in (whole, measured, cli)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
