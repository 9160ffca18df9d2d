#!/usr/bin/env python3
"""dynvote benchmark: builds the driver, generates one workload's jobs
from the seed, runs them, checks every output and prints the metrics.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end metrics of BENCHMARK.json, with
--trace 1 its per-layer metrics. The lines before it are a readable
report with provenance. The exit code is nonzero when any job failed or
returned an output whose digest differs from the one recorded in
perfbench/expected_digests.json.

    python3 perfbench/run.py --record-digests

re-records the expected digests of every job input the workloads can
draw (only after a change that is meant to change results).
"""

import argparse
import hashlib
import json
import os
import random
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import stats  # noqa: E402

ROOT = os.path.dirname(HERE)
EXPECTED = os.path.join(HERE, "expected_digests.json")
CONFIGS = "ABCDEFGH"
DRIVER_TIMEOUT_S = 170

# --- Workloads ---------------------------------------------------------
# Each workload draws its jobs from a fixed pool of inputs whose output
# digests are recorded. The seed picks one round of ROUND_JOBS distinct
# inputs; a run repeats that round until its time is up, and each
# input's time is the least over an equal number of its runs, so a run
# reports the program's speed and not the moment's load on a shared
# host. The first job of every run is the workload's fixed warm-up job,
# the same for every seed, which the set-up phase runs.
#
# Every workload has two disjoint pools: the development pool, which
# every seed draws from, and the held-out pool, which only HELD_OUT_SEED
# draws from. A gain found on development seeds is confirmed on inputs
# no development seed has run.

ROUND_JOBS = 104  # >= 100 samples, so p90 keeps 10 beyond it
HELD_OUT_SEED = 20261017
SIM_SEEDS = 16  # pool seeds per placement and pool


def pool_seed(k):
    return 1000003 * (k + 1)


def sim_pool_seeds(held_out):
    """Development inputs use pool seeds 0-15, held-out ones 16-31."""
    first = SIM_SEEDS if held_out else 0
    return range(first, first + SIM_SEEDS)


# Checker inputs: per (protocol, universe), the depths whose RunCheck took
# 3-350 ms once at jobs=4 on a four-core host, up to the depth at which
# the search closes (a deeper bound repeats the closed search). CHECK_CLOSES
# holds the depth at which each closing pair closes (its state count stops
# growing); the other pairs are still open at the depths listed.
CHECK_DEPTHS = {
    # section3
    ("MCV", "section3"): (5, 6, 7, 8, 9, 10),
    ("DV", "section3"): (4, 5, 6, 7, 8),
    ("LDV", "section3"): (4, 5, 6, 7),
    ("ODV", "section3"): (4, 5, 6, 7, 8),
    ("TDV", "section3"): (4, 5, 6, 7),
    ("OTDV", "section3"): (4, 5, 6, 7),
    # single2
    ("TDV", "single2"): (9,),
    ("OTDV", "single2"): (11, 12, 13, 14, 15),
    # single3
    ("LDV", "single3"): (6, 7, 8, 9, 10),
    ("ODV", "single3"): (7, 8, 9, 10, 11),
    ("TDV", "single3"): (6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
    ("OTDV", "single3"): (6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
    # single4
    ("MCV", "single4"): (6, 7, 8, 9),
    ("DV", "single4"): (4, 5, 6, 7, 8, 9, 10, 11),
    ("LDV", "single4"): (5, 6, 7, 8, 9, 10),
    ("ODV", "single4"): (4, 5, 6, 7, 8, 9, 10, 11),
    ("TDV", "single4"): (5, 6, 7, 8),
    ("OTDV", "single4"): (5, 6, 7, 8, 9),
    # single5
    ("MCV", "single5"): (5, 6, 7, 8, 9, 10),
    ("DV", "single5"): (4, 5, 6, 7),
    ("LDV", "single5"): (4, 5, 6, 7),
    ("ODV", "single5"): (4, 5, 6, 7),
    ("TDV", "single5"): (4, 5, 6, 7),
    ("OTDV", "single5"): (4, 5, 6, 7),
    # single6
    ("MCV", "single6"): (4, 5, 6, 7, 8, 9, 10),
    ("DV", "single6"): (3, 4, 5, 6),
    ("LDV", "single6"): (4, 5, 6),
    ("ODV", "single6"): (4, 5, 6, 7),
    ("TDV", "single6"): (4, 5, 6),
    ("OTDV", "single6"): (4, 5, 6),
    # single7
    ("MCV", "single7"): (4, 5, 6, 7),
    ("DV", "single7"): (4, 5),
    ("LDV", "single7"): (3, 4, 5),
    ("ODV", "single7"): (4, 5, 6),
    ("TDV", "single7"): (4, 5),
    ("OTDV", "single7"): (4, 5, 6),
    # single8
    ("MCV", "single8"): (3, 4, 5, 6),
    ("DV", "single8"): (3, 4, 5),
    ("LDV", "single8"): (3, 4, 5),
    ("ODV", "single8"): (4, 5, 6),
    ("TDV", "single8"): (3, 4, 5),
    ("OTDV", "single8"): (4, 5, 6),
    # pairs
    ("MCV", "pairs"): (5, 6, 7, 8, 9, 10),
    ("DV", "pairs"): (4, 5, 6, 7, 8, 9, 10, 11, 12),
    ("LDV", "pairs"): (4, 5, 6, 7, 8),
    ("ODV", "pairs"): (5, 6, 7, 8, 9),
    ("TDV", "pairs"): (4, 5, 6, 7),
    ("OTDV", "pairs"): (4, 5, 6, 7, 8),
}
CHECK_CLOSES = {
    ("MCV", "section3"): 10, ("TDV", "single2"): 10, ("LDV", "single3"): 10,
    ("ODV", "single3"): 11, ("MCV", "single4"): 9, ("DV", "single4"): 11,
    ("MCV", "single5"): 10, ("MCV", "pairs"): 10, ("DV", "pairs"): 12,
}


def check_specs(held_out):
    """The checker pool: each pair's depths alternate between the two
    pools, and a pair with an odd number of depths hands the next pair's
    first depth to the other pool, so both pools hold about half of every
    universe."""
    specs, flip = [], 0
    for (protocol, universe), depths in CHECK_DEPTHS.items():
        for i, depth in enumerate(depths):
            if (i + flip) % 2 == int(held_out):
                specs.append((protocol, universe, depth))
        flip ^= len(depths) % 2
    return specs


def closes(spec):
    """True when the checker job's search closes within its depth bound."""
    protocol, universe, depth = spec
    return depth >= CHECK_CLOSES.get((protocol, universe), depth + 1)


def paper_job(config, k):
    return ("paper_tables config=%s seed=%d warmup_days=360 batches=20 "
            "batch_years=1" % (config, pool_seed(k)))


def sweep_job(config, k):
    return ("object_sweep config=%s seed=%d reps=256 objects=64 "
            "warmup_days=30 batches=4 batch_years=0.5" % (config, pool_seed(k)))


# Serve jobs start with every site up; 30 simulated days of warm-up (about
# five relaxation times of the slowest sites) bring the failure process to
# its steady state before the measured days: there the shares of arrivals
# whose origin is down and of decisions made with a copy down match
# `dynvote serve` (360-day warm-up, 2 years); over the whole job, warm-up
# included, they reach about four fifths of it. A 1-day warm-up gives a
# sixth (serve_mix.py, README.md). A longer warm-up would leave too few
# timed runs per input in a run.
SERVE_WARMUP_DAYS = 30


def serve_job(config, k):
    return ("serve_traced config=%s seed=%d rate=1000 warmup_days=%d "
            "batches=10 batch_years=0.0015"
            % (config, pool_seed(k), SERVE_WARMUP_DAYS))


def check_job(spec):
    return "check_closure protocol=%s topology=%s depth=%d" % spec


JOB_MAKERS = {"paper_tables": paper_job, "object_sweep": sweep_job,
              "serve_traced": serve_job}
WORKLOADS = ("paper_tables", "object_sweep", "serve_traced", "check_closure")
# The warm-up job of each workload: a mid-sized development input.
WARMUP = {"paper_tables": paper_job("E", 0), "object_sweep": sweep_job("E", 0),
          "serve_traced": serve_job("E", 0),
          "check_closure": check_job(("LDV", "section3", 6))}


def pool(workload, held_out=False):
    """Every job input the workload can draw, from one of its pools."""
    if workload == "check_closure":
        return [check_job(s) for s in check_specs(held_out)]
    make = JOB_MAKERS[workload]
    return [make(c, k) for k in sim_pool_seeds(held_out) for c in CONFIGS]


def generate(workload, rng, held_out):
    """The warm-up job, then one round of distinct inputs in random
    order: the whole checker pool (its largest searches set the peak
    memory, so no seed leaves them out), or for the simulations
    ROUND_JOBS / 8 per placement, with pool seeds drawn at random."""
    if workload == "check_closure":
        checks = pool(workload, held_out)
        round_jobs = rng.sample(checks, len(checks))
    else:
        make = JOB_MAKERS[workload]
        per_config = ROUND_JOBS // len(CONFIGS)
        round_jobs = [make(c, k) for c in CONFIGS
                      for k in rng.sample(sim_pool_seeds(held_out),
                                          per_config)]
        rng.shuffle(round_jobs)
    return [WARMUP[workload]] + round_jobs


def numbered(inputs):
    """The driver's input — `job <workload> <id> k=v ...` lines — and
    each id's input key."""
    lines = ["job %s %d %s" % (key.split(" ", 1)[0], job_id,
                               key.split(" ", 1)[1])
             for job_id, key in enumerate(inputs)]
    return "\n".join(lines) + "\n", dict(enumerate(inputs))


def job_lines(workloads, seed):
    """The jobs generated from `seed` for `workloads`, numbered."""
    rng = random.Random(seed)
    held_out = seed == HELD_OUT_SEED
    return numbered([key for w in workloads
                     for key in generate(w, rng, held_out)])


# --- Build and run -----------------------------------------------------


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build():
    """Configures and builds the driver; returns its path, or exits."""
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(build_dir)
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", str(nproc()),
                  "--target", "perfbench_driver"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                log.close()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.exit("perfbench: build failed (see %s)" % log_path)
    return os.path.join(build_dir, "perfbench_driver")


def run_driver(driver, mode, workload, seconds, text,
               timeout=DRIVER_TIMEOUT_S):
    cmd = [driver, "--mode=" + mode, "--workload=" + workload,
           "--seconds=%g" % seconds, "--nproc=%d" % nproc()]
    try:
        proc = subprocess.run(cmd, input=text, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: driver timed out after %d s" % timeout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        sys.exit("perfbench: driver exited with %d" % proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


# --- Provenance --------------------------------------------------------


def git_describe():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unavailable (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", ROOT, "describe", "--always",
                              "--dirty"], capture_output=True, text=True)
        return out.stdout.strip() or "unavailable"
    except OSError:
        return "unavailable (no git)"


def source_digest():
    """sha256 over the library sources, for checkouts without git."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def provenance(driver_prov, seed, text):
    prov = {"git_describe": git_describe(), "source_digest": source_digest()}
    prov.update(driver_prov)
    prov.update({"nproc": nproc(), "cpu_model": cpu_model(), "seed": seed,
                 "inputs_sha256": hashlib.sha256(text.encode()).hexdigest()[:16]})
    return prov


# --- Metrics -----------------------------------------------------------


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def check_jobs(records, keys, expected):
    """Counts the jobs whose run failed or whose digest is not the
    recorded one."""
    failed = 0
    for job_id, _, digest, _, _ in records:
        want = expected.get(keys[job_id])
        if digest == "error" or want is None or digest != want:
            failed += 1
            sys.stderr.write("perfbench: job %d (%s) digest %s, expected %s\n"
                             % (job_id, keys[job_id], digest, want))
    return failed


def per_input_times(jobs):
    """Each input's least time over its first m runs, where m is the
    fewest runs any input got (so every input has the same number of
    tries), with its work and m. Failed jobs have no time; check_jobs
    counts them."""
    runs = {}
    for job_id, seconds, digest, work, _ in jobs:
        if digest != "error":
            runs.setdefault(job_id, []).append((seconds, work))
    tries = min(len(r) for r in runs.values())
    return [min(r[:tries]) for r in runs.values()], tries


def timed_metrics(out, workload):
    best, tries = per_input_times(out["jobs"])
    times = [t for t, _ in best]
    tail = stats.tail_percentile(len(times))
    if tail is None or tail < 90.0:
        sys.stderr.write("perfbench: only %d inputs; job_s.p90 has fewer "
                         "than %d samples beyond it\n"
                         % (len(times), stats.MIN_TAIL_SAMPLES))
    metrics = {
        "setup_s": stats.median(out["setup_s"]),
        "job_s.p50": stats.percentile(times, 50.0),
        "job_s.p90": stats.percentile(times, 90.0),
        "work_per_s": sum(w for _, w in best) / sum(times),
        "peak_rss_mb": out["peak_rss_kb"] / 1024.0,
    }
    named = "states_per_s" if workload == "check_closure" else "sim_years_per_s"
    report = ["job_s.samples %d (least of %d runs each, %d jobs run)"
              % (len(times), tries, len(out["jobs"])),
              "job_s.tail_percentile p%g" % tail if tail else
              "job_s.tail_percentile none",
              "%s %.6g (= work_per_s)" % (named, metrics["work_per_s"])]
    return metrics, report


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args()

    bench = load_benchmark()
    driver = build()

    if args.record_digests:
        text, keys = numbered([key for w in WORKLOADS for held_out in (0, 1)
                               for key in pool(w, held_out)])
        out = run_driver(driver, "digests", WORKLOADS[0], 1, text,
                         timeout=3600)
        digests = {keys[j[0]]: j[2] for j in out["jobs"]}
        if "error" in digests.values():
            sys.exit("perfbench: a job failed while recording digests")
        with open(EXPECTED, "w") as f:
            json.dump(digests, f, indent=0, sort_keys=True)
            f.write("\n")
        print("recorded %d digests" % len(digests))
        return 0

    if args.workload is None:
        parser.error("--workload is required")
    with open(EXPECTED) as f:
        expected = json.load(f)

    if args.trace:
        # Every layer is measured on its home workload's first jobs, so
        # the traced run takes the jobs of all four workloads.
        text, keys = job_lines(WORKLOADS, args.seed)
        out = run_driver(driver, "traced", args.workload, args.seconds, text)
        wanted = bench["per_layer"]
        metrics = {m["name"]: out["layers"][m["name"]] for m in wanted}
        # Every traced, timing-only and untraced run of a generated job
        # is checked against its recorded digest.
        attempted = len(out["jobs"])
        failed = check_jobs(out["jobs"], keys, expected)
        correct = failed == 0 and out["identical"]
        report = ["traced_runs_checked %d failed %d" % (attempted, failed),
                  "traced_jobs %d traced_equals_untraced %s"
                  % (out["traced_jobs"], out["identical"]),
                  "overhead_rounds %s" % json.dumps(out["overhead_rounds"]),
                  "recon.unattributed_signed %.6g"
                  % out["layers"]["recon.unattributed_signed"]]
    else:
        text, keys = job_lines([args.workload], args.seed)
        out = run_driver(driver, "timed", args.workload, args.seconds, text)
        wanted = bench["end_to_end"]
        records = out["warmup_jobs"] + out["jobs"]
        attempted = len(records)
        failed = check_jobs(records, keys, expected)
        metrics, report = timed_metrics(out, args.workload)
        if args.workload == "check_closure":
            round_specs = [dict(f.split("=") for f in key.split()[1:])
                           for key in keys.values()][1:]
            closed = sum(closes((f["protocol"], f["topology"],
                                 int(f["depth"]))) for f in round_specs)
            report.append("check_round_closed %d of %d"
                          % (closed, len(round_specs)))
        correct = failed == 0 and out.get("sweep_identity", True)
        report.append("failed_frac %.6g" % (failed / attempted))
        if "sweep_identity" in out:
            report.append("sweep_objects64_equals_objects1 %s"
                          % out["sweep_identity"])

    print("perfbench workload=%s seed=%d%s seconds=%g trace=%d"
          % (args.workload, args.seed,
             " (held-out pool)" if args.seed == HELD_OUT_SEED else "",
             args.seconds, args.trace))
    print("provenance " + json.dumps(provenance(out["provenance"], args.seed,
                                                text), sort_keys=True))
    for line in report:
        print(line)
    result = {}
    for m in wanted:
        value = metrics[m["name"]]
        print("%-32s %14.6g %s" % (m["name"], value, m["unit"]))
        result[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": bool(correct), "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
