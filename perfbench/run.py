#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (see perfbench/README.md).

One run, from the root of a checkout:

    python3 perfbench/run.py --workload plan_cache_hot --seed 1 --seconds 10 --trace 0

builds perfbench/main.exe with dune and runs it. The last line of standard
output is the run's JSON result. With --trace 1 the per-layer run also writes
a Chrome trace to perfbench/out/<workload>-seed<seed>.trace.json.

Steadiness report:

    python3 perfbench/run.py --steadiness 10 [--workload NAME] [--seed 1]

runs each workload (or the one named) N times with seeds seed..seed+N-1 and
prints, for every end-to-end metric, its median, its quartile spread as a share
of the median, and the metric's bound from BENCHMARK.json, plus the tail sample
counts.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
WORKLOADS = ["plan_cache_hot", "join_search", "exec_heavy", "stats_churn"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        fail("no dune-project at %s: run from a checkout of the repository" % ROOT)
    if shutil.which("dune"):
        dune = ["dune"]
    elif shutil.which("opam"):
        dune = ["opam", "exec", "--", "dune"]
    else:
        fail("dune is not on PATH")
    # The shared dune cache lives outside the checkout; keep the build inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        done = subprocess.run(
            dune + ["build", "--root", ROOT, "./perfbench/main.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if done.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed")


def command(workload, seed, seconds, trace):
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        out = os.path.join(ROOT, "perfbench", "out")
        os.makedirs(out, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(out, "%s-seed%d.trace.json" % (workload, seed))]
    return cmd


def run_once(workload, seed, seconds, trace):
    try:
        done = subprocess.run(command(workload, seed, seconds, trace), cwd=ROOT,
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s seed %d timed out" % (workload, seed))
    if done.returncode != 0:
        fail("%s seed %d exited with %d" % (workload, seed, done.returncode))
    lines = done.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def bench_config():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.isfile(path):
        with open(path) as f:
            return json.load(f)
    return {}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def steadiness(args):
    config = bench_config()
    bounds = {m["name"]: m["bound"] for m in config.get("end_to_end", [])}
    seconds = args.seconds or config.get("run_seconds", 10)
    workloads = [args.workload] if args.workload else WORKLOADS
    steady = True
    for w in workloads:
        values, tails, verdicts = {}, [], []
        for k in range(args.steadiness):
            text, result = run_once(w, args.seed + k, seconds, 0)
            verdicts.append(result["correct"] and result["failed"] == 0)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            for line in text:
                t = re.match(r"latency_tail_ms is (p[\d.]+) over (\d+) samples of "
                             r"(\d+) statements, (\d+) samples above it", line)
                if t:
                    tails.append("%s:%s/%s/%s" % t.groups())
        print("%s: %d runs, %gs each, seeds %d..%d, all correct: %s"
              % (w, args.steadiness, seconds, args.seed,
                 args.seed + args.steadiness - 1, all(verdicts)))
        print("  %-16s %14s %10s %8s" % ("metric", "median", "spread", "bound"))
        for name, vs in values.items():
            med, s = spread(vs)
            bound = bounds.get(name)
            # set-up time is held to its bound between run sets, not within one
            within = bound is None or name == "setup_s" or s <= bound
            steady = steady and within
            print("  %-16s %14.6g %9.2f%% %8s%s"
                  % (name, med, 100 * s,
                     "-" if bound is None else "%g%%" % (100 * bound),
                     "" if within else "  OVER BOUND"))
        print("  tail percentile:samples/statements/samples above: " + " ".join(tails))
        sys.stdout.flush()
    return 0 if steady else 1


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--steadiness", type=int, metavar="N",
                   help="repeat each workload N times and report spreads")
    args = p.parse_args()
    # One client on one domain: pin it, so the scheduler does not move it
    # between processors whose speed differs on a shared machine.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    build()
    if args.steadiness:
        if args.steadiness < 2:
            fail("--steadiness needs at least 2 runs")
        return steadiness(args)
    if not args.workload or args.seconds is None:
        fail("--workload and --seconds are required")
    try:
        done = subprocess.run(command(args.workload, args.seed, args.seconds, args.trace),
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run timed out")
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
