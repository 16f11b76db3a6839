#!/usr/bin/env python3
"""Build and run dia's end-to-end benchmark (see benchmark/README.md).

One workload (the last stdout line is the JSON result):
    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
Every workload, each in its own child process, one at a time:
    python3 benchmark/run.py --all [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
N rounds of every workload on seeds N0..N0+N-1, alternating the order, with
each metric's median and quartiles and a flag on spreads over the bound:
    python3 benchmark/run.py --repeat N [--seed N0] [--seconds S] [--trace 0|1] [--out FILE]
Every workload at tiny size with every check:
    python3 benchmark/run.py --smoke

The program is built from source with dune in the checkout holding this
file; nothing is read or written outside it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "benchmark", "benchmark.exe")


def build():
    for needed in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            sys.exit("benchmark: %s is missing; run from a full checkout" % needed)
    # The shared dune cache lives outside the checkout; keep the build local.
    env = dict(os.environ, DUNE_CACHE="disabled")
    done = subprocess.run(
        ["dune", "build", "--root", ROOT, "./benchmark/benchmark.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit(done.returncode)


def run_workload(name, seed, seconds, trace):
    done = subprocess.run(
        [EXE, "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        sys.exit("benchmark: %s failed with exit code %d" % (name, done.returncode))
    return lines[:-1], json.loads(lines[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def main():
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--repeat", type=int, default=0)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out")
    ours, _ = parser.parse_known_args()

    build()
    if not ours.all and not ours.repeat:
        os.chdir(ROOT)
        os.execv(EXE, [EXE] + sys.argv[1:])

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = ours.seconds if ours.seconds is not None else spec["run_seconds"]
    group = "per_layer" if ours.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in spec[group]}

    if ours.all:
        results = {}
        for name in workloads:
            lines, result = run_workload(name, ours.seed, seconds, ours.trace)
            results[name] = result
            print("== %s (seed %d)" % (name, ours.seed))
            print("\n".join(lines))
        if ours.out:
            with open(ours.out, "w") as f:
                json.dump(results, f, indent=1)
        return

    values = {name: {} for name in workloads}
    for round_ in range(ours.repeat):
        order = workloads if round_ % 2 == 0 else workloads[::-1]
        seed = ours.seed + round_
        for name in order:
            _, result = run_workload(name, seed, seconds, ours.trace)
            if not result["correct"]:
                sys.exit("benchmark: %s seed %d failed its checks" % (name, seed))
            for metric, m in result["metrics"].items():
                values[name].setdefault(metric, []).append(m["value"])
            print("round %d seed %d %s done" % (round_ + 1, seed, name), flush=True)
    flagged = 0
    for name in workloads:
        print("== %s" % name)
        for metric, vs in values[name].items():
            if len(vs) < 2:
                print("  %-30s %.6g" % (metric, vs[0]))
                continue
            q1, med, q3, rel = spread(vs)
            bound = bounds.get(metric)
            flag = ""
            if bound is not None and metric != "setup_s":
                if rel > bound:
                    flag, flagged = "  SPREAD OVER BOUND %.2f" % bound, flagged + 1
                elif rel > bound / 3:
                    flag = "  spread over bound/3 (%.3f)" % (bound / 3)
            print("  %-30s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.3f%s"
                  % (metric, med, q1, q3, rel, flag))
    if ours.out:
        with open(ours.out, "w") as f:
            json.dump(values, f, indent=1)
    if flagged:
        sys.exit(1)


if __name__ == "__main__":
    main()
