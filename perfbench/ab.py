#!/usr/bin/env python3
"""Same-host A/B of the benchmark: a named git revision against the working tree.

    python3 perfbench/ab.py REV [--workloads a,b] [--pairs 10] [--seconds 55]

REV's tree is exported with `git archive` into build/perfab/<sha>, and the
working tree's perfbench/ is copied over it, so both sides run identical
benchmark code against their own src/. Each pair runs both sides on one seed,
alternating which side goes first. For every workload and end-to-end metric
the report gives each side's median and quartiles, the working tree's median
over REV's, and the share of pairs the working tree won (ties count for
neither). With a clean tree, `ab.py HEAD` is an A/A run: its spreads are the
benchmark's run-to-run noise on this host.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def export(rev):
    sha = subprocess.check_output(["git", "rev-parse", "--verify",
                                   rev + "^{commit}"], cwd=ROOT,
                                  text=True).strip()
    dest = os.path.join(ROOT, "build", "perfab", sha[:12])
    if not os.path.isdir(os.path.join(dest, "src")):
        os.makedirs(dest, exist_ok=True)
        archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT,
                                   stdout=subprocess.PIPE)
        subprocess.check_call(["tar", "-x", "-C", dest], stdin=archive.stdout)
        if archive.wait() != 0:
            sys.exit("ab.py: git archive %s failed" % sha)
    shutil.rmtree(os.path.join(dest, "perfbench"), ignore_errors=True)
    shutil.copytree(HERE, os.path.join(dest, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)
    return dest


def run(side, workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(side, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds",
         str(seconds), "--trace", "0"],
        cwd=side, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit("ab.py: %s failed in %s:\n%s" % (workload, side, proc.stderr))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print("  warning: %s seed %d incorrect in %s" % (workload, seed, side))
    return {k: v["value"] for k, v in result["metrics"].items()}


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], statistics.median(xs), q[2]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("rev")
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--seed0", type=int, default=1000)
    args = ap.parse_args()

    sides = {"A": export(args.rev), "B": ROOT}
    for side in sides.values():  # build both before timing anything
        subprocess.run([sys.executable, os.path.join(side, "perfbench",
                                                     "run.py"), "--help"],
                       cwd=side, stdout=subprocess.DEVNULL, check=True)
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    print("A = %s (%s), B = working tree; %d pairs x %d s" %
          (args.rev, sides["A"], args.pairs, args.seconds))
    for workload in args.workloads.split(","):
        runs = {"A": [], "B": []}
        for i in range(args.pairs):
            order = "AB" if i % 2 == 0 else "BA"
            for s in order:
                runs[s].append(run(sides[s], workload, args.seed0 + i,
                                   args.seconds))
        print("\n%s" % workload)
        print("  %-24s %-36s %-36s %7s %6s" %
              ("metric", "A median [q1, q3]", "B median [q1, q3]", "B/A",
               "B wins"))
        for name, direction in better.items():
            a = [r[name] for r in runs["A"]]
            b = [r[name] for r in runs["B"]]
            wins = sum((y < x) if direction == "lower" else (y > x)
                       for x, y in zip(a, b))
            qa, qb = quartiles(a), quartiles(b)
            print("  %-24s %-36s %-36s %7.3f %5.0f%%" % (
                name, "%.5g [%.5g, %.5g]" % (qa[1], qa[0], qa[2]),
                "%.5g [%.5g, %.5g]" % (qb[1], qb[0], qb[2]),
                qb[1] / qa[1] if qa[1] else float("nan"),
                100.0 * wins / len(a)))


if __name__ == "__main__":
    main()
