#!/usr/bin/env python3
"""Entry point of the ROX regression benchmark.

Run one workload (builds the OCaml program bench.exe first, from this
checkout):

    python3 perfbench/run.py --workload xmark-q1 --seed 1 --seconds 30 --trace 0

The last line of standard output is the result object; with --save DIR the
run's stamp and result are also kept as DIR/<workload>-seed<N>-trace<T>.json.

Summarise one set of saved runs, or compare two (parent first):

    python3 perfbench/run.py summary DIR
    python3 perfbench/run.py compare OLD_DIR NEW_DIR

Both print one row per workload x end-to-end metric: median and quartiles
of each side, the spread (interquartile range over median) and, for
compare, a verdict against the metric's bound in BENCHMARK.json.
"""

import argparse
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "dune")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
WORKLOADS = ("xmark-q1", "dblp-combos", "served-mix")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    """Build bench.exe from this checkout's sources into .bench_build."""
    if not os.path.exists(os.path.join(ROOT, "dune-project")):
        fail("no dune-project at %s: not a checkout of the repository" % ROOT)
    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH")
    env = dict(os.environ)
    # Keep every build output inside the checkout: no shared dune cache.
    env["DUNE_CACHE"] = "disabled"
    env["XDG_CACHE_HOME"] = os.path.join(ROOT, ".bench_build", "cache")
    os.makedirs(BUILD_DIR, exist_ok=True)
    cmd = [dune, "build", "--root", ROOT, "--build-dir", BUILD_DIR,
           "--profile", "release", "./perfbench/bench.exe"]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                          stderr=sys.stderr, timeout=850)
    if proc.returncode != 0 or not os.path.exists(EXE):
        fail("build failed (exit %d)" % proc.returncode)


def run(args):
    build()
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-dir", os.path.join(ROOT, ".bench_build", "traces")]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True, timeout=175)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if not lines:
        fail("bench.exe printed no result (exit %d)" % proc.returncode)
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        fail("malformed result line: " + lines[-1])
    if args.save:
        stamp = next((json.loads(l)["stamp"] for l in lines[:-1]
                      if l.startswith('{"stamp"')), {})
        os.makedirs(args.save, exist_ok=True)
        name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
        with open(os.path.join(args.save, name), "w") as f:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "trace": args.trace, "stamp": stamp,
                       "result": result}, f, indent=1)
    print("\n".join(lines))
    sys.exit(proc.returncode)


def load_set(path):
    """Saved end-to-end runs of one result set: {workload: [result, ...]}."""
    runs = {}
    for name in sorted(glob.glob(os.path.join(path, "*.json"))):
        with open(name) as f:
            rec = json.load(f)
        if rec.get("trace") == 0:
            runs.setdefault(rec["workload"], []).append(rec["result"])
    if not runs:
        fail("no saved end-to-end runs under " + path)
    return runs


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)["end_to_end"]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def values_of(runs, metric):
    return [r["metrics"][metric]["value"] for r in runs
            if metric in r.get("metrics", {})]


def verdict(old, new, spec):
    """better / worse / unchanged / unresolved for one metric (section 8 of
    the metrics guide: a spread wider than the bound is unresolved unless
    every new run beats every old run)."""
    bound = spec["bound"]
    lower = spec["better"] == "lower"
    def gain(a, b):  # > 0 when b is better than a
        return (a - b) / abs(a) if lower else (b - a) / abs(a)
    o, n = statistics.median(old), statistics.median(new)
    if o == 0:
        return "unresolved"
    all_better = all(gain(a, b) > 0 for a in old for b in new)
    if max(spread(old), spread(new)) > bound:
        return "better" if all_better else "unresolved"
    g = gain(o, n)
    if g < -bound:
        return "worse"
    wins = sum(gain(a, b) > 0 for a in old for b in new)
    if g > spread(old) and wins >= 0.9 * len(old) * len(new):
        return "better"
    return "unchanged"


def fmt_side(values):
    q1, q2, q3 = quartiles(values)
    return "%12.4f [%10.4f %10.4f] %5.1f%%" % (q2, q1, q3, 100 * spread(values))


def summary(args):
    runs = load_set(args.dir)
    print("%-12s %-22s %4s %12s [%10s %10s] %6s %6s" %
          ("workload", "metric", "n", "median", "q1", "q3", "spread", "bound"))
    ok = True
    for wl in sorted(runs):
        for spec in benchmark_spec():
            vals = values_of(runs[wl], spec["name"])
            if not vals:
                continue
            s = spread(vals)
            limit = spec["bound"] if spec["name"] == "setup_s" else spec["bound"] / 3
            flag = "" if s <= limit else "  <- spread above %s" % (
                "bound" if spec["name"] == "setup_s" else "bound/3")
            ok = ok and not flag
            print("%-12s %-22s %4d %s %5.1f%%%s" % (wl, spec["name"], len(vals),
                                                    fmt_side(vals), 100 * spec["bound"], flag))
    sys.exit(0 if ok else 1)


def compare(args):
    old, new = load_set(args.old), load_set(args.new)
    print("%-12s %-22s %-40s %-40s %s" % ("workload", "metric", "old median [q1 q3] spread",
                                          "new median [q1 q3] spread", "verdict"))
    for wl in sorted(set(old) & set(new)):
        for spec in benchmark_spec():
            o, n = values_of(old[wl], spec["name"]), values_of(new[wl], spec["name"])
            if o and n:
                print("%-12s %-22s %s  %s  %s" % (wl, spec["name"], fmt_side(o),
                                                  fmt_side(n), verdict(o, n, spec)))


def main():
    if len(sys.argv) > 1 and sys.argv[1] in ("summary", "compare"):
        p = argparse.ArgumentParser(prog="run.py " + sys.argv[1])
        if sys.argv[1] == "summary":
            p.add_argument("dir")
            summary(p.parse_args(sys.argv[2:]))
        else:
            p.add_argument("old")
            p.add_argument("new")
            compare(p.parse_args(sys.argv[2:]))
        return
    p = argparse.ArgumentParser(description="ROX regression benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--save", help="directory to keep this run's stamp and result in")
    run(p.parse_args())


if __name__ == "__main__":
    main()
