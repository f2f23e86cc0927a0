#!/usr/bin/env python3
"""Build and run the gwc benchmark harness, or compare two result sets.

Run one workload (from the repository root):

    python3 perfbench/run.py --workload cold_parallel --seed 1 \\
        --seconds 30 --trace 0

The first call configures and builds perfbench/ (which compiles the
library sources under src/) into $CARGO_TARGET_DIR, or .bench_build
when that is unset; build output goes to stderr. The last stdout line
is the harness's JSON result. Each run is also recorded, with its seed,
under .bench_out/results/ (or --results DIR); traced runs write their
spans to .bench_out/spans/.

Compare two result sets (directories of recorded runs):

    python3 perfbench/run.py --diff BEFORE_DIR AFTER_DIR
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configure (once) and build the harness; returns the binary path."""
    bdir = build_dir()
    steps = []
    if not any(os.path.exists(os.path.join(bdir, f))
               for f in ("Makefile", "build.ninja")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", "4",
                  "--target", "gwc_perfbench"])
    for cmd in steps:
        rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            cwd=ROOT).returncode
        if rc != 0:
            log(f"build failed ({' '.join(cmd)} exited {rc})")
            sys.exit(1)
    return os.path.join(bdir, "gwc_perfbench")


def run(args):
    binary = build()
    out_dir = os.path.join(ROOT, ".bench_out")
    results = args.results or os.path.join(out_dir, "results")
    os.makedirs(results, exist_ok=True)
    # Scratch is relative to the harness's working directory (ROOT): a
    # Unix socket path may not exceed 107 bytes, however deep ROOT is.
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--golden", args.golden or os.path.join(HERE, "golden.txt"),
           "--scratch", ".bench_out"]
    if args.trace:
        spans = os.path.join(out_dir, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-out", os.path.join(
            spans, f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} exceeded {RUN_TIMEOUT_S} s")
        sys.exit(1)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"{args.workload} exited {proc.returncode}")
        sys.exit(proc.returncode or 1)
    result = json.loads(lines[-1])
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "time": time.time(), "result": result}
    name = (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
            f"{time.time_ns()}.json")
    with open(os.path.join(results, name), "w") as f:
        json.dump(record, f, indent=1)
    for line in lines[:-1]:
        print(line)
    print(f"seed {args.seed}")
    print(lines[-1], flush=True)


def load_set(path):
    """{workload: {metric: [values]}} of the untraced runs in @path."""
    out = {}
    for name in sorted(os.listdir(path)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(path, name)) as f:
            rec = json.load(f)
        if rec.get("trace"):
            continue
        wl = out.setdefault(rec["workload"], {})
        for metric, v in rec["result"]["metrics"].items():
            wl.setdefault(metric, []).append(v["value"])
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(before, after, better, bound):
    """Signed change (> 0 is worse) and improved / worse / same /
    unresolved. Unresolved: either side's quartile spread exceeds the
    bound and the after runs do not all beat the before runs. Worse:
    the median moved the wrong way by more than the bound. Improved:
    every after run beats every before run, or the median moved the
    right way by more than the spread."""
    q1a, meda, q3a = quartiles(before)
    q1b, medb, q3b = quartiles(after)
    sign = 1 if better == "lower" else -1
    change = sign * (medb - meda) / meda   # > 0 is worse
    spread = max((q3a - q1a) / meda, (q3b - q1b) / medb)
    all_better = all(sign * b < sign * a for a in before for b in after)
    if spread > bound and not all_better:
        return change, "unresolved"
    if change > bound:
        return change, "worse"
    if all_better or -change > spread:
        return change, "improved"
    return change, "same"


def diff(before_dir, after_dir):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    a, b = load_set(before_dir), load_set(after_dir)
    fmt = "{:<14} {:<13} {:>34} {:>34} {:>8}  {}"
    print(fmt.format("workload", "metric", "before median [q1, q3]",
                     "after median [q1, q3]", "change", "verdict"))
    for wl in sorted(set(a) | set(b)):
        for m in bench["end_to_end"]:
            va, vb = a.get(wl, {}).get(m["name"]), b.get(wl, {}).get(
                m["name"])
            if not va or not vb:
                print(fmt.format(wl, m["name"], "-", "-", "-", "missing"))
                continue
            change, word = verdict(va, vb, m["better"], m["bound"])
            cell = "{:.6g} [{:.6g}, {:.6g}] n={}"
            qa, qb = quartiles(va), quartiles(vb)
            print(fmt.format(wl, m["name"],
                             cell.format(qa[1], qa[0], qa[2], len(va)),
                             cell.format(qb[1], qb[0], qb[2], len(vb)),
                             f"{change * 100:+.1f}%", word))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--golden", help="digest file (default: golden.txt)")
    p.add_argument("--results", help="record directory")
    p.add_argument("--diff", nargs=2, metavar=("BEFORE", "AFTER"))
    args = p.parse_args()
    if args.diff:
        diff(*args.diff)
    elif args.workload:
        run(args)
    else:
        p.error("--workload or --diff is required")


if __name__ == "__main__":
    main()
