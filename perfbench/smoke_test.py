#!/usr/bin/env python3
"""Smoke test of the benchmark harness (from the repository root):

    python3 perfbench/smoke_test.py

Runs every workload, cold_serial included, for one short iteration
(--seconds 0), untraced and traced, and checks that each run is clean
and emits exactly the end_to_end (untraced) or per_layer (traced)
metrics BENCHMARK.json names, with their units. Then reruns every
workload against a digest file whose pins are all wrong and checks
that the mismatch is counted as a failure. Exits 1 on any failed
check.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (build() and the checkout layout)

SCRATCH = os.path.join(run.ROOT, ".bench_out")


def harness(binary, workload, trace, golden):
    cmd = [binary, "--workload", workload, "--seed", "1", "--seconds",
           "0", "--trace", str(trace), "--golden", golden, "--scratch",
           ".bench_out"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          cwd=run.ROOT, timeout=run.RUN_TIMEOUT_S)
    if proc.returncode != 0:
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    binary = run.build()
    golden = os.path.join(HERE, "golden.txt")
    os.makedirs(SCRATCH, exist_ok=True)
    wrong = os.path.join(SCRATCH, "golden-wrong.txt")
    with open(golden) as f, open(wrong, "w") as g:
        for line in f:
            name, digest = line.split()
            g.write(f"{name} {'0' * len(digest)}\n")

    problems = []
    # cold_serial runs like the others but is not in BENCHMARK.json
    # (see BENCHMARK.md, "Host noise").
    for wl in [w["name"] for w in bench["workloads"]] + ["cold_serial"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            r = harness(binary, wl, trace, golden)
            tag = f"{wl} --trace {trace}"
            if r is None:
                problems.append(f"{tag}: non-zero exit")
                continue
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            if got != want:
                problems.append(f"{tag}: metrics differ: missing "
                                f"{sorted(set(want) - set(got))}, extra "
                                f"{sorted(set(got) - set(want))}, units "
                                f"{[k for k in want if k in got and got[k] != want[k]]}")
            if not r["correct"] or r["failed"] or r["attempted"] < 1:
                problems.append(f"{tag}: not clean: {r['attempted']} "
                                f"attempted, {r['failed']} failed")
            print(f"ok   {tag}: {len(got)} metrics, "
                  f"{r['attempted']} checked", flush=True)
        r = harness(binary, wl, 0, wrong)
        if r is None or r["correct"] or r["failed"] == 0:
            problems.append(f"{wl}: a wrong digest was not counted")
        else:
            print(f"ok   {wl} wrong digest: failed_frac "
                  f"{r['failed'] / r['attempted']:.2f}", flush=True)
    for p in problems:
        print(f"FAIL {p}")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
