#!/usr/bin/env python3
"""Self-test of the benchmark itself: every workload at a tiny size.

    python3 perfbench/selftest.py [--seed N]

For each workload and both --trace modes, runs perfbench/run.py with every
phase capped at a few steps and checks that
  * it exits 0 and its last stdout line is the result object, with exactly
    the keys correct / attempted / failed / metrics and correct = true;
  * it prints every metric BENCHMARK.json declares for that mode, each with
    its declared unit, and no other;
  * the check passed and every traced mirror run reproduced the untraced
    run's trace hash, fingerprint and final-sample values;
  * bench.layer_coverage >= 0.95.
Finally it copies BENCHMARK.json and perfbench/ alone into a temporary
directory under .bench_build/ and checks that run.py fails there (non-zero
exit, no result line): without the library sources there is nothing to
measure. Exits non-zero on the first failed check.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
MIN_COVERAGE = 0.95


def fail(message):
    print(f"selftest: FAIL {message}")
    sys.exit(1)


def run(args, cwd):
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def check_invocation(workload, seed, trace, declared):
    proc = run([RUN, "--workload", workload, "--seed", str(seed), "--seconds", "1",
                "--trace", str(trace), "--tiny"], ROOT)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        fail(f"{where}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0:
        fail(f"{where}: not correct: {proc.stderr}")
    units = {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed != units:
        fail(f"{where}: metric/unit mismatch {sorted(set(printed.items()) ^ set(units.items()))}")

    tag = f"{workload}-seed{seed}-trace{trace}-tiny"
    with open(os.path.join(ROOT, ".bench_build", "results", tag + ".json")) as f:
        record = json.load(f)
    if not record["check"]["ok"]:
        fail(f"{where}: check problems {record['check']['problems']}")
    reference = record["check"]["outcome"]
    modes = {r["mode"] for r in record["runs"]}
    if modes != ({"untraced", "traced"} if trace else {"untraced"}):
        fail(f"{where}: run modes {sorted(modes)}")
    if any(r["outcome"] != reference for r in record["runs"]):
        fail(f"{where}: a run's outcome differs from the check's reference")
    if trace:
        coverage = result["metrics"]["bench.layer_coverage"]["value"]
        if coverage < MIN_COVERAGE:
            fail(f"{where}: bench.layer_coverage {coverage:.4f} < {MIN_COVERAGE}")
        print(f"selftest: ok {where} (layer coverage {coverage:.4f}, "
              f"{len(record['runs'])} runs)")
    else:
        print(f"selftest: ok {where} ({len(record['runs'])} runs)")


def check_bare_checkout():
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"))
    proc = run([os.path.join("perfbench", "run.py"), "--workload", "steady_churn",
                "--seed", "1", "--seconds", "1", "--trace", "0"], bare)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        fail("run.py succeeded in a directory without the library sources")
    print(f"selftest: ok bare checkout fails (exit {proc.returncode})")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    for workload in (w["name"] for w in declared["workloads"]):
        for trace in (0, 1):
            check_invocation(workload, args.seed, trace, declared)
    check_bare_checkout()
    print("selftest: PASS")


if __name__ == "__main__":
    main()
