#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark (perfbench/CMakeLists.txt: the library from src/ plus
the xbench program) into .bench_build/ at the checkout root, writes the
workload's .scn template with the seed substituted, then for S seconds runs
one closed-loop xbench process after another, each executing the workload
once. --trace 0 runs ScenarioRunner untraced and reports the end-to-end
metrics (medians over the runs); --trace 1 alternates untraced runs with the
span-timed mirror and reports the per-layer metrics. Every invocation ends
with one `xbench check` (run, replay of its trace, mirror, structural
oracles), and every run's outcome must equal the check's reference.

The last stdout line is the JSON result. The full per-run record, including
the machine's core count, is written to .bench_build/results/.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "xbench")
WORKLOADS = ("probe_heavy", "steady_churn", "batched_churn", "lossy_dist")

# Every xbench process of one invocation must end this many seconds after
# the build: a run that hangs is killed inside the 180-second budget of a
# whole invocation.
INVOCATION_BUDGET_S = 170
# At least this many runs of each kind, however short --seconds is.
MIN_RUNS = 3
# --tiny caps every phase at this many steps (the self-test's size).
TINY_STEPS = 120


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--parallel", jobs], check=True,
                   stdout=sys.stderr)


def write_spec(workload, seed, tiny):
    with open(os.path.join(HERE, "workloads", workload + ".scn")) as f:
        text = f.read().replace("@SEED@", str(seed))
    if tiny:
        text = re.sub(r"\bsteps=(\d+)",
                      lambda m: f"steps={min(int(m.group(1)), TINY_STEPS)}", text)
    spec_dir = os.path.join(BUILD, "specs")
    os.makedirs(spec_dir, exist_ok=True)
    path = os.path.join(spec_dir, f"{workload}-seed{seed}{'-tiny' if tiny else ''}.scn")
    with open(path, "w") as f:
        f.write(text)
    return path


def xbench(deadline, *args):
    """Run one xbench process to completion and return its JSON line."""
    proc = subprocess.run([BINARY, *args], capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"xbench {' '.join(args)} exited {proc.returncode}: "
                           f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(deadline, spec, seconds, trace, spans_path):
    """Closed loop: one run at a time until `seconds` have passed."""
    runs = []
    start = time.monotonic()
    while True:
        traced = trace and len(runs) % 2 == 1
        if traced:
            first = not any(r["mode"] == "traced" for r in runs)
            extra = ["--spans", spans_path] if first else []
            runs.append(xbench(deadline, "traced", spec, *extra))
        else:
            runs.append(xbench(deadline, "untraced", spec))
        kinds = 2 if trace else 1
        if time.monotonic() - start >= seconds and len(runs) >= MIN_RUNS * kinds:
            return runs


def median_of(runs, mode, key):
    return statistics.median(r[key] for r in runs if r["mode"] == mode)


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true",
                        help=f"cap every phase at {TINY_STEPS} steps (self-test)")
    args = parser.parse_args(argv)

    build()
    spec = write_spec(args.workload, args.seed, args.tiny)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    results_dir = os.path.join(BUILD, "results")
    os.makedirs(results_dir, exist_ok=True)

    deadline = time.monotonic() + INVOCATION_BUDGET_S
    runs = measure(deadline, spec, args.seconds, args.trace == 1,
                   os.path.join(results_dir, tag + ".spans.tsv"))
    check = xbench(deadline, "check", spec)

    reference = check["outcome"]
    failed = sum(1 for r in runs
                 if r["outcome"] != reference or r["outcome"]["verdict"] != "PASS")
    if not check["ok"]:
        failed += 1
        for problem in check["problems"]:
            log(f"check: {problem}")
    attempted = len(runs) + 1

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if args.trace == 0:
        metrics = {
            "wall_s": median_of(runs, "untraced", "wall_s"),
            "setup_s": median_of(runs, "untraced", "setup_s"),
            "events_per_s": median_of(runs, "untraced", "events_per_s"),
            "peak_rss_mib": median_of(runs, "untraced", "peak_rss_mib"),
            # 1 - fail_rate: BENCHMARK.json metrics must never read 0.
            "pass_rate": 1.0 - failed / attempted,
            "oracles_passed": check["oracles"] - check["oracle_findings"],
        }
    else:
        traced = [r for r in runs if r["mode"] == "traced"]
        metrics = {name: statistics.median(r["metrics"][name] for r in traced)
                   for name in traced[0]["metrics"]}
        metrics["bench.trace_overhead"] = (median_of(runs, "traced", "wall_s") /
                                           median_of(runs, "untraced", "wall_s"))
        metrics["oracle_findings"] = check["oracle_findings"]
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(units))}")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "nproc": os.cpu_count(),
        "runs": runs, "check": check, "attempted": attempted, "failed": failed,
    }
    with open(os.path.join(results_dir, tag + ".json"), "w") as f:
        json.dump(record, f, indent=1)

    for mode in ("untraced", "traced"):
        walls = [r["wall_s"] for r in runs if r["mode"] == mode]
        if len(walls) >= 2:
            q1, q2, q3 = statistics.quantiles(walls, n=4)
            print(f"perfbench: {args.workload} seed {args.seed} nproc {os.cpu_count()} "
                  f"{mode} wall_s over {len(walls)} runs: q1 {q1:.4f} median {q2:.4f} "
                  f"q3 {q3:.4f}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.SubprocessError) as error:
        log(f"error: {error}")
        sys.exit(1)
