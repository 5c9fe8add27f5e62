#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

  python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace <0|1>
  python3 perfbench/run.py --self-test

The first call configures and builds the simulator and the benchmark
harness into $CARGO_TARGET_DIR (default .bench_build) under the checkout;
later calls only re-check the build. Each workload runs in its own
process. The last line of stdout is the harness's JSON result, checked
here against the metric lists in BENCHMARK.json. The exit code is 0 only
when the build succeeded and every correctness check passed.

--self-test injects a spin delay into every DistScroll control call and
checks that the benchmark sees it: q1_sweep throughput and the traced
baselines.DistScroll.control.busy_s must move by more than the bound in
BENCHMARK.json, and both host workloads must stay within it.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["q1_sweep", "fleet_distscroll", "host_ingest", "host_overload"]
RUN_TIMEOUT_S = 175
SELF_TEST_DELAY_NS = 40.0
SELF_TEST_SECONDS = 8.0
SELF_TEST_ROUNDS = 2


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def build():
    """Configure (once) and build the harness; return its path or None."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no simulator sources under {ROOT / 'src'}; run from a full checkout")
        return None
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (target if target.is_absolute() else ROOT / target) / "perfbench"
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench", "-j", jobs])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, check=False)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            log(f"build step failed ({done.returncode}): {' '.join(step)}")
            return None
    return build_dir / "perfbench"


def run_one(binary, spec, workload, seed, seconds, trace, delay_ns=0.0, echo=True):
    """Run one workload; return (exit code, parsed result or None)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if delay_ns > 0.0:
        cmd += ["--inject-delay-ns", repr(delay_ns)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"{workload}: no result within {RUN_TIMEOUT_S} s")
        return 1, None
    lines = done.stdout.rstrip("\n").split("\n")
    if echo:
        print("\n".join(lines[:-1]), flush=True)
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        log(f"{workload}: no JSON result line (exit {done.returncode})")
        return done.returncode or 1, None
    wanted = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(result.get("metrics", {})) != wanted:
        log(f"{workload}: metric names differ from BENCHMARK.json: "
            f"{sorted(set(result.get('metrics', {})) ^ wanted)}")
        return 1, None
    if echo:
        print(lines[-1], flush=True)
    return done.returncode, result


def metric(result, name):
    return result["metrics"][name]["value"]


def self_test(binary, spec, seed):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    bound = bounds["ops_per_s_1t_norm"]
    ok = True

    def measure(workload, trace, delay_ns):
        code, result = run_one(binary, spec, workload, seed, SELF_TEST_SECONDS, trace, delay_ns,
                               echo=False)
        if code != 0 or result is None or not result["correct"]:
            raise SystemExit(f"perfbench: self-test run of {workload} failed (exit {code})")
        return result

    checks = [
        ("q1_sweep", 0, "ops_per_s_1t_norm", "drop"),
        ("q1_sweep", 1, "baselines.DistScroll.control.busy_s", "rise"),
        ("host_ingest", 0, "ops_per_s_1t_norm", "hold"),
        ("host_overload", 0, "ops_per_s_1t_norm", "hold"),
    ]
    print(f"self-test: {SELF_TEST_DELAY_NS:g} ns spin per DistScroll control call, "
          f"bound {bound:g}", flush=True)
    for workload, trace, name, expect in checks:
        # Alternate plain and slowed runs and keep the best of each:
        # co-tenant load only ever slows a run.
        runs = {0.0: [], SELF_TEST_DELAY_NS: []}
        for _ in range(SELF_TEST_ROUNDS):
            for delay_ns, values in runs.items():
                values.append(metric(measure(workload, trace, delay_ns), name))
        best = min if name.endswith("busy_s") else max
        base, slowed = best(runs[0.0]), best(runs[SELF_TEST_DELAY_NS])
        change = slowed / base - 1.0
        passed = {"drop": change < -bound, "rise": change > bound,
                  "hold": abs(change) <= bound}[expect]
        ok = ok and passed
        print(f"self-test: {workload:14s} {name:38s} {base:.6g} -> {slowed:.6g} "
              f"({change:+.1%}, expect {expect}) {'ok' if passed else 'FAILED'}", flush=True)
    return ok


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    binary = build()
    if binary is None:
        return 2
    if args.self_test:
        return 0 if self_test(binary, spec, args.seed) else 1

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    status = 0
    for workload in workloads:
        code, result = run_one(binary, spec, workload, args.seed, args.seconds, args.trace)
        if code != 0 or result is None or not result["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
