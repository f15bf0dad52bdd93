#!/usr/bin/env python3
"""Repository benchmark: builds agnn_perfbench from the library sources and
runs one workload, or all of them in turn.

    python3 perfbench/run.py --workload serve_hot --seed 1 --trace 0
    python3 perfbench/run.py --workload all --seed 1
    python3 perfbench/run.py --selftest

The workload's fixed parameters come from perfbench/workloads.json and reach
the load generator as flags. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under the repository root. The last stdout line is the run's
JSON result; the lines before it list every metric with its unit and
direction, as declared in BENCHMARK.json.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    configured = pathlib.Path(
        os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return configured if configured.is_absolute() else ROOT / configured


def build(target):
    if not (ROOT / "src" / "agnn" / "core").is_dir():
        fail(f"library sources not found under {ROOT / 'src'}")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", target,
                  "-j", jobs])
    for step in steps:
        # Build output goes to stderr: stdout carries only the result.
        built = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if built.returncode:
            fail(f"build step failed: {' '.join(step)}")
    return out / target


def flag_value(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def declared_metrics(trace):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return bench["per_layer" if trace else "end_to_end"]


def run_workload(name, spec, args, declared, binary):
    """Runs one workload; prints its metric table and JSON result last."""
    command = [str(binary), f"--workload={name}", f"--seed={args.seed}",
               f"--seconds={args.seconds}", f"--trace={args.trace}",
               f"--workdir={build_dir() / 'run'}"]
    command += [f"--{key}={flag_value(value)}"
                for key, value in spec["params"].items()]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail(f"no result from the load generator (exit {proc.returncode})")

    names = [metric["name"] for metric in declared]
    if sorted(result["metrics"]) != sorted(names):
        fail(f"metric set differs from BENCHMARK.json: got "
             f"{sorted(result['metrics'])}, declared {sorted(names)}")
    print(f"workload {name}  seed {args.seed}  "
          f"attempted {result['attempted']}  failed {result['failed']}  "
          f"correct {str(result['correct']).lower()}")
    for metric in declared:
        value = result["metrics"][metric["name"]]
        print(f"  {metric['name']:36s} {value['value']:>14.6g} "
              f"{value['unit']:8s} {metric['better']} is better")
    print(json.dumps(result))
    return proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        help="a workload of workloads.json, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark helper tests")
    args = parser.parse_args()

    if args.selftest:
        sys.exit(subprocess.run([str(build("summary_test"))]).returncode)

    workloads = json.loads((HERE / "workloads.json").read_text())["workloads"]
    names = list(workloads) if args.workload == "all" else [args.workload]
    for name in names:
        if name not in workloads:
            fail(f"unknown workload {name!r}; "
                 f"choose from {', '.join(workloads)} or all")
    declared = declared_metrics(args.trace)
    binary = build("agnn_perfbench")
    status = 0
    for name in names:
        if run_workload(name, workloads[name], args, declared, binary):
            status = 1
    sys.exit(status)


if __name__ == "__main__":
    main()
