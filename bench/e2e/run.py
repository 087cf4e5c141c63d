#!/usr/bin/env python3
"""Builds tutbench from source and runs one workload (or all of them).

Run from the repository root:

  python3 bench/e2e/run.py --workload NAME --seed N [--seconds S] [--trace 0|1]
  python3 bench/e2e/run.py --workload all --seed N [--seconds S]

The build goes to $CARGO_TARGET_DIR, else .bench_build (CMake, RelWithDebInfo,
two jobs); its output goes to stderr. A single workload prints the binary's
`name value unit` lines and, last, its JSON result. `all` runs every workload
of BENCHMARK.json in its own child process and prints, last, one JSON object
{"seed": N, "results": {workload: result}} that report.py compare reads.

Exits non-zero without a result when the repository's sources are missing,
the build fails, or the printed metrics differ from BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN_TIMEOUT_S = 170


def die(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build(build_dir):
    """Configures (once) and builds the tutbench target; returns its path."""
    for needed in ("src/CMakeLists.txt", "examples/campaigns", "examples/models"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            die(f"repository source '{needed}' is missing; nothing to build")
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "tutbench",
                  "-j", "2"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            die("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "tutbench"), env


def run_one(binary, env, build_dir, workload, seed, seconds, trace, catalog):
    """Runs one workload; returns (exit code, stdout lines, result dict)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--root", ROOT, "--scratch", os.path.join(build_dir, "scratch")]
    if trace:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{workload}-seed{seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{workload} did not finish within {RUN_TIMEOUT_S} s", 3)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        die(f"{workload} printed no result (exit {proc.returncode})", 3)
    want = [m["name"] for m in catalog]
    if list(result["metrics"]) != want:
        die(f"{workload} printed metrics {list(result['metrics'])}, "
            f"BENCHMARK.json lists {want}", 3)
    return proc.returncode, lines, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    catalog = bench["per_layer" if args.trace else "end_to_end"]
    if args.workload != "all" and args.workload not in names:
        die(f"unknown workload '{args.workload}' ({', '.join(names)}, all)")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or ".bench_build")
    binary, env = build(build_dir)

    if args.workload != "all":
        code, lines, _ = run_one(binary, env, build_dir, args.workload,
                                 args.seed, seconds, args.trace, catalog)
        print("\n".join(lines), flush=True)
        sys.exit(code)

    results, worst = {}, 0
    for name in names:
        code, lines, result = run_one(binary, env, build_dir, name, args.seed,
                                      seconds, args.trace, catalog)
        for line in lines[:-1]:
            print(f"{name}: {line}")
        results[name] = result
        worst = max(worst, code)
    print(json.dumps({"seed": args.seed, "results": results}), flush=True)
    sys.exit(worst)


if __name__ == "__main__":
    main()
