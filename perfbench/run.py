#!/usr/bin/env python3
"""Build and run the letdma benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--digest]

Run from the repository root. Builds perfbench/ (which compiles ../src) in
Release mode under .bench_build/perfbench, runs the measuring program with
a scrubbed environment, checks its result line against BENCHMARK.json and
prints it as the last line of stdout. Workloads: waters-solve, serve-hits,
serve-churn (see perfbench/README.md).

Exit status: 0 on a correct run, 1 on a failed check or build, 2 on usage
or a refused environment (LETDMA_FAULTS set).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "letdma_perfbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures once, then lets the build tool bring the binary up to
    date (a no-op when nothing changed). Build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no letdma sources (src/CMakeLists.txt) next to perfbench/")
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode == 0


def source_id():
    """The commit when the checkout is a git work tree, else a digest of
    the sources the benchmark builds."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, check=True)
            return out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    h = hashlib.sha256()
    for top in ("src", "perfbench", os.path.join("bench", "bench_util.hpp")):
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(base) for f in fs)
        for path in sorted(paths):
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return "tree-sha256:" + h.hexdigest()[:16]


def check_result(result, spec, trace):
    """The result line must carry exactly the metrics BENCHMARK.json
    declares for this kind of run. A traced run reports 0 for the layers
    its workload does not exercise."""
    declared = {m["name"]: m["unit"] for m in
                spec["per_layer" if trace else "end_to_end"]}
    metrics = result["metrics"]
    unknown = sorted(set(metrics) - set(declared))
    if unknown:
        raise ValueError(f"undeclared metrics {unknown}")
    for name, unit in declared.items():
        if name not in metrics:
            if not trace:
                raise ValueError(f"missing end-to-end metric {name}")
            metrics[name] = {"value": 0, "unit": unit}
        elif metrics[name]["unit"] != unit:
            raise ValueError(f"{name}: unit {metrics[name]['unit']} != {unit}")
    result["metrics"] = {name: metrics[name] for name in declared}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--digest", action="store_true",
                   help="fixed-size pass printing the corpus digest and "
                        "exact counts (for the determinism test)")
    args = p.parse_args()

    if "LETDMA_FAULTS" in os.environ:
        log("refusing to run: LETDMA_FAULTS is set (fault injection "
            "measures a different program)")
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log(f"unknown workload {args.workload}")
        return 2
    if not build():
        log("build failed")
        return 1

    # No LETDMA_* knob (MILP timeout/threads, sampler rate, metrics file,
    # flight dump) reaches the measured process.
    env = {k: v for k, v in os.environ.items() if not k.startswith("LETDMA_")}
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--commit", source_id()]
    if args.digest:
        cmd.append("--digest")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.splitlines()
    if not lines:
        log(f"no output (exit {proc.returncode})")
        return 1
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            raise ValueError(f"result keys {sorted(result)}")
        if not args.digest:
            check_result(result, spec, args.trace == 1)
    except ValueError as e:
        log(f"malformed result line: {e}")
        return 1
    print(json.dumps(result), flush=True)
    if proc.returncode != 0 or not result["correct"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
