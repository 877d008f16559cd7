#!/usr/bin/env python3
"""Builds the repository benchmark and runs one of its workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload traffic_saturated --seed 1 \
        --seconds 10 --trace 0

The benchmark binary is configured against the repository's own CMake
project, so it gets the repository's default build type and flags, in
.bench_build/ and is rebuilt there whenever a source changes. The last line
of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; earlier lines give the
build provenance, every metric with its sample count, and the failure
ratio with its base. Build output goes to standard error.

Maintenance modes:

    python3 perfbench/run.py --selftest       # all workloads, tiny, both modes
    python3 perfbench/run.py --write-goldens  # re-pin perfbench/goldens.txt
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(BUILD, "perfbench-work")
BINARY = os.path.join(BUILD, "perfbench", "scg_perfbench")
GOLDENS = os.path.join(HERE, "goldens.txt")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (once) and builds the benchmark binary."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail(f"no repository sources next to {HERE}; run from a full checkout")
    if not any(os.path.isfile(os.path.join(BUILD, f))
               for f in ("build.ninja", "Makefile")):
        configure = ["cmake", "-S", ROOT, "-B", BUILD,
                     "-DCMAKE_PROJECT_INCLUDE=" +
                     os.path.join(HERE, "cmake", "hook.cmake")]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", BUILD, "--target", "scg_perfbench",
                       "-j", jobs], stdout=sys.stderr).returncode != 0:
        fail("build failed")
    os.makedirs(WORK, exist_ok=True)


def git_describe():
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != \
                os.path.realpath(ROOT):
            return "unavailable"
        out = subprocess.run(["git", "-C", ROOT, "describe", "--always",
                              "--dirty", "--tags"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unavailable"
    except (OSError, subprocess.SubprocessError):
        return "unavailable"


def command(workload, seed, seconds, trace, tiny=False, emit=False):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", WORK, "--git-describe", git_describe()]
    if tiny:
        cmd.append("--tiny")
    if emit:
        cmd.append("--emit-goldens")
    return cmd


def run_captured(cmd):
    out = subprocess.run(cmd, capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stdout + out.stderr)
        fail(f"{' '.join(cmd[1:4])} exited with {out.returncode}", 1)
    return out.stdout


def traffic_layers(value):
    """Problems with a traced traffic run's layer split, which must add up:
    traffic.wall_s = comm.trace_gen_s + comm.route_setup_s + comm.simulate_s
    and comm.route_setup_s = perm.normalize_s + query.route_batch_s +
    comm.setup_residual_s, with both residuals >= 0."""
    problems = []
    for total, parts in (("traffic.wall_s", ["comm.trace_gen_s",
                                             "comm.route_setup_s",
                                             "comm.simulate_s"]),
                         ("comm.route_setup_s", ["perm.normalize_s",
                                                 "query.route_batch_s",
                                                 "comm.setup_residual_s"])):
        whole = value[total]
        summed = sum(value[k] for k in parts)
        if abs(summed - whole) > 1e-9 * max(1.0, whole):
            problems.append(f"{' + '.join(parts)} = {summed}, "
                            f"{total} is {whole}")
        if min(value[k] for k in parts[:-1]) <= 0:
            problems.append(f"a timed layer of {total} is not > 0")
        if value[parts[-1]] < 0:
            problems.append(f"the residual {parts[-1]} is negative")
    return problems


def selftest():
    """Every workload at tiny size, untraced and traced, all checks on."""
    spec = json.load(open(SPEC))
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            stdout = run_captured(command(workload, DEFAULT_SEED, 0.5, trace,
                                          tiny=True))
            result = json.loads(stdout.strip().splitlines()[-1])
            where = f"{workload} trace={trace}"
            metrics = result["metrics"]
            if not result["correct"] or result["failed"] or \
                    result["attempted"] < 1:
                problems.append(f"{where}: checks failed {result}")
            if {k: v["unit"] for k, v in metrics.items()} != expected[trace]:
                problems.append(f"{where}: metric names/units differ from "
                                "BENCHMARK.json")
            value = {k: v["value"] for k, v in metrics.items()}
            if any(not math.isfinite(v) for v in value.values()):
                problems.append(f"{where}: non-finite metric")
            if trace == 0 and any(v <= 0 for v in value.values()):
                problems.append(f"{where}: an end-to-end metric is not > 0")
            if trace == 1 and workload.startswith("traffic_"):
                problems += [f"{where}: {p}" for p in traffic_layers(value)]
            print(f"selftest {where}: attempted {result['attempted']} "
                  f"failed {result['failed']}")
    for p in problems:
        print(f"selftest FAILED: {p}", file=sys.stderr)
    return 1 if problems else 0


def write_goldens():
    """Re-pins every checked output for the default and held-out seeds."""
    spec = json.load(open(SPEC))
    pinned = {}
    for tiny in (False, True):
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            for workload in [w["name"] for w in spec["workloads"]]:
                for trace in (0, 1):
                    stdout = run_captured(command(workload, seed, 0.5, trace,
                                                  tiny=tiny, emit=True))
                    for line in stdout.splitlines():
                        if not line.startswith("GOLDEN "):
                            continue
                        _, size, seed_field, key, value = line.split()
                        slot = (size, seed_field, key)
                        if pinned.setdefault(slot, value) != value:
                            fail(f"{key} is not deterministic: "
                                 f"{pinned[slot]} vs {value}", 1)
    with open(GOLDENS, "w") as out:
        out.write("# Pinned benchmark outputs: <size> <seed|*> <key> <value>.\n"
                  "# Regenerate with: python3 perfbench/run.py --write-goldens\n")
        for (size, seed_field, key), value in sorted(pinned.items()):
            out.write(f"{size} {seed_field} {key} {value}\n")
    print(f"wrote {len(pinned)} goldens to {GOLDENS}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=json.load(open(SPEC))["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--write-goldens", action="store_true")
    args = parser.parse_args()

    build()
    if args.selftest:
        return selftest()
    if args.write_goldens:
        return write_goldens()
    if not args.workload:
        fail("--workload is required")
    sys.stdout.flush()
    return subprocess.run(command(args.workload, args.seed, args.seconds,
                                  args.trace)).returncode


if __name__ == "__main__":
    sys.exit(main())
