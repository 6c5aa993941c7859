#!/usr/bin/env python3
"""Serving benchmark entry point.

    python3 servebench/run.py --workload rpc_backfill --seed 1 --trace 0

Run from the root of a checkout. Builds the benchmark and the repository
libraries it links (first run only; later runs rebuild incrementally) into
$CARGO_TARGET_DIR or .bench_build, makes the workload's inputs from the seed
in a separate process, then measures for --seconds (default: run_seconds
of BENCHMARK.json, the length the bounds were set on). Every
human-readable line starts with
"# "; the last line of stdout is the JSON result. The exit status is 0 only
when every verdict and accounting check passed.

    python3 servebench/run.py --selftest

runs the benchmark's own tests (the gates can fail: a perturbed detector
trips the verdict check, synthetic rungs exercise the knee).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

# rpc_hot runs on demand but is not in BENCHMARK.json (README.md says why).
WORKLOADS = ("rpc_hot", "rpc_backfill", "stream_follow")
BENCHMARK = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                         "BENCHMARK.json")


def fail(message):
    print(f"servebench: {message}", file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail(f"no repository sources under {root}/src")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", os.path.join(root, "servebench"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release", *generator],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1),
         "--target", "servebench", "servebench_selftest"],
        check=True, stdout=sys.stderr)


def git_commit(root):
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        fail("--workload is required")
    if args.seconds is None:
        try:
            with open(BENCHMARK) as f:
                args.seconds = json.load(f)["run_seconds"]
        except (OSError, ValueError, KeyError) as exc:
            fail(f"--seconds not given and no run_seconds in BENCHMARK.json: "
                 f"{exc}")

    root = os.getcwd()
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    try:
        build(root, build_dir)
    except (OSError, subprocess.CalledProcessError) as exc:
        fail(f"build failed: {exc}")
    binary = os.path.join(build_dir, "servebench")

    # End-to-end numbers come from the bare program: no in-program tracing.
    env = {k: v for k, v in os.environ.items()
           if k not in ("PHISHINGHOOK_TRACE", "PHOOK_TRACE")}

    if args.selftest:
        work = os.path.join(build_dir, "selftest")
        os.makedirs(work, exist_ok=True)
        sys.exit(subprocess.run([binary + "_selftest", work], env=env)
                 .returncode)

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(build_dir, "work", name)
    results = os.path.join(build_dir, "results")
    os.makedirs(results, exist_ok=True)
    shutil.rmtree(work, ignore_errors=True)
    try:
        gen = subprocess.run(
            [binary, "gen", "--workload", args.workload, "--seed",
             str(args.seed), "--dir", work],
            env=env, stdout=sys.stderr)
        if gen.returncode != 0:
            fail("input generation failed")
        command = [binary, "run", "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--dir", work,
                   "--results", os.path.join(results, name + ".json"),
                   "--commit", git_commit(root)]
        if args.trace:
            command += ["--spans", os.path.join(results, name + ".spans.json")]
        sys.stdout.flush()
        run = subprocess.run(command, env=env)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
