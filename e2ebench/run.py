#!/usr/bin/env python3
"""Runs one workload of the CLFD end-to-end benchmark.

    python3 e2ebench/run.py --workload cert_train --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds e2ebench/ (a CMake project compiled
against ../src) into .bench_build/e2ebench on first use, clears every
CLFD_* variable the caller set so each knob stays at the program default,
runs the driver, and checks its result line against BENCHMARK.json: with
--trace 0 the metrics must be exactly the end_to_end ones, with --trace 1
exactly the per_layer ones, each with its declared unit. Prints the
driver's record line, then the result line last. Exits non-zero, without a
result line, when the build, the run or that check fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
DRIVER = os.path.join(BUILD, "e2ebench_driver")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def clean_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("CLFD_")}


def run(cmd, timeout, **kwargs):
    """subprocess.run in a process group of its own, so that a timeout or an
    interrupt stops the command and everything it started (make and
    compilers included) and waits for it."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out


def build(env):
    steps = []
    if not os.path.exists(DRIVER):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "e2ebench_driver",
                  "-j", "3"])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        # Build output goes to stderr: stdout's last line is the result.
        code, _ = run(cmd, max(1, deadline - time.monotonic()), env=env,
                      stdout=sys.stderr, stderr=sys.stderr)
        if code != 0:
            return False
    return True


def check_result(line, spec, trace):
    """Returns a list of problems with the driver's result line."""
    try:
        result = json.loads(line)
    except ValueError:
        return ["last line is not JSON"]
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        return ["result keys are not correct/attempted/failed/metrics"]
    problems = []
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    declared = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = result["metrics"]
    if set(got) != set(want):
        problems.append("metrics differ from BENCHMARK.json: missing %s, "
                        "extra %s" % (sorted(set(want) - set(got)),
                                      sorted(set(got) - set(want))))
    for name in set(got) & set(want):
        if got[name].get("unit") != want[name]:
            problems.append("%s has unit %r, BENCHMARK.json says %r"
                            % (name, got[name].get("unit"), want[name]))
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    # SIGTERM unwinds through run(), which stops the child's process group.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        print("cannot read BENCHMARK.json: %s" % e, file=sys.stderr)
        return 1
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print("unknown workload %r" % args.workload, file=sys.stderr)
        return 2

    env = clean_env()
    started = time.monotonic()
    try:
        if not build(env):
            print("benchmark build failed", file=sys.stderr)
            return 1
    except subprocess.TimeoutExpired:
        print("benchmark build timed out", file=sys.stderr)
        return 1

    cmd = [DRIVER, "--design", os.path.join(HERE, "design.json"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans-out", os.path.join(
            BUILD, "spans-%s-seed%d.json" % (args.workload, args.seed))]
    # A first run, which compiles, may take longer than later ones.
    elapsed = time.monotonic() - started
    limit = (880 if elapsed > 30 else RUN_TIMEOUT_S) - elapsed
    try:
        code, out = run(cmd, limit, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                        text=True)
    except subprocess.TimeoutExpired:
        print("benchmark run timed out", file=sys.stderr)
        return 1
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        print("driver exited with %d" % code, file=sys.stderr)
        return 1
    problems = check_result(lines[-1], spec, args.trace)
    if problems:
        print("\n".join(["invalid result:"] + problems), file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
