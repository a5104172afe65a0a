#!/usr/bin/env python3
"""The repository benchmark: one command that builds its driver against the
library, runs one workload, checks the answers and prints the metrics.

    python3 perfbench/run.py --workload <paper-speedup|loopback-rpc|serving-mix> \
        --seed <n> --seconds <s> --trace <0|1> [--noise-seed <n>]
    python3 perfbench/run.py --self-test

Run it from the repository root. The build goes to .bench_build/ (CMake,
Release); the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics, the driver's own result line with,
on --trace 1, every per-layer metric of BENCHMARK.json that the workload
does not measure added with value 0. --self-test builds and runs
checks_test, which feeds every correctness check a wrong answer.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("paper-speedup", "loopback-rpc", "serving-mix")
RUN_TIMEOUT_S = 170


def build(target):
    """Configures (once) and builds `target`; build chatter goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "federation.h")):
        sys.stderr.write("perfbench: library sources (src/) not found under %s\n" % ROOT)
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cfg = subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if cfg.returncode != 0:
            return False
    made = subprocess.run(
        ["cmake", "--build", BUILD, "-j", "4", "--target", target],
        stdout=sys.stderr, stderr=sys.stderr)
    return made.returncode == 0


def run(cmd, capture=False):
    """Runs `cmd`, relaying its standard error; returns (exit code, standard
    output), the output relayed as well unless `capture`."""
    try:
        done = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None,
                              universal_newlines=True)
        return done.returncode, done.stdout or ""
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: %s timed out after %d s\n" % (cmd[0], RUN_TIMEOUT_S))
        return 124, ""


def fill_per_layer(result):
    """Adds every per-layer metric of BENCHMARK.json that the workload does
    not measure (RPC in-process, the cache where it is off), with value 0."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        per_layer = json.load(f)["per_layer"]
    metrics = result["metrics"]
    for m in per_layer:
        metrics.setdefault(m["name"], {"value": 0.0, "unit": m["unit"]})


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--noise-seed", type=int,
                   help="override the providers' noise seed (default: derived from --seed)")
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()

    if a.self_test:
        if not build("perfbench_checks_test"):
            return 2
        return run([os.path.join(BUILD, "perfbench_checks_test")])[0]
    if a.workload is None:
        p.error("--workload is required")
    if not build("perfbench_driver"):
        return 2
    os.makedirs(os.path.join(BUILD, "out"), exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench_driver"), "--workload", a.workload,
           "--seed", str(a.seed), "--seconds", str(a.seconds), "--trace", str(a.trace)]
    if a.noise_seed is not None:
        cmd += ["--noise-seed", str(a.noise_seed)]
    code, out = run(cmd, capture=True)
    lines = out.splitlines()
    if code == 124 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(out)
        return code or 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(out)
        sys.stderr.write("perfbench: the driver's result line is not JSON\n")
        return code or 1
    if a.trace:
        fill_per_layer(result)
    sys.stdout.write("".join(l + "\n" for l in lines[:-1]))
    sys.stdout.write(json.dumps(result) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
