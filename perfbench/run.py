#!/usr/bin/env python3
"""Build and run the schema-change benchmark on one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout of the repository. Builds
perfbench/main.exe with dune in the benchmark's own profile and build
directory (.perfbench_work/_build; shared build cache off, so nothing
is written outside the checkout), runs it with its working files under
.perfbench_work/, and relays its output: the last line is the JSON
result. --selftest builds and runs the determinism self-test instead.
"""

import argparse
import glob
import json
import os
import shutil
import subprocess
import sys

WORK = ".perfbench_work"
BUILD_DIR = os.path.join(WORK, "_build")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def find_dune():
    found = shutil.which("dune")
    if found:
        return found
    candidates = sorted(glob.glob(os.path.expanduser("~/.opam/*/bin/dune")))
    if candidates:
        return candidates[-1]
    die("dune not found on PATH")


def build(target, force=False):
    if not (os.path.isfile("dune-project") and os.path.isfile("lib/core/dune")):
        die("run from the root of a checkout of the repository "
            "(no dune-project or lib/ here)")
    env = dict(os.environ, DUNE_CACHE="disabled")
    os.makedirs(WORK, exist_ok=True)
    try:
        done = subprocess.run(
            [find_dune(), "build", "--root", ".", "--profile", "perfbench",
             "--build-dir", os.path.abspath(BUILD_DIR)]
            + (["--force"] if force else []) + [target],
            stdout=sys.stderr, stderr=sys.stderr, env=env,
            timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("build timed out")
    if done.returncode != 0:
        die("build failed")


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    if args.selftest:
        build("@perfbench/selftest", force=True)
        return
    if args.workload is None or args.seed is None or args.seconds is None:
        p.error("--workload, --seed and --seconds are required")
    build("./perfbench/main.exe")
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", WORK]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("benchmark run timed out", 1)
    sys.stderr.write(done.stderr)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        print("\n".join(lines))
        die("benchmark exited with %d" % done.returncode, done.returncode)
    json.loads(lines[-1])
    print("\n".join(lines))


if __name__ == "__main__":
    main()
