#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload fig6-serial --seed 1 --seconds 10 --trace 0

The benchmark is a Go module of its own in this directory that imports
the repository's packages through a replace directive. This script
builds it from source into the build directory (CARGO_TARGET_DIR when
set, else .bench_build), keeping the Go build cache there too, then runs
it from the repository root and passes its exit code through. The last
line of standard output is the result as JSON; see README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 175


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(root, "go.mod")):
        sys.stderr.write("perfbench: no go.mod above %s: the repository's sources are missing\n" % here)
        return 2

    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.join(root, build) if not os.path.isabs(build) else build
    os.makedirs(build, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOENV="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
    )
    # Fall back to the official Go install location when go is not on PATH.
    go = shutil.which("go") or "/usr/local/go/bin/go"
    binary = os.path.join(build, "perfbench")
    built = subprocess.run([go, "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--span-dir", os.path.join(build, "spans")]
    proc = subprocess.Popen(cmd, cwd=root, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main())
