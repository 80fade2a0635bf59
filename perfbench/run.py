#!/usr/bin/env python3
"""Builds the benchmark from source, then runs one workload.

    python3 perfbench/run.py --workload ooc-skewed --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The build goes to $CARGO_TARGET_DIR (default
.bench_build) under the current directory; the traced run also writes its
spans there as a Chrome trace.  All arguments are passed to the benchmark
binary, whose last line of output is the result.  Exits non-zero, without a
result line, when the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def run(cmd, env, timeout, stdout):
    """Runs cmd, stopping it (and waiting for it) on timeout."""
    proc = subprocess.Popen(cmd, env=env, stdout=stdout)
    try:
        return proc.wait(timeout=timeout)
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def flag_value(args, flag):
    """The value after `flag` in args, or "" when absent."""
    i = args.index(flag) if flag in args else len(args)
    return args[i + 1] if i + 1 < len(args) else ""


def main(argv):
    root = os.getcwd()
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                         "perfbench")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", build, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build, "--target", "perfbench", "-j", jobs],
    ]
    for step in steps:
        # Build output goes to stderr: stdout carries only the benchmark's.
        if run(step, env, BUILD_TIMEOUT_S, sys.stderr) != 0:
            print("perfbench: build failed: " + " ".join(step), file=sys.stderr)
            return 3

    args = list(argv)
    if flag_value(args, "--trace") == "1":
        name = "spans-%s-%s.json" % (flag_value(args, "--workload"),
                                     flag_value(args, "--seed"))
        args += ["--spans-out", os.path.join(build, name)]
    sys.stdout.flush()
    return run([os.path.join(build, "perfbench")] + args, env, RUN_TIMEOUT_S,
               None)


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except subprocess.TimeoutExpired as e:
        print("perfbench: timed out: %s" % e, file=sys.stderr)
        sys.exit(4)
