#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark of the SPQ engine.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The engine library and the benchmark
program are compiled from the checkout's sources into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later runs
only rebuild what changed.
Build output goes to a log file in that directory and, on failure, to
standard error. The program's standard output is passed through: its last
line is the run's JSON result. See perfbench/README.md.
"""

import argparse
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A hung run is killed after this many seconds beyond its --seconds.
RUN_GRACE_S = 140


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(targets):
    out = build_dir()
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    # Configure until a build system exists (a failed configure leaves a
    # cache but no Makefile behind).
    if not any(os.path.exists(os.path.join(out, f))
               for f in ("Makefile", "build.ninja")):
        steps.append(["cmake", "-S", HERE, "-B", out])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target"] + targets)
    log_path = os.path.join(out, "build.log")
    with open(log_path, "w") as log:
        for cmd in steps:
            rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                env=env, cwd=ROOT).returncode
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-6000:])
                sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
                return False
    return True


def run(cmd, timeout):
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run killed after %.0f s\n" % timeout)
        return 1
    finally:
        # Also on SIGTERM or Ctrl-C: never leave the program running.
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run the checker's self-test instead")
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, on_sigterm)
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    target = "perfbench_selftest" if args.selftest else "spq_perfbench"
    started = time.monotonic()
    if not build([target]):
        return 1
    sys.stderr.write("perfbench: build ready in %.1f s\n"
                     % (time.monotonic() - started))
    binary = os.path.join(build_dir(), target)
    if args.selftest:
        return run([binary], timeout=RUN_GRACE_S)
    return run([binary, "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", repr(args.seconds), "--trace", str(args.trace)],
               timeout=args.seconds + RUN_GRACE_S)


if __name__ == "__main__":
    sys.exit(main())
