#!/usr/bin/env python3
"""Build and run the frame-path benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Configures perfbench/ (a CMake package that compiles the RICSA sources in
src/ together with the benchmark program) into $CARGO_TARGET_DIR, or
.bench_build when that is unset, builds the program, and runs it from the
checkout root. Build output goes to stderr, so the program's JSON result is
the last line on stdout. With --trace 1 the span trace is written to
<build dir>/traces/<workload>-seed<n>.jsonl.

Workloads: monitor_iso, wire_relay (see perfbench/README.md).
Exit status: the program's (nonzero when an output check failed), or 3 when
the program cannot be built.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    """Configure (a no-op when nothing changed), then build the program;
    False when either step fails."""
    configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    step = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs]
    return subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                os.path.join(ROOT, ".bench_build"))
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 3

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", repr(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
