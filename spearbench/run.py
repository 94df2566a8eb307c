#!/usr/bin/env python3
"""Builds the spearbench binary from the checkout's sources and runs it.

    python3 spearbench/run.py --workload offline_serial --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The build goes to .bench_build (or
$CARGO_TARGET_DIR when set); an up-to-date build is reused.  All arguments
are passed to the binary, whose last line of output is the JSON result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    """Configures and builds the binary; build output goes to stderr."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(["cmake", "--build", build_dir, "--target", "spearbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "spearbench")


def main():
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as error:
        print("spearbench: build failed: %s" % error, file=sys.stderr)
        return 1
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
