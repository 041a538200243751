#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 oibench/run.py --workload oltp-4k --seed 1 --seconds 10 --trace 0

The benchmark binary is built from ../src with CMake into
$CARGO_TARGET_DIR/oibench (default .bench_build/oibench) on first use; later
runs only re-check the build. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. Exits non-zero, printing no result,
when the library sources or the toolchain are missing.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build() -> str:
    build_root = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    build_dir = os.path.join(os.path.abspath(build_root), "oibench")
    if not os.path.isfile(os.path.join(ROOT, "src", "server", "block_server.cpp")):
        sys.exit("oibench: library sources (src/) not found next to oibench/")
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.isfile(cache):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "oibench")


def main() -> int:
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"oibench: build failed: {e}", file=sys.stderr)
        return 2
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
