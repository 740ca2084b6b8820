#!/usr/bin/env python3
"""Builds the divscrape benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <analyze_alerts|live_tail4|catchup_warm4> \
        --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The library and the benchmark are built
(Release) into $CARGO_TARGET_DIR, default .bench_build; build output goes to
stderr. The benchmark's stdout passes through: human-readable lines, then
one JSON result line. Per-run scratch files live under .bench_work and are
removed after the run; traced runs leave their span files in .bench_out.
"""
import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        print("perfbench: the divscrape sources are not next to perfbench/",
              file=sys.stderr)
        return 2
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    steps = []
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", here, "-B", build, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build, "-j", "4", "--target", "perfbench"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, cwd=root).returncode != 0:
            print("perfbench: build failed: " + " ".join(step), file=sys.stderr)
            return 2
    run = subprocess.run(
        [os.path.join(build, "perfbench"), *sys.argv[1:],
         "--workdir", os.path.join(root, ".bench_work"),
         "--outdir", os.path.join(root, ".bench_out")],
        cwd=root)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
