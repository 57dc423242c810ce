#!/usr/bin/env python3
"""Build bench_stack from source and run one workload (or all of them).

Run from the root of a source checkout:

    python3 bench/stack/run.py --workload seq_write --seed 1 --seconds 10 --trace 0
    python3 bench/stack/run.py --all --seed 1          # each workload in its own process
    python3 bench/stack/run.py --all --smoke           # 64 stripes, 1 s, every check on

The library and the bench are built (incrementally) into .bench_build/stack
from the root project, with this directory added through register.cmake;
build output goes to stderr. The bench's own stdout is passed through unchanged, so its last line
is the JSON result. The backing files of a run live in a temporary directory
under .bench_build that is removed when the run ends, whatever its outcome.
With --trace 1 the Chrome trace is written to .bench_build/stack/trace-<workload>.json.
"""
import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ["seq_write", "rand_rw_4k", "degraded_read_64k", "rebuild_2disk"]

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "stack"
# Compiler and bench temporaries stay inside the checkout too.
TMP = ROOT / ".bench_build" / "tmp"
ENV = dict(os.environ, TMPDIR=str(TMP))


def build() -> Path:
    if not (ROOT / "CMakeLists.txt").is_file():
        sys.exit(f"run.py: no root project (CMakeLists.txt) under {ROOT}")
    jobs = str(min(4, os.cpu_count() or 1))
    TMP.mkdir(parents=True, exist_ok=True)
    # The root project, with this directory added through register.cmake.
    # Configuring every time is cheap, and makes cmake refuse a build tree
    # that was generated from another source directory.
    steps = [["cmake", "-S", str(ROOT), "-B", str(BUILD),
              "-DLIBERATION_BUILD_TESTS=OFF", "-DLIBERATION_BUILD_EXAMPLES=OFF",
              "-DLIBERATION_BUILD_BENCH=OFF",
              f"-DCMAKE_PROJECT_liberation_codes_INCLUDE={HERE / 'register.cmake'}"],
             ["cmake", "--build", str(BUILD), "-j", jobs,
              "--target", "bench_stack"]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=ENV).returncode:
            sys.exit("run.py: build failed")
    return BUILD / "bench_stack"


def run_one(binary: Path, workload: str, args) -> int:
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--trace", str(args.trace)]
    if args.seconds is not None:
        cmd += ["--seconds", str(args.seconds)]
    if args.smoke:
        cmd.append("--smoke")
    if args.trace:
        cmd += ["--trace-out", str(BUILD / f"trace-{workload}.json")]
    run_dir = tempfile.mkdtemp(prefix="stack-run-", dir=ROOT / ".bench_build")
    try:
        sys.stdout.flush()
        return subprocess.run(cmd + ["--dir", run_dir], cwd=ROOT,
                              env=ENV).returncode
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    which = ap.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=WORKLOADS)
    which.add_argument("--all", action="store_true")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    binary = build()
    status = 0
    for workload in WORKLOADS if args.all else [args.workload]:
        status = max(status, run_one(binary, workload, args))
    return status


if __name__ == "__main__":
    sys.exit(main())
