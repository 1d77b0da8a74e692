#!/usr/bin/env python3
"""Build the siqsim benchmark driver from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload sweep_oracle --seed 1 \\
        --seconds 20 --trace 0

The driver (perfbench/siqbench.cc) is configured with CMake into the
directory named by CARGO_TARGET_DIR (default `.bench_build`), rebuilt
incrementally on every call, and run with the same arguments. Build
output goes to stderr, so the last line of stdout is the driver's JSON
result. With --trace 1 the spans are written to
<build dir>/spans/<workload>-seed<seed>.jsonl.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("sweep_oracle", "sweep_spec", "serve_mixed")


def build(root: Path, out: Path) -> Path:
    src = root / "perfbench"
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(src), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", str(out), "--target", "siqbench", "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out / "siqbench"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path(__file__).resolve().parent.parent
    out = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    try:
        exe = build(root, out)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [str(exe), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        spans = out / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans",
                str(spans / f"{args.workload}-seed{args.seed}.jsonl")]
    return subprocess.run(cmd, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
