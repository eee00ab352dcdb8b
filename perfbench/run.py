#!/usr/bin/env python3
"""Build and run the end-to-end benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload query-u8 --seed 1 --seconds 10 --trace 0

Workloads: query-u8, build-f32, serve-open (see perfbench/README.md).
The benchmark binary is built from the checkout's own sources with CMake
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then run
with the same arguments. Its output goes to stdout unchanged; the last line
is the JSON result. Build output goes to stderr. The exit code is the
benchmark's: 0 when every correctness check passed.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    """SHA-256 over the library and benchmark sources: identifies the code
    measured even where the checkout carries no git metadata."""
    h = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            if "__pycache__" in path.parts:
                continue
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return "none"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def run(cmd, timeout, **kwargs):
    """Run cmd to completion; a timeout kills it and waits for it."""
    proc = subprocess.Popen(cmd, **kwargs)
    try:
        return proc.wait(timeout=timeout)
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def build(build_dir):
    """Configure once, then build; the build step re-configures by itself
    when a source file appears or disappears."""
    build_dir.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, os.cpu_count() or 1))
    steps = [["cmake", "--build", str(build_dir), "-j", jobs]]
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.insert(0, ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    for step in steps:
        code = run(step, BUILD_TIMEOUT_S, stdout=sys.stderr, stderr=sys.stderr)
        if code != 0:
            fail(f"build step failed ({code}): {' '.join(step)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["query-u8", "build-f32", "serve-open"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "api" / "ann.h").is_file():
        fail(f"no library sources under {ROOT / 'src'}; run from a full checkout")

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "perfbench"
    build(build_dir)
    trace_dir = build_dir / "traces"
    trace_dir.mkdir(exist_ok=True)

    print(f"# git_commit: {git_commit()}")
    print(f"# source_sha256: {source_digest()}")
    sys.stdout.flush()
    cmd = [str(build_dir / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--trace-dir", str(trace_dir)]
    try:
        code = run(cmd, RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
