#!/usr/bin/env python3
"""Serving benchmark of xnfv: one command per workload run.

    python3 perfbench/run.py --workload hot_repeat --seed 1 --seconds 20 --trace 0

Run it from the repository root.  It builds the shipped server (xnfv_cli)
and the harness from source into .bench_build/ (Release, through the
repository's own CMake build), then runs the harness, which starts
`xnfv_cli serve --listen 0 --shards 1 --threads 2` as a child process,
drives the workload and checks every answer.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer metrics of a
separate traced run with --trace 1.  Build output goes to standard error.
The exit status is 0 only when every correctness and shape check passed.
"""
import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("hot_repeat", "fleet_churn")
# A run must end within 180 s; past this, the harness and its server are killed.
HARNESS_TIMEOUT_S = 170


def build():
    """Configures once, then builds the harness and the server it starts."""
    if not (BUILD / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", str(ROOT), "-B", str(BUILD), *generator,
             "-DCMAKE_BUILD_TYPE=Release",
             "-DCMAKE_PROJECT_xnfv_INCLUDE=" + str(ROOT / "perfbench" / "CMakeLists.txt")],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(BUILD), "--target", "perfbench", "--parallel",
         str(os.cpu_count() or 1)],
        check=True, stdout=sys.stderr)


def revision():
    """The git commit when there is one, and a hash of the sources built."""
    try:
        commit = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "none"
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "perfbench"):
        paths = [ROOT / top] if (ROOT / top).is_file() else sorted((ROOT / top).rglob("*"))
        for path in paths:
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return commit, digest.hexdigest()[:12]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    commit, tree = revision()
    print(f"# perfbench build=Release git={commit} sources={tree} nproc={os.cpu_count()}",
          flush=True)
    workdir = BUILD / "work" / f"{args.workload}-{args.trace}"
    workdir.mkdir(parents=True, exist_ok=True)
    harness = subprocess.Popen(
        [str(BUILD / "perfbench"), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--cli", str(BUILD / "tools" / "xnfv_cli"), "--workdir", str(workdir)],
        start_new_session=True)
    try:
        return harness.wait(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(harness.pid, signal.SIGKILL)  # the harness and the server it started
        harness.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
