#!/usr/bin/env python3
"""Build the benchmark from the checked-out sources, then run one workload.

    python3 perfbench/run.py --workload chat_70b --seed 1 --seconds 20 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under the root; the first run configures and
builds, later runs rebuild only what changed. Build output goes to
stderr. Stdout gets one `host:` metadata line, then the benchmark's own
report, whose last line is the JSON result. The exit code is the
benchmark's (non-zero when an output check fails), or 2 when the
sources or the build are missing.
"""

import argparse
import fcntl
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
BUILD_TYPE = "RelWithDebInfo"


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    """sha256 over the top-level build file and the simulator and
    benchmark sources (the checkout may not be a git repository, so
    this identifies the code measured)."""
    h = hashlib.sha256()
    h.update((ROOT / "CMakeLists.txt").read_bytes())
    for base in (ROOT / "src", BENCH):
        for p in sorted(base.rglob("*")):
            if p.is_file() and p.suffix in (".cc", ".h", ".txt", ".py"):
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    if not (ROOT / ".git").exists():
        return "none"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def compiler(build):
    cache = build / "CMakeCache.txt"
    for line in cache.read_text().splitlines():
        if line.startswith("CMAKE_CXX_COMPILER:"):
            cxx = line.split("=", 1)[1]
            out = subprocess.run([cxx, "--version"], capture_output=True,
                                 text=True)
            return out.stdout.splitlines()[0] if out.stdout else cxx
    return "unknown"


def build(build_dir):
    build_dir.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    # One build at a time per build directory.
    with open(build_dir / ".perfbench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (build_dir / "CMakeCache.txt").exists():
            subprocess.run(["cmake", "-S", str(BENCH), "-B", str(build_dir),
                            f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
                           stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", str(build_dir), "--target",
                        "perfbench", "-j", jobs],
                       stdout=sys.stderr, check=True)
    return build_dir / "perfbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    if not (ROOT / "src" / "core" / "scheduler.h").is_file():
        die(f"simulator sources not found under {ROOT / 'src'}")
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        die(f"build failed: {e}")

    host = {
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "compiler": compiler(build_dir),
        "build_type": BUILD_TYPE,
        "git_sha": git_sha(),
        "source_digest": source_digest(),
    }
    print("host: " + json.dumps(host), flush=True)

    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace)]
    with subprocess.Popen(cmd, cwd=ROOT) as proc:
        try:
            return proc.wait()
        except BaseException:
            proc.kill()
            proc.wait()
            raise


if __name__ == "__main__":
    sys.exit(main())
