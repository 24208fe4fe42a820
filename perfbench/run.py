#!/usr/bin/env python3
"""Build the served-moves benchmark from this checkout and run it.

Usage (from the repository root):

    python3 perfbench/run.py --workload <g15-selfplay|g15-adaptive|o6-book|all> \
        --seed <n> --seconds <s> --trace <0|1>

Configures and builds perfbench/ (which compiles the program from src/) with
CMake into $CARGO_TARGET_DIR, or .bench_build when that is unset, runs the
self-test of the benchmark's own arithmetic, then runs the benchmark. The
benchmark's standard output is passed through; its last line is one JSON
object. Exits non-zero without a result line when the build or the
self-test fails, and with the benchmark's own code otherwise. `--workload
all` runs the three workloads in turn and ends with one JSON object whose
metric names are prefixed with the workload's name.
"""
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
RUN_TIMEOUT_S = 170
WORKLOADS = ["g15-selfplay", "g15-adaptive", "o6-book"]


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def source_digest():
    """SHA-256 over the paths and bytes of src/, for checkouts without .git."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def commit_id():
    """HEAD of the checkout read from .git directly, else the src/ digest."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown-src-sha256-" + source_digest()


def step(cmd):
    """Runs a build step with its output on stderr; True on success."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    return proc.returncode == 0


def main():
    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(ROOT, build, "CMakeCache.txt")):
        if not step(["cmake", "-S", os.path.relpath(HERE, ROOT), "-B", build,
                     "-DCMAKE_BUILD_TYPE=Release"]):
            log("configure failed")
            return 2
    if not step(["cmake", "--build", build, "-j", jobs]):
        log("build failed")
        return 2
    if not step([os.path.join(build, "perfbench_selftest")]):
        log("self-test of the benchmark's arithmetic failed")
        return 2
    cmd = [os.path.join(build, "perfbench")] + sys.argv[1:] + [
        "--commit", commit_id()]
    at = cmd.index("--workload") + 1 if "--workload" in cmd else 0
    if at == 0 or at >= len(cmd) or cmd[at] != "all":
        return run(cmd, capture=False)[0]
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for wl in WORKLOADS:
        cmd[at] = wl
        rc, result = run(cmd, capture=True)
        code = code or rc
        if result is None:
            merged["correct"] = False
            continue
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{wl}.{name}"] = metric
    print(json.dumps(merged))
    return code


def run(cmd, capture):
    """Runs the benchmark; returns its exit code and, when `capture` is set,
    its result object (its output is echoed without that last line)."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None,
                              text=True)
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s")
        return 3, None
    if not capture:
        return proc.returncode, None
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
            lines.pop()
        except ValueError:
            pass
    print("\n".join(lines), flush=True)
    return proc.returncode, result


if __name__ == "__main__":
    sys.exit(main())
