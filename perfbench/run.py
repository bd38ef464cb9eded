#!/usr/bin/env python3
"""Serve-path benchmark entry point.

Builds the benchmark package (this directory's CMakeLists.txt, which compiles
the repository's libraries from ../src), runs its self-test, then runs one
workload (described in workloads.json):

    python3 perfbench/run.py --workload count_skewed --seed 1 --seconds 20 --trace 0

The last line of standard output is the benchmark's JSON result. Build
outputs go to $CARGO_TARGET_DIR (default .bench_build) under the repository
root; nothing is written outside it.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_root():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(build_dir):
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.exists(cache):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")


def source_id():
    """Digest of the library and benchmark sources: the checkout the
    benchmark runs in need not be a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-" + h.hexdigest()[:12]


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    with open(os.path.join(HERE, "workloads.json")) as f:
        known = json.load(f)["workloads"]
    if args.workload not in known:
        fail(f"unknown workload {args.workload!r}; known: "
             + ", ".join(known), code=2)
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")

    out_root = build_root()
    build_dir = os.path.join(out_root, "perfbench")
    build(build_dir)
    self_test = subprocess.run([os.path.join(build_dir, "perfbench_self_test")],
                               stdout=sys.stderr)
    if self_test.returncode != 0:
        fail("self-test failed")

    work_dir = os.path.join(out_root, "perfbench-work",
                            f"{args.workload}-{args.seed}-{os.getpid()}")
    cmd = [os.path.join(build_dir, "serve_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir,
           "--spans-dir", os.path.join(out_root, "perfbench-spans"),
           "--commit", source_id()]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = run.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        fail("benchmark printed no result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    print(lines[-1])
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
