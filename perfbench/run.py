#!/usr/bin/env python3
"""Build the qoslb benchmark from source and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of flood-dense, tail-active, admission-restricted, legacy-loops.
The benchmark is built with CMake into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); build output goes to standard error. The last line
of standard output is the benchmark's JSON result. Any further flags
(--scale tiny, --corrupt, ...) are passed to the benchmark binary as given.
The exit status is non-zero when the build fails or any run fails its
output check.
"""

import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    """Configure once, then build incrementally. Returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "engine.hpp")):
        sys.stderr.write("perfbench: no qoslb sources under %s/src\n" % ROOT)
        return None
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, cwd=ROOT).returncode:
            shutil.rmtree(out_dir, ignore_errors=True)
            return None
    if subprocess.run(["cmake", "--build", out_dir, "-j", jobs],
                      stdout=sys.stderr, cwd=ROOT).returncode:
        return None
    return os.path.join(out_dir, "qoslb_perfbench")


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest():
    """SHA-256 over the library and benchmark sources, for checkouts
    that are not git repositories."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def flag_value(args, flag):
    if flag in args:
        i = args.index(flag)
        if i + 1 < len(args):
            return args[i + 1]
    return None


def main(argv):
    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        sys.stderr.write("perfbench: build failed\n")
        return 1
    cmd = [binary] + argv + ["--git-sha", git_sha(),
                             "--source-digest", source_digest()]
    if flag_value(argv, "--trace") not in (None, "0"):
        name = "trace-%s-seed%s.jsonl" % (flag_value(argv, "--workload"),
                                          flag_value(argv, "--seed"))
        cmd += ["--trace-out", os.path.join(out_dir, name)]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
