#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload spend-strong --seed 1 --seconds 20 --trace 0

The benchmark is a Go module of its own (perfbench/go.mod) that imports
the repository's packages through a replace directive, so it is built from
the checkout's source every time. Everything the build and the run write
goes under .bench_build/ in the checkout. The last line of standard output
is the result object; see perfbench/README.md for the workloads and metrics.
"""

import hashlib
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def source_digest(root):
    """SHA-256 over the Go sources and module files the binary is built from."""
    h = hashlib.sha256()
    paths = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in filenames:
            if name.endswith(".go") or name in ("go.mod", "go.sum", "go.work"):
                paths.append(os.path.join(dirpath, name))
    for path in sorted(paths):
        h.update(os.path.relpath(path, root).encode())
        h.update(b"\0")
        with open(path, "rb") as f:
            h.update(f.read())
        h.update(b"\0")
    return h.hexdigest()


def git_sha(root):
    """The checkout's commit, or "unavailable" outside a git work tree."""
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unavailable"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        r = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], env=env,
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return r.stdout.strip() if r.returncode == 0 else "unavailable"


def main():
    root = os.getcwd()
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    if not os.path.isfile(os.path.join(root, "go.mod")):
        print("perfbench: run from the repository root (no go.mod here)", file=sys.stderr)
        return 2
    build = os.path.join(root, ".bench_build")
    tmp = os.path.join(build, "tmp")
    out = os.path.join(build, "perfbench")
    for d in (tmp, out):
        os.makedirs(d, exist_ok=True)
    env = dict(
        os.environ,
        GOWORK="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        # The go command keeps telemetry counters under the user config dir.
        XDG_CONFIG_HOME=os.path.join(build, "config"),
    )
    binary = os.path.join(out, "perfbench")
    try:
        r = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench_dir, env=env,
                           timeout=BUILD_TIMEOUT_S, stdout=sys.stderr)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if r.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    env["PERFBENCH_GIT_SHA"] = git_sha(root)
    env["PERFBENCH_SRC_DIGEST"] = source_digest(root)
    try:
        r = subprocess.run([binary] + sys.argv[1:] + ["-out", out], env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return r.returncode


if __name__ == "__main__":
    sys.exit(main())
