#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the `elm-server` binary and the
`perfbench` binary from source (release, offline) into $CARGO_TARGET_DIR
(default `.bench_build`), then runs one workload. The binary's last stdout
line is the result JSON; build output and the provenance record go to
stderr. Run artifacts (spans, server logs, provenance) land in `.perfbench/`.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

WORKLOADS = ["wire-events", "graph-batch", "session-churn", "replicated-events"]
# The whole invocation must end within 180 s; leave room to stop cleanly.
RUN_BUDGET_S = 170


def source_rev(root):
    """The git revision when available, else a digest of the sources."""
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
        if rev.returncode == 0 and rev.stdout.strip():
            return rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for base in ["Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"]:
        path = os.path.join(root, base)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
        )
        for name in files:
            if name.endswith((".rs", ".toml", ".lock", ".py")):
                digest.update(os.path.relpath(name, root).encode())
                with open(name, "rb") as fh:
                    digest.update(fh.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def build(root, env):
    for args in (
        ["-p", "elm-server", "--bin", "elm-server"],
        ["--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ):
        done = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", *args],
            cwd=root,
            env=env,
            stdout=sys.stderr,
            stderr=sys.stderr,
        )
        if done.returncode != 0:
            sys.exit(f"perfbench: build failed: cargo build {' '.join(args)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=int, default=16)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "crates", "server", "Cargo.toml")):
        sys.exit("perfbench: run from the repository root (crates/server is missing)")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build(root, env)
    release = os.path.join(target, "release")
    out = os.path.join(root, ".perfbench")
    command = [
        os.path.join(release, "perfbench"),
        "run",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--server", os.path.join(release, "elm-server"),
        "--out", out,
        "--rev", source_rev(root),
    ]
    # The runner and the servers it spawns share a fresh process group, so
    # a run that overstays its budget is stopped whole.
    runner = subprocess.Popen(command, cwd=root, start_new_session=True)
    try:
        code = runner.wait(timeout=RUN_BUDGET_S)
    except subprocess.TimeoutExpired:
        os.killpg(runner.pid, signal.SIGKILL)
        runner.wait()
        sys.exit("perfbench: run exceeded its time budget")
    sys.exit(code)


if __name__ == "__main__":
    main()
