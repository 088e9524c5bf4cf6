#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `perfbench` package (release) into
$CARGO_TARGET_DIR (default `.bench_build`), then runs one workload. The last
line of stdout is the result object; the line before it is the host header.
The full record (every metric's median and quartiles) and, for traced runs,
a Perfetto-loadable trace are written under `<target dir>/perfbench/`.
"""

import argparse
import hashlib
import os
import subprocess
import sys

WORKLOADS = ("microblog_trap", "dialing_nizk_tcp", "ingress_open")
# The seed tuning is done on, and a held-out seed to re-check claims on.
DEFAULT_SEED = 1
HELD_OUT_SEED = 9001


def source_rev(root):
    """The git revision, or a digest of the sources when not in a git checkout."""
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
        if rev.returncode == 0 and rev.stdout.strip():
            dirty = subprocess.run(
                ["git", "status", "--porcelain"], cwd=root, capture_output=True, text=True, timeout=10
            )
            return rev.stdout.strip() + ("+dirty" if dirty.stdout.strip() else "")
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"):
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else []
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames.sort()
            files.extend(os.path.join(dirpath, f) for f in sorted(filenames))
        for name in files:
            if name.endswith((".rs", ".toml", ".lock", ".py")):
                digest.update(os.path.relpath(name, root).encode())
                with open(name, "rb") as handle:
                    digest.update(handle.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    manifest = os.path.join(root, "perfbench", "Cargo.toml")
    if not os.path.isfile(os.path.join(root, "Cargo.toml")) or not os.path.isdir(
        os.path.join(root, "crates")
    ):
        print("perfbench: run from the repository root (system sources not found)", file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True)
    env["PERFBENCH_RUSTC"] = rustc.stdout.strip() or "unknown"
    env["PERFBENCH_REV"] = source_rev(root)
    env["PERFBENCH_OUT"] = os.path.join(target, "perfbench")
    binary = os.path.join(target, "release", "perfbench")
    run = subprocess.run(
        [
            binary,
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ],
        env=env,
        timeout=170,
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
