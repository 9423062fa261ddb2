#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1 [--smoke]

Run from the repository root. Builds `mla-serve` from the workspace and
the `perfbench` package (release, offline) into `$CARGO_TARGET_DIR`
(default `.bench_build`), then runs the benchmark binary. Its last stdout
line is the JSON result; the line before it carries the host and build
tags and the correctness checks that ran. Build output goes to stderr.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("stream-cliques", "stream-lines-checked", "serve-single", "serve-batched")


def cargo_build(target, *args):
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", *args],
        cwd=ROOT,
        env={**os.environ, "CARGO_TARGET_DIR": target},
        stdout=sys.stderr,
        check=True,
    )


def source_digest():
    """The commit when the checkout is a git repository, otherwise a
    digest of the sources the benchmark builds."""
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else [
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
        ]
        for name in sorted(files):
            if name.endswith((".rs", ".toml", ".lock", ".py")):
                digest.update(os.path.relpath(name, ROOT).encode())
                with open(name, "rb") as handle:
                    digest.update(handle.read())
    return "src-" + digest.hexdigest()[:16]


def tags():
    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True).stdout.strip()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "profile": "release",
        "rustc": rustc,
        "commit": source_digest(),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the tests")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        sys.exit("perfbench: no workspace to build (Cargo.toml is missing)")
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        cargo_build(target, "-p", "mla-serve", "--bin", "mla-serve")
        cargo_build(target, "--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml"))
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit(f"perfbench: build failed: {err}")

    command = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--serve-bin", os.path.join(target, "release", "mla-serve"),
        "--work-dir", os.path.join(target, "perfbench-work"),
        "--tags", json.dumps(tags()),
    ]
    if args.smoke:
        command.append("--smoke")
    sys.exit(subprocess.run(command, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
