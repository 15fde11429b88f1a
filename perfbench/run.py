#!/usr/bin/env python3
"""Builds the benchmark and runs one workload, or all of them.

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run from anywhere; the benchmark works from the repository root. With
one workload the last line of standard output is the result as JSON.
With `all`, each workload runs untraced in its own process and a table
of every end-to-end metric, with its unit, is printed per workload.
See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["suite", "cast-large", "agg-large", "cast-physical"]
DEFAULT_SEED = 1


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Builds the release binary; returns its path, or None on failure."""
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    binary = target / "release" / "crn-perfbench"
    return binary if done.returncode == 0 and binary.is_file() else None


def revision():
    """The git revision, or a digest of the sources when not in git."""
    try:
        rev = subprocess.run(["git", "rev-parse", "--show-toplevel", "--short=12", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True, timeout=10)
        lines = rev.stdout.split()
        if rev.returncode == 0 and len(lines) == 2 and pathlib.Path(lines[0]) == ROOT:
            dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                   cwd=ROOT, capture_output=True, text=True, timeout=10)
            return lines[1] + ("-dirty" if dirty.stdout.strip() else "")
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"]:
        base = ROOT / top
        files = [base] if base.is_file() else sorted(base.rglob("*")) if base.is_dir() else []
        for f in files:
            if f.is_file() and "target" not in f.relative_to(ROOT).parts:
                digest.update(str(f.relative_to(ROOT)).encode())
                digest.update(f.read_bytes())
    return "src-" + digest.hexdigest()[:12]


def rustc_version():
    try:
        out = subprocess.run(["rustc", "-V"], capture_output=True, text=True, timeout=30)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def run_one(binary, workload, args, provenance, capture):
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--rev", provenance[0], "--rustc", provenance[1],
           "--pins", str(HERE / "pins.txt")]
    return subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE if capture else None,
                          text=True)


def run_all(binary, args, provenance):
    failed = False
    for workload in WORKLOADS:
        log(f"running {workload} for {args.seconds} s")
        done = run_one(binary, workload, args, provenance, capture=True)
        lines = done.stdout.strip().splitlines()
        if not lines:
            print(f"{workload}: no result (exit code {done.returncode})")
            failed = True
            continue
        result = json.loads(lines[-1])
        ratio = result["failed"] / result["attempted"]
        failed |= done.returncode != 0 or not result["correct"]
        print(f"== {workload} (seed {args.seed}, {result['attempted']} attempted)")
        for name, m in result["metrics"].items():
            print(f"  {name:<20} {m['value']:>14.6g} {m['unit']}")
        print(f"  {'fail_ratio':<20} {ratio:>14.6g}")
    return 1 if failed else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    binary = build()
    if binary is None:
        log("perfbench: build failed")
        return 2
    provenance = (revision(), rustc_version())
    if args.workload == "all":
        return run_all(binary, args, provenance)
    return run_one(binary, args.workload, args, provenance, capture=False).returncode


if __name__ == "__main__":
    sys.exit(main())
