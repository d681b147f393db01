#!/usr/bin/env python3
"""Builds and runs the repository benchmark (hytbench) on one workload.

    python3 hytbench/run.py --workload analytics --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The benchmark is compiled from the
checkout's own sources into $CARGO_TARGET_DIR/hytbench (default
.bench_build/hytbench). The last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}; everything before it is the
run's metadata and a readable metric table. Exits nonzero when the build
fails, the outputs are wrong, or the result does not carry exactly the
metrics BENCHMARK.json lists for the mode.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    return target


def build(out_dir):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log(f"no library sources next to {BENCH_DIR.name}/; nothing to build")
        return None
    if not (out_dir / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(out_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(len(os.sched_getaffinity(0)))
    if subprocess.run(["cmake", "--build", str(out_dir), "--target", "hytbench",
                       "-j", jobs], stdout=sys.stderr).returncode != 0:
        return None
    binary = out_dir / "hytbench"
    return binary if binary.is_file() else None


def revision():
    """Git revision when the checkout is a repository, plus a digest of the
    sources, so runs compare across commits either way."""
    rev = "nogit"
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if git.returncode == 0:
            rev = git.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "CMakeLists.txt", BENCH_DIR.name):
        path = ROOT / top
        files = sorted(path.rglob("*")) if path.is_dir() else [path]
        for f in files:
            if f.is_file():
                digest.update(str(f.relative_to(ROOT)).encode())
                digest.update(f.read_bytes())
    return f"{rev}+src:{digest.hexdigest()[:16]}"


def expected_metrics(trace):
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        return None
    listed = json.loads(spec.read_text())["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in listed}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out_dir = build_dir() / "hytbench"
    binary = build(out_dir)
    if binary is None:
        log("build failed")
        return 2

    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--revision", revision()]
    if args.trace:
        spans = out_dir / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        command += ["--span-file",
                    str(spans / f"{args.workload}-seed{args.seed}.jsonl")]
    # The out-of-core engine spills to $TMPDIR; keep that in the checkout.
    tmp = out_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    started = time.monotonic()
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
        return 3
    lines = run.stdout.rstrip("\n").split("\n")
    log(f"benchmark ran {time.monotonic() - started:.1f} s, exit {run.returncode}")
    if run.returncode not in (0, 1) or not lines[-1].startswith("{"):
        sys.stdout.write(run.stdout)
        log("benchmark failed without a result")
        return 3

    result = json.loads(lines[-1])
    wanted = expected_metrics(args.trace)
    if wanted is not None:
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != wanted:
            sys.stdout.write("\n".join(lines[:-1]) + "\n")
            log(f"metrics differ from BENCHMARK.json: "
                f"missing {sorted(set(wanted) - set(got))}, "
                f"extra {sorted(set(got) - set(wanted))}")
            return 3
    sys.stdout.write("\n".join(lines) + "\n")
    if not result["correct"]:
        log("correctness check failed")
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
