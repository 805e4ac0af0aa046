#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload kv_net_closed --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first run configures and builds the
benchmark (perfbench/CMakeLists.txt, which compiles the libraries under
src/) into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench;
later runs rebuild only what changed. Build output goes to stderr, so the
last line on stdout is always the benchmark's JSON result. The exit status
is the benchmark's: 0 only when every correctness check passed.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("kv_net_closed", "fig2_sim")
RUN_TIMEOUT_S = 175


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(targets):
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(out), "-j", jobs, "--target", *targets],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out


def check_result_line(line, trace):
    """Checks the result against BENCHMARK.json's metric lists, if present."""
    result = json.loads(line)
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        return
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    for m in wanted:
        if m["name"] not in got or got[m["name"]]["unit"] != m["unit"]:
            raise SystemExit(f"perfbench: metric {m['name']} missing or "
                             "with the wrong unit")
    extra = set(got) - {m["name"] for m in wanted}
    if extra:
        raise SystemExit(f"perfbench: undeclared metrics {sorted(extra)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the benchmark's unit tests")
    args = ap.parse_args()

    try:
        if args.self_test:
            out = build(["perfbench_tests"])
            return subprocess.run([str(out / "perfbench_tests")]).returncode
        if args.workload is None:
            ap.error("--workload is required")
        out = build(["rcp_perfbench"])
    except (subprocess.CalledProcessError, FileNotFoundError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    spans = build_dir() / "spans"
    spans.mkdir(parents=True, exist_ok=True)
    cmd = [str(out / "rcp_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--spans-dir", str(spans)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    if not lines:
        print("perfbench: no result", file=sys.stderr)
        return proc.returncode or 1
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    check_result_line(lines[-1], args.trace == 1)
    print(lines[-1], flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
