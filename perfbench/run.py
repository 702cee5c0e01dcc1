#!/usr/bin/env python3
"""Build and run one workload of the adaptation-round benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first call configures and
builds perfbench/ (which pulls in the repository's own CMake project) into
.bench_build/, or into $CARGO_TARGET_DIR when that is set; later calls only
rebuild what changed. The workload runs in a process of its own, so its peak
RSS is its own. The last line of standard output is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding every end_to_end metric of BENCHMARK.json (--trace 0) or every
per_layer metric (--trace 1); the names and units are checked against
BENCHMARK.json before the line is printed. The traced run also writes its
spans, one JSON object per line, to <build>/trace/<workload>-seed<N>.jsonl.
On any build, run or check failure the script exits non-zero and prints no
result. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("plan_transient2d", "svc_sfc_sessions", "fed_transient3d")


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return path if path.is_absolute() else ROOT / path


def build(out):
    """Configure once, then build the pnrbench target; logs go to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    # Keep the compiler's temporary files inside the checkout too.
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "--target", "pnrbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  env=env, timeout=840)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {cmd[:2]} failed: {e}")
        if done.returncode != 0:
            fail(f"build step {' '.join(cmd[:3])} exited {done.returncode}")
    binary = out / "pnrbench"
    if not binary.is_file():
        fail("build produced no pnrbench binary")
    return binary


def source_stamp():
    """The commit when run inside git, else a digest of the sources."""
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return rev.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", HERE.name):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject-unknown-every", type=int, default=0,
                    help="svc test hook: request a missing session every N "
                         "rounds (counts as failed ops)")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    out = build_dir()
    binary = build(out)
    cmd = [str(binary), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--commit={source_stamp()}"]
    if args.trace:
        (out / "trace").mkdir(exist_ok=True)
        cmd.append(f"--trace-out={out / 'trace'}/"
                   f"{args.workload}-seed{args.seed}.jsonl")
    if args.inject_unknown_every:
        cmd.append(f"--inject-unknown-every={args.inject_unknown_every}")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + 120)
    except subprocess.TimeoutExpired:
        fail("workload did not finish in time")
    if done.returncode != 0:
        fail(f"workload exited {done.returncode}")

    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("workload printed nothing")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("last line is not a JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys are {sorted(result)}")
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    want = expected_metrics(args.trace)
    if got != want:
        fail(f"metrics do not match BENCHMARK.json: got {got}, want {want}")
    if result["attempted"] < 1:
        fail("no op was attempted")
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
