#!/usr/bin/env python3
"""Builds the benchmark package and runs one workload.

    python3 perfbench/run.py --workload local-dayabay10 --seed 1 \\
        --seconds 10 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR, or
.bench_build, under the root. Diagnostics go to stderr and to an
"info:" line; the last stdout line is the result:
{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
Any oracle mismatch or failed build exits non-zero.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import ledger  # noqa: E402

WORKLOADS = ("local-dayabay10", "dist-plasma3", "serve-cosmo3")
RUN_TIMEOUT_S = 170


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configures (Release only) and builds; returns the binary path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "-j", jobs],
    ]
    for cmd in steps:
        r = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))
    with open(os.path.join(out, "CMakeCache.txt")) as f:
        if "CMAKE_BUILD_TYPE:STRING=Release" not in f.read():
            sys.exit("perfbench: refusing a non-Release build")
    return os.path.join(out, "perfbench")


def source_digest():
    """sha256 over the library sources: identifies the measured code
    where no git metadata is available."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        return None


def cpu_flags():
    wanted = ("sse4_2", "avx", "avx2", "fma", "avx512f")
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("flags"):
                    have = set(line.split(":", 1)[1].split())
                    return [x for x in wanted if x in have]
    except OSError:
        pass
    return []


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs: checks that everything runs")
    a = p.parse_args(argv)

    binary = build()
    spans = os.path.join(build_dir(), "spans-%s-%d.jsonl" % (a.workload,
                                                             a.seed))
    cmd = [binary, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--spans", spans]
    if a.smoke:
        cmd.append("--smoke")
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=sys.stderr, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    lines = r.stdout.strip().splitlines()
    if not lines:
        sys.exit("perfbench: the benchmark printed no result (exit %d)"
                 % r.returncode)
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    result = json.loads(lines[-1])
    info = result.pop("info")
    if a.trace == 1:
        for name, (value, unit) in ledger.ledger_metrics(
                ledger.load_spans(spans), info).items():
            result["metrics"][name] = {"value": value, "unit": unit}
    info.update(commit=commit(), src_sha256=source_digest(),
                cpu_flags=cpu_flags())
    print("info: " + json.dumps(info, sort_keys=True))
    if info.get("errors"):
        print("perfbench: " + "; ".join(info["errors"]), file=sys.stderr)
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    sys.stdout.flush()
    return 0 if r.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
