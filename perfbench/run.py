#!/usr/bin/env python3
"""Runs one DIME benchmark workload and prints its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload pages --seed 1 --seconds 15 --trace 0

Builds perfbench/ (the dime library, dime_server and the runner) in Release
under $CARGO_TARGET_DIR (default .bench_build) on first use, runs the runner
for the named workload and seed, checks that every metric BENCHMARK.json
names was measured with its unit, and prints one JSON object as the last
line of stdout:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
--smoke shrinks every input (the benchmark's own test). The line before the
result is a provenance record (nproc, seed, source digest, host-noise
calibration before and after the run). Exits non-zero, printing no result,
when the build, the run or the metric check fails.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import subprocess
import sys

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(root, build_dir):
    src = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", src, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=BUILD_TIMEOUT_S).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("configure failed")
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr,
                      timeout=BUILD_TIMEOUT_S).returncode != 0:
        fail("build failed")


def source_digest(root):
    """Identity of the code under test: the checkout need not be a git
    repository, so hash the sources the benchmark builds."""
    h = hashlib.sha256()
    for top in ("src", "perfbench", "bench"):
        base = os.path.join(root, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def run_benchmark(cmd):
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("runner exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        # The runner reaps its dime_server; this catches a crashed runner.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        fail("runner exited with %d" % proc.returncode)
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        fail("runner printed no result")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("run from the repository root (no BENCHMARK.json here)")
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build"))
    build(root, build_dir)

    state_dir = os.path.join(build_dir, "state")
    code_id = source_digest(root)
    cmd = [os.path.join(build_dir, "perfbench_runner"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--state-dir", state_dir,
           "--work-dir", os.path.join(build_dir, "work"),
           "--server-bin", os.path.join(build_dir, "dime", "dime_server"),
           "--code-id", code_id]
    if args.smoke:
        cmd.append("--smoke")
    result = run_benchmark(cmd)

    measured = result["metrics"]
    metrics = {}
    for m in wanted:
        got = measured.get(m["name"])
        if got is None or not isinstance(got.get("value"), (int, float)) \
                or not math.isfinite(got["value"]):
            fail("metric %s was not measured" % m["name"])
        if got["unit"] != m["unit"]:
            fail("metric %s has unit %s, BENCHMARK.json says %s"
                 % (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}

    provenance = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "smoke": args.smoke,
        "nproc": result.get("nproc"), "source_digest": code_id,
        "calib_before_ms": measured.get("calib.before_ms", {}).get("value"),
        "calib_after_ms": measured.get("calib.after_ms", {}).get("value"),
    }
    record = {"correct": bool(result["correct"]),
              "attempted": int(result["attempted"]),
              "failed": int(result["failed"]), "metrics": metrics}
    with open(os.path.join(state_dir, "runs.jsonl"), "a") as f:
        f.write(json.dumps({"provenance": provenance, "result": record,
                            "all_metrics": measured}) + "\n")
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(record))


if __name__ == "__main__":
    main()
