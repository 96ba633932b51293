#!/usr/bin/env python3
"""The benchmark's own test: every workload in smoke mode (tiny inputs).

Run from the repository root:

    python3 perfbench/smoke_test.py

For each workload in BENCHMARK.json and each trace mode, runs
perfbench/run.py --smoke and asserts that the result is correct, that no
operation failed (failed_share == 0), and that every metric BENCHMARK.json
names for that mode is printed with its unit. Exits non-zero on the first
failure.
"""

import json
import math
import subprocess
import sys


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            cmd = spec["command"] + ["--workload", workload, "--seed", "1",
                                     "--seconds", "2", "--trace", str(trace),
                                     "--smoke"]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=600)
            label = "%s trace=%d" % (workload, trace)
            if proc.returncode != 0:
                sys.exit("FAIL %s: exit %d\n%s" % (label, proc.returncode,
                                                   proc.stderr[-3000:]))
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert sorted(result) == ["attempted", "correct", "failed",
                                      "metrics"], label
            assert result["correct"] is True, (label, proc.stderr[-3000:])
            assert result["attempted"] >= 1, label
            assert result["failed"] == 0, (label, "failed_share > 0")
            wanted = spec["per_layer"] if trace else spec["end_to_end"]
            assert sorted(result["metrics"]) == sorted(
                m["name"] for m in wanted), label
            for m in wanted:
                got = result["metrics"][m["name"]]
                assert got["unit"] == m["unit"], (label, m["name"])
                assert isinstance(got["value"], (int, float)), (label, m)
                assert math.isfinite(got["value"]), (label, m["name"])
            print("ok   %s (%d metrics, %d attempted)"
                  % (label, len(wanted), result["attempted"]))
    print("smoke test passed")


if __name__ == "__main__":
    main()
