#!/usr/bin/env python3
"""Smoke test for the benchmark itself.

    python3 perfbench/smoke_test.py [workload ...]

Run from the repository root; takes a few minutes. For each workload
(default: all in BENCHMARK.json) it runs the benchmark briefly on a small
seed, untraced and traced, and checks that the result line is well formed,
that every metric BENCHMARK.json names prints with its unit, that the run
is correct with zero failures, and that the traced run wrote its Chrome
trace and layer table. It then runs one workload with a corrupted expected
fingerprint and checks that the oracle reports the failure.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = "3"
SECONDS = "1"


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", SEED, "--seconds", SECONDS,
           "--trace", str(trace)] + list(extra)
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=600)
    if done.returncode != 0:
        raise AssertionError("%s exited %d" % (" ".join(cmd), done.returncode))
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    return result, done.stdout


def check_metrics(result, expected, label):
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in expected}, (
        label, sorted(set(metrics) ^ {m["name"] for m in expected}))
    for m in expected:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], (label, m["name"], got)
        assert isinstance(got["value"], (int, float)), (label, m["name"], got)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = sys.argv[1:] or [w["name"] for w in bench["workloads"]]
    for workload in workloads:
        result, _ = run(workload, 0)
        assert result["correct"] and result["failed"] == 0, (workload, result)
        check_metrics(result, bench["end_to_end"], workload)
        for m in bench["end_to_end"]:
            assert result["metrics"][m["name"]]["value"] > 0, (workload, m)

        result, stdout = run(workload, 1)
        assert result["correct"] and result["failed"] == 0, (workload, result)
        check_metrics(result, bench["per_layer"], workload + " traced")
        stem = os.path.join(ROOT, ".bench_out", "%s-seed%s" % (workload, SEED))
        with open(stem + ".trace.json") as f:
            events = json.load(f)["traceEvents"]
        layers = {e["cat"] for e in events}
        assert {"setup", "engine", "parser", "optimizer", "exec"} <= layers, (
            workload, layers)
        assert "self_ms" in stdout and os.path.isfile(stem + ".layers.txt")
        print("ok %s: %d queries, %d per-layer metrics" % (
            workload, result["attempted"], len(result["metrics"])))

    result, _ = run(workloads[0], 0, "--corrupt-expected")
    assert not result["correct"] and result["failed"] > 0, result
    print("ok oracle: a corrupted expected fingerprint fails %d of %d" % (
        result["failed"], result["attempted"]))


if __name__ == "__main__":
    main()
