#!/usr/bin/env python3
"""Self-test of the benchmark: runs every workload of BENCHMARK.json at
reduced scale, untraced and traced, and checks that each metric the file
names is emitted by name, with its unit and its direction, as a finite
number, and that the traced run reports its residual and overhead.

Run from the repository root:  python3 perfbench/selftest.py
"""

import json
import math
import subprocess
import sys

USERS = "3000"
SEED = "7"


def run(command, workload, trace):
    args = ["--workload", workload, "--seed", SEED, "--seconds", "0",
            "--trace", str(trace), "--users", USERS]
    out = subprocess.run(command + args, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        sys.exit(f"{workload} trace {trace}: exit {out.returncode}\n{out.stderr}")
    line = out.stdout.strip().splitlines()[-1]
    result = json.loads(line)
    with open(f"perfbench/out/{workload}-seed{SEED}-trace{trace}.json") as f:
        detail = json.load(f)
    return result, detail


def check(workload, trace, declared, result, detail):
    where = f"{workload} trace {trace}"
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True, f"{where}: incorrect: {detail['problems']}"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, where
    assert isinstance(result["failed"], int) and result["failed"] == 0, where
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in declared}, \
        f"{where}: emitted {sorted(set(metrics) ^ {m['name'] for m in declared})} differently"
    for m in declared:
        got = metrics[m["name"]]
        assert set(got) == {"value", "unit"}, f"{where}: {m['name']}"
        assert got["unit"] == m["unit"], f"{where}: {m['name']} unit {got['unit']}"
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), \
            f"{where}: {m['name']} = {got['value']}"
        assert detail["metrics"][m["name"]]["better"] == m["better"], \
            f"{where}: {m['name']} direction"
    for key in ("id", "nproc", "cpu_model", "target_cpu", "simd", "rustc", "git_commit"):
        assert key in detail["fingerprint"], f"{where}: fingerprint lacks {key}"


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    command = bench["command"]
    for w in bench["workloads"]:
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            result, detail = run(command, w["name"], trace)
            check(w["name"], trace, declared, result, detail)
            if trace == 1:
                for name in ("trace.residual_s", "trace.overhead_frac"):
                    assert name in result["metrics"], f"{w['name']}: no {name}"
            print(f"ok  {w['name']} trace {trace}: {len(declared)} metrics")
    print("selftest passed")


if __name__ == "__main__":
    main()
