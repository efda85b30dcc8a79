#!/usr/bin/env python3
"""Self-test of the benchmark at toy size.

    python3 perfbench/selftest.py

Run from the repository root. For every workload it checks that

1. every metric `BENCHMARK.json` names is printed, with its unit, in the
   untraced (end-to-end) and the traced (per-layer) result;
2. a deliberately wrong pin is counted as a failure;
3. the seed changes the generated inputs but not the metric names.

Exits 0 when all checks hold, 1 otherwise.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")

# The key each workload pins for the default seed (see pins.json).
PIN_KEYS = {
    "analyze-deep": "makespan",
    "optimize": "best_makespan",
    "serve-mixed": "makespan",
}


def run(workload, seed, trace, pins=None):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
            "--scale", "toy"]
    if pins:
        argv += ["--pins", pins]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise AssertionError(f"{workload}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1]), proc.stderr


def expect(ok, message, failures):
    if not ok:
        failures.append(message)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    os.makedirs(WORK, exist_ok=True)
    for workload in (w["name"] for w in spec["workloads"]):
        # 1. Every named metric is printed with its unit.
        results = {}
        for trace, catalogue in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result, _ = run(workload, 7, trace)
            results[trace] = result
            printed = result["metrics"]
            for metric in catalogue:
                got = printed.get(metric["name"])
                expect(got is not None and got.get("unit") == metric["unit"],
                       f"{workload}: {metric['name']} missing or not in {metric['unit']}: {got}",
                       failures)
            expect(set(printed) == {m["name"] for m in catalogue},
                   f"{workload} trace {trace}: printed metrics differ from BENCHMARK.json",
                   failures)
            expect(result["attempted"] >= 1, f"{workload}: nothing attempted", failures)

        # 2. A wrong pin is a failure.
        key = PIN_KEYS[workload]
        wrong = [{"workload": workload, "scale": "toy", "seed": 7, "key": key, "value": 1}]
        pins = os.path.join(WORK, f"selftest-wrong-pin-{workload}.json")
        with open(pins, "w") as f:
            json.dump(wrong, f)
        result, stderr = run(workload, 7, 0, pins)
        os.remove(pins)
        expect(not result["correct"] and result["failed"] >= 1 and f"pin {key}" in stderr,
               f"{workload}: a wrong pin was not counted as a failure: {result}", failures)

        # 3. Another seed, other inputs, the same metric names.
        other, _ = run(workload, 8, 1)
        inputs = lambda r: (r["metrics"]["workload.bytes"]["value"],
                            r["metrics"]["workload.edges"]["value"])
        expect(inputs(other) != inputs(results[1]),
               f"{workload}: seeds 7 and 8 generated the same inputs", failures)
        expect(set(other["metrics"]) == set(results[1]["metrics"]),
               f"{workload}: the seed changed the metric names", failures)
        print(f"{workload}: checked", flush=True)

    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest:", "FAILED" if failures else "OK")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
