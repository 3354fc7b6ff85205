#!/usr/bin/env python3
"""Smoke test for the host-time scenario benchmark, at tiny sizes.

Run from the repository root:

    python3 hostbench/smoke_test.py

For every workload, untraced and traced, it checks that run.py exits 0 and
that its last line is a result carrying every metric BENCHMARK.json names,
each with its unit, with correct true and no failed operations. It then
forces failures with an impossibly small cycle budget and checks that they
are counted as failed operations rather than crashing the run, and checks
that the benchmark refuses to run from a tree holding only BENCHMARK.json
and hostbench/. Takes about a minute once the benchmark is built.
"""
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN = [sys.executable, os.path.join(BENCH_DIR, "run.py")]

failures = []


def check(condition, message):
    if not condition:
        failures.append(message)
        print("FAIL: " + message)


def run(workload, trace, extra=(), cwd=ROOT, run_py=RUN):
    cmd = run_py + ["--workload", workload, "--seed", "7", "--seconds", "1",
                    "--trace", str(trace), "--tiny"] + list(extra)
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)
    return proc


def result_of(proc, label):
    lines = proc.stdout.strip().splitlines()
    check(proc.returncode == 0, "%s: exit code %d\n%s" %
          (label, proc.returncode, proc.stderr[-2000:]))
    if proc.returncode != 0 or not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        check(False, "%s: last line is not JSON: %s" % (label, lines[-1]))
        return None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]

    for workload in workloads:
        for trace in (0, 1):
            label = "%s trace=%d" % (workload, trace)
            result = result_of(run(workload, trace), label)
            if result is None:
                continue
            check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                  "%s: result keys %s" % (label, sorted(result)))
            check(result["correct"] is True, label + ": correct is not true")
            check(result["attempted"] >= 1, label + ": nothing attempted")
            check(result["failed"] == 0, label + ": failed operations")
            for metric in spec["per_layer" if trace else "end_to_end"]:
                got = result["metrics"].get(metric["name"])
                check(got is not None, "%s: %s missing" % (label, metric["name"]))
                if got is None:
                    continue
                check(got.get("unit") == metric["unit"],
                      "%s: %s has unit %r, expected %r" %
                      (label, metric["name"], got.get("unit"), metric["unit"]))
                check(isinstance(got.get("value"), (int, float)),
                      "%s: %s value is not a number" % (label, metric["name"]))
            print("ok: " + label)

    # A cycle budget no app can finish in: every app process fails, and the
    # run still reports instead of crashing.
    label = "enforce12 forced failure"
    result = result_of(run("enforce12", 0, ["--budget-cycles", "1000"]), label)
    if result is not None:
        check(result["attempted"] >= 12, label + ": too few attempted")
        check(result["failed"] == result["attempted"],
              "%s: %d of %d failed, expected all" %
              (label, result["failed"], result["attempted"]))
        print("ok: %s (%d of %d failed)" %
              (label, result["failed"], result["attempted"]))

    # Without the simulator sources next to it the benchmark must fail
    # without printing a result.
    bare = os.path.join(ROOT, ".bench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(BENCH_DIR, os.path.join(bare, "hostbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("enforce12", 0, cwd=bare,
               run_py=[sys.executable, os.path.join(bare, "hostbench", "run.py")])
    check(proc.returncode != 0, "bare tree: exit code 0")
    check('"correct"' not in proc.stdout, "bare tree: printed a result")
    shutil.rmtree(bare, ignore_errors=True)
    print("ok: bare tree refused")

    if failures:
        print("%d check(s) failed" % len(failures))
        return 1
    print("all smoke checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
