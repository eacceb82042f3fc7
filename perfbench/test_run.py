#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark, at tiny input sizes.

    python3 perfbench/test_run.py

Run from the repository root. For every workload, with a non-default seed:
  - --trace 0 prints exactly the end_to_end metrics of BENCHMARK.json, with
    their units, all non-zero, and no failed operation;
  - --trace 1 prints exactly the per_layer metrics, with their units;
  - an altered reference output is counted as failed operations.
Also checks that an XQP_* knob makes the run refuse, and that
perfbench/effects.json covers every per-layer metric. Exits non-zero on the
first failed check.
"""

import fnmatch
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 20260917


def run(workload, trace, *extra, env=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(SEED), "--seconds", "1", "--trace",
           str(trace), "--tiny", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          env=env, timeout=900)
    return proc


def last_json(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def check(cond, msg):
    if not cond:
        print("FAIL: " + msg)
        sys.exit(1)
    print("ok: " + msg)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "effects.json")) as f:
        effects = json.load(f)["effects"]
    expect = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for name in expect[1]:
        check(any(fnmatch.fnmatchcase(name, pat) for pat in effects),
              "effects.json covers %s" % name)

    for w in bench["workloads"]:
        workload = w["name"]
        for trace in (0, 1):
            proc = run(workload, trace)
            if proc.returncode != 0:
                print(proc.stderr[-2000:])
            check(proc.returncode == 0,
                  "%s trace=%d exits 0" % (workload, trace))
            result = last_json(proc)
            check(sorted(result) == ["attempted", "correct", "failed",
                                     "metrics"],
                  "%s trace=%d result keys" % (workload, trace))
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1,
                  "%s trace=%d outputs match the reference" % (workload, trace))
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == expect[trace],
                  "%s trace=%d prints exactly the BENCHMARK.json metrics "
                  "with their units" % (workload, trace))
            if trace == 0:
                check(all(v["value"] > 0
                          for v in result["metrics"].values()),
                      "%s end-to-end metrics are non-zero" % workload)

        proc = run(workload, 0, "--corrupt-reference")
        result = last_json(proc)
        check(proc.returncode == 0 and result is not None
              and result["failed"] > 0 and not result["correct"],
              "%s counts a mismatch with an altered reference as failed"
              % workload)

    env = dict(os.environ, XQP_BACKEND="vm")
    proc = run("messages", 0, env=env)
    check(proc.returncode != 0 and "XQP_BACKEND" in proc.stderr
          and not proc.stdout.strip().endswith("}"),
          "an XQP_* knob makes the run refuse, naming the knob")
    print("all checks passed")


if __name__ == "__main__":
    main()
