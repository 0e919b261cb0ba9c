#!/usr/bin/env python3
"""Self-tests of the e9perf benchmark, run from the repository root:

    python3 e9perf/selftest.py

For each workload of BENCHMARK.json and for chrome-a1 (kept runnable by
hand, not gated), in its tiny-size mode (`--tiny`, one second):
  * the untraced run prints every end-to-end metric of BENCHMARK.json
    with its unit, and the traced run every per-layer metric;
  * two runs with the same seed give the same input digest and the same
    succ_pct, size_pct and time_pct.
Exits 0 when every check passes.
"""

import json
import subprocess
import sys

DETERMINISTIC = ("succ_pct", "size_pct", "time_pct")


def run(workload, seed, trace):
    cmd = ["python3", "e9perf/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    p = subprocess.run(cmd, capture_output=True, text=True)
    if p.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {p.returncode}:\n{p.stderr}")
    lines = p.stdout.strip().splitlines()
    digest = next(l.split()[1] for l in lines if l.startswith("input_digest "))
    return digest, json.loads(lines[-1])


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    failures = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    for w in [w["name"] for w in bench["workloads"]] + ["chrome-a1"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            _, res = run(w, 7, trace)
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == want, f"{w} --trace {trace}: prints every {key} metric with its unit")
            check(res["attempted"] >= 1 and res["correct"], f"{w} --trace {trace}: outputs correct")
        d1, r1 = run(w, 11, 0)
        d2, r2 = run(w, 11, 0)
        check(d1 == d2, f"{w}: same seed, same input digest")
        for m in DETERMINISTIC:
            a, b = r1["metrics"][m]["value"], r2["metrics"][m]["value"]
            check(a == b, f"{w}: same seed, same {m} ({a} vs {b})")
        d3, _ = run(w, 12, 0)
        check(d3 != d1, f"{w}: another seed, other inputs")
    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
