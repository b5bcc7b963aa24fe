#!/usr/bin/env python3
"""Checks that tools/perf_diff.py compares rows only within one core count.

The two fixtures under tools/testdata/ hold the same rows, recorded on 4 and on 1 cpus,
with every throughput 50% lower on the 1-cpu side. Diffed as they are, that drop is a
host mismatch: no firm regression, exit 0, and a summary that does not read "0 firm
regression(s)". With the current side relabelled as a 4-cpu record, the same drop must
still be a firm regression (exit 1).

Run: python3 tools/perf_diff_test.py (ctest runs it as perf_diff_host_mismatch).
"""

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
BASE = os.path.join(HERE, "testdata", "perf_diff_4cpu.json")
ONE_CPU = os.path.join(HERE, "testdata", "perf_diff_1cpu.json")


def perf_diff(base, cur):
    run = subprocess.run([sys.executable, os.path.join(HERE, "perf_diff.py"), base, cur],
                         capture_output=True, text=True, check=False)
    return run.returncode, run.stdout + run.stderr


def expect(cond, what, output):
    if not cond:
        sys.exit(f"FAIL: {what}\n{output}")


code, out = perf_diff(BASE, ONE_CPU)
expect(code == 0, "a 1-cpu vs 4-cpu diff must exit 0", out)
expect("[HOST-MISMATCH]" in out and "HOST MISMATCH: 2 row(s)" in out,
       "both rows must be reported and counted as a host mismatch", out)
expect("[REGRESSION]" not in out and "0 firm regression" not in out,
       "a host mismatch must read neither as a regression nor as 0 regressions", out)

with open(ONE_CPU, encoding="utf-8") as f:
    same_host = json.load(f)
for table in same_host["tables"]:
    table["meta"]["cpus"] = 4
with tempfile.TemporaryDirectory() as tmp:
    relabelled = os.path.join(tmp, "BENCH_fixture.json")
    with open(relabelled, "w", encoding="utf-8") as f:
        json.dump(same_host, f)
    code, out = perf_diff(BASE, relabelled)
expect(code == 1, "the same 50% drop on one core count must exit 1", out)
expect("2 firm regression(s)" in out, "both rows must regress firmly", out)
print("perf_diff_test: OK")
