#!/usr/bin/env python3
"""Smoke test of the benchmark: each workload at tiny sizes, untraced and
traced, checked against the schema in BENCHMARK.json.

Run from the root of a netcalc checkout:

    python3 perfbench/smoke.py

It checks that each run exits 0 and that its last line is the result
object with exactly the keys the benchmark promises.  It also checks
that all output checks pass (``correct``, ``failed == 0``), that the
metric names and units are exactly the ones BENCHMARK.json lists, and
that a traced run's spans cover at least 90% of its wall time.
"""

import json
import math
import subprocess
import sys

# The workload-specific end-to-end figures each untraced run prints by
# name, besides the gated metrics.
NAMED = {
    "paper-grid": ["grid_s"],
    "corpus": ["stream_servers_per_s", "integrated_servers_per_s"],
    "serve-churn": ["write_p50_ms", "write_p99_ms", "read_p50_ms",
                    "read_p99_ms", "serve_capacity_ops_s"],
}


def run(workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "1", "--seconds", "2", "--trace", str(trace), "--tiny"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise AssertionError("%s exited %d:\n%s" % (" ".join(cmd), out.returncode,
                                                   out.stderr[-4000:]))
    lines = out.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def check(workload, trace, spec, lines, result):
    where = "%s --trace %d" % (workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True, where
    assert result["failed"] == 0, where
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, where
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    got = result["metrics"]
    assert list(got) == [m["name"] for m in expected], where + ": metric names"
    for m in expected:
        v = got[m["name"]]
        assert set(v) == {"value", "unit"}, where
        assert v["unit"] == m["unit"], "%s: unit of %s" % (where, m["name"])
        assert isinstance(v["value"], (int, float)) and math.isfinite(v["value"]), \
            "%s: value of %s" % (where, m["name"])
        if not trace:
            assert v["value"] > 0, "%s: %s is 0" % (where, m["name"])
    if trace:
        assert got["trace.coverage_frac"]["value"] >= 0.9, where + ": coverage"
    else:
        text = "\n".join(lines)
        for name in ["failed_frac", "setup_s", "peak_rss_mb"] + NAMED[workload]:
            assert ("\n%s = " % name) in text, "%s: %s not printed" % (where, name)


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        for trace in (0, 1):
            lines, result = run(w["name"], trace)
            check(w["name"], trace, spec, lines, result)
            print("ok  %s --trace %d  (%d checks)" % (w["name"], trace,
                                                     result["attempted"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
