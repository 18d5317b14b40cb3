#!/usr/bin/env python3
"""Build netcalc and its benchmark from source, then run one workload.

Run from the root of a netcalc checkout:

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 1``
reports the per-layer metrics instead of the end-to-end ones and writes
the recorded spans as a Chrome trace file under the build directory.
``--tiny`` shrinks every input (the smoke test uses it).

Each workload runs in a fresh process with ``netcalc.par`` set to the
number of CPUs this process may run on.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("paper-grid", "corpus", "serve-churn")
RUN_TIMEOUT_S = 170
SOURCES = ("dune-project", "lib", "bin/netcalc_cli.ml", "perfbench/dune")


def build_dir():
    """The build directory, relative to the checkout root."""
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if os.path.isabs(d) or ".." in d.split(os.sep):
        d = ".bench_build"
    return d


def stop_group(pgid):
    """Kill every process left in the group and wait until none is."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(200):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    missing = [p for p in SOURCES if not os.path.exists(p)]
    if missing:
        print("perfbench: not a netcalc checkout (missing %s); run from its root"
              % ", ".join(missing), file=sys.stderr)
        return 2

    bd = build_dir()
    # No shared dune cache: the build writes only inside the checkout.
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", bd, "--profile",
         "release", "./perfbench/perfbench.exe", "./bin/netcalc_cli.exe"],
        stdout=sys.stderr, env=dict(os.environ, DUNE_CACHE="disabled"))
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    out_dir = os.path.join(bd, "perfbench")
    os.makedirs(out_dir, exist_ok=True)
    env = {k: v for k, v in os.environ.items()
           if k not in ("NETCALC_OBS", "NETCALC_JOBS", "NETCALC_CURVE_BACKEND")}
    cpus = sorted(os.sched_getaffinity(0))
    jobs = len(cpus)
    cmd = [os.path.join(bd, "default", "perfbench", "perfbench.exe"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--jobs", str(jobs), "--out-dir", out_dir,
           "--netcalc", os.path.join(bd, "default", "bin", "netcalc_cli.exe"),
           "--cpus", ",".join(str(c) for c in cpus),
           "--taskset", shutil.which("taskset") or ""]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        code = 1
    finally:
        stop_group(proc.pid)
        proc.wait()
    return code


if __name__ == "__main__":
    sys.exit(main())
