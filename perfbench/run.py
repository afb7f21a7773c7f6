#!/usr/bin/env python3
"""The repository benchmark: one command, one workload, one seed.

    python3 perfbench/run.py --workload telco-pm --seed 1 --seconds 55 --trace 0

Builds perfbench/bench.exe with dune, then runs repetitions of the
workload, each in a fresh process, until --seconds have passed.  Every
repetition of one seed must produce identical simulated results.
setup_s and peak_rss_mb are medians over the repetitions; run_s is the
mean of the fastest tenth of them (see perfbench/README.md for why).

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
and traced repetitions, checks that tracing changes no simulated result,
times one explorer slice, and prints the per-layer metrics.

The last line of stdout is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
The exit code is 0 only when every correctness check passed.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")

WORKLOADS = ("hotstock-disk", "hotstock-pm", "telco-pm")

# Repetitions per run, whatever --seconds says: enough for a median.
MIN_REPS = 3
MIN_TRACED_PAIRS = 2

# A repetition that takes longer than this has hung; with --seconds 55
# a run then still ends inside three minutes.
REP_TIMEOUT_S = 100

# BENCHMARK.json names every metric and its unit.
SPEC = os.path.join(ROOT, "BENCHMARK.json")


class BenchError(Exception):
    pass


def build():
    """Build bench.exe from this checkout's sources."""
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        raise BenchError("no dune-project at %s: not a full checkout" % ROOT)
    proc = subprocess.run(
        # No shared build cache: the benchmark writes only inside its checkout.
        ["dune", "build", "--root", ROOT, "--cache=disabled", "./perfbench/bench.exe"],
        cwd=ROOT,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if proc.returncode != 0 or not os.path.isfile(EXE):
        raise BenchError("dune build of perfbench/bench.exe failed")


def run_measured(args):
    """Run bench.exe once in a fresh process; return its JSON and the
    process's peak resident set (VmHWM) in MiB."""
    proc = subprocess.Popen(
        [EXE] + args, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr, text=True
    )
    watchdog = threading.Timer(REP_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        out = proc.stdout.read()
        proc.stdout.close()
        # wait4, not wait: it reaps this child with its own rusage.
        _, status, rusage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    command = "bench.exe " + " ".join(args)
    if proc.returncode != 0:
        raise BenchError("%s exited with %d" % (command, proc.returncode))
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("%s printed nothing" % command)
    return json.loads(lines[-1]), rusage.ru_maxrss / 1024.0


def fastest_tenth(times):
    """Mean of the fastest tenth of [times], at least one of them.

    The host passes through slow spells that outlast a repetition, so the
    slow tail depends on when a run happens; the fast end is the
    program's own cost, and averaging a tenth of the repetitions keeps
    one lucky repetition from setting it."""
    return statistics.mean(sorted(times)[: max(1, len(times) // 10)])


SIM_KEYS = ("sim", "commits", "attempted", "failed", "commit_p50_ms", "commit_p99_ms", "sim_tps")


def sim_part(rep):
    return {k: rep[k] for k in SIM_KEYS}


def rep_args(workload, seed, trace):
    return ["--workload", workload, "--seed", str(seed), "--trace", str(trace)]


def end_to_end(workload, seed, seconds, gates):
    reps = []
    start = time.monotonic()
    while len(reps) < MIN_REPS or time.monotonic() - start < seconds:
        reps.append(run_measured(rep_args(workload, seed, 0)))
    first = reps[0][0]
    for rep, _ in reps:
        gates.extend(rep["gates"])
    if any(sim_part(rep) != sim_part(first) for rep, _ in reps):
        gates.append("simulated results differ between repetitions of seed %s" % seed)
    values = {
        "commit_p50_ms": first["commit_p50_ms"],
        "commit_p99_ms": first["commit_p99_ms"],
        "sim_tps": first["sim_tps"],
        "committed_frac": first["commits"] / first["attempted"],
        "setup_s": statistics.median([r["setup_s"] for r, _ in reps]),
        "run_s": fastest_tenth([r["run_s"] for r, _ in reps]),
        "peak_rss_mb": statistics.median([rss for _, rss in reps]),
    }
    note = "%s seed=%s reps=%d commits/rep=%d samples/rep=%d" % (
        workload, seed, len(reps), first["commits"], first["sim"]["samples"])
    return [r for r, _ in reps], values, note


def per_layer(workload, seed, seconds, gates):
    untraced, traced = [], []
    start = time.monotonic()
    while len(traced) < MIN_TRACED_PAIRS or time.monotonic() - start < seconds:
        untraced.append(run_measured(rep_args(workload, seed, 0))[0])
        traced.append(run_measured(rep_args(workload, seed, 1))[0])
    for rep in untraced + traced:
        gates.extend(rep["gates"])
    if any(sim_part(rep) != sim_part(untraced[0]) for rep in untraced + traced):
        gates.append("simulated results differ between traced and untraced runs of seed %s" % seed)
    explore, _ = run_measured(["--workload", "explore-slice"])
    gates.extend(explore["gates"])
    # All layer values come from the one traced repetition with the
    # median run time, so its shares still sum to 1.
    middle = sorted(traced, key=lambda r: r["run_s"])[len(traced) // 2]
    values = dict(middle["layers"], **explore["layers"])
    untraced_run = fastest_tenth([r["run_s"] for r in untraced])
    traced_run = fastest_tenth([r["run_s"] for r in traced])
    values["trace.overhead_pct"] = (traced_run / untraced_run - 1.0) * 100.0
    note = "%s seed=%s traced pairs=%d commits/rep=%d phases: %s" % (
        workload, seed, len(traced), untraced[0]["commits"],
        ", ".join("%s %.3f s" % (p["name"], p["dur_s"])
                  for p in middle["phases"] + explore["phases"]))
    return untraced + traced, values, note


def check_attribution(values, gates):
    """The Prof shares plus the residual, and the critical-path shares,
    must each sum to 1."""
    host = sum(v for k, v in values.items() if k.endswith(".host_share")) + values[
        "simkit.unattributed_share"]
    crit = sum(v for k, v in values.items() if k.startswith("critpath."))
    for what, total in (("host-time shares", host), ("critical-path shares", crit)):
        if abs(total - 1.0) > 1e-6:
            gates.append("%s sum to %.9f, not 1" % (what, total))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        with open(SPEC) as f:
            spec = json.load(f)["per_layer" if args.trace else "end_to_end"]
        build()
        gates = []
        if args.trace == 0:
            reps, values, note = end_to_end(args.workload, args.seed, args.seconds, gates)
        else:
            reps, values, note = per_layer(args.workload, args.seed, args.seconds, gates)
            check_attribution(values, gates)
    except (OSError, ValueError, KeyError, BenchError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1

    missing = [m["name"] for m in spec if m["name"] not in values]
    if missing:
        print("perfbench: no value for %s" % ", ".join(missing), file=sys.stderr)
        return 1
    print(note)
    for gate in dict.fromkeys(gates):
        print("FAILED: %s" % gate)
    result = {
        "correct": not gates,
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec},
    }
    print(json.dumps(result))
    return 0 if not gates else 1


if __name__ == "__main__":
    sys.exit(main())
