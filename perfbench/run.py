#!/usr/bin/env python3
"""End-to-end wall-clock benchmark of the RBAY federation.

    python3 perfbench/run.py --workload count_hot --seed 1 --seconds 25 --trace 0

Run from the repository root.  The first call configures and builds the
federation libraries from src/ plus the repetition binary (main.cpp) into
.bench_build/perfbench (RelWithDebInfo); later calls rebuild incrementally.

One repetition = one rbay_perfbench process: build the federation, warm up, run the
workload's query stream, check every answer.  A fresh process per
repetition keeps heap state and peak RSS from leaking between them.
Measured repetitions run the sharded engine on 1 worker: its schedule, and
so every sim-time result, is the same at any worker count, while on a
shared virtual machine the 2-worker query phase swings by 2x with how fast
idle vCPUs wake for the engine's barriers.
Repetitions continue while the next one (estimated by the longest so far)
fits in --seconds, and every wall-clock metric is their median.

--trace 0: plain repetitions only (at least 3); prints the end-to-end
metrics.  --trace 1: alternating plain and traced repetitions (at least one
pair), then one plain repetition on 2 engine workers; prints the per-layer
metrics.  Every repetition of one call must give the same answer
digest and the same sim-time results, whatever its tracing or worker count.

The last line of stdout is one JSON object {correct, attempted, failed,
metrics}.  Exits non-zero when a check fails or nothing could be built or
run (for example when src/ is absent).  See perfbench/README.md for what
each workload and metric is for.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "rbay_perfbench")
WORKLOADS = ("count_hot", "select_reserve", "build_40k")
WORKERS = 1
CHECK_WORKERS = 2  # --trace 1: the digest must not depend on the worker count
DEADLINE_S = 170  # whole call, build excluded
# Sim-time results that must not depend on tracing or the worker count.
SIM_FIELDS = ("digest", "offered", "completed", "satisfied", "events", "query_sim_s",
              "p50_us", "p99_us", "mean_us")
CALLS = ("aal.on_get", "query.parse", "query.tree_id", "core.execute_sql")


def build():
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "rbay_perfbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_rep(args, workers, traced, deadline):
    # rbay_perfbench pins its engine itself; keep the test-suite overrides out.
    env = {k: v for k, v in os.environ.items() if not k.startswith("RBAY_SIM_")}
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--workers", str(workers), "--traced", "1" if traced else "0"]
    try:
        out = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                             timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: repetition exceeded the %d s deadline" % DEADLINE_S)
    if out.returncode != 0:
        sys.exit("perfbench: repetition failed with exit code %d" % out.returncode)
    rep = json.loads(out.stdout.strip().splitlines()[-1])
    print("rep %-6s workers=%d setup=%.3fs (populate %.3f post %.3f finalize %.3f warmup %.3f) "
          "query=%.3fs offered=%d satisfied=%d failed=%d digest=%s rss=%.0fMB" % (
              "traced" if traced else "plain", workers, rep["setup_s"], rep["populate_s"],
              rep["post_s"], rep["finalize_s"], rep["warmup_s"], rep["query_wall_s"],
              rep["offered"], rep["satisfied"], rep["failed"], rep["digest"],
              rep["peak_rss_mb"]), flush=True)
    return rep


def repeat(args):
    """Runs repetitions within the budget; returns (plain, traced, check)."""
    start = time.monotonic()
    deadline = start + DEADLINE_S
    plain, traced = [], []
    longest = 0.0
    while True:
        next_traced = args.trace == 1 and len(traced) < len(plain)
        done = len(plain) + len(traced)
        minimum_met = (done >= 2 and not next_traced) if args.trace else done >= 3
        elapsed = time.monotonic() - start
        if minimum_met and (elapsed + longest > args.seconds or
                            elapsed + 2 * longest > DEADLINE_S):
            break
        rep_start = time.monotonic()
        rep = run_rep(args, WORKERS, next_traced, deadline)
        longest = max(longest, time.monotonic() - rep_start)
        (traced if next_traced else plain).append(rep)
    check = [run_rep(args, CHECK_WORKERS, False, deadline)] if args.trace else []
    return plain, traced, check


def median(values):
    return statistics.median(values)


def ratio(num, den):
    return num / den if den else 0.0


def end_to_end(plain):
    r0 = plain[0]
    return [
        ("setup_s", median([r["setup_s"] for r in plain]), "s"),
        ("queries_per_wall_s", median([r["completed"] / r["query_wall_s"] for r in plain]), "1/s"),
        ("sim_s_per_wall_s", median([r["query_sim_s"] / r["query_wall_s"] for r in plain]), "1"),
        ("peak_rss_mb", median([r["peak_rss_mb"] for r in plain]), "MB"),
        ("sim_mean_us", r0["mean_us"], "us"),
        ("sim_p99_us", r0["p99_us"], "us"),
        ("satisfied_ratio", ratio(r0["satisfied"], r0["offered"]), "1"),
    ]


def per_layer(plain, traced, check):
    t = traced[0]
    q = t["completed"]
    c = t["counters"]
    sim_s = t["query_sim_s"]

    def med(fn):
        return median([fn(r) for r in traced])

    def qps(r):
        return r["completed"] / r["query_wall_s"]

    hits, misses = c["qplane.cache_hits"], c["qplane.cache_misses"]
    out = [
        ("sim.events_per_query", ratio(t["events"], q), "count"),
        ("sim.wall_ns_per_event", med(lambda r: r["query_wall_s"] * 1e9 / r["events"]), "ns"),
        ("sim.cpu_per_wall", check["query_cpu_s"] / check["query_wall_s"], "1"),
        ("sim.speedup_2_workers",
         median([r["query_wall_s"] for r in plain]) / check["query_wall_s"], "1"),
        ("sim.warmup_s", med(lambda r: r["warmup_s"]), "s"),
        ("pastry.build_static_s", med(lambda r: r["build_static_s"]), "s"),
        ("pastry.forwards_per_query", ratio(c["pastry.forwards"], q), "count"),
        ("scribe.join_drain_s", med(lambda r: r["finalize_s"] - r["build_static_s"]), "s"),
        ("scribe.agg_reports_per_sim_s", ratio(c["scribe.agg_reports"], sim_s), "1/s"),
        ("scribe.anycast_visits_per_query", ratio(c["scribe.anycast_visits"], q), "count"),
        ("scribe.sub_churn_per_sim_s",
         ratio(c["scribe.subscribes"] + c["scribe.unsubscribes"], sim_s), "1/s"),
        ("store.post_s", med(lambda r: r["post_s"]), "s"),
        ("query.attempts_per_query", ratio(c["query.attempts"], q), "count"),
        ("query.useful_ratio", ratio(t["satisfied"], c["query.attempts"]), "1"),
        ("core.populate_s", med(lambda r: r["populate_s"]), "s"),
        ("qplane.cache_hit_ratio", ratio(hits, hits + misses), "1"),
        ("qplane.probe_walks_per_query", ratio(c["qplane.probe_walks"], q), "count"),
        ("net.msgs_per_query", ratio(c["net.messages_sent"], q), "count"),
        ("net.bytes_per_query", ratio(c["net.bytes_sent"], q), "B"),
        ("mem.live_heap_per_node_kb", med(lambda r: r["live_heap_kb_per_node"]), "kB"),
        ("mem.allocs_per_node_setup", ratio(t["allocs_setup"], t["nodes"]), "count"),
        ("mem.allocs_per_query", ratio(t["allocs_query"], q), "count"),
        ("mem.alloc_ms_in_spans",
         med(lambda r: sum(r["calls"][name]["alloc_ms"] for name in CALLS)), "ms"),
        ("obs.overhead_ratio", ratio(median([qps(r) for r in plain]),
                                     median([qps(r) for r in traced])), "1"),
    ]
    for name in CALLS:
        out.append((name + "_ns", med(lambda r: r["calls"][name]["median_ns"]), "ns"))
        out.append((name + "_total_ms", med(lambda r: r["calls"][name]["total_ms"]), "ms"))
        out.append((name + "_over_1ms", med(lambda r: r["calls"][name]["over_1ms"]), "count"))
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    build()
    plain, traced, check = repeat(args)
    reps = plain + traced + check

    ref = reps[0]
    print("workload   %s" % args.workload)
    print("seed       %d" % args.seed)
    print("trace      %d" % args.trace)
    print("engine     sharded, %d worker (digest also checked at %d with --trace 1)"
          % (WORKERS, CHECK_WORKERS))
    print("nproc      %d" % len(os.sched_getaffinity(0)))
    print("cpu        %s" % cpu_model())
    print("compiler   %s" % ref["compiler"])
    print("build      %s" % ref["build_type"])
    print("reps       %d plain, %d traced, %d at %d workers" % (
        len(plain), len(traced), len(check), CHECK_WORKERS))

    attempted = sum(r["offered"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    for r in reps:
        if r["first_wrong"]:
            print("CHECK FAILED: %s" % r["first_wrong"])
        diff = [f for f in SIM_FIELDS if r[f] != ref[f]]
        if diff:
            failed += 1
            print("CHECK FAILED: %s repetition on %d worker(s) differs in %s" % (
                "traced" if r["traced"] else "plain", r["workers"], ", ".join(diff)))
    correct = failed == 0

    metrics = per_layer(plain, traced, check[0]) if args.trace else end_to_end(plain)
    for name, value, unit in metrics:
        print("%-34s %18.6f %s" % (name, value, unit))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit in metrics},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
