#!/usr/bin/env python3
"""Over-the-wire benchmark of pctagg_server.

Builds pctagg_server from the source tree it is run in, loads a seeded fact
table into real server processes, drives them with percentage queries over
loopback TCP in a closed loop, checks every result against an exact
reference, and prints one JSON object as the last line of stdout.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 10 --trace 0

Workloads, one per layer of the serving path:

  scan   1 session, cache and batching off: every query is a fused scan
  cache  1 session, summary cache on, 24 recurring queries: every timed
         query is answered from the cache, so the wire and result encoding
         dominate
  mqo    8 concurrent sessions sending dashboard queries with one WHERE:
         the multi-query gate batches them into shared scans
  shard  1 session against a coordinator with 2 workers: every query
         scatters partial aggregations and merges them

--trace 0 reports the end-to-end metrics (latency, throughput, set-up
time). --trace 1 runs the same loop with `SET trace on` and reports where
the time went per layer, from the reply header, the executed-plan trace and
STATS counters.
"""

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True

import bench_data  # noqa: E402
import bench_wire  # noqa: E402

ROWS = 400_000
SETUPS = 3
BUILD_DIR = ".bench_build"

WORKLOADS = {
    "scan": dict(clients=1, sharded=False, mix="spread",
                 session=[("SET", "cache off"), ("SET", "mqo off")]),
    "cache": dict(clients=1, sharded=False, mix="hot",
                  session=[("SET", "cache on"), ("SET", "mqo off")]),
    "mqo": dict(clients=8, sharded=False, mix="dashboard",
                session=[("SET", "cache off"), ("SET", "mqo on")]),
    "shard": dict(clients=1, sharded=True, mix="spread",
                  session=[("SET", "cache off"), ("SET", "mqo off")]),
}

# Single-node servers get a worker per concurrent session so parked batch
# members never starve the batch leader (docs/SERVER.md, --mqo-max-batch).
SERVER_ARGS = ["--threads", "8", "--mqo-max-batch", "8", "--timeout-ms", "60000"]
WORKER_ARGS = ["--threads", "2", "--timeout-ms", "60000"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(root):
    """Configures (once) and builds the server binary; returns its path."""
    for needed in ("CMakeLists.txt", "src", "tools/pctagg_server.cc"):
        if not os.path.exists(os.path.join(root, needed)):
            raise SystemExit("perfbench: %s not found under %s; run from the "
                             "root of a pctagg source tree" % (needed, root))
    build_dir = os.path.join(root, BUILD_DIR)
    os.makedirs(build_dir, exist_ok=True)
    build_log = os.path.join(build_dir, "perfbench-build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", build_dir, "--target", "pctagg_server_bin",
              "-j", jobs]]
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", root, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"])
    with open(build_log, "wb") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              stdin=subprocess.DEVNULL).returncode != 0:
                raise SystemExit("perfbench: build failed (%s), see %s"
                                 % (" ".join(cmd), build_log))
    return os.path.join(build_dir, "tools", "pctagg_server")


def set_up(servers, csv_path, sharded):
    """Starts the workload's server processes with the table loaded (and
    sharded); returns the port clients connect to."""
    load = ["--load", "f:" + csv_path]
    if not sharded:
        return servers.start(SERVER_ARGS + load, "server")
    workers = [servers.start(WORKER_ARGS, "worker%d" % i) for i in range(2)]
    args = SERVER_ARGS + load
    for port in workers:
        args += ["--worker", "127.0.0.1:%d" % port]
    port = servers.start(args, "coordinator")
    conn = bench_wire.Connection(port)
    try:
        conn.must("SHARD", "f store")
    finally:
        conn.close()
    return port


def query_mix(kind, seed):
    """The workload's distinct (template index, max_month) queries, in the
    seeded order every session cycles through. Each run sends the same
    mix, so runs with different seeds differ only in data and order."""
    if kind == "hot":
        # The summary cache keeps WHERE-less summaries only.
        queries = [(t, 12) for t in range(len(bench_data.TEMPLATES))]
    elif kind == "dashboard":
        # One shared WHERE, so every query is a batch-mate of every other.
        queries = [(t, 6) for t in range(len(bench_data.DASHBOARD))]
    else:
        queries = [(t, m) for t in range(len(bench_data.TEMPLATES))
                   for m in (3, 6, 9, 12)]
    random.Random(seed).shuffle(queries)
    return queries


def percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def parse_trace(text):
    """Executed-plan trace -> (row ops, wall ms summed over top-level plan
    nodes)."""
    row_ops = 0
    exec_ms = 0.0
    in_plan = False
    for line in text.split("\n"):
        if line.startswith("actual row ops: "):
            row_ops = int(line.split(": ")[1])
        elif line == "plan:":
            in_plan = True
        elif in_plan and line.startswith("    [") and "wall=" in line:
            exec_ms += float(line.split("wall=")[1].split("ms")[0])
    return row_ops, exec_ms


def stat_delta(before, after, name):
    return after.get(name, 0.0) - before.get(name, 0.0)


def run(args):
    spec = WORKLOADS[args.workload]
    root = os.getcwd()
    binary = build(root)

    work = os.path.join(root, BUILD_DIR, "perfbench-run-%d" % os.getpid())
    os.makedirs(work, exist_ok=True)
    servers = None
    try:
        csv_text, finest = bench_data.generate(args.seed, ROWS)
        csv_path = os.path.join(work, "f.csv")
        with open(csv_path, "w") as f:
            f.write(csv_text)
        del csv_text
        reference = bench_data.Reference(finest)

        # Set-up: start the servers with the table loaded, several times;
        # the last set of processes serves the measurement.
        setup_times = []
        for i in range(SETUPS):
            if servers is not None:
                servers.stop()
            servers = bench_wire.Servers(binary, work)
            t0 = time.perf_counter()
            port = set_up(servers, csv_path, spec["sharded"])
            setup_times.append(time.perf_counter() - t0)

        templates = (bench_data.DASHBOARD if spec["mix"] == "dashboard"
                     else bench_data.TEMPLATES)
        session = list(spec["session"])
        if args.trace:
            session.append(("SET", "trace on"))
        queries = query_mix(spec["mix"], args.seed)
        clients = spec["clients"]

        def loop(seconds):
            # Session c starts c/clients of the way through the cycle, so
            # concurrent sessions send different queries.
            sent = [c * len(queries) // clients for c in range(clients)]

            def next_query(c):
                q = queries[sent[c] % len(queries)]
                sent[c] += 1
                return q, templates[q[0]].query(q[1])
            return bench_wire.closed_loop([port], clients, session,
                                          next_query, seconds)

        control = bench_wire.Connection(port)
        try:
            # The warm-up sends every query at least once (filling the
            # summary cache on the cache workload) before timing starts.
            loop(min(1.0, args.seconds / 5))
            stats_before = bench_wire.parse_stats(
                control.must("STATS").body.decode())
            samples, elapsed = loop(args.seconds)
            stats_after = bench_wire.parse_stats(
                control.must("STATS").body.decode())
        finally:
            control.close()
        servers.stop()

        # Check every reply; identical bodies are checked once.
        failed = 0
        checked = {}
        traces = []
        for s in samples:
            if not s.reply.ok:
                failed += 1
                log("query %r failed: %s" % (s.query, s.reply.error))
                continue
            body = s.reply.body.decode()
            if args.trace:
                body, _, trace = body.partition("-- trace\n")
                traces.append((s, trace))
            key = (s.query, body)
            if key not in checked:
                t, m = s.query
                checked[key] = bench_data.check(templates[t], m, body, reference)
                if checked[key]:
                    log("query %r wrong: %s" % (s.query, checked[key]))
            if checked[key]:
                failed += 1

        attempted = len(samples)
        latencies_ms = [s.latency * 1e3 for s in samples]
        summary = ("%s seed %d: %d queries in %.2f s over %d session(s), "
                   "%d failed; set-up %s s"
                   % (args.workload, args.seed, attempted, elapsed,
                      spec["clients"], failed,
                      ", ".join("%.3f" % t for t in setup_times)))
        metrics = {}
        if not args.trace:
            # Mean over the mix's distinct queries of each one's median:
            # they differ several-fold in cost, so a median pooled over
            # all of them jumps between their modes from run to run.
            per_query = {}
            for s in samples:
                per_query.setdefault(s.query, []).append(s.latency * 1e3)
            metrics["latency_ms"] = statistics.fmean(
                statistics.median(v) for v in per_query.values())
            metrics["latency_p95_ms"] = percentile(latencies_ms, 0.95)
            metrics["throughput_qps"] = attempted / elapsed
            metrics["setup_s"] = statistics.median(setup_times)
        else:
            server_ms = [s.reply.micros / 1e3 for s, _ in traces]
            parsed = [parse_trace(trace) for _, trace in traces]
            wire_ms = [s.latency * 1e3 - s.reply.micros / 1e3 for s, _ in traces]
            exec_ms = [p[1] for p in parsed]
            pre_ms = [max(0.0, a - b) for a, b in zip(server_ms, exec_ms)]
            hits = stat_delta(stats_before, stats_after,
                              "pctagg_summary_cache_hits_total")
            misses = stat_delta(stats_before, stats_after,
                                "pctagg_summary_cache_misses_total")
            batches = stat_delta(stats_before, stats_after,
                                 "pctagg_mqo_batches_total")
            moved = stat_delta(stats_before, stats_after,
                               "pctagg_dist_bytes_moved_total")
            n = max(1, len(traces))
            metrics["server_ms"] = statistics.median(server_ms or [0.0])
            metrics["wire_ms"] = statistics.median(wire_ms or [0.0])
            metrics["exec_ms"] = statistics.median(exec_ms or [0.0])
            metrics["pre_exec_ms"] = statistics.median(pre_ms or [0.0])
            metrics["rows_scanned_per_query"] = sum(p[0] for p in parsed) / n
            metrics["cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
            metrics["mqo_queries_per_batch"] = len(traces) / batches if batches else 0.0
            metrics["dist_bytes_per_query"] = moved / n
        print(summary)
        return {
            "correct": failed == 0 and attempted > 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": UNITS[name]}
                        for name, value in metrics.items()},
        }
    finally:
        if servers is not None:
            servers.stop()
        shutil.rmtree(work, ignore_errors=True)


UNITS = {
    "latency_ms": "ms",
    "latency_p95_ms": "ms",
    "throughput_qps": "1/s",
    "setup_s": "s",
    "server_ms": "ms",
    "wire_ms": "ms",
    "exec_ms": "ms",
    "pre_exec_ms": "ms",
    "rows_scanned_per_query": "rows",
    "cache_hit_ratio": "ratio",
    "mqo_queries_per_batch": "count",
    "dist_bytes_per_query": "bytes",
}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        result = run(args)
    except (OSError, RuntimeError) as e:
        log("perfbench: %s" % e)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
