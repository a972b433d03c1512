#!/usr/bin/env python3
"""Run one workload of the repository benchmark and report its metrics.

    python3 perfbench/run.py --workload dse_table2 --seed 1 --seconds 20 --trace 0

Builds perfbench/ (and the ena library from src/) on first use, runs
the ena_perfbench program, checks its outputs, and prints the metrics
BENCHMARK.json names: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. The last line of standard output is
one JSON object {"correct", "attempted", "failed", "metrics"}. Every
run also leaves a results file (metrics plus provenance) in
.bench_results/, which compare.py reads; traced runs leave their span
file there too.

Exit status: 0 when every op and check passed, 1 when any failed, 2
when the benchmark could not be built or run.

    python3 perfbench/run.py --self-test   # generator self-checks
"""

import argparse
import datetime
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(ROOT, ".bench_results")
WORKLOADS = ("dse_table2", "fig7_chiplet", "server_mix")

# Wall-clock limits: a run ends within 180 s (900 s for the first,
# which builds). A set-up process takes milliseconds; its limit only
# stops a hung one.
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 150
SETUP_TIMEOUT_S = 10

# setup_s is the median over this many fresh processes that each do
# the workload's set-up and nothing else (ena_perfbench --setup-only),
# timed from the entry of main to the moment the first op could be
# issued. Half start before the timed process and half after it, so
# the samples span the run rather than one moment of the host.
SETUP_PROCESSES = 60

# latency_tail_ms percentile per workload, fixed so every run reports
# the same percentile: the highest of p75 / p90 / p99 / p99.9 that
# leaves at least TAIL_BEYOND samples beyond it at the op count a run
# reaches on a 4-core box (fig7_chiplet: at least 42 ops, dse_table2:
# ~500 per 5 s, server_mix: ~13000 per 5 s) and whose run-to-run
# spread stayed within the metric's bound there (dse_table2's p99 and
# server_mix's p99.9 did not). A run with too few ops fails.
TAIL_PERCENTILE = {"dse_table2": 90.0, "fig7_chiplet": 75.0,
                   "server_mix": 99.0}
TAIL_BEYOND = 10

# The library's own telemetry and fault knobs stay off so every run
# measures the same program.
SCRUBBED_ENV = ("ENA_TRACE", "ENA_METRICS", "ENA_FAULT_INJECT",
                "ENA_TASK_RETRIES", "ENA_SWEEP_JOURNAL")

# Paper ranges printed beside the modelled Fig. 7 numbers.
PAPER_FIG7 = ("paper Fig. 7: 60-95% out-of-chiplet traffic, "
              "at most 13% slowdown vs monolithic")


def nearest_rank(n, p):
    """1-based nearest rank of percentile @p (percent) among @p n."""
    return max(1, -(-round(p * 10) * n // 1000))


def tail_latency(values, p):
    """Nearest-rank percentile @p of @p values; ValueError unless at
    least TAIL_BEYOND samples lie beyond it."""
    n = len(values)
    rank = nearest_rank(n, p)
    if n - rank < TAIL_BEYOND:
        raise ValueError("only %d ops: p%g needs %d samples beyond it"
                         % (n, p, TAIL_BEYOND))
    return sorted(values)[rank - 1]


def end_to_end(raw):
    """End-to-end metrics (and their context) from a raw report."""
    lat = raw["latencies_ms"]
    loop_s = raw["loop_s"]
    if not lat or loop_s <= 0:
        raise ValueError("the timed loop ran no ops")
    p = TAIL_PERCENTILE[raw["workload"]]
    metrics = {
        "setup_s": statistics.median(raw["setup_s"]),
        "ops_per_s": len(lat) / loop_s,
        "latency_p50_ms": statistics.median(lat),
        "latency_tail_ms": tail_latency(lat, p),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
    }
    context = {
        "setup_samples": len(raw["setup_s"]),
        "latency_samples": len(lat),
        "latency_tail_percentile": p,
        "failed_frac": raw["failed"] / max(raw["attempted"], 1),
    }
    if raw["workload"] == "fig7_chiplet":
        context["sim_events_per_s"] = raw["sim_events"] / loop_s
    return metrics, context


def per_layer(raw):
    """Per-layer metrics of a traced raw report, plus context."""
    metrics = dict(raw["layers"])
    plain = raw["latencies_ms"]
    traced = raw["traced_latencies_ms"]
    context = {
        "untraced_p50_ms": statistics.median(plain) if plain else None,
        "traced_p50_ms": statistics.median(traced) if traced else None,
        "spans": raw["spans"],
    }
    return metrics, context


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configure and build ena_perfbench; returns its path or exits 2."""
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                rc = str(e)
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    tail = f.read()[-3000:]
                sys.stderr.write("perfbench: build failed (%s):\n%s\n"
                                 % (rc, tail))
                sys.exit(2)
    return os.path.join(bdir, "ena_perfbench")


def git_sha():
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or \
            os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown"
    return lines[1]


def source_digest():
    """sha256 over src/ and perfbench/: names the code without git."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames
                                 if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def provenance(args, raw):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "pool_threads": raw.get("pool_threads"),
        "ENA_THREADS": os.environ.get("ENA_THREADS", "unset"),
        "build_type": raw.get("build_type"),
        "compiler": raw.get("compiler"),
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "machine": platform.machine(),
        "kernel": platform.release(),
        "python": platform.python_version(),
        "utc": datetime.datetime.now(datetime.timezone.utc)
        .strftime("%Y-%m-%dT%H:%M:%SZ"),
    }


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def remove_sockets(sock_path):
    for p in (sock_path, sock_path + ".probe"):
        if os.path.exists(p):
            os.remove(p)


def setup_times(binary, args, env, sock_path, count):
    """Set-up seconds of @p count fresh processes; None if one fails."""
    cmd = [binary, "--workload", args.workload, "--setup-only",
           "--socket", sock_path]
    out = []
    for _ in range(count):
        try:
            proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                                  text=True, timeout=SETUP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            sys.stderr.write("perfbench: a set-up process exceeded %d s\n"
                             % SETUP_TIMEOUT_S)
            return None
        finally:
            remove_sockets(sock_path)
        words = proc.stdout.split()
        if proc.returncode != 0 or not words:
            sys.stderr.write(proc.stderr)
            sys.stderr.write("perfbench: set-up process exited %d\n"
                             % proc.returncode)
            return None
        out.append(float(words[-1]))
    return out


def run_benchmark(binary, args, raw_path, spans_path, sock_path):
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    setups = 0 if args.trace else SETUP_PROCESSES
    before = setup_times(binary, args, env, sock_path, setups // 2)
    if before is None:
        return None
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", raw_path, "--spans", spans_path, "--socket", sock_path]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: ena_perfbench exceeded %d s\n" % RUN_TIMEOUT_S)
        return None
    finally:
        remove_sockets(sock_path)
    sys.stderr.write(proc.stderr)
    if not os.path.exists(raw_path):
        sys.stderr.write("perfbench: ena_perfbench exited %d without a report\n"
                         % proc.returncode)
        return None
    with open(raw_path) as f:
        raw = json.load(f)
    os.remove(raw_path)
    after = setup_times(binary, args, env, sock_path, setups - setups // 2)
    if after is None:
        return None
    raw["setup_s"] = before + after
    if proc.returncode != 0:
        raw["failed"] = max(raw["failed"], 1)
        raw["failures"].append("ena_perfbench exited %d" % proc.returncode)
    return raw


def fmt(v):
    return "%.6g" % v if isinstance(v, float) else str(v)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=5.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)

    spec = load_spec()
    binary = build()
    if args.self_test:
        return subprocess.run([binary, "--self-test"]).returncode
    if not args.workload:
        ap.error("--workload is required")

    os.makedirs(RESULTS, exist_ok=True)
    stem = "%s-s%d-t%d" % (args.workload, args.seed, args.trace)
    tag = "%s-%d" % (stem, os.getpid())
    raw = run_benchmark(binary, args,
                     os.path.join(RESULTS, "raw-%s.json" % tag),
                     os.path.join(RESULTS, "spans-%s.json" % tag),
                     os.path.join(RESULTS, "%d.sock" % os.getpid()))
    if raw is None:
        return 2

    try:
        if args.trace:
            values, context = per_layer(raw)
            wanted = spec["per_layer"]
        else:
            values, context = end_to_end(raw)
            wanted = spec["end_to_end"]
        metrics = {}
        for m in wanted:
            v = values[m["name"]]
            if not math.isfinite(v):
                raise ValueError("%s is not finite" % m["name"])
            metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    except (KeyError, ValueError) as e:
        sys.stderr.write("perfbench: cannot derive metrics: %s\n" % e)
        return 2

    prov = provenance(args, raw)
    result = {
        "provenance": prov,
        "metrics": metrics,
        "context": context,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "failures": raw["failures"],
        "digests": raw["digests"],
        "model": raw["model"],
    }
    stamp = prov["utc"].replace(":", "").replace("-", "")
    with open(os.path.join(RESULTS, "%s-%s-%d.json"
                           % (stem, stamp, os.getpid())), "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)

    print("perfbench %s seed=%d seconds=%g trace=%d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("provenance: " + " ".join("%s=%s" % kv for kv in prov.items()
                                    if kv[0] not in ("workload", "seed",
                                                     "seconds", "trace")))
    for name, m in metrics.items():
        print("  %-40s %14s %s" % (name, fmt(m["value"]), m["unit"]))
    for k, v in context.items():
        print("  (%s = %s)" % (k, fmt(v)))
    for k, v in sorted(raw["digests"].items()):
        print("  digest %s = %s" % (k, v))
    if raw["model"]:
        print("  modelled (unvalidated against hardware; %s):" % PAPER_FIG7)
        for k, v in sorted(raw["model"].items()):
            print("    %-38s %.17g" % (k, v))
    for msg in raw["failures"]:
        print("  FAILED: " + msg)

    correct = raw["failed"] == 0
    print(json.dumps({"correct": correct,
                      "attempted": max(1, int(raw["attempted"])),
                      "failed": int(raw["failed"]),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
