#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads, one result line.

    python3 perfbench/run.py --workload <bulk-txt|stream-shift|serve-open> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. It builds the program's libraries and the
`tvsbench` harness from source into .bench_build/, runs the workload in a
child process (so a crash loses only that run and is reported with its
signal), checks every output by round trip, and prints the metrics: with
--trace 0 the end-to-end metrics, with --trace 1 the per-layer metrics of a
traced run plus the tracing overhead. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
HARNESS = os.path.join(BUILD_DIR, "tvsbench")

WORKLOADS = ("bulk-txt", "stream-shift", "serve-open")

# The listed metrics and their units, as BENCHMARK.json fixes them.
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    _spec = json.load(_f)
E2E_UNITS = {m["name"]: m["unit"] for m in _spec["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in _spec["per_layer"]}

# serve-open is runnable but not listed in BENCHMARK.json (README.md,
# "Findings"); the units of the metrics only it reports.
SERVE_E2E = ["setup_s", "session_p50_ms", "session_p99_ms", "compressed_ratio",
             "failed_frac", "peak_rss_mb"]
SERVE_UNITS = {
    "session_p50_ms": "ms", "session_p99_ms": "ms", "failed_frac": "fraction",
    "serve.submit_us_p50": "us", "serve.queue_wait_p50_ms": "ms",
    "serve.queue_wait_p99_ms": "ms", "serve.dispatch_p50_ms": "ms",
    "serve.commit_stall_p50_ms": "ms", "serve.shed": "count",
    "serve.failed": "count", "serve.rss_growth_kb_per_session": "KB",
    "serve.arena_chunk_mallocs_per_block": "count",
    "serve.rollbacks_per_session": "count", "serve.generator_lag_p99_us": "us",
}

# Host-speed normalization (README.md): an operation that runs at the
# host's speed, not at an arrival pace, is reported as it would have run on
# a host whose probe (src/probe.cpp) reads this many MB/s per thread.
REFERENCE_PROBE_MBPS = 200.0
# Operations that run on one thread, paired with the one-thread probe.
SINGLE_THREADED_OPS = ("serial", "decompress")


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# --- Build ------------------------------------------------------------------

def build(deadline):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no program sources next to the benchmark (expected src/)")
    os.makedirs(BUILD_ROOT, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "tvsbench",
                  "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    cwd=ROOT,
                                    timeout=max(1.0, deadline - time.time())
                                    ).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                die("build failed: %s (log: %s)" % (e, log_path))
            if rc != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                die("build failed (log: %s)" % log_path)


# --- Provenance ---------------------------------------------------------------

def source_id():
    """git sha of the checkout, or a digest of the program and benchmark
    sources when the checkout is not a git repository."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0:
            dirty = subprocess.run(
                ["git", "-C", ROOT, "status", "--porcelain", "--", "src",
                 "perfbench"], capture_output=True, text=True, timeout=10)
            return sha.stdout.strip() + ("-dirty" if dirty.stdout.strip() else "")
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-sha256:" + h.hexdigest()[:16]


# --- Running the harness ------------------------------------------------------

def run_harness(args, deadline):
    workdir = os.path.join(BUILD_ROOT, "work", args.workload)
    os.makedirs(workdir, exist_ok=True)
    cmd = [HARNESS, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    # Its own process group, so a timeout also stops the child processes the
    # harness may have forked.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True,
                            start_new_session=True)
    timed_out = []

    def kill():
        timed_out.append(True)
        os.killpg(proc.pid, signal.SIGKILL)

    timer = threading.Timer(max(1.0, deadline - time.time()), kill)
    timer.start()
    try:
        lines = proc.stdout.read().splitlines()
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        timer.cancel()
    records = []
    for line in lines:
        try:
            records.append(json.loads(line))
        except ValueError:
            pass  # a line cut short by a crash
    return records, proc.returncode, usage.ru_maxrss / 1024.0, bool(timed_out)


class Records:
    def __init__(self, records):
        self.info = {}
        self.setups = []
        self.begins = 0
        self.ok = 0
        self.fails = []
        self.ops = {}
        self.layers = {}
        self.loops = []
        self.probes = []
        self.child_peak_rss_mb = 0.0
        unprobed = []  # op and setup records since the last probe
        for r in records:
            ev = r.get("ev")
            if ev == "info":
                self.info = r
            elif ev == "setup":
                self.setups.append(r)
                unprobed.append(r)
            elif ev == "begin":
                self.begins += 1
            elif ev == "op":
                self.ok += 1
                self.ops.setdefault(r["op"], []).append(r)
                unprobed.append(r)
            elif ev == "probe":  # ends one child's records
                if "mbps" in r:
                    self.probes.append(r["mbps"])
                    for op in unprobed:
                        one = op.get("op") in SINGLE_THREADED_OPS
                        op["probe"] = r["mbps_1" if one else "mbps"]
                unprobed = []
            elif ev == "verified":
                self.ok += 1
            elif ev == "fail":
                self.fails.append(r)
                if r["op"] == "child":
                    unprobed = []  # its child died before probing
            elif ev == "layer":
                self.layers.setdefault(r["name"], []).append(r["v"])
            elif ev == "loop":
                self.loops.append(r)
            elif ev == "rss":
                self.child_peak_rss_mb = max(self.child_peak_rss_mb,
                                             r["peak_mb"])

    def untraced(self, op):
        return [r for r in self.ops.get(op, []) if not r.get("traced")]

    def traced(self, op):
        return [r for r in self.ops.get(op, []) if r.get("traced")]

    def slowdown(self, r):
        """How many times slower than the reference host the operation of
        record `r` ran: 1 for an operation paced by its arrivals, and for a
        workload without probes (serve-open)."""
        if r.get("paced") or not self.probes:
            return 1.0
        return REFERENCE_PROBE_MBPS / r.get("probe",
                                            statistics.median(self.probes))


def engine_samples(rec):
    def mbps(op):
        return [r["bytes"] / r["wall_s"] / 1e6 * rec.slowdown(r)
                for r in rec.untraced(op)]

    def times(records, key):
        return [r[key] / rec.slowdown(r) for r in records]
    spec = rec.untraced("spec")
    return {
        "setup_s": times(rec.setups, "s"),
        "compress_mbps": mbps("spec"),
        "nonspec_compress_mbps": mbps("nonspec"),
        "serial_compress_mbps": mbps("serial"),
        "decompress_mbps": mbps("decompress"),
        "compressed_ratio": [r["out_bytes"] / r["bytes"] for r in spec],
        "block_latency_p50_ms": times(spec, "lat_p50_ms"),
        "block_latency_p99_ms": times(spec, "lat_p99_ms"),
        "nonspec_block_latency_p50_ms":
            times(rec.untraced("nonspec"), "lat_p50_ms"),
    }


def serve_samples(rec, failed_frac):
    return {
        "setup_s": [r["s"] for r in rec.setups],
        "session_p50_ms": [r["lat_p50_ms"] for r in rec.loops],
        "session_p99_ms": [r["lat_p99_ms"] for r in rec.loops],
        "compressed_ratio": [r["ratio_p50"] for r in rec.loops],
        "failed_frac": [failed_frac],
    }


def summarize(names, samples, units):
    """Returns {name: (median, unit, q1, q3, n)} for the names sampled."""
    out = {}
    for name in names:
        if samples.get(name):
            q1, med, q3 = quartiles(samples[name])
            out[name] = (med, units.get(name) or SERVE_UNITS[name], q1, q3,
                         len(samples[name]))
    return out


def summarize_layers(rec):
    out = summarize(sorted(rec.layers), rec.layers, LAYER_UNITS)
    # Both medians host-normalized, so a drift in host speed between the
    # traced and untraced compresses does not count as tracing cost.
    traced = [r["wall_s"] / rec.slowdown(r) for r in rec.traced("spec")]
    plain = [r["wall_s"] / rec.slowdown(r) for r in rec.untraced("spec")]
    if traced and plain:
        overhead = statistics.median(traced) / statistics.median(plain) - 1.0
        out["trace.overhead_frac"] = (overhead, "fraction", overhead, overhead,
                                      len(traced))
    return out


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seconds < 1:
        die("--seconds must be at least 1")

    started = time.time()
    build(started + 850)
    # Leave the run itself 170 s from here, whatever the build took.
    records, rc, peak_rss_mb, timed_out = run_harness(args, time.time() + 170)
    rec = Records(records)
    peak_rss_mb = max(peak_rss_mb, rec.child_peak_rss_mb)

    crashed = rc != 0
    if timed_out:
        print("perfbench: %s killed after its time limit" % args.workload,
              file=sys.stderr)
    elif rc < 0:
        print("perfbench: %s crashed with signal %d (%s)"
              % (args.workload, -rc, signal.Signals(-rc).name), file=sys.stderr)
    elif rc != 0:
        print("perfbench: %s exited with status %d" % (args.workload, rc),
              file=sys.stderr)

    attempted = rec.begins
    failed = attempted - rec.ok
    wrong = [f for f in rec.fails if f.get("wrong")]
    for f in rec.fails:
        print("perfbench: %s failed: %s" % (f["op"], f["what"]), file=sys.stderr)
    correct = not wrong and not crashed
    failed_frac = failed / attempted if attempted else 1.0

    if args.trace:
        table = summarize_layers(rec)
        wanted = list(table) if args.workload == "serve-open" else LAYER_UNITS
    else:
        if args.workload == "serve-open":
            wanted, samples = SERVE_E2E, serve_samples(rec, failed_frac)
        else:
            wanted, samples = E2E_UNITS, engine_samples(rec)
        samples["peak_rss_mb"] = [peak_rss_mb]
        table = summarize(wanted, samples, E2E_UNITS)
    missing = [n for n in wanted if n not in table]
    # A crash still reports what the run measured before it.
    if attempted == 0 or not table or (missing and not crashed):
        die("%s produced no result (missing: %s)"
            % (args.workload, ", ".join(missing) or "everything"))

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "run_seconds": args.seconds,
        "trace": args.trace,
        "nproc": rec.info.get("nproc"),
        "compiler": "gcc " + str(rec.info.get("compiler")),
        "build_type": rec.info.get("build_type"),
        "source": source_id(),
        "exit": ("signal %s" % signal.Signals(-rc).name) if rc < 0 else rc,
        "host_probe_mbps": (statistics.median(rec.probes) if rec.probes
                            else None),
        "reference_probe_mbps": REFERENCE_PROBE_MBPS,
        "wall_s": round(time.time() - started, 3),
    }
    print("# %s seed=%d trace=%d: %d attempted, %d failed (failed_frac %.4f)"
          % (args.workload, args.seed, args.trace, attempted, failed,
             failed_frac))
    for name, (value, unit, q1, q3, n) in table.items():
        print("#   %-38s %12.6g %-8s q1 %.6g  q3 %.6g  n %d"
              % (name, value, unit, q1, q3, n))
    print(json.dumps({"provenance": provenance, "quartiles": {
        name: {"median": v, "q1": q1, "q3": q3, "n": n}
        for name, (v, _, q1, q3, n) in table.items()}}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _, _, _) in table.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
