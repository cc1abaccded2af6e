#!/usr/bin/env python3
"""End-to-end benchmark of the VOODB simulator.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record

Builds the benchmark binary from the simulator sources (CMake, Release,
into $CARGO_TARGET_DIR or .bench_build), runs workload W, checks every
replication's fingerprint against expected_fingerprints.txt, and prints
as its last stdout line one JSON object {"correct", "attempted", "failed",
"metrics"}, after a line describing the machine.  --trace 0 reports the
end-to-end metrics of unprobed replications; --trace 1 reports the
per-layer metrics of probed replications, interleaved with the reference
replications their ratios need.  --record rewrites
expected_fingerprints.txt from the current simulator (only after an
intended change of simulated output).
See README.md in this directory.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected_fingerprints.txt"
WORKLOADS = ("paper_dstc", "cc_contention", "sharded_mvcc")
# Set-ups per pass; the reported set-up time is their median.
E2E_SETUPS = 25
TRACE_SETUPS = 5
# Every run must end within 180 s; leave room for process start and build
# checks.
DEADLINE_S = 170.0
# Actor tags the host-time profile reports (desp::Actor names).
HOST_TAGS = ("cpu", "transaction-manager", "db-scheduler", "io-subsystem",
             "disk", "network", "clustering-manager", "untagged")


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configures and builds the benchmark binary; returns its path."""
    if not (ROOT / "src").is_dir():
        raise RuntimeError(f"simulator sources not found under {ROOT / 'src'}")
    bdir = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (bdir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(bdir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(bdir), "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return bdir / "perfbench"


def source_digest():
    """SHA-256 over the simulator and benchmark sources: identifies the code
    measured when the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(top.rglob("*")):
            if path.is_file() and path.suffix in (".cpp", ".hpp", ".txt",
                                                  ".py"):
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_process(binary, args, variants, seconds, setups, deadline,
                max_reps=0):
    """Runs one benchmark process; returns its JSON with every pass labelled
    for check()."""
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--variants", ",".join(variants),
           "--setups", str(setups), "--max-reps", str(max_reps)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError(f"no time left for {' '.join(cmd)}")
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: "
                           f"{proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    for name, p in result["passes"].items():
        p.update(variant=name, workload=result["workload"])
    return result


def load_expected():
    expected = {}
    for line in EXPECTED.read_text().splitlines():
        fields = line.split()
        if len(fields) == 9:
            expected[(fields[0], int(fields[1]), int(fields[2]))] = \
                " ".join(fields[3:])
    return expected


def check(passes, expected):
    """Marks each replication ok or not; prints every mismatch.  Probed and
    reference passes are held to the same recorded fingerprint, so a probe
    that changed the simulation fails here."""
    attempted = failed = 0
    for p in passes:
        for rep in p["reps"]:
            attempted += 1
            key = (p["workload"], rep["base"], rep["pool"])
            want = expected.get(key)
            if "error" in rep:
                problem = f"error: {rep['error']}"
            elif rep["fingerprint"] != want:
                problem = f"fingerprint {rep['fingerprint']} != {want}"
            else:
                rep["ok"] = True
                continue
            rep["ok"] = False
            failed += 1
            print(f"MISMATCH {p['variant']} {key}: {problem}", flush=True)
    return attempted, failed


def ok_reps(p):
    return [r for r in p["reps"] if r.get("ok")]


def median(values):
    return statistics.median(values) if values else 0.0


def ratio(num, den):
    return num / den if den else 0.0


def paired_wall_ratio(a, b):
    """Wall of pass a over pass b on the rounds both completed.  The passes
    ran interleaved, replication by replication, so the ratio compares
    them under the same machine conditions."""
    ra, rb = ok_reps(a), ok_reps(b)
    n = min(len(ra), len(rb))
    return ratio(sum(r["wall_s"] for r in ra[:n]),
                 sum(r["wall_s"] for r in rb[:n]))


def end_to_end(process):
    reps = ok_reps(process["passes"]["plain"])
    setups = [g + c for g, c in zip(process["generate_s"],
                                    process["construct_s"])]
    return {
        "wall_s": (median([r["wall_s"] for r in reps]), "s"),
        "sim_txn_per_s": (median([r["committed"] / r["wall_s"]
                                  for r in reps]), "1/s"),
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (process["peak_rss_mb"], "MB"),
        "allocs_per_txn": (median([r["allocs"] / r["committed"]
                                   for r in reps]), "count"),
    }


def per_layer(process, rss_on, rss_off):
    """The per-layer metrics.  `process` ran every variant interleaved;
    `rss_on` / `rss_off` each ran one plain / spans_off replication alone,
    for the span tracer's peak-RSS cost."""
    passes = process["passes"]
    plain, probed = passes["plain"], passes["probed"]
    reps = ok_reps(probed)
    n = len(reps)
    committed = sum(r["committed"] for r in reps)
    events = sum(r["events"] for r in reps)

    def total(key):
        return sum(r["counters"].get(key, 0.0) for r in reps)

    def per_rep(key):
        return ratio(total(key), n)

    timers = probed["timers"]
    host = probed["host_s"]
    plain_reps = ok_reps(plain)
    sharded = "serial" in passes
    reference = passes["serial"] if sharded else plain
    reads, writes = total("io.reads"), total("io.writes")
    m = {
        "desp.events_per_txn": (ratio(events, committed), "count"),
        "desp.events_per_s": (ratio(sum(r["events"] for r in plain_reps),
                                    sum(r["wall_s"] for r in plain_reps)),
                              "1/s"),
        "desp.lane_share": (ratio(total("sim.queue.lane_pops"),
                                  total("sim.queue.lane_pops") +
                                  total("sim.queue.heap_pops")), "ratio"),
        "desp.compactions": (per_rep("sim.queue.compactions"), "count"),
    }
    for tag in HOST_TAGS:
        m[f"host_s.{tag}"] = (ratio(host.get(tag, 0.0), n), "s")
    m["host.hook_overhead"] = (paired_wall_ratio(probed, reference), "ratio")
    m.update({
        "ocb.generate_s": (median(process["generate_s"]), "s"),
        "ocb.next_us_per_txn": (1e6 * ratio(timers["next_s"],
                                            timers["next_calls"]), "us"),
        "ocb.accesses_per_txn": (ratio(timers["next_accesses"],
                                       timers["next_calls"]), "count"),
        "cc.commit_ratio": (ratio(total("cc.commits"), total("cc.begins")),
                            "ratio"),
        "cc.restarts_per_txn": (ratio(sum(r["restarts"] for r in reps),
                                      committed), "count"),
        "cc.wait_share": (ratio(total("cc.waits"), total("cc.requests")),
                          "ratio"),
        "cc.wait_p99_ms": (median([r["counters"]["cc.wait_p99_ms"]
                                   for r in reps]), "ms"),
        "cc.versions_installed": (per_rep("cc.versions.installed"), "count"),
        "buffer.hit_rate": (ratio(total("buffer.hits"),
                                  total("buffer.requests")), "ratio"),
        "buffer.requests_per_txn": (ratio(total("buffer.requests"),
                                          committed), "count"),
        "buffer.dirty_pages": (per_rep("buffer.dirty_pages"), "count"),
        "io.ios_per_txn": (ratio(sum(r["ios"] for r in reps), committed),
                           "count"),
        "io.write_share": (ratio(writes, reads + writes), "ratio"),
        "io.disk_utilization": (per_rep("io.disk_utilization"), "ratio"),
        "io.service_p99_ms": (median([r["counters"]["io.service_p99_ms"]
                                      for r in reps]), "ms"),
        "net.bytes_per_txn": (ratio(total("net.bytes"), committed), "bytes"),
        "net.remote_subtxns": (per_rep("net.remote_subtxns"), "count"),
        "net.utilization": (per_rep("net.utilization"), "ratio"),
        "cluster.observe_ns_per_access": (1e9 * ratio(
            timers["observe_s"], timers["observe_calls"]), "ns"),
        "cluster.recluster_s": (ratio(timers["recluster_s"], n), "s"),
        "cluster.trigger_s": (per_rep("cluster.trigger_s"), "s"),
        "cluster.overhead_ios": (per_rep("cluster.overhead_ios"), "count"),
        "cluster.gain": (ratio(total("cluster.pre_ios"),
                               total("cluster.post_ios")), "ratio"),
        "obs.spans_overhead": (paired_wall_ratio(plain, passes["spans_off"]),
                               "ratio"),
        "obs.spans_rss_mb": (rss_on["peak_rss_mb"] - rss_off["peak_rss_mb"],
                             "MB"),
        "par.windows": (per_rep("par.windows"), "count"),
        "par.events_per_window": (ratio(events, total("par.windows")),
                                  "count"),
        "par.cross_events": (per_rep("par.cross_events"), "count"),
        "par.busy_share": (ratio(sum(r["cpu_s"] for r in plain_reps),
                                 plain["sim_threads"] *
                                 sum(r["wall_s"] for r in plain_reps))
                           if sharded else 0.0, "ratio"),
        "par.thread_speedup": (paired_wall_ratio(passes["serial"], plain)
                               if sharded else 0.0, "ratio"),
    })
    return m


def measure(args):
    binary = build()
    start = time.monotonic()
    deadline = start + DEADLINE_S
    if args.trace:
        # Peak RSS needs a process per configuration; one replication each.
        rss_on = run_process(binary, args, ["plain"], args.seconds, 1,
                             deadline, max_reps=1)
        rss_off = run_process(binary, args, ["spans_off"], args.seconds, 1,
                              deadline, max_reps=1)
        variants = ["plain", "spans_off", "probed"]
        if args.workload == "sharded_mvcc":
            variants.append("serial")
        remaining = max(args.seconds - (time.monotonic() - start), 1.0)
        main_run = run_process(binary, args, variants, remaining,
                               TRACE_SETUPS, deadline)
        processes = [rss_on, rss_off, main_run]
    else:
        main_run = run_process(binary, args, ["plain"], args.seconds,
                               E2E_SETUPS, deadline)
        processes = [main_run]
    attempted, failed = check(
        [p for proc in processes for p in proc["passes"].values()],
        load_expected())
    print(json.dumps({"machine": {
        "nproc": os.cpu_count(), "compiler": main_run["compiler"],
        "build_type": main_run["build_type"], "git_commit": git_commit(),
        "source_sha256": source_digest(), "platform": platform.platform(),
        "workload": args.workload, "seed": args.seed,
        "sim_threads": main_run["passes"]["plain"]["sim_threads"]}}),
        flush=True)
    metrics = (per_layer(main_run, rss_on, rss_off) if args.trace
               else end_to_end(main_run))
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}),
        flush=True)


def record():
    binary = build()
    with ThreadPoolExecutor(len(WORKLOADS)) as pool:
        outputs = pool.map(
            lambda w: subprocess.run([str(binary), "--workload", w,
                                      "--record"], capture_output=True,
                                     text=True, check=True).stdout,
            WORKLOADS)
        EXPECTED.write_text("".join(outputs))
    log(f"wrote {EXPECTED}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    if not 0 <= args.seed < 2**64 or not args.seconds > 0:
        parser.error("--seed must be in [0, 2^64) and --seconds > 0")
    try:
        if args.record:
            record()
        elif args.workload is None:
            parser.error("--workload is required")
        else:
            measure(args)
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log(f"perfbench: {e}")
        sys.exit(1)


if __name__ == "__main__":
    main()
