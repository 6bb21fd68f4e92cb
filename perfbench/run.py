#!/usr/bin/env python3
"""Leopard benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first run configures and builds
the library, the leopard_node daemon and the benchmark programs from source
into .bench_build/ (CMake, this directory's CMakeLists.txt); later runs only
rebuild what changed. Workloads, metrics and their rationale are in
README.md; the parameters of the wire workloads are in WORKLOADS below, those
of the sim workload in src/sim_main.cpp.

--trace 0 measures the end-to-end metrics. --trace 1 measures the per-layer
metrics instead: an untraced and a traced run of the workload back to back,
with the traced run's layer figures and the CPU cost of tracing
(trace_overhead_pct).

The last line of standard output is the result:
    {"correct": true, "attempted": N, "failed": N, "metrics": {...}}
The exit code is 0 when every correctness check passed, 1 otherwise.
"""

import argparse
import array
import contextlib
import fcntl
import itertools
import json
import math
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
import urllib.request

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD_ROOT, "cmake")
RUNS_DIR = os.path.join(BUILD_ROOT, "runs")

# Loopback clusters: n=4, one leopard_node per replica with --io-threads 1.
# alpha/tau/waits are the manifest's datablock_requests, bftblock_links,
# datablock_max_wait_ms and proposal_max_wait_ms. In both wire workloads a
# datablock fills to alpha by count in 75% of its flush wait, so latency is
# mostly the batching the workload asks for. A host stall of a few ms (CPU
# taken by the hypervisor) then moves p99 by ~10%; with 7.5 ms datablocks
# it moves p99 by 50-75% (README.md, "Steadiness").
WORKLOADS = {
    # Per-message work. 80 kreq/s over 3 makers fills every datablock to
    # alpha by count (26.7 kreq/s x 50 ms = 1333 > 1000), never by the
    # timer, and stays well below the loopback cluster's knee.
    "wire_small": {"kind": "wire", "n": 4, "rate": 80000, "payload": 128, "durable": False,
                   "alpha": 1000, "tau": 8, "datablock_wait_ms": 50, "proposal_wait_ms": 10},
    # Per-byte work and the WAL: every replica appends each executed
    # datablock (400 KB, CRC32C-framed) and snapshots on the event-loop
    # thread, here every 40 entries (about once a second; the daemon's
    # default of 4096 would never come round in a run). The data dirs live
    # inside the checkout, on whatever disk holds it, so the WAL runs
    # without fsync (README.md explains why).
    "wire_durable_4k": {"kind": "wire", "n": 4, "rate": 4000, "payload": 4096, "durable": True,
                        "fsync": "none", "snapshot_every": 40,
                        "alpha": 100, "tau": 8, "datablock_wait_ms": 100, "proposal_wait_ms": 10},
    # Large-n paths in the seeded simulator; one maker runs the selective
    # attack. Its parameters are constants of perfbench_sim (src/sim_main.cpp).
    "sim_n64_selective": {"kind": "sim"},
}

SETUP_TRIALS = 21       # wire set-up: start-ups timed per run (see time_setup)
EDGE_S = 0.2            # the replicas' memory is sampled at this period
CLIENT_ID = 100
CLIENT_NICE = -10       # scheduling priority of the load generator

# Metric names and units come from BENCHMARK.json at the checkout root. A
# traced run reports every per-layer metric, 0 where the layer does not run
# in that workload (README.md has the layer -> metric -> workload map).
with open(os.path.join(ROOT, "BENCHMARK.json")) as _spec:
    SPEC = json.load(_spec)
E2E_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


class BenchError(Exception):
    """A run that cannot produce a result (build failure, cluster never up)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Build
# ---------------------------------------------------------------------------

def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("run from a source checkout: %s has no CMakeLists.txt/src" % ROOT)
    os.makedirs(CMAKE_DIR, exist_ok=True)
    build_log = os.path.join(BUILD_ROOT, "build.log")
    with open(os.path.join(BUILD_ROOT, "build.lock"), "w") as lock, \
            open(build_log, "a") as out:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", CMAKE_DIR, "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps.append(["cmake", "--build", CMAKE_DIR, "-j", jobs, "--target", "leopard_node",
                      "perfbench_client", "perfbench_sim", "perfbench_layers"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                raise BenchError("build failed: %s (see %s)" % (" ".join(cmd), build_log))


def binary(name):
    # The daemon is built by the parent project, added as subdirectory "leopard".
    sub = "leopard" if name == "leopard_node" else ""
    return os.path.join(CMAKE_DIR, sub, name)


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------

class Procs:
    """Every child the run starts; all are stopped and reaped on exit."""

    def __init__(self):
        self.children = []

    def spawn(self, cmd, stdout_path=None, pipe=False):
        out = subprocess.PIPE if pipe else open(stdout_path, "wb")
        p = subprocess.Popen(cmd, stdout=out, stderr=subprocess.DEVNULL,
                             text=pipe, bufsize=1 if pipe else -1)
        if not pipe:
            out.close()
        self.children.append(p)
        return p

    def stop(self, procs, timeout=5.0):
        for p in procs:
            if p.poll() is None:
                p.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + timeout
        for p in procs:
            try:
                p.wait(max(0.05, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                p.kill()
                p.wait()

    def stop_all(self):
        self.stop(self.children, timeout=2.0)


def free_ports(count):
    """Picks `count` listen ports that nothing holds right now.

    Ports come from 10000-32767, below the kernel's ephemeral range
    (32768-60999), so no outgoing connection of this or another process can
    be holding one; each is test-bound without SO_REUSEADDR, which also
    refuses ports with connections lingering in TIME_WAIT from an earlier
    run. The starting point is random per process, not per seed.
    """
    rng = random.Random(os.getpid() ^ time.monotonic_ns())
    ports = []
    while len(ports) < count:
        port = rng.randrange(10000, 32768)
        if port in ports:
            continue
        s = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            s.bind(("127.0.0.1", port))
            ports.append(port)
        except OSError:
            pass
        finally:
            s.close()
    return ports


def host_ticks():
    """(stolen, total) CPU ticks of every CPU so far, from /proc/stat."""
    with open("/proc/stat") as f:
        ticks = [int(t) for t in f.readline().split()[1:9]]
    return ticks[7], sum(ticks)


def log_steal(start, label):
    """Logs the share of CPU time the hypervisor stole since `start`
    (host_ticks). Wall-clock metrics follow it; CPU times exclude it."""
    stolen, total = (b - a for a, b in zip(start, host_ticks()))
    log("%s: %.1f%% of CPU time stolen by the hypervisor" % (label, 100.0 * stolen / max(1, total)))


def proc_cpu_s(pid):
    """(user, system) CPU seconds of a live process, from /proc/<pid>/stat."""
    with open("/proc/%d/stat" % pid) as f:
        fields = f.read().rsplit(")", 1)[1].split()
    tick = os.sysconf("SC_CLK_TCK")
    return int(fields[11]) / tick, int(fields[12]) / tick


def proc_rss_mb(pid):
    """Resident set (VmRSS) of a live process, in MB."""
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def http_json(port, path="/statusz", timeout=1.0):
    with urllib.request.urlopen("http://127.0.0.1:%d%s" % (port, path), timeout=timeout) as r:
        return json.loads(r.read())


TCP_ESTABLISHED = 0x01
TCP_LISTEN = 0x0A


def tcp_sockets():
    """(local port, remote port, state, receive queue) of every IPv4 TCP
    socket of this network namespace, from /proc/net/tcp."""
    with open("/proc/net/tcp") as f:
        next(f)
        for line in f:
            fields = line.split()
            yield (int(fields[1].rsplit(":", 1)[1], 16), int(fields[2].rsplit(":", 1)[1], 16),
                   int(fields[3], 16), int(fields[4].split(":")[1], 16))


def parse_report(path):
    """key=value pairs of a replica's shutdown report."""
    report = {}
    with open(path) as f:
        for line in f:
            for tok in line.split():
                if "=" in tok:
                    k, v = tok.split("=", 1)
                    report[k] = v
    return report


# ---------------------------------------------------------------------------
# Wire workloads
# ---------------------------------------------------------------------------

class Cluster:
    """One loopback cluster: manifest, replica processes, optional data dirs."""

    def __init__(self, procs, run_dir, tag, w, seed, metrics, one_by_one=False):
        self.procs = procs
        self.dir = os.path.join(run_dir, tag)
        os.makedirs(self.dir)
        self.n = w["n"]
        ports = free_ports(2 * self.n if metrics else self.n)
        self.ports = ports[:self.n]
        self.metrics_ports = ports[self.n:] if metrics else []
        self.manifest = os.path.join(self.dir, "cluster.conf")
        with open(self.manifest, "w") as m:
            m.write("protocol leopard\nn %d\nseed %d\npayload_size %d\n"
                    "datablock_requests %d\nbftblock_links %d\n"
                    "datablock_max_wait_ms %d\nproposal_max_wait_ms %d\n"
                    "view_timeout_ms 60000\n"
                    % (self.n, seed, w["payload"], w["alpha"], w["tau"],
                       w["datablock_wait_ms"], w["proposal_wait_ms"]))
            for i in range(self.n):
                m.write("node %d 127.0.0.1:%d\n" % (i, ports[i]))
        self.replicas = []
        self.reports = []
        self.data_dirs = []
        for i in range(self.n):
            cmd = [binary("leopard_node"), "--manifest", self.manifest, "--id", str(i),
                   "--io-threads", "1"]
            if metrics:
                cmd += ["--metrics-addr", "127.0.0.1:%d" % self.metrics_ports[i]]
            else:
                cmd += ["--trace-sample", "0"]
            if w["durable"]:
                data = os.path.join(self.dir, "data%d" % i)
                self.data_dirs.append(data)
                cmd += ["--data-dir", data, "--fsync", w["fsync"],
                        "--snapshot-every", str(w["snapshot_every"])]
            report = os.path.join(self.dir, "replica%d.out" % i)
            self.reports.append(report)
            self.replicas.append(procs.spawn(cmd, stdout_path=report))
            if one_by_one:
                self.wait_serving(i)

    def wait_serving(self, i):
        """Blocks until replica i listens on its replica port. It opens the
        listener before it dials any lower id, so the next replica's dials
        all meet a listening port."""
        deadline = time.monotonic() + 30
        while not any(l == self.ports[i] and st == TCP_LISTEN for l, _, st, _ in tcp_sockets()):
            if self.replicas[i].poll() is not None or time.monotonic() > deadline:
                raise BenchError("replica %d did not start" % i)
            time.sleep(0.0005)

    def alive(self):
        return all(p.poll() is None for p in self.replicas)

    def mesh_connected(self):
        """Every replica pair has an established TCP connection whose Hello
        the accepting replica has read. Replica j dials every i < j, so
        replica i accepts n-1-i replica connections; an accepted one counts
        once its receive queue is empty and its dialing end is established.
        Read from /proc/net/tcp, so the polling costs the replicas nothing."""
        socks = list(tcp_sockets())
        dialed = {(l, r) for l, r, st, _ in socks if st == TCP_ESTABLISHED}
        for i, port in enumerate(self.ports):
            accepted = sum(1 for l, r, st, rx in socks
                           if l == port and st == TCP_ESTABLISHED and rx == 0
                           and (r, port) in dialed)
            if accepted < self.n - 1 - i:
                return False
        return True

    def shutdown(self):
        """SIGTERM every replica and return their reports."""
        self.procs.stop(self.replicas)
        return [parse_report(r) for r in self.reports]

    def remove_data(self):
        for d in self.data_dirs:
            shutil.rmtree(d, ignore_errors=True)

    def wal_bytes(self):
        total = 0
        for d in self.data_dirs:
            for dirpath, _, files in os.walk(d):
                total += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files)
        return total


def time_setup(procs, run_dir, w, seed, trial):
    """Seconds from spawning the first replica until the mesh is connected
    (Cluster.mesh_connected). Replicas start one after another, each once
    the previous one listens, so no dial meets a port nobody listens on yet
    (that would add a reconnect backoff of 50 ms +-25% at random). The
    replicas run as in the measured cluster, without a metrics endpoint;
    progress is read from /proc/net/tcp."""
    t0 = time.monotonic()
    cluster = Cluster(procs, run_dir, "setup%d" % trial, w, seed, metrics=False,
                      one_by_one=True)
    try:
        while not cluster.mesh_connected():
            if not cluster.alive():
                raise BenchError("a replica exited during start-up")
            if time.monotonic() - t0 > 30:
                raise BenchError("cluster mesh not connected after 30 s")
            time.sleep(0.0005)
        return time.monotonic() - t0
    finally:
        cluster.shutdown()


def fastest_setup_s(procs, run_dir, w, seed):
    """The fastest of SETUP_TRIALS start-ups. Every start-up does the same
    work; on a shared host some are slowed by other tenants (start-up times
    here fall into a fast and a slow group, so a median would depend on
    which group most trials land in), and the fastest is the one that was
    not."""
    return min(time_setup(procs, run_dir, w, seed, trial) for trial in range(SETUP_TRIALS))


class Scraper(threading.Thread):
    """Traced runs: samples each replica's total send-queue depth while the
    window is open (the series is a gauge, so its peak needs sampling)."""

    def __init__(self, ports):
        super().__init__(daemon=True)
        self.ports = ports
        self.stop_event = threading.Event()
        self.max_queue = 0.0

    def run(self):
        while not self.stop_event.wait(0.2):
            for port in self.ports:
                with contextlib.suppress(OSError, ValueError, KeyError):
                    m = http_json(port)["metrics"]
                    self.max_queue = max(self.max_queue, m.get("leopard_net_send_queue_bytes", 0))


def statusz_all(ports):
    return [http_json(port, timeout=5.0) for port in ports]


def run_wire_once(procs, run_dir, tag, w, seed, seconds, traced):
    """One measured cluster: spawn, drive the open-loop client, stop, check."""
    cluster = Cluster(procs, run_dir, tag, w, seed, metrics=traced)
    pids = [p.pid for p in cluster.replicas]
    slices = max(1, round(seconds / EDGE_S))
    samples_path = os.path.join(cluster.dir, "latency.bin")
    client = procs.spawn([binary("perfbench_client"), "--manifest", cluster.manifest,
                          "--id", str(CLIENT_ID), "--rate", str(w["rate"]),
                          "--payload", str(w["payload"]), "--seed", str(seed),
                          "--seconds", str(seconds), "--samples", samples_path,
                          "--slices", str(slices)], pipe=True)
    # The generator's lateness is charged to latency; keep it from queueing
    # behind the replicas for CPU where the system allows it.
    with contextlib.suppress(OSError):
        os.setpriority(os.PRIO_PROCESS, client.pid, CLIENT_NICE)
    cpu = []      # per edge: [(user, sys) per replica]
    rss = []      # per edge: summed resident set of the replicas, MB
    status = {}   # traced: /statusz of every replica at the window's edges
    scraper = Scraper(cluster.metrics_ports) if traced else None
    result = None
    for line in client.stdout:
        line = line.strip()
        if line.startswith("edge "):
            k = int(line.split()[1])
            cpu.append([proc_cpu_s(pid) for pid in pids])
            rss.append(sum(proc_rss_mb(pid) for pid in pids))
            if k == 0:
                steal0 = host_ticks()
            elif k == slices:
                log_steal(steal0, tag)
            if traced and k in (0, slices):
                status["open" if k == 0 else "close"] = statusz_all(cluster.metrics_ports)
                if k == 0:
                    scraper.start()
                else:
                    scraper.stop_event.set()
        elif line.startswith("result "):
            result = json.loads(line[len("result "):])
    client.wait()
    if scraper is not None and scraper.is_alive():
        scraper.stop_event.set()
        scraper.join()
    if result is None or not result["started"] or len(cpu) != slices + 1:
        cluster.shutdown()
        raise BenchError("%s: client did not complete a run (cluster not committing?)" % tag)

    # Followers execute the last blocks a moment after the makers ack them.
    time.sleep(0.5)
    final = statusz_all(cluster.metrics_ports) if traced else None
    reports = cluster.shutdown()

    violations = check_replicas(reports, result, cluster.n)
    log("%s: %d latency samples (one per request due in the window)"
        % (tag, result["window_requests"]))
    if w["durable"]:
        log("%s: WAL appends/snapshots per replica: %s" % (tag, " ".join(
            "%s/%s" % (r.get("store_appends"), r.get("store_snapshots")) for r in reports)))
    # CPU, throughput and latency cover the whole window.
    window_cpu = [(e[0] - b[0], e[1] - b[1]) for b, e in zip(cpu[0], cpu[-1])]
    latency = array.array("q")
    with open(samples_path, "rb") as f:
        latency.frombytes(f.read())
    run = {
        "result": result,
        "violations": violations,
        "latency_ns": latency,
        "cpu_s": sum(u + s for u, s in window_cpu),
        "rss_samples": rss,
    }
    if traced:
        run["layers"] = wire_layers(cluster, w, result, status, final, window_cpu,
                                    scraper.max_queue, max(1, result["window_acks"]))
    cluster.remove_data()
    return run


def nearest_rank(ordered, p):
    """Nearest-rank percentile (p in [0, 1]) of a sorted sequence; 0 when empty."""
    if not ordered:
        return 0
    return ordered[min(len(ordered), max(1, math.ceil(p * len(ordered)))) - 1]


def pooled(runs):
    """End-to-end metrics over the windows of one or more measured clusters:
    latency percentiles over all their samples, acks and CPU summed."""
    latency = sorted(itertools.chain.from_iterable(r["latency_ns"] for r in runs))
    acks = sum(r["result"]["window_acks"] for r in runs)
    seconds = sum(r["result"]["window_seconds"] for r in runs)
    return {
        "result": {k: sum(r["result"][k] for r in runs) for k in ("attempted", "failed")},
        "violations": [v for r in runs for v in r["violations"]],
        "throughput_kreqs": acks / seconds / 1e3,
        "latency_p50_ms": nearest_rank(latency, 0.50) / 1e6,
        "latency_p99_ms": nearest_rank(latency, 0.99) / 1e6,
        "cpu_us_per_req": sum(r["cpu_s"] for r in runs) * 1e6 / max(1, acks),
        # Resident memory across the windows: median of the slice-edge
        # samples (a peak would be one extreme sample, as noisy as the host).
        "rss_mb": statistics.median(itertools.chain.from_iterable(
            r["rss_samples"] for r in runs)),
    }


def wal_clusters(seconds):
    """How many clusters a durable run's window is split over. Each cluster
    has fresh data dirs, removed when it stops, and lives for less than the
    kernel's dirty-page expiry, so no WAL page is written back to the disk
    that holds the checkout while replicas append: in runs with one 30 s
    cluster, the write-back of the first expired pages stalled every
    replica's event loop for 0.5-1 s in the last second of the window (3
    runs in 4)."""
    try:
        with open("/proc/sys/vm/dirty_expire_centisecs") as f:
            expire_s = int(f.read()) / 100.0
    except (OSError, ValueError):
        expire_s = 30.0
    # Leave room for the client's probes and warm-up and for the drain.
    return max(1, math.ceil(seconds / max(5.0, expire_s - 10.0)))


def check_replicas(reports, result, n):
    """Correctness of one wire run, from the replicas' shutdown reports.

    All replicas must report the same Leopard state digest at the same
    executed sequence number. A replica may legitimately skip a range of
    its Execute stream by adopting a stable checkpoint (chaos/oracles.hpp
    states the same rule), which leaves its exec_digest behind; so
    exec_digest equality is required of the replicas that executed the
    whole stream. No replica may execute a request the stream does not
    contain, and every acked request must have been executed.
    """
    violations = []
    if len(reports) != n or any("exec_digest" not in r for r in reports):
        return ["a replica exited without a report"]
    state = {(r.get("state_digest"), r.get("executed_through")) for r in reports}
    if len(state) != 1:
        violations.append("replicas disagree on the state digest: %s" % sorted(map(str, state)))
    whole = max(int(r["executed_blocks"]) for r in reports)
    full = [r for r in reports if int(r["executed_blocks"]) == whole]
    skipped = n - len(full)
    if skipped:
        log("perfbench: %d replica(s) skipped part of the stream via checkpoint adoption"
            % skipped)
    if len({r["exec_digest"] for r in full}) != 1:
        violations.append("replicas with the whole stream disagree on exec_digest: %s"
                          % sorted({r["exec_digest"] for r in full}))
    committed = int(full[0]["executed_requests"])
    probes = n - 1
    if any(int(r["executed_requests"]) > committed for r in reports):
        violations.append("a replica executed requests beyond the committed stream")
    if committed < result["acked"] + probes:
        violations.append("acked requests missing from the executed stream")
    if committed > result["attempted"] + result["resubmits"] + probes:
        violations.append("the stream executed requests that were never submitted")
    if result["unknown_acks"] != 0:
        violations.append("acks for requests never sent")
    if result["acked"] + result["failed"] != result["attempted"]:
        violations.append("acked + failed != attempted")
    for r in reports:
        if r.get("sync_live") != "1":
            violations.append("replica %s never went live" % r.get("id"))
        for key in ("decode_errors", "sync_verify_failures", "store_append_errors",
                    "store_fsync_errors"):
            if int(r.get(key, "0")) != 0:
                violations.append("replica %s reports %s=%s" % (r.get("id"), key, r[key]))
    return violations


def counter_delta(status, name):
    """Cluster-wide window delta of a counter (or histogram count)."""
    def total(snapshots):
        s = 0.0
        for snap in snapshots:
            v = snap["metrics"].get(name, 0)
            s += v["count"] if isinstance(v, dict) else v
        return s
    return total(status["close"]) - total(status["open"])


def hist_p(final, name, p):
    """Median over replicas of a histogram percentile (whole traced run)."""
    vals = [s["metrics"][name][p] for s in final
            if name in s["metrics"] and s["metrics"][name]["count"] > 0]
    return statistics.median(vals) if vals else 0.0


def wire_layers(cluster, w, result, status, final, window_cpu, max_queue, reqs):
    leader = 1  # view 1's leader
    total_cpu = sum(u + s for u, s in window_cpu)
    frames = counter_delta(status, "leopard_net_frames_sent_total")
    blocks = status["close"][0]["executed_blocks"] - status["open"][0]["executed_blocks"]
    executed = status["close"][0]["executed_requests"] - status["open"][0]["executed_requests"]
    stage = 'leopard_request_stage_ns{stage="%s"}'
    layers = {
        "proc.user_cpu_us_per_req": sum(u for u, _ in window_cpu) * 1e6 / reqs,
        "proc.sys_cpu_us_per_req": sum(s for _, s in window_cpu) * 1e6 / reqs,
        "proc.leader_cpu_share": sum(window_cpu[leader]) / total_cpu if total_cpu else 0.0,
        "net.frames_sent_per_req": frames / reqs,
        "net.bytes_sent_per_req": counter_delta(status, "leopard_net_bytes_sent_total") / reqs,
        "net.sendmsg_per_req": counter_delta(status, "leopard_net_writev_calls_total") / reqs,
        "net.payload_copies_per_req":
            counter_delta(status, "leopard_net_payload_copies_total") / reqs,
        "net.shared_frame_ratio":
            counter_delta(status, "leopard_net_frames_shared_total") / frames if frames else 0.0,
        "net.send_queue_bytes_max": max_queue,
        "core.requests_per_datablock": executed / blocks if blocks else 0.0,
        "client.gen_lag_ms_p99": result["gen_lag_p99_ns"] / 1e6,
        "client.resubmits_per_req": result["resubmits"] / max(1, result["attempted"]),
        "store.wal_append_us_p50": hist_p(final, "leopard_wal_append_ns", "p50") / 1e3,
        "store.wal_fsync_us_p50": hist_p(final, "leopard_wal_fsync_ns", "p50") / 1e3,
        "store.fsyncs_per_req": counter_delta(status, "leopard_wal_fsync_ns") / reqs,
        "erasure.datablocks_recovered":
            counter_delta(status, "leopard_datablocks_recovered_total"),
    }
    for name in ("generation", "dissemination", "agreement"):
        for p in ("p50", "p99"):
            layers["core.%s_ms_%s" % (name, p)] = hist_p(final, stage % name, p) / 1e6
    layers["store.wal_bytes_per_req"] = (
        cluster.wal_bytes() / max(1, final[0]["executed_requests"]) if w["durable"] else 0.0)
    return layers


def run_wire(procs, run_dir, w, seed, seconds, trace):
    setup_s = fastest_setup_s(procs, run_dir, w, seed)
    if not trace:
        n = wal_clusters(seconds) if w["durable"] else 1
        run = pooled([run_wire_once(procs, run_dir, "measured%d" % i, w, seed, seconds / n,
                                    traced=False) for i in range(n)])
        run["setup_s"] = setup_s
        return run
    # Untraced and traced clusters back to back, half the window each.
    half = max(1.0, seconds / 2.0)
    plain = pooled([run_wire_once(procs, run_dir, "untraced", w, seed, half, traced=False)])
    traced_once = run_wire_once(procs, run_dir, "traced", w, seed, half, traced=True)
    traced = pooled([traced_once])
    traced["layers"] = traced_once["layers"]
    traced["violations"] += plain["violations"]
    traced["plain_cpu_us_per_req"] = plain["cpu_us_per_req"]
    traced["setup_s"] = setup_s
    return traced


# ---------------------------------------------------------------------------
# Sim workload
# ---------------------------------------------------------------------------

def run_sim(procs, seed, seconds, trace):
    cmd = [binary("perfbench_sim"), "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    steal0 = host_ticks()
    p = procs.spawn(cmd, pipe=True)
    out, _ = p.communicate()
    log_steal(steal0, "sim")
    lines = [l for l in out.splitlines() if l.startswith("result ")]
    if not lines:
        raise BenchError("perfbench_sim produced no result (exit %d)" % p.returncode)
    r = json.loads(lines[-1][len("result "):])
    run = {k: r[k] for k in E2E_UNITS}
    run["violations"] = [] if r["correct"] else [r["violation"]]
    run["result"] = {"attempted": r["attempted"], "failed": r["failed"]}
    run["sizes"] = {k: r[k] for k in ("n", "payload", "alpha")}
    log("sim: %d repetitions, %d latency samples, %d resubmits"
        % (r["repetitions"], r["latency_samples"], r["resubmits"]))
    if trace:
        run["layers"] = {k: v for k, v in r.items() if k in LAYER_UNITS}
        run["layers"]["client.resubmits_per_req"] = r["resubmits"] / max(1, r["attempted"])
        run["plain_cpu_us_per_req"] = r["cpu_us_per_req"]
        run["cpu_us_per_req"] = r["traced_cpu_us_per_req"]
    return run


# ---------------------------------------------------------------------------
# Per-layer kernel timings (both kinds of workload)
# ---------------------------------------------------------------------------

def kernel_layers(procs, sizes, seed, requests_per_datablock):
    """Kernel timings at the datablock size the traced run measured."""
    alpha = max(1, round(requests_per_datablock)) if requests_per_datablock else sizes["alpha"]
    cmd = [binary("perfbench_layers"), "--n", str(sizes["n"]), "--alpha", str(alpha),
           "--payload", str(sizes["payload"]), "--seed", str(seed)]
    p = procs.spawn(cmd, pipe=True)
    out, _ = p.communicate()
    lines = [l for l in out.splitlines() if l.startswith("result ")]
    if not lines:
        raise BenchError("perfbench_layers produced no result (exit %d)" % p.returncode)
    return json.loads(lines[-1][len("result "):])


# ---------------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    w = WORKLOADS[args.workload]

    # SIGTERM (a timeout) or Ctrl-C still stops every child (finally below).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    procs = Procs()
    run_dir = None
    try:
        build()
        os.makedirs(RUNS_DIR, exist_ok=True)
        run_dir = os.path.join(RUNS_DIR, "%s-%d-%d" % (args.workload, os.getpid(),
                                                       time.monotonic_ns()))
        os.makedirs(run_dir)
        if w["kind"] == "wire":
            run = run_wire(procs, run_dir, w, args.seed, args.seconds, bool(args.trace))
        else:
            run = run_sim(procs, args.seed, args.seconds, bool(args.trace))
        if args.trace:
            layers = {k: 0.0 for k in LAYER_UNITS}
            layers.update(run["layers"])
            sizes = run.get("sizes", w)
            kernels = kernel_layers(procs, sizes, args.seed, layers["core.requests_per_datablock"])
            layers.update({k: v for k, v in kernels.items() if k in LAYER_UNITS})
            if not kernels["correct"]:
                run["violations"].append("kernel round trips (erasure, wire codec) failed")
            layers["trace_overhead_pct"] = 100.0 * (
                run["cpu_us_per_req"] / run["plain_cpu_us_per_req"] - 1.0)
            metrics = {k: {"value": layers[k], "unit": u} for k, u in LAYER_UNITS.items()}
        else:
            metrics = {k: {"value": run[k], "unit": u} for k, u in E2E_UNITS.items()}
    except BenchError as e:
        log("perfbench: %s" % e)
        return 1
    finally:
        procs.stop_all()
        if run_dir is not None:
            shutil.rmtree(run_dir, ignore_errors=True)

    for v in run["violations"]:
        log("perfbench: correctness violation: %s" % v)
    correct = not run["violations"]
    print(json.dumps({"correct": correct,
                      "attempted": int(run["result"]["attempted"]),
                      "failed": int(run["result"]["failed"]),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
