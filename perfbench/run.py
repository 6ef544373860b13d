#!/usr/bin/env python3
"""perfbench: the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-3000 --seed 1 --seconds 15 --trace 0

Builds bin/mbpta_cli.exe and perfbench/probe.exe with dune, runs one
seeded workload against the built CLI, checks its outputs, and prints one
JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
repeats a shorter pass of the workload untraced and traced (the
difference is trace.overhead_ms) and then runs the in-process layer probes
(perfbench/probe.ml), reporting the per-layer metrics.  Spans, the host
fingerprint and the full result are written under .perfbench/results/.
"""

import argparse
import atexit
import hashlib
import json
import os
import random
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

CLI = os.path.join("_build", "default", "bin", "mbpta_cli.exe")
PROBE = os.path.join("_build", "default", "perfbench", "probe.exe")
WORK = ".perfbench"
RUNS = 3000
CUTOFFS = [10.0 ** -k for k in range(3, 16)]
FAULT_FLAGS = ["--seu-rate", "40", "--watchdog-budget", "2000000", "--max-retries", "3"]
SETUP_REPS = 5

# Which end-to-end metric and workload each per-layer metric should move.
LAYER_TAGS = {
    "tvca.create": "setup_s; cpu_ms_per_op (analyze_s) on paper-3000",
    "tvca.mission": "cpu_ms_per_op (runs_per_s) on paper-3000",
    "rng.": "cpu_ms_per_op (runs_per_s) on paper-3000; negligible",
    "experiment.run_us": "cpu_ms_per_op (runs_per_s, sim_minstr_per_s) on paper-3000",
    "experiment.run_faulty": "cpu_ms_per_op (shard_campaign_s) on faulty-shards",
    "sim.host_ns": "cpu_ms_per_op (sim_minstr_per_s) on paper-3000",
    "sim.": "none: simulated count, must repeat exactly",
    "platform.": "none: simulated count, must repeat exactly",
    "gc.minor_words_per_run": "cpu_ms_per_op (runs_per_s) on paper-3000",
    "gc.minor_words_per_query": "cpu_ms_per_op (query_p50_ms) on warm-query",
    "parallel.": "analyze_s on paper-3000 (wall only: idle domains cost no CPU)",
    "store.decode": "cpu_ms_per_op (query_p50_ms) on warm-query",
    "store.warm": "cpu_ms_per_op (query_p50_ms) on warm-query",
    "store.bytes": "cpu_ms_per_op (query_p50_ms) on warm-query",
    "store.": "cpu_ms_per_op (shard_campaign_s) on faulty-shards",
    "fault.": "cpu_ms_per_op (runs_per_s) on faulty-shards",
    "iid.": "cpu_ms_per_op (query_p50_ms, queries_per_s) on warm-query",
    "evt.": "cpu_ms_per_op (query_p50_ms, queries_per_s) on warm-query",
    "serve.same_key": "none yet: warm-query keeps its connections on disjoint keys "
                      "until this reads 0",
    "serve.": "query_p99_ms on warm-query",
    "trace.": "every metric of this workload",
}

LIVE = set()  # child processes not yet reaped


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def stop_children():
    """Kill every unreaped child together with its own children (each child
    leads a process group, so shard workers go with their coordinator)."""
    for p in list(LIVE):
        try:
            os.killpg(p.pid, signal.SIGKILL)
        except OSError:
            pass
        try:
            os.waitpid(p.pid, 0)
        except ChildProcessError:
            pass
        LIVE.discard(p)


def on_signal(signum, _frame):
    stop_children()
    sys.exit(128 + signum)


class Op:
    """One operation: wall time, CPU time and peak RSS of its processes."""

    def __init__(self, wall_s, cpu_s, rss_kb, threads=0):
        self.wall_s = wall_s
        self.cpu_s = cpu_s
        self.rss_kb = rss_kb
        self.threads = threads
        self.rc = 0


def spawn(argv, stdout=None, stderr=None):
    p = subprocess.Popen(
        argv,
        stdin=subprocess.DEVNULL,
        stdout=stdout if stdout is not None else subprocess.DEVNULL,
        stderr=stderr if stderr is not None else subprocess.DEVNULL,
        start_new_session=True,
    )
    LIVE.add(p)
    return p


def reap(p):
    """Wait for [p]; returns its exit code and its rusage, which wait4
    reports for it together with the descendants it reaped (the workers a
    coordinator spawned, for instance)."""
    _, status, ru = os.wait4(p.pid, 0)
    p.returncode = os.waitstatus_to_exitcode(status)
    LIVE.discard(p)
    return p.returncode, ru


def proc_cpu_s(pid):
    """CPU time (user + system) a live process has used so far."""
    with open("/proc/%d/stat" % pid) as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def steal_ticks():
    """(stolen, total) CPU ticks of the whole machine, from /proc/stat."""
    with open("/proc/stat") as f:
        v = [int(x) for x in f.readline().split()[1:]]
    return v[7], sum(v[:8])


def run(argv, out_path=None, err_path=None, watch_threads=False):
    """Run a program to completion.  With [watch_threads], a side thread
    samples /proc/<pid>/status for the peak thread count (each OCaml
    domain is one thread), which tells whether domains really spawned."""
    out = open(out_path, "wb") if out_path else None
    err = open(err_path, "ab") if err_path else None
    try:
        t0 = time.perf_counter()
        p = spawn(argv, out, err)
        peak = [0]
        watcher = None
        if watch_threads:
            def watch():
                path = "/proc/%d/status" % p.pid
                while p.returncode is None:
                    try:
                        with open(path) as f:
                            for line in f:
                                if line.startswith("Threads:"):
                                    peak[0] = max(peak[0], int(line.split()[1]))
                    except (OSError, ValueError):
                        return
                    time.sleep(0.05)
            watcher = threading.Thread(target=watch, daemon=True)
            watcher.start()
        rc, ru = reap(p)
        wall = time.perf_counter() - t0
        if watcher:
            watcher.join()
        op = Op(wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss, peak[0])
        op.rc = rc
        return op
    finally:
        for f in (out, err):
            if f:
                f.close()


def sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def read_bytes(path):
    with open(path, "rb") as f:
        return f.read()


def p99(samples):
    """The 99th percentile; with at least 1,000 samples, ten lie beyond it."""
    return sorted(samples)[int(0.99 * len(samples)) - 1]


class Ctx:
    def __init__(self, args, work):
        self.args = args
        self.work = work
        self.rng = random.Random("%s:%d" % (args.workload, args.seed))
        self.nproc = len(os.sched_getaffinity(0))
        self.attempted = 0
        self.failed = 0
        self.wrong = 0  # failed output checks
        self.notes = []  # human-readable result lines
        self.host = {}
        self.spans = []
        self.span_seq = 0
        self.span_lock = threading.Lock()
        self.overhead_ms = 0.0

    def op(self, ok, what=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if what:
                log("perfbench: failed: " + what)

    def check(self, ok, what):
        """An output check: one attempted operation, failed if it does not hold."""
        self.op(ok, "check " + what)
        if not ok:
            self.wrong += 1

    def new_span_id(self):
        with self.span_lock:
            self.span_seq += 1
            return self.span_seq

    def span(self, name, t0, t1, parent=0, sid=None):
        """Record a closed span; times are perf_counter seconds (the
        monotonic clock the probe's spans also use)."""
        sid = sid or self.new_span_id()
        with self.span_lock:
            self.spans.append({"id": sid, "name": name, "parent": parent,
                               "start_ns": int(t0 * 1e9), "end_ns": int(t1 * 1e9)})
        return sid

    def steal(self, since):
        """Note the share of the machine's CPU time the hypervisor stole
        since [since]: wall-clock figures above a few percent are inflated."""
        s1, t1 = steal_ticks()
        share = (s1 - since[0]) / max(t1 - since[1], 1)
        self.host["steal_share_timed"] = share
        self.note("host_steal_share", share, "ratio",
                  "of all CPU time during the timed part (wall figures include it)")

    def calibrate(self):
        """CPU seconds of the probe's fixed kernel, which tracks how fast
        the host runs right now; kept beside the result."""
        out = subprocess.run([PROBE, "calibrate"], capture_output=True, check=True)
        self.host.setdefault("calibration_cpu_s", []).append(float(out.stdout))

    def traced(self, name, f):
        """Run f(parent_id) under a root span called [name]."""
        sid = self.new_span_id()
        t0 = time.perf_counter()
        v = f(sid)
        self.span(name, t0, time.perf_counter(), sid=sid)
        return v

    def path(self, *parts):
        return os.path.join(self.work, *parts)

    def note(self, name, value, unit, detail=""):
        self.notes.append("  %-22s %14.6g %-6s %s" % (name, value, unit, detail))


# --------------------------------------------------------------------------
# paper-3000: the paper's protocol, cold, at nproc jobs


def paper_argv(ctx, seed, runs, jobs):
    return [CLI, "analyze", "--runs", str(runs), "--no-gates", "--seed", str(seed),
            "--jobs", str(jobs)]


def paper(ctx, mode):
    seed = ctx.rng.randrange(1, 2 ** 31)
    setups = []
    for _ in range(SETUP_REPS):
        op = run(paper_argv(ctx, seed, 128, 1), err_path=ctx.path("cli.log"))
        ctx.op(op.rc == 0, "setup analyze")
        setups.append(op.cpu_s)

    def one(k, parent=None):
        out = ctx.path("report-%d.txt" % k)
        t0 = time.perf_counter()
        op = run(paper_argv(ctx, seed, RUNS, ctx.nproc), out, ctx.path("cli.log"),
                 watch_threads=True)
        if parent is not None:
            ctx.span("cli.analyze", t0, time.perf_counter(), parent)
        ctx.op(op.rc == 0, "analyze exit %d" % op.rc)
        op.digest = sha256(out)
        return op

    timed, ops = measure_loop(ctx, mode, one)
    # Output check: the report at nproc jobs equals the jobs-1 report for the
    # same seed.  The reference also records the simulator's counters, whose
    # instruction total is deterministic, and gives the gated CPU time: with
    # several domains, CPU time includes the spinning of domains waiting for
    # a stalled peer, which grows with the host's steal.
    ref = ctx.path("report-jobs1.txt")
    trace = ctx.path("jobs1.jsonl")
    ctx.calibrate()
    op = run(paper_argv(ctx, seed, RUNS, 1) + ["--trace", trace, "--trace-level", "summary"],
             ref, ctx.path("cli.log"), watch_threads=True)
    jobs1_threads = op.threads
    ctx.calibrate()
    ctx.op(op.rc == 0, "reference analyze exit %d" % op.rc)
    ref_digest = sha256(ref)
    for o in ops:
        ctx.check(o.digest == ref_digest, "report at %d jobs equals the jobs-1 report"
                  % ctx.nproc)
    instructions = 0
    with open(trace) as f:
        for line in f:
            ev = json.loads(line)
            if ev.get("kind") == "counter" and ev.get("name", "").endswith(".instructions"):
                instructions += ev["value"]
    # Each OCaml domain runs on its own threads, so a jobs-N analyze that
    # peaks above the jobs-1 reference's thread count really spawned domains.
    extra = max(o.threads for o in ops) - jobs1_threads
    ctx.host["analyze_domains_spawned"] = extra > 0
    ctx.host["analyze_extra_threads_vs_jobs1"] = extra
    wall = statistics.median(o.wall_s for o in timed)
    ctx.note("analyze_s", wall, "s", "median of %d cold analyze runs" % len(timed))
    ctx.note("analyze_s.jobs1", op.wall_s, "s", "the jobs-1 reference")
    ctx.note("analyze_cpu_s", statistics.median(o.cpu_s for o in timed), "s",
             "at %d jobs, spinning domains included" % ctx.nproc)
    ctx.note("runs_per_s", 2 * RUNS / wall, "1/s", "DET+RAND runs per host second")
    ctx.note("sim_minstr_per_s", instructions / wall / 1e6, "Minstr/s",
             "simulated instructions (%d, deterministic) per host second" % instructions)
    return e2e(ctx, setups, op.cpu_s, ops + [op], work_per_op=2 * RUNS)


# --------------------------------------------------------------------------
# faulty-shards: sharded, fault-injected collection, merge, verify, resume


def faulty_argv(seed, runs, extra):
    return [CLI, "analyze", "--runs", str(runs), "--no-gates", "--seed", str(seed)] + \
        FAULT_FLAGS + extra


def only_record(d):
    recs = sorted(f for f in os.listdir(d) if f.endswith(".jsonl"))
    return os.path.join(d, recs[0]) if len(recs) == 1 else None


def faulty(ctx, mode):
    seed = ctx.rng.randrange(1, 2 ** 31)
    log_path = ctx.path("cli.log")
    setups = []
    for k in range(SETUP_REPS):
        op = run(faulty_argv(seed, 128, ["--jobs", "1"]), err_path=log_path)
        ctx.op(op.rc == 0, "setup analyze")
        setups.append(op.cpu_s)

    def one(k, parent=None):
        d = ctx.path("op%d" % k)
        shards, merged = os.path.join(d, "D"), os.path.join(d, "M")
        steps = [
            ("cli.analyze.workers", faulty_argv(seed, RUNS, [
                "--workers", "2", "--jobs", "1", "--cache-dir", shards]),
             os.path.join(d, "sharded.txt")),
            ("cli.cache.merge", [CLI, "cache", "merge", os.path.join(shards, "shard-1-of-2"),
                                 os.path.join(shards, "shard-2-of-2"), merged],
             os.path.join(d, "merge.txt")),
            ("cli.cache.verify", [CLI, "cache", "verify", merged],
             os.path.join(d, "verify.txt")),
            ("cli.analyze.resume", faulty_argv(seed, RUNS, [
                "--jobs", str(ctx.nproc), "--cache-dir", merged, "--resume"]),
             os.path.join(d, "resumed.txt")),
        ]
        os.makedirs(d)
        t0 = time.perf_counter()
        cpu = rss = 0
        for name, argv, out in steps:
            s0 = time.perf_counter()
            op = run(argv, out, log_path)
            if parent is not None:
                ctx.span(name, s0, time.perf_counter(), parent)
            ctx.op(op.rc == 0, "%s exit %d" % (name, op.rc))
            cpu += op.cpu_s
            rss = max(rss, op.rss_kb)
        wall = time.perf_counter() - t0
        verify = read_bytes(os.path.join(d, "verify.txt")).decode()
        ctx.check(" complete" in verify and " 0 corrupt" in verify, "cache verify")
        o = Op(wall, cpu, rss)
        o.dir = d
        return o

    timed, ops = measure_loop(ctx, mode, one)
    # Output check: the single-process campaign writes the same record and
    # the same report as the sharded one, its merge and its resume.
    ref_dir = ctx.path("single")
    op = run(faulty_argv(seed, RUNS, ["--jobs", str(ctx.nproc), "--cache-dir", ref_dir]),
             ctx.path("single.txt"), log_path)
    ctx.op(op.rc == 0, "single-process analyze exit %d" % op.rc)
    ref_report = read_bytes(ctx.path("single.txt"))
    ref_record = only_record(ref_dir)
    ref_bytes = read_bytes(ref_record) if ref_record else None
    for o in ops:
        ctx.check(read_bytes(os.path.join(o.dir, "sharded.txt")) == ref_report,
                  "sharded report equals the single-process report")
        ctx.check(read_bytes(os.path.join(o.dir, "resumed.txt")) == ref_report,
                  "resumed report equals the single-process report")
        rec = only_record(os.path.join(o.dir, "M"))
        ctx.check(rec is not None and read_bytes(rec) == ref_bytes,
                  "merged record equals the single-process record")
        shutil.rmtree(o.dir, ignore_errors=True)
    retries = dropped = 0
    for m in re.finditer(rb"fault/retry summary: .*?(\d+) dropped, (\d+) retries spent",
                         ref_report):
        dropped += int(m.group(1))
        retries += int(m.group(2))
    wall = statistics.median(o.wall_s for o in timed)
    ctx.note("shard_campaign_s", wall, "s",
             "median of %d: 2 workers + merge + verify + resume" % len(timed))
    ctx.note("runs_per_s", 2 * RUNS / wall, "1/s", "DET+RAND runs per host second")
    ctx.note("store_bytes_per_run", os.path.getsize(ref_record) / RUNS if ref_record else 0,
             "B", "resilient record with attempt trails")
    ctx.note("fault_retries", retries, "count", "from the report (deterministic)")
    ctx.note("fault_dropped", dropped, "count", "from the report (deterministic)")
    return e2e(ctx, setups, statistics.median(o.cpu_s for o in timed), timed,
               work_per_op=2 * RUNS)


# --------------------------------------------------------------------------
# warm-query: a store of synthetic records behind `mbpta serve`


def warm_plan(ctx):
    small = [{"seed": ctx.rng.randrange(1, 2 ** 30), "runs": RUNS} for _ in range(8)]
    large = [{"seed": ctx.rng.randrange(1, 2 ** 30), "runs": 100_000} for _ in range(2)]
    # Skewed popularity over the 3,000-run keys: Zipf, exponent 1.1.
    weights = [1.0 / (r + 1) ** 1.1 for r in range(len(small))]
    return {"records": small + large, "cutoffs": CUTOFFS}, weights


def request(sock_path, line):
    s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        s.connect(sock_path)
        s.sendall(line.encode() + b"\n")
        buf = b""
        while True:
            chunk = s.recv(65536)
            if not chunk:
                break
            buf += chunk
    finally:
        s.close()
    return json.loads(buf.decode().strip().splitlines()[-1])


def start_daemon(ctx, store, sock_path):
    with open(ctx.path("serve.log"), "ab") as err:
        p = spawn([CLI, "serve", "--socket", sock_path, "--cache-dir", store, "--jobs",
                   str(ctx.nproc)], stderr=err)
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        try:
            if request(sock_path, json.dumps({"req": "status"}))["resp"] == "status":
                return p
        except (OSError, ValueError, IndexError):
            time.sleep(0.005)
    raise RuntimeError("mbpta serve did not come up")


def stop_daemon(ctx, p, sock_path):
    try:
        request(sock_path, json.dumps({"req": "shutdown"}))
    except (OSError, ValueError, IndexError):
        p.terminate()
    rc, ru = reap(p)
    ctx.op(rc == 0, "serve exit %d" % rc)
    return ru.ru_maxrss


def warm(ctx, mode):
    plan, weights = warm_plan(ctx)
    plan_path = ctx.path("plan.json")
    with open(plan_path, "w") as f:
        json.dump(plan, f)
    # Set-up builds SETUP_REPS identical stores, each behind its own
    # daemon; the timed part then gives each daemon an equal share of the
    # time, so peak RSS is a median over daemon lifetimes, not one max.
    setups = []
    daemons = []
    for k in range(SETUP_REPS):
        store = ctx.path("store%d" % k)
        op = run([PROBE, "mkstore", plan_path, store, ctx.path("requests.json")],
                 err_path=ctx.path("probe.log"))
        if op.rc != 0:
            raise RuntimeError("probe mkstore failed")
        sock_path = ctx.path("serve%d.sock" % k)
        daemon = start_daemon(ctx, store, sock_path)
        setups.append(op.cpu_s + proc_cpu_s(daemon.pid))
        daemons.append((daemon, sock_path))
    with open(ctx.path("requests.json")) as f:
        records = json.load(f)["records"]
    # Each connection owns half of the keys: 4 of the 3,000-run records
    # (alternate Zipf ranks) and one 10^5-run record.  The daemon cannot
    # yet answer two warm reads of one key at the same moment (the second
    # gets Miss, see README "Findings"; the probe's serve.same_key_misses
    # counts it), so connections that shared keys would measure that
    # defect instead of the read path.  Each connection's stream is drawn
    # up front in blocks of 40 with a fixed shape, so every seed sends the
    # same mix: one request to its 10^5-run record, 4 iid queries and 35
    # other pwcet queries; 3,000-run keys follow the Zipf popularity,
    # cutoffs are uniform.
    n_small = len(records) - 2
    streams = []
    for c in range(2):
        own = list(range(c, n_small, 2))
        own_weights = weights[c::2]
        stream = []
        for _ in range(2500):
            for pos in range(40):
                r = n_small + c if pos == 0 else ctx.rng.choices(own, own_weights)[0]
                if pos % 10 == 5:
                    stream.append((r, None, records[r]["iid"]))
                else:
                    cut = ctx.rng.randrange(len(CUTOFFS))
                    stream.append((r, cut, records[r]["pwcet"][cut]))
        streams.append(stream)
    pos = [0, 0]
    lock = threading.Lock()
    answers = []

    def batch(daemon, sock_path, parent=None, seconds=None, min_answered=0,
              max_requests=None):
        """Two closed-loop connections to one daemon, each on its own
        stream: until [seconds] have passed and [min_answered] queries
        were answered, or until [max_requests] more requests were sent in
        all."""
        lat = []
        count = {"sent": 0, "missed": 0, "inflight": 0}
        cpu0 = proc_cpu_s(daemon.pid)
        t_start = time.perf_counter()

        def client(c):
            stream = streams[c]
            while True:
                with lock:
                    if max_requests is not None:
                        done = count["sent"] + count["inflight"] >= max_requests
                    else:
                        done = (time.perf_counter() - t_start >= seconds
                                and len(lat) >= min_answered)
                    if done or pos[c] >= len(stream):
                        return
                    r, cut, line = stream[pos[c]]
                    pos[c] += 1
                    count["inflight"] += 1
                t0 = time.perf_counter()
                try:
                    resp = request(sock_path, line)
                except (OSError, ValueError, IndexError):
                    resp = {"resp": "error"}
                t1 = time.perf_counter()
                if parent is not None:
                    ctx.span("serve.query", t0, t1, parent)
                with lock:
                    count["inflight"] -= 1
                    count["sent"] += 1
                    ctx.op(resp.get("resp") == "answer")
                    if resp.get("resp") == "answer":
                        lat.append((t1 - t0) * 1e3)
                        answers.append((r, cut, resp["value"]))
                    else:
                        count["missed"] += 1
                        if count["missed"] <= 3:
                            log("perfbench: query not answered: %s" % json.dumps(resp)[:300])

        threads = [threading.Thread(target=client, args=(c,)) for c in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        o = Op(time.perf_counter() - t_start, proc_cpu_s(daemon.pid) - cpu0, 0)
        o.lat = lat
        o.sent, o.missed = count["sent"], count["missed"]
        return o

    counters = {}
    rss = []

    def finish(daemon, sock_path):
        status = request(sock_path, json.dumps({"req": "status"}))
        for name, v in status.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + v
        rss.append(stop_daemon(ctx, daemon, sock_path))

    if mode == 0:
        ctx.calibrate()
        steal0 = steal_ticks()
        parts = []
        for daemon, sock_path in daemons:
            parts.append(batch(daemon, sock_path, seconds=ctx.args.seconds / len(daemons),
                               min_answered=1000 // len(daemons)))
            finish(daemon, sock_path)
        ctx.steal(steal0)
        ctx.calibrate()
        timed = Op(sum(o.wall_s for o in parts), sum(o.cpu_s for o in parts), 0)
        timed.lat = [x for o in parts for x in o.lat]
        timed.sent = sum(o.sent for o in parts)
        timed.missed = sum(o.missed for o in parts)
    else:
        for daemon, sock_path in daemons[:-1]:
            finish(daemon, sock_path)
        daemon, sock_path = daemons[-1]
        timed = batch(daemon, sock_path, max_requests=300)
        traced = ctx.traced("warm-query", lambda sid: batch(daemon, sock_path, parent=sid,
                                                            max_requests=300))
        ctx.overhead_ms = statistics.median(traced.lat) - statistics.median(timed.lat)
        finish(daemon, sock_path)
    # Output checks: every answer equals the in-process estimate on the same
    # record, and no daemon simulated anything.
    ref_path = ctx.path("reference.json")
    op = run([PROBE, "reference", plan_path, ctx.path("store%d" % (SETUP_REPS - 1)), ref_path],
             err_path=ctx.path("probe.log"))
    if op.rc != 0:
        raise RuntimeError("probe reference failed")
    with open(ref_path) as f:
        ref = json.load(f)["records"]
    bad = [a for a in answers
           if a[2] != (ref[a[0]]["iid"] if a[1] is None else ref[a[0]]["pwcet"][a[1]])]
    ctx.check(not bad, "%d of %d answers differ from the in-process estimate"
              % (len(bad), len(answers)))
    ctx.check(counters.get("cache.runs_simulated", 0) == 0, "the daemons simulated no run")
    lat = timed.lat
    ctx.note("query_p50_ms", statistics.median(lat), "ms", "%d answered" % len(lat))
    if len(lat) >= 1000:
        ctx.note("query_p99_ms", p99(lat), "ms")
    ctx.note("queries_per_s", len(lat) / timed.wall_s, "1/s", "answered, 2 connections")
    ctx.note("queries_not_answered", timed.missed, "count",
             "of %d sent (Miss/Rejected/Failed responses)" % timed.sent)
    for name in ("serve.rejected_overload", "serve.rejected_clients", "serve.dedup_coalesced",
                 "cache.runs_simulated"):
        ctx.note(name, counters.get(name, 0), "count", "daemon Status counters, summed")
    return {
        "setup_s": statistics.median(setups),
        "cpu_ms_per_op": 1e3 * timed.cpu_s / len(lat),
        "peak_rss_mb": statistics.median(rss) / 1024.0,
    }


# --------------------------------------------------------------------------
# Shared measurement loop and end-to-end summary


def measure_loop(ctx, mode, one):
    """Returns (timed operations, all operations).  Trace 0: repeat [one]
    within --seconds: at least once, and again only while the previous
    operation would still fit in the budget, so a run's length does not
    depend on how far the last operation overshoots.  Trace 1: one
    operation untraced, then one traced with spans."""
    if mode == 0:
        ops = []
        if ctx.args.workload == "faulty-shards":
            ctx.calibrate()
        steal0 = steal_ticks()
        t0 = time.perf_counter()
        while not ops or time.perf_counter() - t0 + ops[-1].wall_s <= ctx.args.seconds:
            ops.append(one(len(ops)))
        ctx.steal(steal0)
        if ctx.args.workload == "faulty-shards":
            ctx.calibrate()
        return ops, ops
    untraced = one(0)
    traced = ctx.traced(ctx.args.workload, lambda sid: one(1, parent=sid))
    ctx.overhead_ms = 1e3 * (traced.wall_s - untraced.wall_s)
    return [untraced], [untraced, traced]


def e2e(ctx, setups, cpu_s, ops, work_per_op):
    ctx.note("runs_per_cpu_s", work_per_op / cpu_s, "1/s", "DET+RAND runs per CPU second")
    return {
        "setup_s": statistics.median(setups),
        "cpu_ms_per_op": 1e3 * cpu_s,
        "peak_rss_mb": max(o.rss_kb for o in ops) / 1024.0,
    }


WORKLOADS = {"paper-3000": paper, "warm-query": warm, "faulty-shards": faulty}
E2E_UNITS = {"setup_s": "s", "cpu_ms_per_op": "ms", "peak_rss_mb": "MB"}


def fingerprint(ctx):
    out = subprocess.run([PROBE, "fingerprint"], capture_output=True, check=True)
    ctx.host.update(json.loads(out.stdout))
    ctx.host["nproc"] = ctx.nproc


def build():
    for f in ("dune-project", os.path.join("bin", "mbpta_cli.ml"),
              os.path.join("perfbench", "probe.ml"), "BENCHMARK.json"):
        if not os.path.exists(f):
            log("perfbench: %s not found; run from the root of a full checkout" % f)
            sys.exit(2)
    # No shared dune cache: the build reads and writes only this checkout.
    r = subprocess.run(["dune", "build", "--root", ".", CLI, PROBE],
                       env=dict(os.environ, DUNE_CACHE="disabled"),
                       stdin=subprocess.DEVNULL, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        log("perfbench: build failed")
        sys.exit(2)


def layer_metrics(ctx):
    """Run the in-process layer probes; returns their metrics and spans."""
    out, spans_out = ctx.path("layers.json"), ctx.path("probe-spans.json")
    bound = bound_of("cpu_ms_per_op")
    op = run([PROBE, "layers", str(ctx.args.seed), str(ctx.nproc), repr(bound),
              ctx.path("probe"), out, spans_out], err_path=ctx.path("probe.log"))
    if op.rc != 0:
        raise RuntimeError("probe layers failed; see %s" % ctx.path("probe.log"))
    with open(out) as f:
        layers = json.load(f)
    with open(spans_out) as f:
        spans = json.load(f)
    for name, ok in layers["checks"].items():
        ctx.check(ok, name)
    sc = layers["selfcheck"]
    ctx.notes.append(
        "  self-check: a mini campaign takes %.3f of its own CPU time unchanged and %.3f "
        "with Experiment.run doing its work twice; the cpu_ms_per_op bound %.2f flags the "
        "second only: %s" % (sc["unchanged_ratio"], sc["doubled_ratio"], bound,
                             layers["checks"]["selfcheck.bound_flags_doubled_run"]))
    metrics = layers["metrics"]
    metrics["trace.overhead_ms"] = {"value": ctx.overhead_ms, "unit": "ms"}
    return metrics, spans


def bound_of(name):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return next(m["bound"] for m in spec["end_to_end"] if m["name"] == name)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    atexit.register(stop_children)
    build()
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    work = os.path.join(WORK, "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    ctx = Ctx(args, work)
    try:
        fingerprint(ctx)
        e2e_metrics = WORKLOADS[args.workload](ctx, args.trace)
        if args.trace == 0:
            metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e_metrics.items()}
        else:
            metrics, probe_spans = layer_metrics(ctx)
    finally:
        stop_children()
    fp = ctx.host
    print("perfbench %s seed=%d trace=%d  host: nproc=%d recommended_domain_count=%d "
          "ocaml=%s%s" % (args.workload, args.seed, args.trace, fp["nproc"],
                          fp["recommended_domain_count"], fp["ocaml_version"],
                          "" if "analyze_domains_spawned" not in fp else
                          " analyze_domains_spawned=%s" % fp["analyze_domains_spawned"]))
    if fp["recommended_domain_count"] < 2:
        print("  NOTE: single-core host; parallel numbers here are 1-core numbers")
    for line in ctx.notes:
        print(line)
    for name, m in metrics.items():
        tag = next((t for p, t in LAYER_TAGS.items() if name.startswith(p)), "") \
            if args.trace else ""
        print("  %-30s %14.6g %-6s %s" % (name, m["value"], m["unit"], tag))
    print("  failed_frac %.6g (%d of %d operations and checks)"
          % (ctx.failed / max(ctx.attempted, 1), ctx.failed, ctx.attempted))
    result = {"correct": ctx.wrong == 0, "attempted": ctx.attempted, "failed": ctx.failed,
              "metrics": metrics}
    stem = os.path.join(WORK, "results", "%s-seed%d-trace%d" % (args.workload, args.seed,
                                                                 args.trace))
    with open(stem + ".json", "w") as f:
        json.dump({"host": fp, "result": result, "notes": ctx.notes}, f, indent=1)
    if args.trace:
        with open(stem + "-spans.json", "w") as f:
            json.dump({"benchmark": ctx.spans, "probe": probe_spans}, f)
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
