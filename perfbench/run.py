#!/usr/bin/env python3
"""End-to-end benchmark of cfdclean: four workloads, one result line each.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a dataqual checkout.  It builds cfdclean and the
in-process helper (perfbench/layers.ml) into .bench_build, makes the
workload's inputs from the seed, sets up several times (the median is
setup_s), drives the real binary for about S seconds, checks the outputs
and prints every metric by name with its unit.  The last line of stdout
is one JSON object:

    {"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, measured
untraced.  With --trace 1 the run measures the same way, then replays the
workload in-process with a span around each call into a layer and reports
the per_layer list, residuals included; the Chrome trace goes to
.bench_out/WORKLOAD.trace.json.

Exit status: 0 when every correctness gate held, 1 when one failed (the
result line says "correct": false), 2 when no run could be made (no
result line).  The workloads and metrics are described in
perfbench/README.md.
"""

import sys

sys.dont_write_bytecode = True

import argparse
import json
import math
import os
import shutil
import signal
import socket
import statistics
import subprocess
import threading
import time
import traceback

BUILD_DIR = ".bench_build"
WORK_DIR = ".bench_work"
OUT_DIR = ".bench_out"
SETUP_MIN_REPS = 3
SETUP_MIN_SECONDS = 2.0
SETUP_MAX_REPS = 25

# Two things move a run's numbers besides the code.  The host's speed
# jumps by up to 2x for fractions of a second at a time, so every timed
# unit of work is short (about a second at most) and each metric is a
# median over the units of a run, which passes over the slow stretches a
# mean or a high percentile would report.  And one seed's inputs cost up
# to 20% more than another's, so the CLI workloads cycle through
# `datasets` inputs made from sub-seeds of the run's seed, and
# serve-ingest's rounds cycle through every slice of its relation.  Sizes
# fit a 2-core host and the run budget; "smoke" overrides give the toy
# sizes the test suite runs.
WORKLOADS = {
    "repair-3k": {"kind": "repair", "n": 3_000, "datasets": 6,
                  "smoke": {"n": 300, "datasets": 2}},
    "detect-10k": {"kind": "detect", "n": 10_000, "datasets": 4,
                   "smoke": {"n": 400, "datasets": 2}},
    "serve-ingest": {
        "kind": "serve-ingest", "n": 10_000, "rows": 500, "batch": 10,
        "smoke": {"n": 300, "rows": 40, "batch": 4},
    },
    "serve-mixed": {
        "kind": "serve-mixed", "read_interval": 0.075, "batches": 5000,
        "smoke": {"batches": 200},
    },
}

# serve-mixed's batch sizes cycle through 1..8 rows (layers gen soak); its
# writer's throughput is measured over whole cycles.
SOAK_CYCLE = 8

# The serve-mixed reader's cycle: 50% session status, 30% relation
# (chunked CSV), 20% quarantine.
READ_KINDS = "srsqsrsqsr"
READ_PATHS = {"s": "/v1/sessions/{}", "r": "/v1/sessions/{}/relation",
              "q": "/v1/sessions/{}/quarantine"}


class Unavailable(Exception):
    """The run cannot be made at all (build failure, broken set-up)."""


# ---- statistics ------------------------------------------------------------

def percentile(xs, p):
    """Linear interpolation between the closest ranks of the sorted sample."""
    s = sorted(xs)
    k = (len(s) - 1) * p
    lo = math.floor(k)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (k - lo)


def tail_percentile(n):
    """The highest of p99, p95, p90, p75 and p50 that has at least ten of n
    samples beyond it, or None when even the median has fewer."""
    for p in (0.99, 0.95, 0.90, 0.75, 0.50):
        if round(n * (1 - p), 6) >= 10:
            return p
    return None


def relative_spread(xs):
    """Distance between the first and third quartile, as a share of the
    median (statistics.quantiles' default method)."""
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return (q3 - q1) / statistics.median(xs)


def verdict(better, bound, old, new):
    """Judge new against old: "regressed" when worse by more than bound (a
    share of old), "improved" when better by more than bound, else "same"."""
    worse = (new - old) / old if better == "lower" else (old - new) / old
    if worse > bound:
        return "regressed"
    if worse < -bound:
        return "improved"
    return "same"


# ---- processes -------------------------------------------------------------

def spawn_timed(argv, stdout, stderr):
    """Run argv to completion: (wall seconds, exit code, peak RSS in MiB)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def slurp(path):
    with open(path, "rb") as f:
        return f.read()


def run_helper(argv):
    r = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if r.returncode != 0:
        raise Unavailable(f"{' '.join(argv[:3])} failed: {r.stderr.decode().strip()}")
    return r.stdout.decode()


def build():
    """Build both binaries from the checkout's sources; their paths."""
    if not (os.path.isfile("dune-project")
            and os.path.isfile(os.path.join("bin", "cfdclean.ml"))):
        raise Unavailable("run from the root of a dataqual checkout "
                          "(no dune-project and bin/cfdclean.ml here)")
    tmp = os.path.abspath(os.path.join(BUILD_DIR, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)
    r = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--profile", "release", "./bin/cfdclean.exe", "./perfbench/layers.exe"],
        env=env, stdout=sys.stderr)
    if r.returncode != 0:
        raise Unavailable("dune build failed")
    base = os.path.join(BUILD_DIR, "default")
    return (os.path.abspath(os.path.join(base, "bin", "cfdclean.exe")),
            os.path.abspath(os.path.join(base, "perfbench", "layers.exe")))


class Daemon:
    """`cfdclean serve --port 0` with stdout and stderr in files: an
    undrained stderr pipe stalls the daemon once its buffer fills."""

    def __init__(self, cfdclean, d, extra):
        self.out_path = os.path.join(d, "serve.out")
        self.out = open(self.out_path, "wb")
        self.err = open(os.path.join(d, "serve.err"), "wb")
        self.proc = subprocess.Popen([cfdclean, "serve", "--port", "0", *extra],
                                     stdout=self.out, stderr=self.err)
        self.port = self._ready_port()

    def _ready_port(self):
        # The first stdout line is "cfdclean serve: listening on http://127.0.0.1:PORT".
        give_up = time.monotonic() + 30
        while time.monotonic() < give_up:
            with open(self.out_path, "rb") as f:
                line = f.readline()
            if line.endswith(b"\n"):
                return int(line.rsplit(b":", 1)[1])
            if self.proc.poll() is not None:
                break
            time.sleep(0.002)
        self.stop()
        raise Unavailable("cfdclean serve did not report a port")

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise Unavailable("no VmHWM for the daemon")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.out.close()
        self.err.close()


class Conn:
    """One client connection: TCP_NODELAY, each request's head and body in
    one write.  Without keep_alive a fresh connection serves each request,
    matching the daemon's one-request-per-connection framing."""

    def __init__(self, port, keep_alive):
        self.port = port
        self.keep_alive = keep_alive
        self.sock = None
        self.buf = b""

    def close(self):
        if self.sock is not None:
            self.sock.close()
            self.sock = None
        self.buf = b""

    def _fill(self):
        chunk = self.sock.recv(65536)
        if not chunk:
            raise ConnectionError("connection closed mid-response")
        self.buf += chunk

    def _take(self, n):
        while len(self.buf) < n:
            self._fill()
        data, self.buf = self.buf[:n], self.buf[n:]
        return data

    def _line(self):
        while b"\r\n" not in self.buf:
            self._fill()
        line, self.buf = self.buf.split(b"\r\n", 1)
        return line

    def request(self, method, path, body=b""):
        """(status, body); status 0 when the connection failed."""
        try:
            if self.sock is None:
                self.sock = socket.create_connection(("127.0.0.1", self.port), timeout=60)
                self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.sock.sendall(
                f"{method} {path} HTTP/1.1\r\nhost: 127.0.0.1\r\n"
                f"content-length: {len(body)}\r\n\r\n".encode() + body)
            status = int(self._line().split()[1])
            headers = {}
            while True:
                line = self._line()
                if not line:
                    break
                k, v = line.split(b":", 1)
                headers[k.strip().lower()] = v.strip().lower()
            if headers.get(b"transfer-encoding") == b"chunked":
                parts = []
                while True:
                    size = int(self._line(), 16)
                    parts.append(self._take(size))
                    self._take(2)
                    if size == 0:
                        break
                payload = b"".join(parts)
            else:
                payload = self._take(int(headers.get(b"content-length", b"0")))
            if not self.keep_alive or headers.get(b"connection") == b"close":
                self.close()
            return status, payload
        except (OSError, ValueError, IndexError):
            self.close()
            return 0, b""


# ---- one run ---------------------------------------------------------------

class Bench:
    def __init__(self, args, cfdclean, layers):
        self.name = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        shape = WORKLOADS[args.workload]
        self.smoke = args.smoke
        self.shape = {**shape, **(shape["smoke"] if args.smoke else {})}
        self.cfdclean = cfdclean
        self.layers = layers
        self.work = os.path.abspath(os.path.join(WORK_DIR, f"{self.name}-{os.getpid()}"))
        self.daemons = []
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.lock = threading.Lock()

    def problem(self, msg):
        with self.lock:
            self.problems.append(msg)
        print(f"perfbench: gate failed: {msg}", file=sys.stderr)

    def op(self, ok):
        with self.lock:
            self.attempted += 1
            if not ok:
                self.failed += 1

    def path(self, *parts):
        return os.path.join(self.work, *parts)

    def in_threads(self, *bodies):
        """Run the client bodies on their own threads and join them; a body
        that raises fails the run's correctness."""
        def guarded(body):
            try:
                body()
            except Exception as e:  # noqa: BLE001 - any client crash fails the gate
                self.problem(f"client thread crashed: {e!r}")

        threads = [threading.Thread(target=guarded, args=(b,)) for b in bodies]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    def daemon(self, d, extra):
        dmn = Daemon(self.cfdclean, d, extra)
        self.daemons.append(dmn)
        return dmn

    def set_up(self, once):
        """Set up into fresh directories at least SETUP_MIN_REPS times and
        until SETUP_MIN_SECONDS are spent (at most SETUP_MAX_REPS), and keep
        the last: (median seconds, the last set-up's state).  A set-up's
        state is its directory, or (directory, daemon, ...) for the serve
        workloads."""
        min_reps, min_seconds = (2, 0.0) if self.smoke else (SETUP_MIN_REPS, SETUP_MIN_SECONDS)
        times, state = [], None
        for i in range(SETUP_MAX_REPS):
            if len(times) >= min_reps and sum(times) >= min_seconds:
                break
            if isinstance(state, tuple):
                state[1].stop()
            d = self.path(f"setup{i}")
            os.makedirs(d)
            t0 = time.perf_counter()
            state = once(d)
            times.append(time.perf_counter() - t0)
        return statistics.median(times), state

    def gen_orders(self, d, *extra, seed=None):
        run_helper([self.layers, "gen", "orders", "--n", str(self.shape["n"]),
                    "--seed", str(self.seed if seed is None else seed), "--dir", d, *extra])

    def gen_datasets(self, d, *extra):
        """The CLI workloads' inputs: dataset k in d/k from sub-seed
        seed * datasets + k, so no two seeds share a dataset."""
        k_max = self.shape["datasets"]
        for k in range(k_max):
            os.makedirs(os.path.join(d, str(k)))
            self.gen_orders(os.path.join(d, str(k)), *extra, seed=self.seed * k_max + k)
        return d

    def cli_loop(self, argv_for, expect_for):
        """Invoke the CLI until the next invocation would overrun the budget
        (at least twice): per-invocation seconds, peak RSS, stdout paths.
        Invocation i runs argv_for(i) and should exit expect_for(i)."""
        lat, rss, outs = [], [], []
        start = time.perf_counter()
        while True:
            i = len(lat)
            out = self.path(f"inv{i}.out")
            with open(out, "wb") as so, open(out + ".err", "wb") as se:
                wall, code, peak = spawn_timed(argv_for(i), so, se)
            self.op(code == expect_for(i))
            if code != expect_for(i):
                self.problem(f"invocation {i} exited {code}, want {expect_for(i)}")
            lat.append(wall)
            rss.append(peak)
            outs.append(out)
            elapsed = time.perf_counter() - start
            if len(lat) >= 2 and elapsed + statistics.median(lat) > self.seconds:
                return lat, rss, outs

    def create_session(self, port, body, keep_alive=False):
        status, payload = Conn(port, keep_alive).request("POST", "/v1/sessions", body)
        if status != 201:
            raise Unavailable(f"session create answered {status}: {payload[:200]!r}")
        return json.loads(payload)["report"]["id"]

    def settle(self, conn, state_dir, sid, acked):
        """Once a session's writes are done, fetch its relation and status:
        relation rows + quarantine must equal the tuples acked.  Saves the
        relation for check_sigma; returns (its path, the tuples held, the
        session's checkpoint bytes)."""
        status, csv = conn.request("GET", f"/v1/sessions/{sid}/relation")
        s2, st = conn.request("GET", f"/v1/sessions/{sid}")
        self.op(status == 200)
        self.op(s2 == 200)
        if status != 200 or s2 != 200:
            self.problem(f"{sid}: relation/status answered {status}/{s2}")
            return None, 0, 0
        report = json.loads(st)["report"]
        held = report["tuples"] + report["quarantine"]
        if held != acked:
            self.problem(f"{sid}: relation {report['tuples']} + quarantine "
                         f"{report['quarantine']} != {acked} tuples acked")
        path = self.path(f"{sid}.csv")
        with open(path, "wb") as out:
            out.write(csv)
        return path, held, os.path.getsize(os.path.join(state_dir, f"{sid}.json"))

    def check_sigma(self, sigma, files):
        """Each file's relation satisfies Σ (the layers oracle)."""
        if not files:
            return
        out = run_helper([self.layers, "check", "--sigma", sigma, *files])
        for r in map(json.loads, out.splitlines()):
            if r["violations"] != 0:
                self.problem(f"{os.path.basename(r['file'])}: {r['violations']} violations of Σ")


def repair_gate(bench, outputs, sigma):
    """Repair outputs are byte-identical across invocations and satisfy Σ."""
    first = slurp(outputs[0])
    for o in outputs[1:]:
        if slurp(o) != first:
            bench.problem(f"{os.path.basename(o)} differs from {os.path.basename(outputs[0])}")
    bench.check_sigma(sigma, outputs[:1])


def detect_gate(bench, outputs, reference):
    """Every detect summary line equals the Violation.vio_counts reference."""
    want = slurp(reference)
    for o in outputs:
        if slurp(o) != want:
            bench.problem(f"{os.path.basename(o)}: summary differs from the reference {want!r}")


def cli_result(bench, setup_s, lat, rss):
    return {"setup_s": setup_s, "lat": lat, "units": [(bench.shape["n"], t) for t in lat],
            "peak_rss_mb": statistics.median(rss)}


def repair_workload(bench):
    """Invocation i repairs dataset i mod datasets."""
    setup_s, d = bench.set_up(bench.gen_datasets)
    k_max = bench.shape["datasets"]
    outputs = [[] for _ in range(k_max)]

    def argv(i):
        ds = os.path.join(d, str(i % k_max))
        outputs[i % k_max].append(os.path.join(ds, f"repaired{i}.csv"))
        return [bench.cfdclean, "repair", os.path.join(ds, "dirty.csv"), os.path.join(ds, "sigma.cfd"),
                "--engine", "batch", "--jobs", "1", "-o", outputs[i % k_max][-1]]

    lat, rss, _ = bench.cli_loop(argv, lambda _: 0)
    for k, outs in enumerate(outputs):
        if outs:
            repair_gate(bench, outs, os.path.join(d, str(k), "sigma.cfd"))
    return cli_result(bench, setup_s, lat, rss), os.path.join(d, "0")


def detect_workload(bench):
    """Invocation i scans dataset i mod datasets."""
    setup_s, d = bench.set_up(lambda d: bench.gen_datasets(d, "--reference"))
    k_max = bench.shape["datasets"]
    references = [os.path.join(d, str(k), "reference.txt") for k in range(k_max)]
    # detect exits 1 when it finds violating tuples.
    expect = [1 if int(slurp(r).split(b": ")[1].split()[0]) else 0 for r in references]

    def argv(i):
        ds = os.path.join(d, str(i % k_max))
        return [bench.cfdclean, "detect", os.path.join(ds, "dirty.csv"), os.path.join(ds, "sigma.cfd"),
                "--jobs", "2"]

    lat, rss, outs = bench.cli_loop(argv, lambda i: expect[i % k_max])
    for k in range(k_max):
        detect_gate(bench, outs[k::k_max], references[k])
    return cli_result(bench, setup_s, lat, rss), os.path.join(d, "0")


def batch_rows(body):
    return len(json.loads(body)["tuples"])


def serve_ingest_workload(bench):
    """Two closed-loop clients, each streaming a slice of the relation into
    a fresh session per round until the budget would be overrun: client c's
    round r streams slice 2r + c, wrapping around.  A round ends by settling
    and deleting its session, so the daemon holds the same state however
    many rounds the host's speed allows.  A round's unit of work is its
    stream, from the first batch sent to the last acknowledged."""
    sh = bench.shape
    slices = sh["n"] // sh["rows"]

    def once(d):
        bench.gen_orders(d, "--clients", str(slices), "--rows", str(sh["rows"]),
                         "--batch", str(sh["batch"]))
        dmn = bench.daemon(d, ["--state-dir", os.path.join(d, "state"), "--ingest-workers", "2"])
        create = slurp(os.path.join(d, "create.json"))
        return d, dmn, [bench.create_session(dmn.port, create) for _ in range(2)]

    setup_s, (d, dmn, first_sids) = bench.set_up(once)
    create = slurp(os.path.join(d, "create.json"))
    state = os.path.join(d, "state")
    streams = []
    for s in range(slices):
        bodies = slurp(os.path.join(d, f"client{s}.jsonl")).splitlines()
        streams.append([(b, batch_rows(b)) for b in bodies])
    lat, units, settled = [], [], []
    deadline = time.perf_counter() + bench.seconds

    def client(c):
        conn = Conn(dmn.port, keep_alive=False)
        round_times = []
        while True:
            t_round = time.perf_counter()
            if round_times:
                status, payload = conn.request("POST", "/v1/sessions", create)
                bench.op(status == 201)
                if status != 201:
                    bench.problem(f"session create answered {status}")
                    return
                sid = json.loads(payload)["report"]["id"]
            else:
                sid = first_sids[c]
            acked = 0
            t_stream = time.perf_counter()
            for body, rows in streams[(2 * len(round_times) + c) % slices]:
                t0 = time.perf_counter()
                status, _ = conn.request("POST", f"/v1/sessions/{sid}/tuples", body)
                lat.append(time.perf_counter() - t0)
                bench.op(status == 200)
                if status == 200:
                    acked += rows
                else:
                    bench.problem(f"{sid}: ingest answered {status}")
            units.append((acked, time.perf_counter() - t_stream))
            settled.append((acked, *bench.settle(conn, state, sid, acked)))
            status, _ = conn.request("DELETE", f"/v1/sessions/{sid}")
            bench.op(status == 200)
            if status != 200:
                bench.problem(f"{sid}: delete answered {status}")
            round_times.append(time.perf_counter() - t_round)
            if time.perf_counter() + statistics.median(round_times) > deadline:
                return

    bench.in_threads(lambda: client(0), lambda: client(1))
    bench.check_sigma(os.path.join(d, "sigma.cfd"), [p for _, p, _, _ in settled if p])
    held = sum(h for _, _, h, _ in settled)
    result = {"setup_s": setup_s, "lat": lat, "units": units,
              "peak_rss_mb": dmn.peak_rss_mb(),
              "store.bytes_per_tuple": sum(b for _, _, _, b in settled) / held if held else 0.0,
              "serve.write_p95_s": percentile(lat, 0.95)}
    dmn.stop()
    return result, d


def serve_mixed_workload(bench):
    """A closed-loop writer and an open-loop reader on one keep-alive
    session until the budget is spent."""
    sh = bench.shape

    def once(d):
        run_helper([bench.layers, "gen", "soak", "--seed", str(bench.seed),
                    "--batches", str(sh["batches"]), "--dir", d])
        dmn = bench.daemon(d, ["--keep-alive", "--state-dir", os.path.join(d, "state"),
                               "--log", os.path.join(d, "serve.log")])
        create = slurp(os.path.join(d, "create.json"))
        return d, dmn, bench.create_session(dmn.port, create, keep_alive=True)

    setup_s, (d, dmn, sid) = bench.set_up(once)
    batches = [(b, batch_rows(b)) for b in slurp(os.path.join(d, "writer.jsonl")).splitlines()]
    writes, reads, lags = [], [], []
    start = time.perf_counter()
    deadline = start + bench.seconds

    def writer():
        # writes[i] = (sent, answered, rows acked) of batch i.
        conn = Conn(dmn.port, keep_alive=True)
        while time.perf_counter() < deadline:
            body, rows = batches[len(writes) % len(batches)]
            t0 = time.perf_counter()
            status, _ = conn.request("POST", f"/v1/sessions/{sid}/tuples", body)
            writes.append((t0, time.perf_counter(), rows if status == 200 else 0))
            bench.op(status == 200)
            if status != 200:
                bench.problem(f"ingest answered {status}")
        conn.close()

    def reader():
        # Open loop: each GET is due at a fixed time and timed from then,
        # so a stall also counts against the reads queued behind it.
        conn = Conn(dmn.port, keep_alive=True)
        k = 0
        while start + k * sh["read_interval"] < deadline:
            due = start + k * sh["read_interval"]
            now = time.perf_counter()
            if now < due:
                time.sleep(due - now)
            lags.append(time.perf_counter() - due)
            status, _ = conn.request("GET", READ_PATHS[READ_KINDS[k % len(READ_KINDS)]].format(sid))
            reads.append(time.perf_counter() - due)
            bench.op(status == 200)
            if status != 200:
                bench.problem(f"read {k} answered {status}")
            k += 1
        conn.close()

    bench.in_threads(writer, reader)
    path, held, state_bytes = bench.settle(Conn(dmn.port, keep_alive=True), os.path.join(d, "state"),
                                           sid, sum(rows for _, _, rows in writes))
    bench.check_sigma(os.path.join(d, "sigma.cfd"), [path] if path else [])
    lat = [t1 - t0 for t0, t1, _ in writes]
    cycles = [writes[i:i + SOAK_CYCLE] for i in range(0, len(writes) - SOAK_CYCLE + 1, SOAK_CYCLE)]
    result = {"setup_s": setup_s, "lat": lat,
              "units": [(sum(rows for _, _, rows in c), c[-1][1] - c[0][0]) for c in cycles],
              "peak_rss_mb": dmn.peak_rss_mb(),
              "store.bytes_per_tuple": state_bytes / held if held else 0.0,
              "serve.write_p95_s": percentile(lat, 0.95),
              "serve.read_p50_s": statistics.median(reads),
              "serve.read_p95_s": percentile(reads, 0.95),
              "serve.read_lag_p95_s": percentile(lags, 0.95),
              "reads": len(reads)}
    dmn.stop()
    return result, d


RUNNERS = {"repair": repair_workload, "detect": detect_workload,
           "serve-ingest": serve_ingest_workload, "serve-mixed": serve_mixed_workload}


def end_to_end(result):
    """The workload's unit latencies and units of work, as medians."""
    if not result["units"]:
        raise Unavailable("the run finished no whole unit of work; give it more --seconds")
    return {"setup_s": result["setup_s"],
            "latency_p50_s": statistics.median(result["lat"]),
            "tuples_per_s": statistics.median(t / s for t, s in result["units"]),
            "peak_rss_mb": result["peak_rss_mb"]}


def per_layer(bench, result, d, e2e):
    """Replay the workload in-process with spans and add the residuals: the
    untraced end-to-end median minus the sum of the layer medians."""
    kind = bench.shape["kind"]
    os.makedirs(OUT_DIR, exist_ok=True)
    trace_path = os.path.join(OUT_DIR, f"{bench.name}.trace.json")
    argv = [bench.layers, "trace", kind, "--dir", d, "--out", trace_path]
    if kind == "detect":
        argv += ["--reps", "3"]
    if kind == "serve-mixed":
        argv += ["--writes", str(len(result["lat"])), "--reads", str(result["reads"]),
                 "--read-kinds", READ_KINDS]
    traced = json.loads(run_helper(argv))
    print(f"perfbench: {traced['spans']} spans written to {trace_path}")
    layers = dict(traced["metrics"])
    residual = e2e["latency_p50_s"] - traced["pipeline_s"]
    print(f"perfbench: the traced layers account for "
          f"{100 * traced['pipeline_s'] / e2e['latency_p50_s']:.1f}% of latency_p50_s "
          f"({traced['pipeline_s']:.4g} of {e2e['latency_p50_s']:.4g} s)")
    layers["cli.residual_s" if kind in ("repair", "detect") else "serve.residual_s"] = residual
    for k in ("store.bytes_per_tuple", "serve.write_p95_s", "serve.read_p50_s", "serve.read_p95_s",
              "serve.read_lag_p95_s"):
        if k in result:
            layers[k] = result[k]
    if kind == "serve-mixed":
        layers["serve.read_residual_s"] = result["serve.read_p50_s"] - traced["read_pipeline_s"]
    return layers


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="toy sizes (the test suite)")
    ap.add_argument("--cfdclean", help="prebuilt cfdclean.exe; skips the build")
    ap.add_argument("--layers", help="prebuilt perfbench/layers.exe; skips the build")
    args = ap.parse_args()

    bench = None
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
        if args.cfdclean and args.layers:
            cfdclean, layers = os.path.abspath(args.cfdclean), os.path.abspath(args.layers)
        else:
            cfdclean, layers = build()
        bench = Bench(args, cfdclean, layers)
        os.makedirs(bench.work)
        result, d = RUNNERS[bench.shape["kind"]](bench)
        e2e = end_to_end(result)
        lat = result["lat"]
        tail = tail_percentile(len(lat))
        print(f"perfbench {bench.name}, seed {bench.seed}: {bench.attempted} operations, "
              f"{bench.failed} failed; latency over n={len(lat)}: "
              f"p50 {statistics.median(lat):.4g} s"
              + (f", p{round(100 * tail)} {percentile(lat, tail):.4g} s" if tail and tail > 0.5 else "")
              + f"; {len(result['units'])} units of work")
        for name, value in e2e.items():
            if not (value > 0 and math.isfinite(value)):
                bench.problem(f"{name} = {value}: end-to-end metrics are never 0")
        if args.trace:
            values = per_layer(bench, result, d, e2e)
            specs = spec["per_layer"]
            unknown = sorted(set(values) - {m["name"] for m in specs})
            if unknown:
                raise Unavailable(f"per-layer metrics missing from BENCHMARK.json: {unknown}")
        else:
            values, specs = e2e, spec["end_to_end"]
        metrics = {}
        for m in specs:
            v = float(values.get(m["name"], 0.0))
            metrics[m["name"]] = {"value": v, "unit": m["unit"]}
            print(f"  {m['name']:<30} {v:>16.6g} {m['unit']}")
    except Exception as e:  # noqa: BLE001 - no result line for a run that broke
        if not isinstance(e, Unavailable):
            traceback.print_exc()
        print(f"perfbench: no result: {e!r}", file=sys.stderr)
        return 2
    finally:
        if bench is not None:
            for dmn in bench.daemons:
                dmn.stop()
            shutil.rmtree(bench.work, ignore_errors=True)
    correct = not bench.problems
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
