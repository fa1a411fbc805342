#!/usr/bin/env python3
"""Chaos soak harness for `cfdclean serve`.

Hammers a daemon with N concurrent clients (each owning one session)
mixing ingest, status, relation, quarantine and resolve traffic, under
an optional --fault-plan, then asserts the robustness contract:

  * no lost acked work: every batch the daemon answered 200 is
    accounted for in the final relation + quarantine (discards netted
    out); ambiguous outcomes (connection died mid-request) widen the
    bound but never excuse a loss;
  * no deadlocks: every request completes within a socket timeout and
    the whole run within a watchdog;
  * graceful drain: SIGTERM exits 0 with a serve.stop log line;
  * durable checkpoints: a --resume restart serves byte-identical
    relations, and so does a restart after kill -9;
  * bounded memory: the daemon's VmRSS stays under --max-rss-mb.

Stdlib only; exit 0 on success, 1 on any violated assertion.
"""

import argparse
import http.client
import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time

RULES = (
    "p1: [A] -> [B]\n"
    "p2: [C] -> [D]\n"
    "q1: [A] -> [B] {\n  (1 || 10)\n}\n"
    "q2: [A] -> [B] {\n  (1 || 20)\n}\n"
)

# Client i's session runs engine ENGINES[i % 3], so the daemon's ingest
# workers run all three INCREPAIR orderings (linear, by violations, by
# weight) side by side.
ENGINES = ["l-inc", "inc", "w-inc"]


def create_body(engine):
    return json.dumps(
        {
            "schema": {"name": "soak", "attributes": ["A", "B", "C", "D"]},
            "rules": RULES,
            "engine": engine,
            "force": True,
        }
    )

failures = []
fail_lock = threading.Lock()


def fail(msg):
    with fail_lock:
        failures.append(msg)
    print(f"soak: FAIL: {msg}", file=sys.stderr)


def note(msg):
    print(f"soak: {msg}")


class Daemon:
    def __init__(self, cfdclean, state_dir, fault_plan=None, resume=False):
        cmd = [
            cfdclean, "serve", "--port", "0",
            "--state-dir", state_dir,
            "--log", os.path.join(state_dir, "serve.log"),
            "--keep-alive", "--idle-timeout", "10",
            "--read-timeout", "10",
            "--queue-depth", "4", "--max-inflight", "32",
            "--max-connections", "64",
            "--breaker-threshold", "8",
            "--ingest-workers", "2",
            "--drain-timeout", "20",
        ]
        if fault_plan:
            cmd += ["--fault-plan", fault_plan]
        if resume:
            cmd += ["--resume"]
        self.state_dir = state_dir
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
        )
        line = self.proc.stdout.readline()
        m = re.search(r"127\.0\.0\.1:(\d+)", line)
        if not m:
            err = self.proc.stderr.read()
            raise RuntimeError(f"daemon did not report a port: {line!r} {err!r}")
        self.port = int(m.group(1))

    def rss_mb(self):
        try:
            with open(f"/proc/{self.proc.pid}/status") as f:
                for line in f:
                    if line.startswith("VmRSS:"):
                        return int(line.split()[1]) / 1024.0
        except OSError:
            pass
        return None

    def sigterm(self, timeout=30):
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            return None
        return code

    def kill9(self):
        self.proc.kill()
        self.proc.wait()

    def log_text(self):
        path = os.path.join(self.state_dir, "serve.log")
        try:
            with open(path) as f:
                return f.read()
        except OSError:
            return ""


class Client:
    """One session's worth of traffic; keep-alive with reconnects."""

    def __init__(self, port, rng, engine):
        self.port = port
        self.rng = rng
        self.engine = engine
        self.conn = None
        self.sid = None
        # accounting (rows)
        self.acked = 0        # rows in batches answered 200
        self.maybe = 0        # rows whose request died ambiguously
        self.discarded = 0    # quarantined tuples discarded with a 200
        self.maybe_discarded = 0
        self.sheds = 0        # 429/503 answers seen
        self.faults = 0       # 500 answers seen (injected engine faults)

    def _connect(self):
        self.conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=15)

    def request(self, method, path, body=None):
        """Returns (status, body_bytes) or None when the connection died
        (ambiguous for mutations)."""
        for attempt in (1, 2):
            if self.conn is None:
                self._connect()
            try:
                self.conn.request(method, path, body=body)
                resp = self.conn.getresponse()
                data = resp.read()
                if resp.headers.get("Connection", "").lower() == "close":
                    self.conn.close()
                    self.conn = None
                return resp.status, data
            except (http.client.HTTPException, OSError):
                try:
                    self.conn.close()
                except Exception:
                    pass
                self.conn = None
                if attempt == 1 and method == "GET":
                    continue  # reads are safe to retry
                return None

    def mutate(self, path, body, rows):
        """POST with shed retries.  Returns "ok", "ambiguous" (connection
        died mid-request: the server may or may not have committed) or
        "failed" (a typed refusal: definitely not committed)."""
        for _ in range(40):
            r = self.request("POST", path, body)
            if r is None:
                self.maybe += rows
                return "ambiguous"
            status, data = r
            if status == 200:
                self.acked += rows
                return "ok"
            if status in (429, 503):
                self.sheds += 1
                time.sleep(0.1 if status == 503 else 0.3)
                continue
            if status == 500:
                self.faults += 1  # injected fault: nothing committed
                return "failed"
            fail(f"{self.sid}: unexpected {status} on {path}: {data[:120]!r}")
            return "failed"
        fail(f"{self.sid}: shed-retry budget exhausted on {path}")
        return "failed"

    def create_session(self):
        r = self.request("POST", "/v1/sessions", create_body(self.engine))
        if r is None or r[0] != 201:
            raise RuntimeError(f"session create failed: {r!r}")
        report = json.loads(r[1])["report"]
        self.sid = report["id"]

    def batch(self):
        rows = []
        for _ in range(self.rng.randint(1, 8)):
            a = self.rng.randint(1, 6)  # a == 1 hits the conflicting pair
            rows.append([a, self.rng.randint(10, 30),
                         self.rng.randint(0, 5), self.rng.randint(0, 50)])
        return rows

    def step(self):
        op = self.rng.random()
        if op < 0.65:
            rows = self.batch()
            self.mutate(f"/v1/sessions/{self.sid}/tuples",
                        json.dumps({"tuples": rows}), len(rows))
        elif op < 0.80:
            self.request("GET", f"/v1/sessions/{self.sid}")
        elif op < 0.90:
            self.request("GET", f"/v1/sessions/{self.sid}/relation")
        else:
            r = self.request("GET", f"/v1/sessions/{self.sid}/quarantine")
            if r is None or r[0] != 200:
                return
            entries = json.loads(r[1])["report"].get("entries", [])
            if entries:
                tid = entries[0]["tid"]
                outcome = self.mutate(
                    f"/v1/sessions/{self.sid}/quarantine/{tid}/resolve",
                    json.dumps({"action": "discard"}), 0)
                if outcome == "ok":
                    self.discarded += 1
                elif outcome == "ambiguous":
                    self.maybe_discarded += 1

    def close(self):
        if self.conn is not None:
            try:
                self.conn.close()
            except Exception:
                pass


def run_clients(port, n_clients, total_requests, seed):
    clients = [Client(port, random.Random(seed + i), ENGINES[i % len(ENGINES)])
               for i in range(n_clients)]
    for c in clients:
        c.create_session()
    per = max(1, total_requests // n_clients)

    def drive(c):
        for _ in range(per):
            c.step()
        c.close()

    threads = [threading.Thread(target=drive, args=(c,), daemon=True)
               for c in clients]
    t0 = time.monotonic()
    for t in threads:
        t.start()
    watchdog = 60 + per * n_clients * 2
    for t in threads:
        t.join(timeout=max(1, watchdog - (time.monotonic() - t0)))
    alive = [t for t in threads if t.is_alive()]
    if alive:
        fail(f"deadlock: {len(alive)} client threads still running after "
             f"{watchdog}s watchdog")
    return clients


def session_counts(port, sid):
    """(relation_csv_bytes, relation_rows, quarantine_len) via HTTP."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=15)
    try:
        conn.request("GET", f"/v1/sessions/{sid}/relation")
        resp = conn.getresponse()
        csv = resp.read()
        if resp.status != 200:
            fail(f"{sid}: relation fetch: {resp.status}")
            return b"", 0, 0
        conn.request("GET", f"/v1/sessions/{sid}")
        resp = conn.getresponse()
        body = json.loads(resp.read())
        report = body["report"]
        rows = report["tuples"]
        qlen = report["quarantine"]
        return csv, rows, qlen
    finally:
        conn.close()


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--cfdclean",
                    default="_build/default/bin/cfdclean.exe")
    ap.add_argument("--clients", type=int, default=8)
    ap.add_argument("--requests", type=int, default=200,
                    help="total requests across all clients")
    ap.add_argument("--fault-plan", default=None)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--max-rss-mb", type=float, default=1024.0)
    ap.add_argument("--scrape-out", default=None,
                    help="write a final /v1/metrics scrape to this file")
    ap.add_argument("--keep-tmp", action="store_true")
    args = ap.parse_args()

    if not os.path.exists(args.cfdclean):
        print(f"soak: cfdclean binary not found at {args.cfdclean}",
              file=sys.stderr)
        return 2

    tmp = tempfile.mkdtemp(prefix="cfdclean-soak-")
    daemon = None
    try:
        note(f"state dir {tmp}")
        daemon = Daemon(args.cfdclean, tmp, fault_plan=args.fault_plan)
        note(f"daemon up on port {daemon.port}"
             + (f" with fault plan {args.fault_plan!r}" if args.fault_plan else ""))

        clients = run_clients(daemon.port, args.clients, args.requests,
                              args.seed)

        rss = daemon.rss_mb()
        if rss is not None:
            note(f"daemon RSS {rss:.1f} MiB after client phase")
            if rss > args.max_rss_mb:
                fail(f"daemon RSS {rss:.1f} MiB exceeds bound "
                     f"{args.max_rss_mb} MiB")

        # -- accounting: acked work is never lost ------------------------
        total_acked = total_maybe = total_shed = total_fault = 0
        relations = {}
        for c in clients:
            csv, rows, qlen = session_counts(daemon.port, c.sid)
            relations[c.sid] = csv
            observed = rows + qlen
            low = c.acked - c.discarded - c.maybe_discarded
            high = c.acked + c.maybe - c.discarded
            if not (low <= observed <= high):
                fail(f"{c.sid}: lost acked work: observed {observed} rows "
                     f"(relation {rows} + quarantine {qlen}), acked {c.acked}"
                     f", ambiguous {c.maybe}, discards {c.discarded}"
                     f"+{c.maybe_discarded}?")
            total_acked += c.acked
            total_maybe += c.maybe
            total_shed += c.sheds
            total_fault += c.faults
        note(f"acked {total_acked} rows, ambiguous {total_maybe}, "
             f"sheds {total_shed}, injected faults {total_fault}")

        # -- graceful drain ---------------------------------------------
        code = daemon.sigterm()
        if code != 0:
            fail(f"SIGTERM drain exited {code!r}, want 0")
        log = daemon.log_text()
        if '"event":"serve.stop"' not in log:
            fail("no serve.stop line in the daemon log after drain")
        note("drain ok" if code == 0 else "drain FAILED")

        # -- resume: byte-identical relations ---------------------------
        daemon = Daemon(args.cfdclean, tmp, resume=True)
        for sid, before in relations.items():
            after, _, _ = session_counts(daemon.port, sid)
            if after != before:
                fail(f"{sid}: relation differs after graceful drain + resume "
                     f"({len(before)} vs {len(after)} bytes)")
        note("graceful resume byte-identical")

        # -- kill -9: checkpoints survive -------------------------------
        daemon.kill9()
        daemon = Daemon(args.cfdclean, tmp, resume=True)
        for sid, before in relations.items():
            after, _, _ = session_counts(daemon.port, sid)
            if after != before:
                fail(f"{sid}: relation differs after kill -9 + resume")
        note("kill -9 resume byte-identical")

        if args.scrape_out:
            conn = http.client.HTTPConnection("127.0.0.1", daemon.port,
                                              timeout=15)
            try:
                conn.request("GET", "/v1/metrics")
                resp = conn.getresponse()
                data = resp.read()
            finally:
                conn.close()
            if resp.status != 200:
                fail(f"final metrics scrape answered {resp.status}")
            else:
                with open(args.scrape_out, "wb") as f:
                    f.write(data)
                note(f"final scrape -> {args.scrape_out}")

        code = daemon.sigterm()
        if code != 0:
            fail(f"final drain exited {code!r}, want 0")
        daemon = None
    finally:
        if daemon is not None:
            daemon.kill9()
        if args.keep_tmp:
            note(f"keeping {tmp}")
        else:
            shutil.rmtree(tmp, ignore_errors=True)

    if failures:
        print(f"soak: {len(failures)} failure(s)", file=sys.stderr)
        return 1
    note("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
