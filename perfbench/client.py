"""Closed-loop load generator for the serve_long workload.

Run as its own process:

    python3 perfbench/client.py --port P --server-pid PID --plan plan.json \
        --seconds S --warmup-s W --connections C --window-s D

Each of C threads sends its next ``POST /route`` only after the previous one
completed, over a new connection each time.  Requests follow the plan's
(task, scored) list in order, shared by all threads; scored requests carry
``golds``.  After W seconds of warm-up the client measures for S seconds:
per-request latency, status and response size, and the server's CPU time
read from /proc/<PID>/stat, in total and per window of ``--window-s``
seconds.  Each 200 body is reduced to a digest of its
``raw_trajectory`` and ``calls``, grouped by task, so the caller can compare
it with an in-process replay.

Prints {"ready": true} at start and one JSON result line at the end.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import itertools
import json
import sys
import threading
import time

from common import median, proc_cpu_seconds


def episode_digest(record: dict) -> str:
    """Digest of the deterministic part of an episode record (rewards
    depend on the order requests reach the shared window)."""
    payload = json.dumps([record["raw_trajectory"], record["calls"]], sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


class Load:
    def __init__(self, port: int, plan: dict):
        self.port = port
        self.questions = plan["questions"]
        self.golds = plan["golds"]
        self._requests = itertools.cycle(plan["requests"])
        self._lock = threading.Lock()
        self.measuring = False
        self.latencies_ms: list[float] = []
        self.statuses: dict[str, int] = {}
        self.response_bytes = 0
        self.exceptions = 0
        self.call_errors = 0
        self.wrong_shape = 0
        self.routes = 0
        self.digests: dict[int, set] = {}
        self.last_end = 0.0

    def completed(self) -> int:
        with self._lock:
            return len(self.latencies_ms)

    def next_request(self) -> tuple[int, bool]:
        with self._lock:
            task, scored = next(self._requests)
        return task, bool(scored)

    def one_request(self) -> None:
        task, scored = self.next_request()
        payload = {"question": self.questions[task]}
        if scored:
            payload["golds"] = self.golds[task]
        body = json.dumps(payload)
        status, data = None, b""
        start = time.perf_counter()
        try:
            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
            try:
                conn.request(
                    "POST", "/route", body, {"Content-Type": "application/json"}
                )
                response = conn.getresponse()
                data = response.read()
                status = response.status
            finally:
                conn.close()
        except OSError:
            pass
        end = time.perf_counter()
        if not self.measuring:
            return
        digest = None
        call_error = wrong_shape = False
        routes = 0
        if status == 200:
            try:
                record = json.loads(data)
                digest = episode_digest(record)
                call_error = any(call["error"] is not None for call in record["calls"])
                wrong_shape = ("rewards" in record) != scored
                routes = record["route_count"]
            except (ValueError, KeyError, TypeError):
                wrong_shape = True  # a 200 that is not an episode record
        with self._lock:
            self.last_end = max(self.last_end, end)
            if status is None:
                self.exceptions += 1
                return
            self.statuses[str(status)] = self.statuses.get(str(status), 0) + 1
            self.response_bytes += len(data)
            if status == 200:
                self.latencies_ms.append((end - start) * 1000.0)
                self.digests.setdefault(task, set()).add(digest)
                self.call_errors += call_error
                self.wrong_shape += wrong_shape
                self.routes += routes

    def worker(self, deadline: float) -> None:
        while time.perf_counter() < deadline:
            self.one_request()


def start(load: Load, connections: int, deadline: float) -> list[threading.Thread]:
    threads = [
        threading.Thread(target=load.worker, args=(deadline,))
        for _ in range(connections)
    ]
    for thread in threads:
        thread.start()
    return threads


def drive(load: Load, connections: int, deadline: float) -> None:
    for thread in start(load, connections, deadline):
        thread.join()


def windows(load: Load, server_pid: int, started: float, seconds: float, window_s: float):
    """While the workers run, cut the measured time into whole windows;
    returns each window's completed requests per second, server CPU ms per
    completed request and median latency."""
    marks = [(started, proc_cpu_seconds(server_pid), 0)]
    for k in range(1, max(1, int(seconds // window_s)) + 1):
        time.sleep(max(0.0, started + k * window_s - time.perf_counter()))
        done = load.completed()
        marks.append((time.perf_counter(), proc_cpu_seconds(server_pid), done))
    rates, cpu_ms, latency_p50s = [], [], []
    for (t0, cpu0, done0), (t1, cpu1, done1) in zip(marks, marks[1:]):
        rates.append((done1 - done0) / (t1 - t0))
        if done1 > done0:
            cpu_ms.append((cpu1 - cpu0) * 1000.0 / (done1 - done0))
            latency_p50s.append(median(load.latencies_ms[done0:done1]))
    return rates, cpu_ms, latency_p50s


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--server-pid", type=int, required=True)
    parser.add_argument("--plan", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--warmup-s", type=float, required=True)
    parser.add_argument("--connections", type=int, required=True)
    parser.add_argument("--window-s", type=float, required=True)
    args = parser.parse_args()
    with open(args.plan, encoding="utf-8") as handle:
        load = Load(args.port, json.load(handle))
    print(json.dumps({"ready": True}), flush=True)

    drive(load, args.connections, time.perf_counter() + args.warmup_s)
    load.measuring = True
    cpu_start = proc_cpu_seconds(args.server_pid)
    started = time.perf_counter()
    threads = start(load, args.connections, started + args.seconds)
    rates, cpu_ms, latency_p50s = windows(
        load, args.server_pid, started, args.seconds, args.window_s
    )
    for thread in threads:
        thread.join()
    server_cpu_s = proc_cpu_seconds(args.server_pid) - cpu_start

    attempted = sum(load.statuses.values()) + load.exceptions
    print(
        json.dumps(
            {
                "attempted": attempted,
                "statuses": load.statuses,
                "exceptions": load.exceptions,
                "call_errors": load.call_errors,
                "wrong_shape": load.wrong_shape,
                "routes": load.routes,
                "latencies_ms": load.latencies_ms,
                "response_bytes": load.response_bytes,
                "duration_s": load.last_end - started,
                "server_cpu_s": server_cpu_s,
                "window_rates": rates,
                "window_cpu_ms": cpu_ms,
                "window_latency_ms_p50": latency_p50s,
                "digests": {
                    str(task): sorted(found) for task, found in load.digests.items()
                },
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
