"""Minimal HTTP service exposing the routing engine.

POST /route with {"question": ..., "golds": [...]} runs one episode and
returns its record; rewards are included only when golds are supplied.
``Router`` answers it, and ``multiroute route`` prints the same record.
GET /health reports liveness.  A semaphore bounds in-flight episodes; the
shared cost window gives the service online cost normalization across
requests.  A request body must declare a Content-Length of at most
``MAX_BODY_BYTES``; a read that waits over ``READ_TIMEOUT_S`` gets a 408.
Every reply body is a JSON object, ``http.server``'s own errors included.
At most ``MAX_CONNECTIONS`` connections are open at once, each served on a
reused handler thread; one beyond the cap is closed as soon as it is
accepted.
"""

from __future__ import annotations

import collections
import json
import signal
import socket
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

from .config import RunConfig
from .engine import run_episode
from .evaluation import TaskRecord
from .policies import policy_factory
from .rewards import CostWindow, cost_reward

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8777
DEFAULT_MAX_INFLIGHT = 8
# Open connections the server holds at once, idle ones included; each holds
# a handler thread until it closes or a read times out.
MAX_CONNECTIONS = 64
MAX_BODY_BYTES = 1 << 20
# A socket read that waits longer fails, so a client that sends less than
# its Content-Length cannot hold a handler thread.
READ_TIMEOUT_S = 10.0
# How often ``serve_forever`` checks for a shutdown request, and so about how
# long a SIGINT or SIGTERM waits for the server loop to stop.
POLL_INTERVAL_S = 0.05


class Router:
    """Routes tasks one at a time through a shared policy factory and a cost
    window primed with the run's ``eval_warmup_costs``."""

    def __init__(self, run: RunConfig):
        self.run_config = run
        self.policy_factory = policy_factory(run)
        self.window = CostWindow(run.reward.window_capacity)
        for cost in run.eval_warmup_costs:
            cost_reward(self.window, cost, run.reward)

    def route(self, task: TaskRecord) -> dict:
        """Run one episode; the record has ``rewards`` only when scored."""
        run = self.run_config
        episode = run_episode(
            task.question,
            task.golds,
            self.policy_factory(task),
            run.pool,
            self.window,
            run.engine,
            run.reward,
        )
        record = episode.to_record()
        if record["rewards"] is None:
            del record["rewards"]
        return record


class RoutingHTTPServer(HTTPServer, Router):
    """Serves each accepted connection on a reused daemon worker thread.

    A worker counts as free from the moment its reply starts, so one is
    started only when more connections await a reply than there are
    workers; there are never more workers than ``MAX_CONNECTIONS``.  A
    connection beyond that cap is closed by the accepting thread.
    ``server_close`` shuts the open connections down and stops the workers.
    """

    def __init__(self, address, run: RunConfig, max_inflight: int):
        # Built first: a negative bound raises before the port is bound.
        self.inflight = threading.Semaphore(max_inflight)
        # Jobs wait in a deque that a semaphore counts: importing ``queue``
        # would add about 120 KiB to every process that imports this module.
        self._jobs: collections.deque = collections.deque()
        self._queued = threading.Semaphore(0)
        self._workers: list[threading.Thread] = []
        # Open connections, and those of them whose reply has not started.
        self._connections: set[socket.socket] = set()
        self._unanswered: set[socket.socket] = set()
        self._closing = False
        Router.__init__(self, run)
        HTTPServer.__init__(self, address, _Handler)

    def process_request(self, request, client_address) -> None:
        if len(self._connections) >= MAX_CONNECTIONS:
            self.shutdown_request(request)
            return
        self._connections.add(request)
        self._unanswered.add(request)
        if len(self._unanswered) > len(self._workers):
            worker = threading.Thread(target=self._work, daemon=True)
            self._workers.append(worker)
            worker.start()
        self._put((request, client_address))

    def _put(self, job) -> None:
        self._jobs.append(job)
        self._queued.release()

    def _next_job(self):
        self._queued.acquire()
        return self._jobs.popleft()

    def _work(self) -> None:
        while (job := self._next_job()) is not None:
            request, client_address = job
            try:
                self.finish_request(request, client_address)
            except Exception:
                if not self._closing:
                    self.handle_error(request, client_address)
            finally:
                self._unanswered.discard(request)
                self.shutdown_request(request)
                # The connection's slot frees only once it is closed.
                self._connections.discard(request)

    def server_close(self) -> None:
        self._closing = True
        super().server_close()
        # A client that keeps sending never lets a read time out; shutting
        # its connection down ends the worker's next read or write.
        for request in list(self._connections):
            try:
                request.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        for _ in self._workers:
            self._put(None)
        for worker in self._workers:
            worker.join()
        self._workers.clear()


class _Handler(BaseHTTPRequestHandler):
    server: RoutingHTTPServer

    def setup(self) -> None:
        self.request.settimeout(READ_TIMEOUT_S)
        super().setup()

    def log_message(self, *args) -> None:  # quiet by default
        pass

    def _send_json(self, status: int, payload: dict) -> None:
        body = json.dumps(payload, sort_keys=True).encode()
        # The worker is free once its reply starts: the client's next
        # connection waits in the queue for it rather than starting another.
        self.server._unanswered.discard(self.request)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        if self.command != "HEAD":
            self.wfile.write(body)

    def send_error(self, code: int, message=None, explain=None) -> None:
        """Answer ``http.server``'s own errors (an unsupported method, too
        many or too long headers, a request line it cannot read) as JSON,
        then close the connection."""
        self.close_connection = True
        # A request line too bad to name a version leaves HTTP/0.9 here,
        # which would send the reply without its status line.
        self.request_version = self.protocol_version
        self._send_json(code, {"error": message or self.responses[code][0]})

    def do_GET(self) -> None:
        if self.path != "/health":
            self._send_json(404, {"error": "not found"})
            return
        self._send_json(
            200, {"status": "ok", "models": len(self.server.run_config.pool)}
        )

    def do_POST(self) -> None:
        if self.path != "/route":
            self._send_json(404, {"error": "not found"})
            return
        # One value of ASCII digits, however often it is repeated; ``int``
        # alone would also read "+18" and "1_8".
        values = {
            value.strip(" \t")
            for value in self.headers.get_all("Content-Length", ["0"])
        }
        text = values.pop() if len(values) == 1 else ""
        if not (text.isascii() and text.isdigit()):
            self._send_json(400, {"error": "bad Content-Length"})
            return
        # A value with more digits than the cap is over it; ``int`` is never
        # handed one, as it refuses a long enough string.
        digits = text.lstrip("0") or "0"
        if len(digits) > len(str(MAX_BODY_BYTES)) or int(digits) > MAX_BODY_BYTES:
            self._send_json(413, {"error": f"body over {MAX_BODY_BYTES} bytes"})
            return
        try:
            payload = json.loads(self.rfile.read(int(digits)) or b"{}")
            if not isinstance(payload, dict):
                raise ValueError("body must be a JSON object")
            task = TaskRecord(
                id=None, question=payload["question"], golds=payload.get("golds")
            )
        except TimeoutError:
            self._send_json(408, {"error": "timed out reading the body"})
            return
        except (RecursionError, KeyError, ValueError) as exc:
            self._send_json(400, {"error": str(exc)})
            return

        if not self.server.inflight.acquire(blocking=False):
            self._send_json(503, {"error": "too many in-flight requests"})
            return
        try:
            self._send_json(200, self.server.route(task))
        except Exception as exc:  # a failed episode must not kill the server
            self._send_json(500, {"error": str(exc)})
        finally:
            self.server.inflight.release()


def build_server(
    run: RunConfig,
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    max_inflight: int = DEFAULT_MAX_INFLIGHT,
) -> RoutingHTTPServer:
    return RoutingHTTPServer((host, port), run, max_inflight)


def serve_forever(
    run: RunConfig, host: str, port: int, max_inflight: int = DEFAULT_MAX_INFLIGHT
) -> None:
    server = build_server(run, host, port, max_inflight)

    def _stop(signum, frame):
        threading.Thread(target=server.shutdown, daemon=True).start()

    signal.signal(signal.SIGINT, _stop)
    signal.signal(signal.SIGTERM, _stop)
    try:
        server.serve_forever(POLL_INTERVAL_S)
    finally:
        server.server_close()
