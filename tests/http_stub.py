"""Tiny scripted chat-completions server for backend tests."""

from __future__ import annotations

import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from multiroute.serve import POLL_INTERVAL_S


class ScriptedChatHandler(BaseHTTPRequestHandler):
    """Pops one scripted step per POST:
    {"status", "body" | "raw", "headers"?, "sleep"?}.

    ``body`` is sent JSON-encoded; ``raw`` is sent as the given text as is;
    ``headers`` are extra reply headers.  Each request's JSON payload goes to
    ``server.received`` and its wire form (the request target, which holds
    the path and query; headers with lower-cased names; body bytes) to
    ``server.requests``.
    """

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        raw_body = self.rfile.read(length)
        headers = {name.lower(): value for name, value in self.headers.items()}
        self.server.requests.append(
            {"target": self.path, "headers": headers, "body": raw_body}
        )
        self.server.received.append(json.loads(raw_body or b"{}"))
        if not self.server.script:
            step = {"status": 200, "body": {"choices": [{"text": "empty"}]}}
        else:
            step = self.server.script.pop(0)
        if step.get("sleep"):
            time.sleep(step["sleep"])
        if "raw" in step:
            body = step["raw"].encode()
        else:
            body = json.dumps(step.get("body", {})).encode()
        try:
            self.send_response(step.get("status", 200))
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            for name, value in step.get("headers", {}).items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(body)
        except OSError:
            pass  # client gave up (timeout tests); nothing to report

    def log_message(self, *args):  # keep pytest output clean
        pass


def start_scripted_server(script=()):
    """Start a loopback server; returns it with .url, .script, .received and
    .requests."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), ScriptedChatHandler)
    server.script = list(script)
    server.received = []
    server.requests = []
    thread = threading.Thread(
        target=server.serve_forever, args=(POLL_INTERVAL_S,), daemon=True
    )
    thread.start()
    server.url = f"http://127.0.0.1:{server.server_port}/v1/chat/completions"
    return server


# Names a loopback-only resolver answers, IDNA-encoded as getaddrinfo sends
# them.
LOOPBACK_NAMES = {b"127.0.0.1", b"localhost", b"::1"}


def resolve_loopback_only(monkeypatch):
    """Patch ``socket.getaddrinfo`` so a test never asks a name server: a
    name outside ``LOOPBACK_NAMES`` fails as unknown.  A ``str`` host is
    IDNA-encoded first, as the real function does, so a bad label still
    raises ``UnicodeError``."""
    real = socket.getaddrinfo

    def getaddrinfo(host, port, *args, **kwargs):
        name = host.encode("idna") if isinstance(host, str) else host
        if name not in LOOPBACK_NAMES:
            raise socket.gaierror(socket.EAI_NONAME, "Name or service not known")
        return real(host, port, *args, **kwargs)

    monkeypatch.setattr(socket, "getaddrinfo", getaddrinfo)


def stop_server(server):
    server.shutdown()
    server.server_close()


def chat_body(content, tokens=None, finish="stop"):
    body = {
        "choices": [{"message": {"content": content}, "finish_reason": finish}]
    }
    if tokens is not None:
        body["usage"] = {"completion_tokens": tokens}
    return body
