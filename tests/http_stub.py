"""Tiny scripted chat-completions server for backend tests."""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from multiroute.serve import POLL_INTERVAL_S


class ScriptedChatHandler(BaseHTTPRequestHandler):
    """Pops one scripted step per POST: {"status", "body" | "raw", "sleep"?}.

    ``body`` is sent JSON-encoded; ``raw`` is sent as the given text as is.
    """

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        payload = json.loads(self.rfile.read(length) or b"{}")
        self.server.received.append(payload)
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
            self.end_headers()
            self.wfile.write(body)
        except OSError:
            pass  # client gave up (timeout tests); nothing to report

    def log_message(self, *args):  # keep pytest output clean
        pass


def start_scripted_server(script=()):
    """Start a loopback server; returns it with .url, .script, .received."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), ScriptedChatHandler)
    server.script = list(script)
    server.received = []
    thread = threading.Thread(
        target=server.serve_forever, args=(POLL_INTERVAL_S,), daemon=True
    )
    thread.start()
    server.url = f"http://127.0.0.1:{server.server_port}/v1/chat/completions"
    return server


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
