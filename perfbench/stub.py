"""Loopback chat-completions endpoint standing in for remote models.

Run as its own process:

    python3 perfbench/stub.py --models models.json --delay-ms 5

``models.json`` maps a model name to {"kb": {question: answer}, "accuracy",
"seed", "verbosity"}.  Each POST sleeps ``--delay-ms`` in place of network
latency, then answers from the model's knowledge base with a reply padded to
``verbosity`` words and ``usage.completion_tokens`` set.  Replies are a pure
function of (model, sub-query).  The server speaks HTTP/1.1, so a client
that keeps its connection open is served on it; ``GET /stats`` returns how
many completions were served and over how many TCP connections.

Prints {"port": N} once listening and exits when stdin closes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

SUB_QUERY_MARKER = "Here is the sub-question for you to assist with:"
UNABLE = (
    "I am unable to assist with this question. "
    "Please consult other LLMs for further assistance."
)
FILLER = "context follows with related notes and sources for completeness".split()


def _draw(seed: int, text: str) -> float:
    digest = hashlib.sha256(f"{seed}|{text}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


class StubServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, models: dict, delay_s: float):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.models = models
        self.delay_s = delay_s
        self.lock = threading.Lock()
        self.completions = 0
        self.connections = 0

    def reply(self, model: str, prompt: str) -> str:
        profile = self.models[model]
        sub_query = prompt.rpartition(SUB_QUERY_MARKER)[2].strip()
        answer = profile["kb"].get(sub_query)
        if answer is None or _draw(profile["seed"], sub_query) >= profile["accuracy"]:
            answer = UNABLE
        padding = profile["verbosity"] - len(answer.split())
        if padding <= 0:
            return answer
        return answer + "\n" + " ".join(FILLER[i % len(FILLER)] for i in range(padding))


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: StubServer

    def setup(self) -> None:
        super().setup()
        self.counted = False  # one handler instance serves one connection

    def log_message(self, *args) -> None:
        pass

    def _send(self, payload: dict) -> None:
        body = json.dumps(payload).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:
        with self.server.lock:
            stats = {
                "completions": self.server.completions,
                "connections": self.server.connections,
            }
        self._send(stats)

    def do_POST(self) -> None:
        payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        with self.server.lock:
            self.server.completions += 1
            if not self.counted:
                self.server.connections += 1
                self.counted = True
        time.sleep(self.server.delay_s)
        text = self.server.reply(payload["model"], payload["messages"][-1]["content"])
        self._send(
            {
                "choices": [
                    {
                        "message": {"role": "assistant", "content": text},
                        "finish_reason": "stop",
                    }
                ],
                "usage": {"completion_tokens": len(text.split())},
            }
        )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--models", required=True)
    parser.add_argument("--delay-ms", type=float, required=True)
    args = parser.parse_args()
    with open(args.models, encoding="utf-8") as handle:
        models = json.load(handle)
    server = StubServer(models, args.delay_ms / 1000.0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(json.dumps({"port": server.server_port}), flush=True)
    sys.stdin.read()
    server.shutdown()
    server.server_close()
    thread.join()
    return 0


if __name__ == "__main__":
    sys.exit(main())
