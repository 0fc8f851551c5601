"""Server launcher for the serve_long workload.

Run as its own process:

    python3 perfbench/serve_child.py --config run.json [--trace]

Loads the run config through ``config.load_run_config``, builds the server
through the public ``serve.build_server(..., port=0)`` and prints
{"port", "pid", "load_s", "build_s"} once it accepts connections.  Serves
until stdin closes.  With ``--trace`` the engine's layer boundaries are
spanned (see tracer.py) and the span totals are printed as a last JSON line
on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time

import multiroute.serve as serve
from multiroute.config import load_run_config

from tracer import Tracer, install_engine_spans

MAX_INFLIGHT = 8


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    tracer = Tracer()
    if args.trace:
        install_engine_spans(tracer, serve, serve)
    started = time.perf_counter()
    run = load_run_config(args.config)
    loaded = time.perf_counter()
    server = serve.build_server(run, "127.0.0.1", 0, MAX_INFLIGHT)
    built = time.perf_counter()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(
        json.dumps(
            {
                "port": server.server_port,
                "pid": os.getpid(),
                "load_s": loaded - started,
                "build_s": built - loaded,
            }
        ),
        flush=True,
    )
    sys.stdin.read()
    server.shutdown()
    server.server_close()
    thread.join()
    if args.trace:
        print(json.dumps({"spans": tracer.snapshot()}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
