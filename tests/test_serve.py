"""HTTP service tests against an ephemeral-port server instance."""

from __future__ import annotations

import http.client
import json
import random
import select
import socket
import sys
import threading
import time

import numpy as np
import pytest
import requests

from multiroute import serve
from multiroute.config import load_run_config
from multiroute.rewards import normalize_answer
from multiroute.serve import MAX_BODY_BYTES, POLL_INTERVAL_S, build_server
from multiroute.trainer import PolicyParams

FILM_Q = (
    "Which film was released more recently, Sacred Silence or "
    "Ek Haseena Thi Ek Deewana Tha?"
)
FILM_GOLD = "Ek Haseena Thi Ek Deewana Tha"

FILM_SCRIPT = [
    "<think>The large model should know this.</think>\n"
    f"<search>LLaMA-3.1-70B-Instruct: {FILM_Q}</search>",
    f"<think>Clear.</think>\n<answer>{FILM_GOLD}</answer>",
]


def _run_config(tmp_path, policy=None):
    config = {
        "pool": {
            "models": [
                {
                    "id": "llama-3.1-70b-instruct",
                    "display_name": "LLaMA-3.1-70B-Instruct",
                    "param_count_b": 70,
                    "cost_per_token": 0.9,
                    "descriptor_text": "large general model",
                    "backend": {
                        "type": "sim",
                        "kb": {normalize_answer(FILM_Q): FILM_GOLD},
                        "verbosity": 48,
                        "seed": 3,
                    },
                },
                {
                    "id": "mistral-7b-instruct",
                    "display_name": "Mistral-7B-Instruct",
                    "param_count_b": 7,
                    "cost_per_token": 0.2,
                    "descriptor_text": "small fast model",
                    "backend": {"type": "sim", "kb": {}, "verbosity": 16,
                                "seed": 8},
                },
            ]
        },
        "policy": policy or {"kind": "scripted", "script": FILM_SCRIPT},
    }
    path = tmp_path / "serve.json"
    path.write_text(json.dumps(config))
    return load_run_config(str(path))


@pytest.fixture
def server(tmp_path):
    instance = build_server(_run_config(tmp_path), "127.0.0.1", 0)
    thread = threading.Thread(
        target=instance.serve_forever, args=(POLL_INTERVAL_S,), daemon=True
    )
    thread.start()
    instance.base_url = f"http://127.0.0.1:{instance.server_port}"
    yield instance
    instance.shutdown()
    instance.server_close()


def test_health_endpoint(server):
    response = requests.get(f"{server.base_url}/health", timeout=5)
    assert response.status_code == 200
    assert response.json() == {"status": "ok", "models": 2}


def test_unknown_paths_are_404(server):
    assert requests.get(f"{server.base_url}/nope", timeout=5).status_code == 404
    assert (
        requests.post(f"{server.base_url}/nope", json={}, timeout=5).status_code
        == 404
    )


def test_route_with_golds_returns_scored_record(server):
    response = requests.post(
        f"{server.base_url}/route",
        json={"question": FILM_Q, "golds": [FILM_GOLD]},
        timeout=10,
    )
    assert response.status_code == 200
    record = response.json()
    assert record["final_answer"] == FILM_GOLD
    assert record["route_count"] == 1
    assert record["rewards"]["outcome"] == 1.0
    assert record["calls"][0]["model_id"] == "llama-3.1-70b-instruct"


def test_route_without_golds_omits_rewards(server):
    response = requests.post(
        f"{server.base_url}/route", json={"question": FILM_Q}, timeout=10
    )
    assert response.status_code == 200
    record = response.json()
    assert "rewards" not in record
    assert record["final_answer"] == FILM_GOLD


def test_scored_requests_share_the_cost_window(server):
    for _ in range(2):
        requests.post(
            f"{server.base_url}/route",
            json={"question": FILM_Q, "golds": [FILM_GOLD]},
            timeout=10,
        )
    requests.post(
        f"{server.base_url}/route", json={"question": FILM_Q}, timeout=10
    )
    assert server.window.pushes == 2  # unscored requests do not push


@pytest.mark.parametrize(
    "payload",
    [
        {},
        {"question": "   "},
        {"question": 7},
        {"question": "q?", "golds": []},
        {"question": "q?", "golds": [1, 2]},
        {"question": "q?", "golds": "not a list"},
        {"question": "\ud800 where?"},
    ],
)
def test_invalid_route_payloads_are_400(server, payload):
    response = requests.post(
        f"{server.base_url}/route", json=payload, timeout=5
    )
    assert response.status_code == 400
    assert "error" in response.json()


def test_malformed_json_is_400(server):
    response = requests.post(
        f"{server.base_url}/route",
        data="{not json",
        headers={"Content-Type": "application/json"},
        timeout=5,
    )
    assert response.status_code == 400


def test_saturated_server_returns_503(tmp_path):
    instance = build_server(_run_config(tmp_path), "127.0.0.1", 0, max_inflight=0)
    thread = threading.Thread(
        target=instance.serve_forever, args=(POLL_INTERVAL_S,), daemon=True
    )
    thread.start()
    try:
        response = requests.post(
            f"http://127.0.0.1:{instance.server_port}/route",
            json={"question": FILM_Q},
            timeout=5,
        )
        assert response.status_code == 503
    finally:
        instance.shutdown()
        instance.server_close()


def test_episode_failure_returns_500(tmp_path, monkeypatch):
    monkeypatch.delenv("NO_SUCH_POLICY_URL", raising=False)
    run = _run_config(
        tmp_path,
        policy={"kind": "http", "model": "m", "url_env": "NO_SUCH_POLICY_URL"},
    )
    instance = build_server(run, "127.0.0.1", 0)
    thread = threading.Thread(
        target=instance.serve_forever, args=(POLL_INTERVAL_S,), daemon=True
    )
    thread.start()
    try:
        response = requests.post(
            f"http://127.0.0.1:{instance.server_port}/route",
            json={"question": FILM_Q},
            timeout=5,
        )
        assert response.status_code == 500
        assert "NO_SUCH_POLICY_URL" in response.json()["error"]
    finally:
        instance.shutdown()
        instance.server_close()


def test_non_finite_decision_returns_500(tmp_path):
    models = ["llama-3.1-70b-instruct", "mistral-7b-instruct"]
    params = PolicyParams(16, (*models, "answer"), np.ones((16, 3)), 1e-320)
    (tmp_path / "params.json").write_text(params.to_json())
    run = _run_config(tmp_path, policy={"kind": "params", "path": "params.json"})
    instance = build_server(run, "127.0.0.1", 0)
    thread = threading.Thread(
        target=instance.serve_forever, args=(POLL_INTERVAL_S,), daemon=True
    )
    thread.start()
    try:
        response = requests.post(
            f"http://127.0.0.1:{instance.server_port}/route",
            json={"question": FILM_Q},
            timeout=5,
        )
        assert response.status_code == 500
        assert response.json() == {"error": "action probabilities are not finite"}
    finally:
        instance.shutdown()
        instance.server_close()


@pytest.mark.parametrize(
    "length, status",
    [("-1", 400), ("ten", 400), (str(MAX_BODY_BYTES + 1), 413)],
)
def test_bad_content_length_is_answered_without_reading_the_body(
    server, length, status
):
    # A server that tries to read the body waits for bytes that never come;
    # the socket timeout turns that wait into a test failure.
    with socket.create_connection(("127.0.0.1", server.server_port), timeout=5) as sock:
        sock.sendall(
            f"POST /route HTTP/1.1\r\nHost: localhost\r\n"
            f"Content-Length: {length}\r\n\r\n".encode()
        )
        status_line = sock.makefile("rb").readline()
    assert status_line.split()[1] == str(status).encode()


@pytest.mark.parametrize(
    "lengths, status",
    [
        (["1_8"], b"400"),
        (["+18"], b"400"),
        (["18", "3"], b"400"),
        (["9" * 5000], b"413"),
        (["{n}", "{n} "], b"200"),
        (["0" * 5000 + "{n}"], b"200"),
    ],
    ids=[
        "underscore",
        "plus-sign",
        "differing-duplicates",
        "5000-digits",
        "identical-duplicates",
        "5000-leading-zeros",
    ],
)
def test_content_length_is_one_value_of_ascii_digits(server, capsys, lengths, status):
    # The body is sent only when it must be read: a server that read one it
    # should have refused would wait out the socket timeout.
    body = json.dumps({"question": FILM_Q}).encode() if status == b"200" else b""
    headers = "".join(
        f"Content-Length: {value.format(n=len(body))}\r\n" for value in lengths
    )
    status_line = _raw_request(
        server.server_port,
        f"POST /route HTTP/1.1\r\nHost: localhost\r\n{headers}\r\n".encode() + body,
    )
    assert status_line.split()[1] == status
    assert "Traceback" not in capsys.readouterr().err


def _raw_request(port: int, request: bytes) -> bytes:
    """Send ``request`` on a fresh connection; return the reply's status line."""
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        sock.sendall(request)
        return sock.makefile("rb").readline()


@pytest.mark.parametrize("body", [b"[]", b'"q"', b"5", b"null"])
def test_body_that_is_not_an_object_is_400(server, body):
    status_line = _raw_request(
        server.server_port,
        b"POST /route HTTP/1.1\r\nHost: localhost\r\n"
        b"Content-Length: %d\r\n\r\n%s" % (len(body), body),
    )
    assert status_line.split()[1] == b"400"
    response = requests.get(f"{server.base_url}/health", timeout=5)
    assert response.status_code == 200


def test_deeply_nested_body_is_400(server):
    response = requests.post(
        f"{server.base_url}/route", data="[" * 100_000, timeout=5
    )
    assert response.status_code == 400
    assert "error" in response.json()
    response = requests.get(f"{server.base_url}/health", timeout=5)
    assert response.status_code == 200


def test_body_shorter_than_its_content_length_times_out(server, monkeypatch):
    monkeypatch.setattr(serve, "READ_TIMEOUT_S", 0.2)
    status_line = _raw_request(
        server.server_port,
        b"POST /route HTTP/1.1\r\nHost: localhost\r\n"
        b"Content-Length: 10\r\n\r\n{}",
    )
    assert status_line.split()[1] == b"408"
    response = requests.get(f"{server.base_url}/health", timeout=5)
    assert response.status_code == 200


# Each request is sent whole and read to its last byte by ``http.server``
# before it answers: unread bytes would make the close a reset.
SERVER_ERRORS = {
    "put": (b"PUT /route HTTP/1.1\r\nHost: localhost\r\n\r\n", b"501"),
    "head": (b"HEAD /health HTTP/1.1\r\nHost: localhost\r\n\r\n", b"501"),
    "uri-too-long": (b"GET /" + b"a" * 65532, b"414"),
    "too-many-headers": (
        b"GET /health HTTP/1.1\r\n" + b"X: 1\r\n" * 101, b"431"
    ),
    "header-too-long": (
        b"GET /health HTTP/1.1\r\nX: " + b"a" * 65534, b"431"
    ),
    "syntax": (b"GARBAGE\r\n", b"400"),
    "version": (b"GET /health FOO/1.0\r\n\r\n", b"400"),
    "http-2": (b"GET /health HTTP/2.0\r\n\r\n", b"505"),
    "http-0.9-post": (b"POST /route\r\n\r\n", b"400"),
}


@pytest.mark.parametrize(
    "request_bytes, status", SERVER_ERRORS.values(), ids=SERVER_ERRORS.keys()
)
def test_http_server_errors_are_json_and_close_the_connection(
    server, request_bytes, status
):
    with socket.create_connection(("127.0.0.1", server.server_port), timeout=5) as sock:
        sock.sendall(request_bytes)
        reply = sock.makefile("rb")
        assert reply.readline().split()[1] == status
        headers = {}
        while (line := reply.readline()) != b"\r\n":
            name, _, value = line.decode().partition(":")
            headers[name.lower()] = value.strip()
        body = reply.read()  # to the end: the server closes the connection
    assert headers["content-type"] == "application/json"
    if request_bytes.startswith(b"HEAD "):
        assert body == b""
    else:
        assert len(body) == int(headers["content-length"])
        assert list(json.loads(body)) == ["error"]
    response = requests.get(f"{server.base_url}/health", timeout=5)
    assert response.status_code == 200


# ---------------------------------------------------------------------------
# connection cap and reused handler threads
# ---------------------------------------------------------------------------

ROUTE_BODY = json.dumps({"question": FILM_Q}).encode()
ROUTE_REQUEST = b"POST /route HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s" % (
    len(ROUTE_BODY),
    ROUTE_BODY,
)


def _serving(instance) -> threading.Thread:
    thread = threading.Thread(
        target=instance.serve_forever, args=(POLL_INTERVAL_S,), daemon=True
    )
    thread.start()
    return thread


def _stop(instance, thread) -> None:
    instance.shutdown()
    instance.server_close()
    thread.join(5)
    assert not thread.is_alive()


def _closed_by_server(sockets, count, timeout=5.0) -> list:
    """Wait until ``count`` of ``sockets`` read end-of-stream; return them."""
    closed = []
    deadline = time.monotonic() + timeout
    while len(closed) < count and time.monotonic() < deadline:
        waiting = [sock for sock in sockets if sock not in closed]
        for sock in select.select(waiting, [], [], 0.05)[0]:
            try:
                assert sock.recv(1) == b""
            except ConnectionResetError:
                pass
            closed.append(sock)
    return closed


def _route_when_admitted(port: int, timeout=5.0) -> bytes:
    """POST /route until a connection is served; return its status line."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            status_line = _raw_request(port, ROUTE_REQUEST)
        except ConnectionError:
            status_line = b""
        if status_line or time.monotonic() > deadline:
            return status_line
        time.sleep(0.05)


def test_connections_beyond_the_cap_are_closed_at_once(tmp_path, monkeypatch):
    monkeypatch.setattr(serve, "MAX_CONNECTIONS", 4)
    before = threading.active_count()
    instance = build_server(_run_config(tmp_path), "127.0.0.1", 0)
    thread = _serving(instance)
    port = instance.server_port
    idle = [socket.create_connection(("127.0.0.1", port), timeout=5) for _ in range(6)]
    try:
        closed = _closed_by_server(idle, 2)
        assert len(closed) == 2
        held = [sock for sock in idle if sock not in closed]
        assert select.select(held, [], [], 0.2)[0] == []
        # The serve_forever thread, and one handler per held connection.
        assert threading.active_count() <= before + 1 + 4
    finally:
        for sock in idle:
            sock.close()
    try:
        assert _route_when_admitted(port).split()[1] == b"200"
    finally:
        _stop(instance, thread)


def test_sequential_requests_reuse_handler_threads(tmp_path):
    instance = build_server(_run_config(tmp_path), "127.0.0.1", 0)
    handlers = []
    route = instance.route

    def recording(task):
        handlers.append(threading.current_thread())
        return route(task)

    instance.route = recording
    thread = _serving(instance)
    try:
        for _ in range(20):
            with socket.create_connection(
                ("127.0.0.1", instance.server_port), timeout=5
            ) as sock:
                sock.sendall(ROUTE_REQUEST)
                reply = sock.makefile("rb").read()
            assert reply.split()[1] == b"200"
    finally:
        _stop(instance, thread)
    assert len(handlers) == 20
    assert len(set(handlers)) <= 2


def test_server_close_stops_the_handler_threads(tmp_path):
    before = threading.active_count()
    instance = build_server(_run_config(tmp_path), "127.0.0.1", 0)
    thread = _serving(instance)
    idle = [
        socket.create_connection(("127.0.0.1", instance.server_port), timeout=5)
        for _ in range(3)
    ]
    assert _raw_request(instance.server_port, ROUTE_REQUEST).split()[1] == b"200"
    assert threading.active_count() > before + 1
    for sock in idle:
        sock.close()
    _stop(instance, thread)
    assert threading.active_count() == before


def test_server_close_ends_a_connection_that_keeps_sending(tmp_path, monkeypatch):
    # A byte every 0.2 s keeps each read under the 1 s read timeout, so the
    # connection outlives it; server_close must still return at once.
    monkeypatch.setattr(serve, "READ_TIMEOUT_S", 1.0)
    instance = build_server(_run_config(tmp_path), "127.0.0.1", 0)
    thread = _serving(instance)
    sock = socket.create_connection(("127.0.0.1", instance.server_port), timeout=5)
    stop = threading.Event()

    def drip():
        for byte in ROUTE_REQUEST:
            if stop.wait(0.2):
                return
            try:
                sock.send(bytes([byte]))
            except OSError:
                return

    dripper = threading.Thread(target=drip, daemon=True)
    dripper.start()
    try:
        time.sleep(1.5)
        assert len(instance._connections) == 1
        started = time.monotonic()
        _stop(instance, thread)
        assert time.monotonic() - started < 0.5
    finally:
        stop.set()
        dripper.join(5)
        sock.close()


def test_concurrent_clients_never_raise_handlers_past_the_cap(tmp_path, monkeypatch):
    # More clients than the cap, and thread switches every 10 us: each
    # request is admitted at last, and no lost update lets a fifth handler
    # thread start.
    monkeypatch.setattr(serve, "MAX_CONNECTIONS", 4)
    instance = build_server(_run_config(tmp_path), "127.0.0.1", 0)
    statuses = []

    def client():
        for _ in range(5):
            statuses.append(_route_when_admitted(instance.server_port, timeout=20))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    thread = _serving(instance)
    try:
        clients = [threading.Thread(target=client) for _ in range(8)]
        for each in clients:
            each.start()
        for each in clients:
            each.join(30)
        assert not any(each.is_alive() for each in clients)
        assert len(instance._workers) <= 4
    finally:
        sys.setswitchinterval(interval)
        _stop(instance, thread)
    assert [line.split()[1] for line in statuses] == [b"200"] * 40


def test_a_worker_is_free_once_its_reply_starts(tmp_path):
    # Two closed-loop clients, a new connection per request, each reading
    # its reply by Content-Length as perfbench's client does: the next
    # connection finds the worker whose reply has started, so two workers
    # serve both clients.
    instance = build_server(_run_config(tmp_path), "127.0.0.1", 0)
    statuses = []

    def client():
        for _ in range(40):
            conn = http.client.HTTPConnection(
                "127.0.0.1", instance.server_port, timeout=5
            )
            try:
                conn.request("POST", "/route", body=ROUTE_BODY)
                response = conn.getresponse()
                response.read()
                statuses.append(response.status)
            finally:
                conn.close()

    thread = _serving(instance)
    try:
        clients = [threading.Thread(target=client) for _ in range(2)]
        for each in clients:
            each.start()
        for each in clients:
            each.join(30)
        assert not any(each.is_alive() for each in clients)
        assert len(instance._workers) <= 2
    finally:
        _stop(instance, thread)
    assert statuses == [200] * 80


# ---------------------------------------------------------------------------
# seeded fuzz: random bodies never reach a 5xx
# ---------------------------------------------------------------------------

FUZZ_TEXTS = ("", " ", "q?", FILM_Q, "\ud800", "a\udcff b", "\x00", "\u00e9t\u00e9")


def _fuzz_value(rng: random.Random, depth: int = 0):
    roll = rng.random()
    if depth > 3 or roll < 0.4:
        return rng.choice(
            [*FUZZ_TEXTS, 0, -1, 2.5, float("nan"), float("inf"), True, None]
        )
    if roll < 0.7:
        return [_fuzz_value(rng, depth + 1) for _ in range(rng.randrange(3))]
    return {
        rng.choice(["question", "golds", "id", "x"]): _fuzz_value(rng, depth + 1)
        for _ in range(rng.randrange(3))
    }


def _fuzz_body(rng: random.Random) -> bytes:
    roll = rng.random()
    if roll < 0.1:
        depth = rng.choice([10, 1000, 100_000])
        return b'{"question": ' + b"[" * depth + b"]" * rng.randrange(2) * depth + b"}"
    if roll < 0.2:
        return bytes(rng.randrange(256) for _ in range(rng.randrange(1, 40)))
    body = {"question": rng.choice(FUZZ_TEXTS)} if roll < 0.7 else {}
    for key in ("question", "golds", "id"):
        if rng.random() < 0.3:
            body[key] = _fuzz_value(rng, 1)
    text = json.dumps(body, ensure_ascii=rng.random() < 0.5)
    # A lone surrogate left unescaped goes out as its raw UTF-8 bytes.
    return text.encode("utf-8", "surrogatepass")


def test_fuzzed_route_bodies_get_200_or_4xx(tmp_path):
    models = ["llama-3.1-70b-instruct", "mistral-7b-instruct"]
    params = PolicyParams(16, (*models, "answer"), np.zeros((16, 3)))
    (tmp_path / "params.json").write_text(params.to_json())
    run = _run_config(tmp_path, policy={"kind": "params", "path": "params.json"})
    instance = build_server(run, "127.0.0.1", 0)
    thread = threading.Thread(
        target=instance.serve_forever, args=(POLL_INTERVAL_S,), daemon=True
    )
    thread.start()
    rng = random.Random(5)
    statuses = set()
    try:
        for _ in range(300):
            body = _fuzz_body(rng)
            response = requests.post(
                f"http://127.0.0.1:{instance.server_port}/route", data=body, timeout=10
            )
            assert response.status_code == 200 or 400 <= response.status_code < 500, (
                body[:200],
                response.text[:200],
            )
            statuses.add(response.status_code)
    finally:
        instance.shutdown()
        instance.server_close()
    assert statuses == {200, 400}
