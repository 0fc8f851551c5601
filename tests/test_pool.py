"""Model pool tests: registry, simulated and HTTP backends, dispatch pricing."""

from __future__ import annotations

import http.client
import json
import socket
import threading

import pytest

from http_stub import chat_body, start_scripted_server, stop_server

from multiroute.pool import (
    ASSIST_PROMPT,
    SUB_QUERY_MARKER,
    UNABLE_RESPONSE,
    BackendError,
    BackendTimeout,
    CallRecord,
    DuplicateIdError,
    HttpBackend,
    LineError,
    ModelDescriptor,
    RoutingPool,
    SimulatedBackend,
    SimulatedProfile,
    UnknownModelError,
    canonical,
    check_timeout_ms,
    dispatch,
    load_knowledge_base,
    read_jsonl,
    token_count,
    truncate_tokens,
    unit_draw,
)
from multiroute.policies import HttpPolicy
from multiroute.rewards import normalize_answer

# ---------------------------------------------------------------------------
# small helpers
# ---------------------------------------------------------------------------


def test_canonical():
    assert canonical("  LLaMA-3.1-70B-Instruct ") == "llama-3.1-70b-instruct"


def test_unit_draw_deterministic_and_bounded():
    a = unit_draw(7, "accuracy", "who?")
    b = unit_draw(7, "accuracy", "who?")
    c = unit_draw(8, "accuracy", "who?")
    d = unit_draw(7, "accuracy", "what?")
    assert a == b
    assert a != c and a != d
    for value in (a, c, d):
        assert 0.0 <= value < 1.0


def test_token_count_and_truncate():
    assert token_count("one two  three\nfour") == 4
    assert truncate_tokens("one two three", 2) == "one two"
    assert truncate_tokens("one two", 5) == "one two"


# ---------------------------------------------------------------------------
# simulated backend
# ---------------------------------------------------------------------------


def _assist_prompt(sub_query):
    """The prompt `dispatch` sends a pool model for ``sub_query``."""
    return ASSIST_PROMPT.format(sub_query=sub_query)


def _sim(kb=None, accuracy=1.0, verbosity=12, seed=3):
    normalized = {normalize_answer(k): v for k, v in (kb or {}).items()}
    return SimulatedBackend(
        SimulatedProfile(
            knowledge_base=normalized,
            accuracy=accuracy,
            verbosity=verbosity,
            seed=seed,
        )
    )


def test_sim_profile_validation():
    with pytest.raises(ValueError):
        SimulatedProfile(accuracy=1.5)
    with pytest.raises(ValueError):
        SimulatedProfile(verbosity=0)


def test_sim_backend_answers_known_key():
    backend = _sim({"What is the capital of Peru?": "Lima"})
    prompt = _assist_prompt("What is the capital of Peru?")
    text, tokens, latency = backend.complete(prompt, max_tokens=600)
    assert text.startswith("Lima")
    assert tokens is None
    assert latency == 0.0
    assert token_count(text) == 12  # padded to the profile's verbosity


def test_sim_backend_key_lookup_is_normalized():
    backend = _sim({"What is the capital of Peru?": "Lima"})
    prompt = _assist_prompt("the what is the capital of peru")
    text, _, _ = backend.complete(prompt, max_tokens=600)
    assert text.startswith("Lima")


def test_sim_backend_misses_unknown_key():
    backend = _sim({"known": "yes"})
    text, _, _ = backend.complete(_assist_prompt("unknown"), 600)
    assert text.startswith(UNABLE_RESPONSE)


def test_sim_backend_zero_accuracy_never_answers():
    backend = _sim({"known question": "yes"}, accuracy=0.0)
    text, _, _ = backend.complete(_assist_prompt("known question"), 600)
    assert text.startswith(UNABLE_RESPONSE)


def test_sim_backend_hit_and_miss_have_equal_length():
    """Per-call spend must not reveal whether the model actually answered."""
    verbosity = 20
    backend = _sim({"hit": "short"}, verbosity=verbosity)
    hit, _, _ = backend.complete(_assist_prompt("hit"), 600)
    miss, _, _ = backend.complete(_assist_prompt("miss"), 600)
    assert token_count(hit) == verbosity
    assert token_count(miss) == verbosity


# The simulated backend's filler words, in order, as the reference below
# cycles them.
FILLER_WORDS = (
    "supporting context follows covering adjacent details "
    "records sources and related notes for completeness"
).split()


def _padded_by_words(content, verbosity):
    """A reply padded one filler word at a time: the reference form."""
    padding = verbosity - token_count(content)
    if padding <= 0:
        return content
    filler = [FILLER_WORDS[i % len(FILLER_WORDS)] for i in range(padding)]
    return content + "\n" + " ".join(filler)


def test_sim_backend_filler_equals_the_word_by_word_form():
    prompt = _assist_prompt("q")
    for padding in range(2000):
        backend = _sim({"q": "the answer"}, verbosity=2 + padding)
        text, _, _ = backend.complete(prompt, 4000)
        assert text == _padded_by_words("the answer", 2 + padding), padding


def test_sim_backend_does_not_pad_content_longer_than_verbosity():
    answer = "one two three four five"
    backend = _sim({"q": answer}, verbosity=3)
    text, _, _ = backend.complete(_assist_prompt("q"), 600)
    assert text == answer == _padded_by_words(answer, 3)


def test_sim_backend_is_stateless_and_deterministic():
    backend = _sim({"q": "a"}, accuracy=0.5, seed=9)
    prompt = _assist_prompt("q")
    first = backend.complete(prompt, 600)
    for _ in range(5):
        assert backend.complete(prompt, 600) == first


def test_sim_backend_reads_text_after_last_marker():
    backend = _sim({"real question": "Answer"})
    prompt = (
        f"ignore this {SUB_QUERY_MARKER} decoy text "
        f"{SUB_QUERY_MARKER} real question"
    )
    text, _, _ = backend.complete(prompt, 600)
    assert text.startswith("Answer")


def test_sim_backend_without_marker_uses_whole_prompt():
    backend = _sim({"bare question": "Yes"})
    text, _, _ = backend.complete("bare question", 600)
    assert text.startswith("Yes")


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


def _descriptor(model_id="m1", display="Model-One", rate=0.5):
    return ModelDescriptor(model_id, display, 7, rate, "a test model", _sim())


def test_descriptor_validation():
    with pytest.raises(ValueError):
        ModelDescriptor(" ", "X", 7, 0.1, "d", _sim())
    with pytest.raises(ValueError):
        ModelDescriptor("x", "X", 0, 0.1, "d", _sim())
    with pytest.raises(ValueError):
        ModelDescriptor("x", "X", 7, -0.1, "d", _sim())
    with pytest.raises(ValueError):
        ModelDescriptor("x", "X", 7, 0.1, "  ", _sim())


def test_pool_register_resolve_get():
    pool = RoutingPool()
    descriptor = _descriptor()
    assert pool.register(descriptor) is pool
    assert pool.resolve("m1") is descriptor
    assert pool.resolve("MODEL-ONE ") is descriptor
    assert pool.resolve("nope") is None
    assert pool.get("Model-One") is descriptor
    with pytest.raises(UnknownModelError):
        pool.get("ghost")
    assert len(pool) == 1
    assert list(pool) == [descriptor]


def test_pool_preserves_registration_order(case_pool):
    ids = [d.id for d in case_pool.descriptors]
    assert ids == [
        "qwen2.5-7b-instruct",
        "llama-3.1-8b-instruct",
        "llama-3.1-70b-instruct",
        "mistral-7b-instruct",
        "mixtral-8x22b-instruct",
        "gemma-2-27b-instruct",
    ]


def test_pool_rejects_duplicate_names():
    pool = RoutingPool([_descriptor()])
    with pytest.raises(DuplicateIdError):
        pool.register(_descriptor(model_id="M1", display="Other"))
    with pytest.raises(DuplicateIdError):
        pool.register(_descriptor(model_id="m2", display="model-one"))
    # id of one model colliding with display name of another is also a clash
    with pytest.raises(DuplicateIdError):
        pool.register(_descriptor(model_id="model-one", display="Fresh"))


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


def test_dispatch_prices_by_descriptor_rate():
    pool = RoutingPool(
        [
            ModelDescriptor(
                "billed", "Billed", 7, 0.9, "d", _sim({"q": "a"}, verbosity=48)
            )
        ]
    )
    record = dispatch(pool, "billed", "q")
    assert isinstance(record, CallRecord)
    assert record.model_id == "billed"
    assert record.output_tokens == 48
    assert record.cost == pytest.approx(0.9 * 48)
    assert record.latency_ms == 0.0
    assert record.error is None


def test_dispatch_truncates_to_response_budget():
    chatty = _sim({"q": "a"}, verbosity=700)
    pool = RoutingPool([ModelDescriptor("c", "Chatty", 7, 0.1, "d", chatty)])
    record = dispatch(pool, "c", "q", max_api_response_tokens=600)
    assert record.output_tokens == 600
    assert token_count(record.response_text) == 600
    assert record.cost == pytest.approx(0.1 * 600)


class _ReportingBackend:
    """Replies with four words, and reports 99 tokens and a 12.5 ms latency."""

    def complete(self, prompt, max_tokens, timeout_ms):
        return "four words right here", 99, 12.5


def test_dispatch_bills_reported_tokens_within_the_cap():
    pool = RoutingPool([ModelDescriptor("r", "R", 7, 0.5, "d", _ReportingBackend())])
    record = dispatch(pool, "r", "q", max_api_response_tokens=600)
    assert record.response_text == "four words right here"
    assert record.output_tokens == 99
    assert record.cost == pytest.approx(99 * 0.5)
    assert record.latency_ms == 12.5


def test_dispatch_validates_inputs(case_pool):
    with pytest.raises(UnknownModelError):
        dispatch(case_pool, "not-registered", "q")
    with pytest.raises(ValueError):
        dispatch(case_pool, "qwen2.5-7b-instruct", "   ")


def test_dispatch_is_deterministic(case_pool):
    first = dispatch(case_pool, "llama-3.1-70b-instruct", "Where?")
    second = dispatch(case_pool, "llama-3.1-70b-instruct", "Where?")
    assert first == second


# ---------------------------------------------------------------------------
# knowledge base loader
# ---------------------------------------------------------------------------


def test_load_knowledge_base(tmp_path):
    path = tmp_path / "kb.jsonl"
    path.write_text(
        json.dumps({"key": "The Capital of Peru?", "answer": "Lima"})
        + "\n\n"
        + json.dumps({"key": "deepest lake", "answer": "Baikal"})
        + "\n"
    )
    kb = load_knowledge_base(str(path))
    assert kb == {"capital of peru": "Lima", "deepest lake": "Baikal"}


def test_load_knowledge_base_rejects_bad_rows(tmp_path):
    path = tmp_path / "kb.jsonl"
    path.write_text('{"key": "ok", "answer": "fine"}\n{"key": "missing"}\n')
    with pytest.raises(ValueError, match="2"):
        load_knowledge_base(str(path))


def test_read_jsonl_numbers_nonblank_lines_from_1(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_bytes(b'{"a": 1}\n\n  \r\n[2]\r\n"three"\n')
    assert read_jsonl(str(path)) == [(1, {"a": 1}), (4, [2]), (5, "three")]


@pytest.mark.parametrize(
    "line, detail",
    [
        (b'{"b": "caf\xe9"}', "not UTF-8 text"),
        (b"{broken", "invalid JSON: "),
        (b"[" * 100_000, "invalid JSON: "),
    ],
    ids=["not-utf8", "invalid-json", "nested-too-deep"],
)
def test_read_jsonl_names_the_bad_line(tmp_path, line, detail):
    path = tmp_path / "rows.jsonl"
    path.write_bytes(b'{"a": 1}\n' + line + b"\n")
    with pytest.raises(LineError) as exc_info:
        read_jsonl(str(path))
    assert exc_info.value.line_no == 2
    assert exc_info.value.detail.startswith(detail)
    assert str(exc_info.value) == f"line 2: {exc_info.value.detail}"


# ---------------------------------------------------------------------------
# HTTP backend against a local server
# ---------------------------------------------------------------------------


@pytest.fixture
def http_endpoint(monkeypatch):
    server = start_scripted_server()
    monkeypatch.setenv("MULTIROUTE_API_URL", server.url)
    monkeypatch.setenv("MULTIROUTE_API_KEY", "test-key")
    yield server
    stop_server(server)


def test_http_backend_uses_reported_usage(http_endpoint):
    http_endpoint.script.append(
        {"status": 200, "body": chat_body("four words right here", tokens=99)}
    )
    backend = HttpBackend(model="remote-model")
    text, tokens, latency = backend.complete("prompt", max_tokens=600)
    assert text == "four words right here"
    assert tokens == 99
    assert latency is not None and latency >= 0.0
    sent = http_endpoint.received[0]
    assert sent["model"] == "remote-model"
    assert sent["messages"][0]["content"] == "prompt"
    assert sent["max_tokens"] == 600


def test_http_backend_missing_usage_falls_back_to_whitespace(http_endpoint):
    http_endpoint.script.append({"status": 200, "body": chat_body("a b c")})
    pool = RoutingPool(
        [
            ModelDescriptor(
                "r", "Remote", 70, 2.0, "remote model", HttpBackend("remote")
            )
        ]
    )
    record = dispatch(pool, "r", "q")
    assert record.output_tokens == 3
    assert record.cost == pytest.approx(6.0)
    assert record.latency_ms > 0.0


def test_http_backend_accepts_text_completion_shape(http_endpoint):
    http_endpoint.script.append(
        {"status": 200, "body": {"choices": [{"text": "plain completion"}]}}
    )
    backend = HttpBackend(model="remote")
    text, tokens, _ = backend.complete("p", 600)
    assert text == "plain completion"
    assert tokens is None


def test_http_backend_retries_5xx_once_then_succeeds(http_endpoint):
    http_endpoint.script.extend(
        [
            {"status": 503, "body": {}},
            {"status": 200, "body": chat_body("recovered", tokens=1)},
        ]
    )
    backend = HttpBackend(model="remote")
    text, tokens, _ = backend.complete("p", 600)
    assert text == "recovered"
    assert len(http_endpoint.received) == 2


def test_http_backend_5xx_twice_raises(http_endpoint):
    http_endpoint.script.extend(
        [{"status": 500, "body": {}}, {"status": 502, "body": {}}]
    )
    backend = HttpBackend(model="remote")
    with pytest.raises(BackendError) as exc_info:
        backend.complete("p", 600)
    assert exc_info.value.status == 502
    assert len(http_endpoint.received) == 2


def test_http_backend_4xx_fails_without_retry(http_endpoint):
    http_endpoint.script.append({"status": 404, "body": {}})
    backend = HttpBackend(model="remote")
    with pytest.raises(BackendError) as exc_info:
        backend.complete("p", 600)
    assert exc_info.value.status == 404
    assert len(http_endpoint.received) == 1


def test_http_backend_timeout_raises_after_retry(http_endpoint):
    http_endpoint.script.extend(
        [
            {"status": 200, "body": chat_body("late"), "sleep": 0.8},
            {"status": 200, "body": chat_body("late"), "sleep": 0.8},
        ]
    )
    backend = HttpBackend(model="remote")
    with pytest.raises(BackendTimeout):
        backend.complete("p", 600, timeout_ms=200.0)
    assert len(http_endpoint.received) == 2


def test_http_backend_requires_url_env(monkeypatch):
    monkeypatch.delenv("MULTIROUTE_API_URL", raising=False)
    backend = HttpBackend(model="remote")
    with pytest.raises(BackendError):
        backend.complete("p", 600)


def test_constructors_coerce_numbers_as_config_files_do():
    profile = SimulatedProfile(accuracy=1, verbosity=8, seed=3)
    assert (profile.accuracy, profile.verbosity, profile.seed) == (1.0, 8, 3)
    assert type(profile.accuracy) is float and type(profile.verbosity) is int
    # an integer field takes only an integer, as EngineConfig's do
    with pytest.raises(TypeError, match="verbosity must be an integer"):
        SimulatedProfile(verbosity=8.0)
    with pytest.raises(TypeError, match="seed must be an integer"):
        SimulatedProfile(seed="3")
    descriptor = ModelDescriptor("m", "M", 7, 2, "d", SimulatedBackend(profile))
    assert type(descriptor.param_count_b) is float
    assert type(descriptor.cost_per_token) is float
    assert type(HttpBackend(model="remote", temperature=0).temperature) is float


# URLs that ``requests`` rejects before it opens a connection.
UNUSABLE_URLS = [
    pytest.param("not-a-url", "No scheme supplied", id="no-scheme"),
    pytest.param("ftp://127.0.0.1/", "No connection adapters", id="ftp-scheme"),
    pytest.param("http://", "No host supplied", id="no-host"),
]


@pytest.mark.parametrize("url, detail", UNUSABLE_URLS)
def test_http_backend_unusable_url_is_a_status_0_backend_error(
    monkeypatch, url, detail
):
    monkeypatch.setenv("MULTIROUTE_API_URL", url)
    with pytest.raises(BackendError) as exc_info:
        HttpBackend(model="remote").complete("p", 600)
    assert exc_info.value.status == 0
    assert detail in str(exc_info.value)


@pytest.mark.parametrize(
    "path", ["/a b", "/a\x01b"], ids=["space-in-path", "control-char-in-path"]
)
def test_http_backend_unsendable_path_is_not_retried(monkeypatch, path):
    attempts = []
    real_request = http.client.HTTPConnection.request

    def request(self, *args, **kwargs):
        attempts.append(args)
        return real_request(self, *args, **kwargs)

    monkeypatch.setenv("MULTIROUTE_API_URL", "http://127.0.0.1:9" + path)
    monkeypatch.setattr(http.client.HTTPConnection, "request", request)
    with pytest.raises(BackendError) as exc_info:
        HttpBackend(model="remote").complete("p", 600)
    assert exc_info.value.status == 0
    assert len(attempts) == 1


def test_http_backend_redirect_is_an_error_without_retry(http_endpoint):
    http_endpoint.script.append(
        {"status": 302, "body": {}, "headers": {"Location": http_endpoint.url}}
    )
    with pytest.raises(BackendError) as exc_info:
        HttpBackend(model="remote").complete("p", 600)
    assert exc_info.value.status == 302
    assert len(http_endpoint.requests) == 1


# (url variable, key variable, call, the payload it must send) for each
# ChatEndpoint front: the pool's backend and the policy, which sends ``stop``.
CHAT_FRONTS = [
    pytest.param(
        "MULTIROUTE_API_URL",
        "MULTIROUTE_API_KEY",
        lambda: HttpBackend(model="remote", temperature=0.5).complete(
            "sub-query \u00e9", 600
        ),
        {
            "model": "remote",
            "messages": [{"role": "user", "content": "sub-query \u00e9"}],
            "max_tokens": 600,
            "temperature": 0.5,
        },
        id="backend",
    ),
    pytest.param(
        "MULTIROUTE_POLICY_URL",
        "MULTIROUTE_POLICY_KEY",
        lambda: HttpPolicy(model="policy").generate(
            "context", ["</search>", "</answer>"], 64
        ),
        {
            "model": "policy",
            "messages": [{"role": "user", "content": "context"}],
            "max_tokens": 64,
            "temperature": 1.0,
            "stop": ["</search>", "</answer>"],
        },
        id="policy",
    ),
]


@pytest.mark.parametrize("keyed", [True, False], ids=["key-set", "key-unset"])
@pytest.mark.parametrize("url_env, key_env, call, payload", CHAT_FRONTS)
def test_chat_request_wire_format(monkeypatch, url_env, key_env, call, payload, keyed):
    server = start_scripted_server([{"status": 200, "body": chat_body("reply")}])
    monkeypatch.setenv(url_env, server.url + "?x=1#frag")
    if keyed:
        monkeypatch.setenv(key_env, "k")
    else:
        monkeypatch.delenv(key_env, raising=False)
    try:
        call()
    finally:
        stop_server(server)
    (request,) = server.requests
    assert request["target"] == "/v1/chat/completions?x=1"
    assert request["body"] == json.dumps(payload, allow_nan=False).encode()
    assert request["headers"]["content-type"] == "application/json"
    assert request["headers"].get("authorization") == ("Bearer k" if keyed else None)


# API keys no header value can carry; each holds the marker ``s3cr3t``.
UNSENDABLE_KEYS = [
    pytest.param("s3cr3t\nvalue", id="newline"),
    pytest.param("s3cr3t\tvalue", id="tab"),
    pytest.param("s3cr3t\x7fvalue", id="delete"),
    pytest.param("s3cr3t\u00e9", id="non-ascii"),
]


@pytest.mark.parametrize("key", UNSENDABLE_KEYS)
def test_unsendable_api_key_is_named_but_never_shown(monkeypatch, key):
    connections = []
    monkeypatch.setattr(
        http.client.HTTPConnection, "connect", lambda self: connections.append(self)
    )
    monkeypatch.setenv("MULTIROUTE_API_URL", "http://127.0.0.1:9/")
    monkeypatch.setenv("MULTIROUTE_API_KEY", key)
    with pytest.raises(BackendError) as exc_info:
        HttpBackend(model="remote").complete("p", 600)
    assert exc_info.value.status == 0
    assert "MULTIROUTE_API_KEY" in str(exc_info.value)
    assert "s3cr3t" not in str(exc_info.value)
    assert connections == []


def test_the_longest_timeout_ms_allowed_fits_a_socket():
    """``check_timeout_ms`` allows what a socket takes and nothing longer,
    so a config timeout can never fail in ``settimeout``."""
    most = int(threading.TIMEOUT_MAX * 1000)
    check_timeout_ms(most)
    with socket.socket() as sock:
        sock.settimeout(most / 1000.0)
    with pytest.raises(ValueError, match=f"^timeout_ms must be at most {most}$"):
        check_timeout_ms(most + 1000)
    with pytest.raises(ValueError, match="^timeout_ms must be positive$"):
        check_timeout_ms(0)
