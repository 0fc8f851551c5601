"""Candidate model pool: descriptors, backends, and call dispatch.

The pool is an ordered registry of model descriptors.  Names resolve
case-insensitively against both ids and display names.  Dispatch wraps a
sub-query in the fixed assistant prompt, invokes the descriptor's backend,
truncates the reply to the per-call token cap, and prices it.
"""

from __future__ import annotations

import functools
import hashlib
import http.client
import json
import os
import reprlib
import ssl
import threading
import time
import urllib.parse
from dataclasses import dataclass, field
from typing import Callable, Optional

from .rewards import check_field_types, normalize_answer

# Opening words of a model's refusal; policies read replies that start with
# them as carrying no answer.
UNABLE_PREFIX = "I am unable to assist"

# Fixed reply a simulated model gives when it cannot answer.
UNABLE_RESPONSE = (
    f"{UNABLE_PREFIX} with this question. "
    "Please consult other LLMs for further assistance."
)

# Last line of the assistant prompt; simulated backends recover the
# sub-query by taking everything after the final occurrence.
SUB_QUERY_MARKER = "Here is the sub-question for you to assist with:"

ASSIST_PROMPT = (
    "You are a helpful assistant supporting another model that answers a "
    "multi-hop question by delegating sub-questions.\n"
    "If you know the answer to the sub-question below, reply with the answer "
    "or with context that helps locate it. Keep the reply concise and do not "
    "pad it with unrelated explanation.\n"
    "If you cannot answer, state that you are unable to assist so other LLMs "
    "can be consulted instead.\n"
    f"{SUB_QUERY_MARKER} {{sub_query}}"
)

# Defaults for one dispatched call: the reply's token cap and its timeout.
DEFAULT_MAX_API_RESPONSE_TOKENS = 600
DEFAULT_TIMEOUT_MS = 30000.0

_FILLER_WORDS = (
    "supporting context follows covering adjacent details "
    "records sources and related notes for completeness"
).split()
# The whole filler cycle, joined once: a pad is whole cycles plus a remainder.
_FILLER_CYCLE = " ".join(_FILLER_WORDS)


class DuplicateIdError(ValueError):
    pass


class UnknownModelError(KeyError):
    pass


class BackendTimeout(RuntimeError):
    pass


class BackendError(RuntimeError):
    def __init__(self, status: int, detail: str = ""):
        self.status = status
        super().__init__(f"backend returned status {status}: {detail}")


def canonical(name: str) -> str:
    return name.strip().lower()


def unit_draw(seed: int, label: str, text: str) -> float:
    """Deterministic stateless draw in [0, 1) keyed by (seed, label, text)."""
    digest = hashlib.sha256(f"{seed}|{label}|{text}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


def check_utf8(name: str, text: str) -> None:
    """Raise ValueError unless ``text`` encodes as UTF-8: it must hold no
    lone surrogate, which JSON's "\\ud800" escape reads as."""
    try:
        text.encode()
    except UnicodeEncodeError as exc:
        detail = f"holds a lone surrogate at index {exc.start}"
        raise ValueError(f"{name} {detail}") from None


def token_count(text: str) -> int:
    """Whitespace token count, the accounting unit for response budgets."""
    return len(text.split())


def truncate_tokens(text: str, limit: int) -> str:
    words = text.split()
    if len(words) <= limit:
        return text
    return " ".join(words[:limit])


def check_timeout_ms(timeout_ms: float) -> None:
    """Raise ValueError unless a socket can take ``timeout_ms`` as its timeout."""
    if timeout_ms <= 0:
        raise ValueError("timeout_ms must be positive")
    most = int(threading.TIMEOUT_MAX * 1000)
    if timeout_ms > most:
        raise ValueError(f"timeout_ms must be at most {most}")


@dataclass(frozen=True)
class SimulatedProfile:
    """Behavior knobs for a simulated model.

    knowledge_base maps normalized question keys to answer strings; accuracy
    is the probability of answering when the key is present; verbosity is the
    approximate reply length in whitespace tokens.
    """

    knowledge_base: dict = field(default_factory=dict)
    accuracy: float = 1.0
    verbosity: int = 16
    seed: int = 0

    def __post_init__(self) -> None:
        check_field_types(self)
        if not 0.0 <= self.accuracy <= 1.0:
            raise ValueError("accuracy must be in [0, 1]")
        if self.verbosity < 1:
            raise ValueError("verbosity must be >= 1")


class SimulatedBackend:
    """Deterministic in-process stand-in for a remote model.

    All randomness is a pure function of (profile.seed, sub_query), so
    repeated identical calls return byte-identical replies with no shared
    state between calls.
    """

    def __init__(self, profile: SimulatedProfile):
        self.profile = profile

    def complete(
        self, prompt: str, max_tokens: int, timeout_ms: float = DEFAULT_TIMEOUT_MS
    ) -> tuple[str, Optional[int], Optional[float]]:
        sub_query = self._extract_sub_query(prompt)
        key = normalize_answer(sub_query)
        profile = self.profile
        answer = profile.knowledge_base.get(key)
        if answer is None or unit_draw(profile.seed, "accuracy", sub_query) >= (
            profile.accuracy
        ):
            return self._pad_to_verbosity(UNABLE_RESPONSE, max_tokens), None, 0.0
        answer_line = " ".join(str(answer).split())
        return self._pad_to_verbosity(answer_line, max_tokens), None, 0.0

    def _pad_to_verbosity(self, content: str, max_tokens: int) -> str:
        """Fixed reply length: exactly ``verbosity`` tokens unless the content
        itself is longer, so a model's per-call cost does not leak whether it
        answered.  Padding stops at ``max_tokens + 1`` tokens, one over the
        cap, so ``dispatch`` still cuts the reply to the same first
        ``max_tokens`` as it would the full padding."""
        most = min(self.profile.verbosity, max_tokens + 1)
        padding = most - token_count(content)
        if padding <= 0:
            return content
        cycles, rest = divmod(padding, len(_FILLER_WORDS))
        filler = " ".join([_FILLER_CYCLE] * cycles + _FILLER_WORDS[:rest])
        return content + "\n" + filler

    @staticmethod
    def _extract_sub_query(prompt: str) -> str:
        marker_at = prompt.rfind(SUB_QUERY_MARKER)
        if marker_at == -1:
            return prompt.strip()
        return prompt[marker_at + len(SUB_QUERY_MARKER) :].strip()


def _reply_fields(body) -> tuple[str, Optional[int], Optional[str]]:
    """Read (text, completion_tokens, finish_reason) from a 200 reply body.

    A body with no usable first choice raises BackendError.  A usage count
    that is not an int is dropped, so dispatch measures the text.
    """
    if not isinstance(body, dict):
        raise BackendError(200, "reply body is not a JSON object")
    choices = body.get("choices")
    if not isinstance(choices, list) or not choices:
        raise BackendError(200, "reply has no choices")
    choice = choices[0]
    if not isinstance(choice, dict):
        raise BackendError(200, "reply choice is not an object")
    if "message" in choice:
        message = choice["message"]
        if not isinstance(message, dict):
            raise BackendError(200, "reply message is not an object")
        text = message.get("content") or ""
    else:
        text = choice.get("text") or ""
    if not isinstance(text, str):
        raise BackendError(200, "reply text is not a string")
    usage = body.get("usage")
    tokens = usage.get("completion_tokens") if isinstance(usage, dict) else None
    if type(tokens) is not int:
        tokens = None
    return text, tokens, choice.get("finish_reason")


@functools.cache
def _tls_context() -> ssl.SSLContext:
    """The verifying TLS context every HTTPS call shares, built at the first
    one: building it loads the system trust store, which takes tens of ms."""
    return ssl.create_default_context()


def _endpoint(
    url: str, timeout_s: float
) -> tuple[Callable[[], http.client.HTTPConnection], str]:
    """Split a chat endpoint URL into a connection factory and the request
    target, which is the path and query.

    The fragment and any ``user:pass@`` are dropped.  A URL that cannot be
    used raises BackendError with status 0, worded as ``requests`` words it.
    """
    shown = reprlib.repr(url)
    try:
        parts = urllib.parse.urlsplit(url)
        port = parts.port
    except ValueError as exc:
        raise BackendError(0, f"Invalid URL {shown}: {exc}") from None
    if not parts.scheme:
        raise BackendError(0, f"Invalid URL {shown}: No scheme supplied")
    if parts.scheme not in ("http", "https"):
        raise BackendError(0, f"No connection adapters were found for {shown}")
    if not parts.hostname:
        raise BackendError(0, f"Invalid URL {shown}: No host supplied")
    if parts.scheme == "https":
        connect = functools.partial(
            http.client.HTTPSConnection,
            parts.hostname,
            http.client.HTTPS_PORT if port is None else port,
            timeout=timeout_s,
            context=_tls_context(),
        )
    else:
        connect = functools.partial(
            http.client.HTTPConnection,
            parts.hostname,
            http.client.HTTP_PORT if port is None else port,
            timeout=timeout_s,
        )
    target = parts.path or "/"
    if parts.query:
        target = f"{target}?{parts.query}"
    return connect, target


def _post(
    connect: Callable[[], http.client.HTTPConnection],
    target: str,
    data: bytes,
    headers: dict,
) -> tuple[int, bytes]:
    """POST ``data`` on a connection of its own, closed before returning;
    returns the reply's status and body."""
    connection = connect()
    try:
        connection.request("POST", target, data, headers)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


@dataclass(frozen=True)
class ChatEndpoint:
    """A chat-completions endpoint: the model name and the environment
    variables that hold the endpoint URL and API key.

    Both variables are read at call time, so credentials never live in
    config files.
    """

    model: str
    url_env: str = "MULTIROUTE_API_URL"
    api_key_env: str = "MULTIROUTE_API_KEY"
    temperature: float = 0.0

    def __post_init__(self) -> None:
        check_field_types(self)
        if not self.model:
            raise ValueError("model is required")

    def chat(
        self,
        prompt: str,
        max_tokens: int,
        timeout_ms: float,
        stop: Optional[list[str]] = None,
    ) -> tuple[str, Optional[int], Optional[str]]:
        """POST one chat completion; returns (text, completion_tokens,
        finish_reason).

        Each attempt opens one connection with the standard library's client
        and closes it.  Retries once on timeout, connection or protocol
        failure, or 5xx, then raises BackendTimeout / BackendError; an unset
        or unusable URL, any other request error, a non-200 reply (a 3xx is
        not followed) or a malformed 200 body raises BackendError at once.
        """
        url = os.environ.get(self.url_env)
        if not url:
            raise BackendError(0, f"environment variable {self.url_env} is not set")
        api_key = os.environ.get(self.api_key_env, "")
        # http.client would echo a key it cannot send in its error text.
        if not (api_key.isascii() and api_key.isprintable()):
            raise BackendError(0, f"{self.api_key_env} is not printable ASCII")
        payload = {
            "model": self.model,
            "messages": [{"role": "user", "content": prompt}],
            "max_tokens": max_tokens,
            "temperature": self.temperature,
        }
        if stop:
            payload["stop"] = stop
        headers = {"Content-Type": "application/json"}
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        try:
            data = json.dumps(payload, allow_nan=False).encode()
        except ValueError as exc:
            raise BackendError(0, str(exc)) from None
        connect, target = _endpoint(url, timeout_ms / 1000.0)

        last_exc: Exception | None = None
        last_status: Optional[int] = None
        for _ in range(2):
            try:
                status, reply = _post(connect, target, data, headers)
            # InvalidURL is an HTTPException, and a TLS certificate failure a
            # ValueError as well as an OSError: the order of these matters.
            except http.client.InvalidURL as exc:
                raise BackendError(
                    0, f"cannot send to {reprlib.repr(url)}: {exc}"
                ) from None
            except (OSError, http.client.HTTPException) as exc:
                last_exc = exc
                continue
            except ValueError as exc:  # such as a host label IDNA rejects
                raise BackendError(
                    0, f"cannot send to {reprlib.repr(url)}: {exc}"
                ) from None
            if status >= 500:
                last_status = status
                continue
            if status != 200:
                raise BackendError(status, reply.decode(errors="replace")[:200])
            try:
                body = json.loads(reply)
            except (ValueError, RecursionError):
                raise BackendError(200, "reply body is not JSON") from None
            return _reply_fields(body)

        if last_status is not None:
            raise BackendError(last_status, "retried once")
        raise BackendTimeout(str(last_exc))


class HttpBackend(ChatEndpoint):
    """Pool backend for a remote model behind a chat-completions endpoint."""

    def complete(
        self, prompt: str, max_tokens: int, timeout_ms: float = DEFAULT_TIMEOUT_MS
    ) -> tuple[str, Optional[int], Optional[float]]:
        started = time.perf_counter()
        text, tokens, _ = self.chat(prompt, max_tokens, timeout_ms)
        latency_ms = (time.perf_counter() - started) * 1000.0
        return text, tokens, latency_ms


@dataclass
class ModelDescriptor:
    """One routable model: identity, pricing, capability blurb, backend."""

    id: str
    display_name: str
    param_count_b: float
    cost_per_token: float
    descriptor_text: str
    backend: object

    def __post_init__(self) -> None:
        check_field_types(self)
        for name in ("id", "display_name", "descriptor_text"):
            if not getattr(self, name).strip():
                raise ValueError(f"{name} must be nonempty")
            check_utf8(name, getattr(self, name))
        if self.param_count_b <= 0:
            raise ValueError("param_count_b must be positive")
        if self.cost_per_token < 0:
            raise ValueError("cost_per_token must be nonnegative")


class RoutingPool:
    """Ordered registry of model descriptors.

    Registration is single-writer; resolution is read-only and safe to share
    across threads.  Ids and display names share one canonical namespace so
    a directive can use either form.
    """

    def __init__(self, descriptors=()):
        self._order: list[ModelDescriptor] = []
        self._index: dict[str, ModelDescriptor] = {}
        for descriptor in descriptors:
            self.register(descriptor)

    def register(self, descriptor: ModelDescriptor) -> "RoutingPool":
        keys = {canonical(descriptor.id), canonical(descriptor.display_name)}
        clash = keys & self._index.keys()
        if clash:
            raise DuplicateIdError(
                f"model name(s) already registered: {sorted(clash)}"
            )
        self._order.append(descriptor)
        for key in keys:
            self._index[key] = descriptor
        return self

    def resolve(self, name: str) -> Optional[ModelDescriptor]:
        return self._index.get(canonical(name))

    def get(self, model_id: str) -> ModelDescriptor:
        descriptor = self.resolve(model_id)
        if descriptor is None:
            raise UnknownModelError(model_id)
        return descriptor

    @property
    def descriptors(self) -> tuple[ModelDescriptor, ...]:
        return tuple(self._order)

    def __len__(self) -> int:
        return len(self._order)

    def __iter__(self):
        return iter(self._order)


@dataclass
class CallRecord:
    """Outcome of one routed call.

    ``error`` is None for completed calls; failed calls carry zero tokens and
    zero cost so an episode's spend audit only counts delivered responses.
    ``response_tokens`` is the whitespace count of ``response_text``, taken
    where the text was made, so the engine need not count it again; it is
    left out of records and comparisons.
    """

    model_id: str
    sub_query: str
    response_text: str
    output_tokens: int
    cost: float
    latency_ms: float
    error: Optional[str] = None
    response_tokens: int = field(kw_only=True, repr=False, compare=False)

    def to_record(self) -> dict:
        record = dict(vars(self))
        del record["response_tokens"]
        return record


def dispatch(
    pool: RoutingPool,
    model_id: str,
    sub_query: str,
    max_api_response_tokens: int = DEFAULT_MAX_API_RESPONSE_TOKENS,
    timeout_ms: float = DEFAULT_TIMEOUT_MS,
) -> CallRecord:
    """Send one sub-query to a pool model and price the reply.

    The reply is truncated to ``max_api_response_tokens`` whitespace tokens.
    ``output_tokens`` is the backend-reported usage when it lies in
    [0, ``max_api_response_tokens``] and the reply was not truncated, else the
    post-truncation whitespace count.  So a hostile count can neither bill
    more than the request allowed nor overflow the cost.

    Raises:
        UnknownModelError: ``model_id`` does not resolve.
        ValueError: empty sub_query.
        BackendTimeout / BackendError: propagated from the backend.
    """
    descriptor = pool.get(model_id)
    if not sub_query.strip():
        raise ValueError("sub_query must be nonempty")
    text, reported_tokens, reported_latency = descriptor.backend.complete(
        ASSIST_PROMPT.format(sub_query=sub_query),
        max_tokens=max_api_response_tokens,
        timeout_ms=timeout_ms,
    )
    measured = token_count(text)
    if measured > max_api_response_tokens:
        text = truncate_tokens(text, max_api_response_tokens)
        measured = tokens = max_api_response_tokens
    elif (
        reported_tokens is not None
        and 0 <= reported_tokens <= max_api_response_tokens
    ):
        tokens = reported_tokens
    else:
        tokens = measured
    return CallRecord(
        model_id=descriptor.id,
        sub_query=sub_query,
        response_text=text,
        output_tokens=tokens,
        cost=descriptor.cost_per_token * tokens,
        latency_ms=reported_latency if reported_latency is not None else 0.0,
        response_tokens=measured,
    )


class LineError(ValueError):
    """A bad line of a JSONL file; ``line_no`` counts from 1."""

    def __init__(self, line_no: int, detail: str):
        self.line_no = line_no
        self.detail = detail
        super().__init__(f"line {line_no}: {detail}")


def read_jsonl(path: str) -> list[tuple[int, object]]:
    """Return ``(line_no, value)`` for each nonblank line of a JSONL file.

    Raises:
        OSError: the file cannot be read.
        LineError: a line is not UTF-8 text or not JSON.
    """
    rows = []
    # A byte that is not UTF-8 reads as a lone surrogate, which text decoded
    # as UTF-8 never holds, so ``encode`` finds the line it is on.
    with open(path, encoding="utf-8", errors="surrogateescape") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                line.encode()
                rows.append((line_no, json.loads(line)))
            except UnicodeEncodeError:
                raise LineError(line_no, "not UTF-8 text") from None
            except (ValueError, RecursionError) as exc:
                raise LineError(line_no, f"invalid JSON: {exc}") from None
    return rows


def load_knowledge_base(path: str) -> dict:
    """Load a JSONL knowledge base of {"key": ..., "answer": ...} rows.

    Keys are normalized the same way answers are compared, so lookups match
    questions regardless of case, articles, or punctuation.  A bad line
    raises ``LineError``.
    """
    entries: dict[str, str] = {}
    for line_no, row in read_jsonl(path):
        try:
            key, answer = row["key"], row["answer"]
        except (KeyError, TypeError) as exc:
            raise LineError(line_no, f"bad knowledge row: {exc}") from None
        entries[normalize_answer(str(key))] = str(answer)
    return entries
