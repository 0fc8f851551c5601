"""Policy backends: scripted replays and remote HTTP policies.

The learned-parameters policy lives in the trainer module; these two cover
deterministic replay (tests, demos, audits) and driving a served model.
``policy_factory`` builds any of the three from a run config's policy
section, for the CLI and the HTTP service alike.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import (
    ConfigError,
    RunConfig,
    build_section,
    check_path_value,
    config_path,
    read_json,
)
from .engine import PolicyBackend
from .pool import ChatEndpoint
from .protocol import DEFAULT_LEXICON, TagLexicon
from .trainer import (
    ANSWER_ACTION,
    LearnedRoutingPolicy,
    PolicyParams,
    check_feature_dim,
)


class ScriptedPolicy(PolicyBackend):
    """Replays a fixed list of continuations, one per generate call.

    Records every (context, stop_markers) it receives so tests can assert on
    the exact phases the engine ran.  Returns empty text once exhausted,
    which makes the engine finish the episode.
    """

    def __init__(self, continuations: list[str]):
        self._script = list(continuations)
        self._cursor = 0
        self.seen_contexts: list[str] = []
        self.seen_stops: list[list[str]] = []

    def generate(
        self, context: str, stop_markers: list[str], max_tokens: int
    ) -> str:
        self.seen_contexts.append(context)
        self.seen_stops.append(list(stop_markers))
        if self._cursor >= len(self._script):
            return ""
        text = self._script[self._cursor]
        self._cursor += 1
        return text


@dataclass(frozen=True)
class HttpPolicy(ChatEndpoint, PolicyBackend):
    """Generates continuations from a chat-completions endpoint.

    Most APIs strip the stop sequence from the returned text; the engine's
    contract wants it back, so when the finish reason is a stop and the text
    ends with an unclosed block, the matching marker is re-appended.  Each
    marker's opening tag comes from ``lexicon``.
    """

    url_env: str = "MULTIROUTE_POLICY_URL"
    api_key_env: str = "MULTIROUTE_POLICY_KEY"
    temperature: float = 1.0
    timeout_ms: float = 60000.0
    lexicon: TagLexicon = DEFAULT_LEXICON

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.timeout_ms <= 0:
            raise ValueError("timeout_ms must be positive")

    def generate(
        self, context: str, stop_markers: list[str], max_tokens: int
    ) -> str:
        text, _, finish_reason = self.chat(
            context, max_tokens, self.timeout_ms, stop=stop_markers
        )
        if finish_reason == "stop" and not any(
            text.rstrip().endswith(marker) for marker in stop_markers
        ):
            text = text + self._infer_stop(text, stop_markers)
        return text

    def _infer_stop(self, text: str, stop_markers: list[str]) -> str:
        # The marker whose opening tag appears last unclosed wins; fall back
        # to the first marker the engine asked for.
        openers = {
            close: opener for opener, close, _ in self.lexicon.open_close_pairs()
        }
        best: Optional[tuple[int, str]] = None
        for marker in stop_markers:
            opener = openers.get(marker)
            if opener is None:
                continue
            at = text.rfind(opener)
            if at != -1 and marker not in text[at:]:
                if best is None or at > best[0]:
                    best = (at, marker)
        return best[1] if best else stop_markers[0]


def policy_factory(run: RunConfig):
    """Build a ``TaskRecord -> PolicyBackend`` factory from the policy section.

    Raises:
        ConfigError: unknown policy kind, a malformed section or policy file.
    """
    section = run.policy
    kind = section.get("kind")

    def path_of(key: str) -> str:
        check_path_value(section[key], key, f"{kind} policy")
        return config_path(run.base_dir, section[key], f"{kind} policy")

    if kind == "scripted":
        script = section.get("script")
        if section.get("script_path") is not None:
            script = read_json(path_of("script_path"), "scripted policy")
        if script is None or isinstance(script, list):
            script = {"default": script or []}
        if not isinstance(script, dict) or not all(
            isinstance(lines, list) and all(isinstance(line, str) for line in lines)
            for lines in script.values()
        ):
            raise ConfigError(
                "scripted policy: script must be a list of strings "
                "or a mapping of such lists"
            )
        default = script.get("default", [])
        return lambda task: ScriptedPolicy(script.get(task.id, default))
    if kind == "params":
        if not section.get("path"):
            raise ConfigError("params policy: 'path' is required")
        path = path_of("path")
        data = read_json(path, "params policy")
        try:
            params = PolicyParams.from_record(data)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(
                f"params policy {path}: bad params file: {type(exc).__name__}: {exc}"
            )
        unknown = [
            action
            for action in params.actions
            if action != ANSWER_ACTION and run.pool.resolve(action) is None
        ]
        if unknown:
            raise ConfigError(
                f"params policy {path}: actions not in the pool: {unknown}"
            )
        try:
            check_feature_dim(params.feature_dim, run.engine.max_routing_steps)
        except ValueError as exc:
            raise ConfigError(f"params policy {path}: {exc}") from None

        def factory(task):
            rng = np.random.default_rng(run.seed)
            return LearnedRoutingPolicy(
                params,
                task.question,
                run.pool,
                rng,
                run.engine.lexicon,
                max_steps=run.engine.max_routing_steps,
            )

        return factory
    if kind == "http":
        fields = {key: value for key, value in section.items() if key != "kind"}
        policy = build_section(
            HttpPolicy, fields, "http policy", lexicon=run.engine.lexicon
        )
        return lambda task: policy
    raise ConfigError(f"unknown policy kind {reprlib.repr(kind)}")
