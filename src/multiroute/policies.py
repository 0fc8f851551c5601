"""Policy backends: scripted replays and remote HTTP policies.

The learned-parameters policy lives in the trainer module; these two cover
deterministic replay (tests, demos, audits) and driving a served model.
``config.policy_factory`` builds any of the three from a run config's
policy section.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .engine import PolicyBackend
from .pool import ChatEndpoint, check_timeout_ms
from .protocol import DEFAULT_LEXICON, TagLexicon


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
        check_timeout_ms(self.timeout_ms)

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
