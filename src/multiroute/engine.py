"""Multi-round episode engine.

Drives a policy through interleaved think / route / info / answer turns:
generation stops at route or answer close tags, routed sub-queries are
dispatched to pool models, and their replies are injected as info blocks the
policy never emits itself (they are excluded from the training loss via
``mask_spans``).  The finished trajectory is validated and scored.
"""

from __future__ import annotations

import abc
import functools
from dataclasses import dataclass
from typing import Optional

from .pool import (
    DEFAULT_MAX_API_RESPONSE_TOKENS,
    DEFAULT_TIMEOUT_MS,
    UNABLE_PREFIX,
    BackendError,
    BackendTimeout,
    CallRecord,
    RoutingPool,
    check_timeout_ms,
    dispatch,
    token_count,
    truncate_tokens,
)
from .protocol import (
    DEFAULT_LEXICON,
    BlockKind,
    DirectiveError,
    FormatVerdict,
    TagLexicon,
    Trajectory,
    extract_answer,
    loss_mask,
    parse_route_directive,
    parse_trajectory,  # noqa: F401 - perfbench/tracer.py hooks this name
    validate_format,
)
from .rewards import (
    CostWindow,
    RewardBreakdown,
    RewardConfig,
    check_field_types,
    compose_breakdown,
    cost_reward,
    episode_cost_raw,
    exact_match,
    format_reward,
)

# Info text injected when a dispatched call fails at the backend.  A route
# directive that fails gets ``_directive_error_notice``: ROUTING_ERROR_PREFIX,
# the reason, then this text.
NO_ASSISTANCE_PREFIX = "No assistance available"
NO_ASSISTANCE_TEXT = f"{NO_ASSISTANCE_PREFIX} for this step."
ROUTING_ERROR_PREFIX = "Routing error"

# Openings of the info notices the engine injects for failed routes; they
# bill nothing.
FAILURE_NOTICE_PREFIXES = (ROUTING_ERROR_PREFIX, NO_ASSISTANCE_PREFIX)

# Info prefixes that carry no usable answer; policies may use these to tell
# helpful replies apart from canned failure notices.
UNHELPFUL_INFO_PREFIXES = FAILURE_NOTICE_PREFIXES + (UNABLE_PREFIX,)

PROMPT_TEMPLATE = (
    "Answer the given question. Every time you receive new information, you "
    "must first conduct reasoning inside {think_open} and {think_close}.\n"
    "After reasoning, if you find you lack some knowledge, you can call a "
    "specialized LLM by writing a query inside "
    "{route_open} Candidate LLM: Query {route_close}.\n"
    'Before each LLM call, you must explicitly reason inside {think_open} and '
    '{think_close} about "why external information is needed" and "which LLM '
    'from the list is most suitable for answering your query," based on the '
    "brief model descriptions provided below.\n"
    "When you call an LLM, the response will be returned between {info_open} "
    "and {info_close}.\n"
    "You are encouraged to explore and utilize different LLMs multiple times "
    "to better understand their respective strengths and weaknesses, as well "
    "as gather more comprehensive information.\n"
    "Description of LLM Candidates: {candidates_intro}\n"
    "If you find that no further external knowledge is needed, you can "
    "directly provide your final answer inside {answer_open} and "
    "{answer_close}, without additional explanation or illustration.\n"
    "Question: {question}\n"
)
# Everything before the question depends only on the lexicon and the
# candidates, so ``_prompt_head`` renders it once for each of them.
_PROMPT_HEAD, _PROMPT_TAIL = PROMPT_TEMPLATE.split("{question}")


# The most tokens a context may hold: a million, far past the 4096 default.
# ``max_api_response_tokens`` is at most this, and a simulated reply pads to
# at most one word over that, so a config cannot ask for a reply of more than
# about 8 MiB of text.
MAX_SEQUENCE_TOKENS = 2**20


class EmptyPoolError(ValueError):
    pass


@dataclass(frozen=True)
class EngineConfig:
    max_routing_steps: int = 4
    max_response_tokens: int = 1024
    max_sequence_tokens: int = 4096
    max_api_response_tokens: int = DEFAULT_MAX_API_RESPONSE_TOKENS
    timeout_ms: float = DEFAULT_TIMEOUT_MS
    lexicon: TagLexicon = DEFAULT_LEXICON

    def __post_init__(self) -> None:
        check_field_types(self)
        for name in (
            "max_routing_steps",
            "max_response_tokens",
            "max_sequence_tokens",
            "max_api_response_tokens",
        ):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.max_sequence_tokens > MAX_SEQUENCE_TOKENS:
            most = MAX_SEQUENCE_TOKENS
            raise ValueError(f"max_sequence_tokens must be at most {most}")
        if self.max_api_response_tokens > self.max_sequence_tokens:
            raise ValueError(
                "max_api_response_tokens cannot exceed max_sequence_tokens"
            )
        check_timeout_ms(self.timeout_ms)


class PolicyBackend(abc.ABC):
    """Text generator driven by the engine.

    ``generate`` must return text that ends at (and includes) the first
    emitted stop marker, or runs to at most ``max_tokens`` when no marker is
    produced.
    """

    @abc.abstractmethod
    def generate(
        self, context: str, stop_markers: list[str], max_tokens: int
    ) -> str:
        raise NotImplementedError


@dataclass
class Episode:
    """What one run produced.  The parsed trajectory, the final answer, the
    loss-mask spans and the route count are read off it, not stored."""

    question: str
    golds: Optional[list[str]]
    raw_trajectory: str
    verdict: FormatVerdict
    calls: list[CallRecord]
    rewards: Optional[RewardBreakdown]

    @property
    def trajectory(self) -> Optional[Trajectory]:
        return self.verdict.trajectory

    @property
    def final_answer(self) -> Optional[str]:
        trajectory = self.verdict.trajectory
        return extract_answer(trajectory) if trajectory else None

    @property
    def mask_spans(self) -> list[tuple[int, int]]:
        trajectory = self.verdict.trajectory
        return loss_mask(trajectory) if trajectory else []

    @property
    def route_count(self) -> int:
        return len(self.calls)

    def to_record(self) -> dict:
        return {
            "question": self.question,
            "golds": self.golds,
            "raw_trajectory": self.raw_trajectory,
            "final_answer": self.final_answer,
            "route_count": self.route_count,
            "mask_spans": [list(span) for span in self.mask_spans],
            "calls": [call.to_record() for call in self.calls],
            "rewards": self.rewards.to_record() if self.rewards else None,
            "format_violations": [v.to_record() for v in self.verdict.violations],
        }


def build_prompt(
    question: str, pool: RoutingPool, lexicon: TagLexicon = DEFAULT_LEXICON
) -> str:
    """Render the routing prompt with candidate descriptions in pool order."""
    head, _ = _pool_prompt_head(pool, lexicon)
    return head + question + _PROMPT_TAIL


def _pool_prompt_head(pool: RoutingPool, lexicon: TagLexicon) -> tuple[str, int]:
    """`_prompt_head` for the pool's models in pool order.

    Raises:
        EmptyPoolError: the pool holds no model.
    """
    if len(pool) == 0:
        raise EmptyPoolError("cannot build a routing prompt over an empty pool")
    candidates = tuple((d.display_name, d.descriptor_text) for d in pool)
    return _prompt_head(lexicon, candidates)


@functools.lru_cache(maxsize=64)
def _prompt_head(
    lexicon: TagLexicon, candidates: tuple[tuple[str, str], ...]
) -> tuple[str, int]:
    """The prompt up to the question and its token count, for one lexicon
    and one list of (display name, descriptor text) pairs, cached by value,
    so a hot-added model or an edited descriptor shows up at the next call.
    The head ends with "Question: ", so no word spans its join with the
    question and the counts add up."""
    lines = "\n".join(f"{name}: {text}" for name, text in candidates)
    head = _PROMPT_HEAD.format(**vars(lexicon), candidates_intro="\n" + lines)
    return head, token_count(head)


def _directive_error_notice(error: DirectiveError) -> str:
    return f"{ROUTING_ERROR_PREFIX} ({error.kind.value}): {error}. {NO_ASSISTANCE_TEXT}"


def _handle_route(
    interior: str,
    pool: RoutingPool,
    config: EngineConfig,
) -> CallRecord:
    """Resolve and dispatch one route interior; never raises.

    Failures produce a zero-cost CallRecord with ``error`` set and a canned
    notice as its response text, so every route consumes budget and appears
    in the audit trail.  The record's response text becomes the info block.
    """
    try:
        model_id, sub_query = parse_route_directive(interior, pool)
        record = dispatch(
            pool,
            model_id,
            sub_query,
            max_api_response_tokens=config.max_api_response_tokens,
            timeout_ms=config.timeout_ms,
        )
    except DirectiveError as exc:
        model_id, sub_query = exc.name.strip() or "(unrouted)", interior.strip()
        notice, error = _directive_error_notice(exc), exc
    except (BackendTimeout, BackendError) as exc:
        notice, error = NO_ASSISTANCE_TEXT, exc
    else:
        return record
    return CallRecord(
        model_id=model_id,
        sub_query=sub_query,
        response_text=notice,
        output_tokens=0,
        cost=0.0,
        latency_ms=0.0,
        error=str(error),
        response_tokens=token_count(notice),
    )


def _glued(left: str, right: str) -> bool:
    """Whether the last word of ``left`` and the first word of ``right``
    become one word when the two are joined."""
    return bool(left and right) and not (left[-1].isspace() or right[0].isspace())


def _info_block_tokens(
    info_text: str, info_tokens: int, lexicon: TagLexicon
) -> int:
    """``token_count`` of the info block that holds ``info_text``, given the
    text's own count, read off the characters at the two joins.  An empty
    text lets the two tags join each other."""
    open_tag, close_tag = lexicon.info_open, lexicon.info_close
    return (
        token_count(open_tag)
        + token_count(close_tag)
        + info_tokens
        - _glued(open_tag, info_text)
        - _glued(info_text or open_tag, close_tag)
    )


def _fit_info_to_budget(
    info_text: str,
    info_tokens: int,
    context_tokens: int,
    config: EngineConfig,
    lexicon: TagLexicon,
) -> tuple[str, int]:
    """Trim info content so the full context stays under the sequence cap.

    ``info_tokens`` counts ``info_text`` and ``context_tokens`` the context
    the block joins.  Returns the block and its own token count.
    """
    block_tokens = _info_block_tokens(info_text, info_tokens, lexicon)
    overflow = context_tokens + block_tokens - config.max_sequence_tokens
    if overflow > 0:
        # A trimmed text starts and ends with a word, so it sticks to its
        # tags at least as tightly as the full text did, and one trim fits.
        info_tokens = max(0, info_tokens - overflow)
        info_text = truncate_tokens(info_text, info_tokens)
        block_tokens = _info_block_tokens(info_text, info_tokens, lexicon)
    block = f"\n{lexicon.info_open}{info_text}{lexicon.info_close}\n"
    return block, block_tokens


def score_episode(
    verdict: FormatVerdict,
    golds: Optional[list[str]],
    cost_raw: float,
    window: CostWindow,
    reward_config: RewardConfig,
) -> RewardBreakdown:
    """Score one finished trajectory: format gate, exact match, cost term.

    The answer is read off ``verdict.trajectory``.  A missing answer or
    missing golds score outcome 0.  ``cost_raw`` is pushed into ``window``
    whatever the verdict.
    """
    trajectory = verdict.trajectory
    final_answer = extract_answer(trajectory) if trajectory else None
    outcome = (
        float(exact_match(final_answer, golds))
        if final_answer is not None and golds
        else 0.0
    )
    cost_norm = cost_reward(window, cost_raw, reward_config)
    return compose_breakdown(
        format_reward(verdict), outcome, cost_raw, cost_norm, reward_config.alpha
    )


def reconstruct_cost(trajectory: Optional[Trajectory], pool: RoutingPool) -> float:
    """Re-price a logged trajectory from its route/info pairs.

    Each info block bills its route's model per whitespace token, except the
    failure notices the engine injects (``FAILURE_NOTICE_PREFIXES``), which
    bill nothing, as their calls did.  A trajectory that did not parse
    (None) bills nothing.
    """
    cost = 0.0
    pending = None
    for block in trajectory.blocks if trajectory else ():
        if block.kind is BlockKind.ROUTE:
            try:
                model_id, _ = parse_route_directive(block.text, pool)
                pending = pool.get(model_id)
            except DirectiveError:
                pending = None
        elif block.kind is BlockKind.INFO:
            interior = block.text.strip()
            if pending is not None and not interior.startswith(
                FAILURE_NOTICE_PREFIXES
            ):
                cost += pending.cost_per_token * token_count(interior)
            pending = None
    return cost


def run_episode(
    question: str,
    golds: Optional[list[str]],
    policy: PolicyBackend,
    pool: RoutingPool,
    window: CostWindow,
    config: EngineConfig = EngineConfig(),
    reward_config: RewardConfig = RewardConfig(),
) -> Episode:
    """Run one question through the policy until it answers or stalls.

    Episodes with ``golds`` get a full reward breakdown (and push their cost
    into ``window``); unscored episodes (``golds is None``) do not touch the
    window and carry ``rewards=None``.
    """
    lexicon = config.lexicon
    head, head_tokens = _pool_prompt_head(pool, lexicon)
    prompt = head + question + _PROMPT_TAIL
    trajectory_text = ""
    context_tokens = 0
    calls: list[CallRecord] = []

    while True:
        budget_left = len(calls) < config.max_routing_steps
        stops = (
            [lexicon.route_close, lexicon.answer_close]
            if budget_left
            else [lexicon.answer_close]
        )
        continuation = policy.generate(
            prompt + trajectory_text, stops, config.max_response_tokens
        )
        trajectory_text += continuation
        trimmed = continuation.rstrip()
        if not (budget_left and trimmed.endswith(lexicon.route_close)):
            break
        open_at = trimmed.rfind(lexicon.route_open)
        if open_at == -1:
            break
        interior = trimmed[open_at + len(lexicon.route_open) : -len(lexicon.route_close)]
        # The context is counted at the first route and kept running after.
        # Every info block starts and ends with "\n", so no word spans the
        # join before a block or the join after one, and the counts add up.
        if calls:
            context_tokens += token_count(continuation)
        else:
            context_tokens = head_tokens + token_count(
                question + _PROMPT_TAIL + trajectory_text
            )
        record = _handle_route(interior, pool, config)
        calls.append(record)
        block, block_tokens = _fit_info_to_budget(
            record.response_text,
            record.response_tokens,
            context_tokens,
            config,
            lexicon,
        )
        trajectory_text += block
        context_tokens += block_tokens

    verdict = validate_format(trajectory_text, lexicon, pool)
    rewards = (
        score_episode(verdict, golds, episode_cost_raw(calls), window, reward_config)
        if golds is not None
        else None
    )
    return Episode(question, golds, trajectory_text, verdict, calls, rewards)
