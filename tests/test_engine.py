"""Episode engine tests: prompt assembly, the generate/route loop, scoring."""

from __future__ import annotations

import hashlib
import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import multiroute.engine as engine
import multiroute.pool as pool_module
import multiroute.protocol as protocol
from multiroute.engine import (
    NO_ASSISTANCE_TEXT,
    PROMPT_TEMPLATE,
    EmptyPoolError,
    EngineConfig,
    build_prompt,
    run_episode,
)
from multiroute.policies import HttpPolicy, ScriptedPolicy
from multiroute.pool import (
    BackendTimeout,
    HttpBackend,
    ModelDescriptor,
    RoutingPool,
    token_count,
)
from multiroute.protocol import DEFAULT_LEXICON, BlockKind, FormatRule, TagLexicon
from multiroute.rewards import CostWindow, RewardConfig

from http_stub import (
    chat_body,
    resolve_loopback_only,
    start_scripted_server,
    stop_server,
)

QUESTION = (
    "Which film was released more recently, Sacred Silence or "
    "Ek Haseena Thi Ek Deewana Tha?"
)
GOLDS = ["Ek Haseena Thi Ek Deewana Tha"]


def _window():
    return CostWindow(1000)


# ---------------------------------------------------------------------------
# prompt assembly
# ---------------------------------------------------------------------------


def test_build_prompt_lists_candidates_in_pool_order(case_pool):
    prompt = build_prompt("What?", case_pool)
    assert "Question: What?" in prompt
    positions = [
        prompt.index(f"{d.display_name}: {d.descriptor_text}")
        for d in case_pool.descriptors
    ]
    assert positions == sorted(positions)
    for opener, closer, _ in DEFAULT_LEXICON.open_close_pairs()[: len(BlockKind)]:
        assert opener in prompt and closer in prompt


def test_build_prompt_uses_lexicon_tags(case_pool):
    lexicon = TagLexicon(
        think_open="[plan]",
        think_close="[/plan]",
        route_open="[ask]",
        route_close="[/ask]",
        info_open="[got]",
        info_close="[/got]",
        answer_open="[final]",
        answer_close="[/final]",
        info_aliases=(),
    )
    prompt = build_prompt("Q", case_pool, lexicon)
    assert "[plan]" in prompt and "[/final]" in prompt
    assert "<think>" not in prompt


def test_build_prompt_rejects_empty_pool():
    with pytest.raises(EmptyPoolError):
        build_prompt("Q", RoutingPool())


def test_build_prompt_shows_an_edited_descriptor_at_once(case_pool):
    descriptor = case_pool.descriptors[0]
    assert descriptor.descriptor_text in build_prompt("Q", case_pool)
    descriptor.descriptor_text = "an edited description"
    prompt = build_prompt("Q", case_pool)
    assert f"{descriptor.display_name}: an edited description\n" in prompt


@pytest.mark.parametrize(
    "question", ["{}", "{question}", "a {think_open} b }{", "{0} {candidates_intro}"]
)
def test_build_prompt_keeps_a_question_with_braces_verbatim(case_pool, question):
    # The template rendered whole is the reference the cached head must equal.
    candidates = "\n".join(f"{d.display_name}: {d.descriptor_text}" for d in case_pool)
    reference = PROMPT_TEMPLATE.format(
        **vars(DEFAULT_LEXICON), candidates_intro="\n" + candidates, question=question
    )
    prompt = build_prompt(question, case_pool)
    assert prompt == reference
    assert prompt.endswith(f"Question: {question}\n")


# ---------------------------------------------------------------------------
# single-route scripted flow
# ---------------------------------------------------------------------------


def _single_route_script():
    return ScriptedPolicy(
        [
            "<think>I do not know these release dates; the large model "
            "should.</think>\n"
            f"<search>LLaMA-3.1-70B-Instruct: {QUESTION}</search>",
            "\n<think>The reply names the 2017 film as newer.</think>\n"
            "<answer>Ek Haseena Thi Ek Deewana Tha</answer>",
        ]
    )


def test_single_route_episode(case_pool):
    policy = _single_route_script()
    episode = run_episode(
        QUESTION, GOLDS, policy, case_pool, _window(), EngineConfig(), RewardConfig()
    )
    assert episode.verdict.ok
    assert episode.final_answer == "Ek Haseena Thi Ek Deewana Tha"
    assert episode.route_count == 1 == len(episode.calls)
    call = episode.calls[0]
    assert call.model_id == "llama-3.1-70b-instruct"
    assert call.error is None
    assert call.cost == pytest.approx(0.9 * 48)
    assert episode.rewards.outcome == 1.0
    assert episode.rewards.format == 0
    assert episode.rewards.cost_raw == pytest.approx(call.cost)
    # the injected info block wraps the backend reply
    assert "<information>" in episode.raw_trajectory
    assert episode.raw_trajectory.count("</information>") == 1
    assert "Ek Haseena" in episode.raw_trajectory


def test_engine_contexts_grow_and_stops_follow_budget(case_pool):
    policy = _single_route_script()
    prompt = build_prompt(QUESTION, case_pool)
    run_episode(QUESTION, GOLDS, policy, case_pool, _window())
    assert policy.seen_contexts[0] == prompt
    assert policy.seen_contexts[1].startswith(prompt)
    assert "<information>" in policy.seen_contexts[1]
    assert policy.seen_stops[0] == ["</search>", "</answer>"]
    assert policy.seen_stops[1] == ["</search>", "</answer>"]


def test_mask_spans_cover_injected_info_only(case_pool):
    policy = _single_route_script()
    episode = run_episode(QUESTION, GOLDS, policy, case_pool, _window())
    assert len(episode.mask_spans) == 1
    start, end = episode.mask_spans[0]
    masked = episode.raw_trajectory[start:end]
    assert masked.startswith("<information>")
    assert masked.endswith("</information>")
    assert episode.calls[0].response_text in masked


def test_episode_record_is_json_ready(case_pool):
    episode = run_episode(
        QUESTION, GOLDS, _single_route_script(), case_pool, _window()
    )
    record = episode.to_record()
    blob = json.dumps(record, sort_keys=True)
    assert "raw_trajectory" in record
    assert record["route_count"] == 1
    assert record["rewards"]["outcome"] == 1.0
    assert record["format_violations"] == []
    assert json.loads(blob) == record


# ---------------------------------------------------------------------------
# routing budget
# ---------------------------------------------------------------------------


def test_budget_exhaustion_drops_route_stop_marker(case_pool):
    config = EngineConfig(max_routing_steps=2)
    policy = ScriptedPolicy(
        [
            "<think>first</think><search>Mistral-7B-Instruct: one?</search>",
            "<think>second</think><search>Gemma-2-27B-Instruct: two?</search>",
            "<think>third</think><answer>guess</answer>",
        ]
    )
    episode = run_episode("Q?", ["guess"], policy, case_pool, _window(), config)
    assert policy.seen_stops == [
        ["</search>", "</answer>"],
        ["</search>", "</answer>"],
        ["</answer>"],
    ]
    assert episode.route_count == 2
    assert episode.verdict.ok


def test_route_after_budget_is_not_dispatched(case_pool):
    config = EngineConfig(max_routing_steps=1)
    policy = ScriptedPolicy(
        [
            "<think>a</think><search>Mistral-7B-Instruct: one?</search>",
            # the policy tries to route again even though only the answer
            # marker remains; the engine must not dispatch it
            "<think>b</think><search>Gemma-2-27B-Instruct: two?</search>",
        ]
    )
    episode = run_episode("Q?", ["x"], policy, case_pool, _window(), config)
    assert episode.route_count == 1
    assert [c.model_id for c in episode.calls] == ["mistral-7b-instruct"]
    # trailing unanswered route leaves a pending pair and no answer
    assert not episode.verdict.ok
    assert FormatRule.ROUTE_INFO_PAIRING in episode.verdict.violated_rules
    assert episode.rewards.total == -1.0


# ---------------------------------------------------------------------------
# failure injection
# ---------------------------------------------------------------------------


def test_unknown_model_route_becomes_zero_cost_error_call(case_pool):
    policy = ScriptedPolicy(
        [
            "<think>t</think><search>GPT-9000: who?</search>",
            "<think>t</think><answer>unknown</answer>",
        ]
    )
    episode = run_episode("Q?", ["x"], policy, case_pool, _window())
    assert episode.route_count == 1
    call = episode.calls[0]
    assert call.model_id == "GPT-9000"
    assert call.cost == 0.0 and call.output_tokens == 0
    assert call.error is not None
    assert "Routing error (unknown_model)" in episode.raw_trajectory
    assert FormatRule.ROUTE_DIRECTIVE in episode.verdict.violated_rules
    assert episode.rewards.total == -1.0
    assert episode.rewards.cost_raw == 0.0


def test_colonless_route_is_charged_to_unrouted(case_pool):
    policy = ScriptedPolicy(
        [
            "<think>t</think><search>just help me</search>",
            "<think>t</think><answer>unknown</answer>",
        ]
    )
    episode = run_episode("Q?", None, policy, case_pool, _window())
    assert episode.calls[0].model_id == "(unrouted)"
    assert "Routing error (no_colon)" in episode.raw_trajectory


class _FailingBackend:
    def complete(self, prompt, max_tokens, timeout_ms=30000.0):
        raise BackendTimeout("simulated outage")


def test_backend_fault_yields_no_assistance_info():
    pool = RoutingPool(
        [ModelDescriptor("flaky", "Flaky-9B", 9, 0.4, "d", _FailingBackend())]
    )
    policy = ScriptedPolicy(
        [
            "<think>t</think><search>Flaky-9B: anything?</search>",
            "<think>t</think><answer>unknown</answer>",
        ]
    )
    episode = run_episode("Q?", ["x"], policy, pool, _window())
    call = episode.calls[0]
    assert call.model_id == "flaky"
    assert call.cost == 0.0
    assert "simulated outage" in call.error
    assert NO_ASSISTANCE_TEXT in episode.raw_trajectory
    assert episode.verdict.ok  # structure is intact despite the fault
    assert episode.rewards.outcome == 0.0


def test_empty_generation_scores_format_failure(case_pool):
    episode = run_episode("Q?", ["x"], ScriptedPolicy([]), case_pool, _window())
    assert episode.raw_trajectory == ""
    assert not episode.verdict.ok
    assert episode.final_answer is None
    assert episode.rewards.total == -1.0
    assert episode.route_count == 0


def test_route_close_without_open_stops_cleanly(case_pool):
    episode = run_episode(
        "Q?", None, ScriptedPolicy(["</search>"]), case_pool, _window()
    )
    assert episode.route_count == 0
    assert episode.trajectory is None  # unparseable
    assert FormatRule.TAG_BALANCE in episode.verdict.violated_rules


def test_trailing_whitespace_after_route_close_still_routes(case_pool):
    policy = ScriptedPolicy(
        [
            "<think>t</think><search>Qwen2.5-7B-Instruct: hi?</search>\n   ",
            "<think>t</think><answer>unknown</answer>",
        ]
    )
    episode = run_episode("Q?", None, policy, case_pool, _window())
    assert episode.route_count == 1
    assert episode.calls[0].model_id == "qwen2.5-7b-instruct"


# ---------------------------------------------------------------------------
# sequence budget
# ---------------------------------------------------------------------------


def test_info_is_trimmed_to_sequence_budget(case_pool):
    question = "Where was the place of death of Topa Inca Yupanqui's father?"
    prompt = build_prompt(question, case_pool)
    cap = token_count(prompt) + 40
    config = EngineConfig(
        max_routing_steps=4,
        max_sequence_tokens=cap,
        max_api_response_tokens=cap,
    )
    policy = ScriptedPolicy(
        [
            "<think>ask the large model</think>\n"
            f"<search>LLaMA-3.1-70B-Instruct: {question}</search>",
            "<think>done</think><answer>Cusco</answer>",
        ]
    )
    episode = run_episode(
        question, ["Cusco"], policy, case_pool, _window(), config
    )
    assert episode.route_count == 1
    # the context handed back to the policy after injection respects the cap
    assert token_count(policy.seen_contexts[1]) <= cap
    # the info interior was cut down from the full backend reply
    start, end = episode.mask_spans[0]
    injected = episode.raw_trajectory[start:end]
    assert token_count(injected) < token_count(
        episode.calls[0].response_text
    ) + token_count("<information> </information>")


TOPA_Q = "Where was the place of death of Topa Inca Yupanqui's father?"

# Four routes, then an answer.  The continuations begin and end both with
# and without whitespace, so every kind of join meets the running count.
MULTI_ROUTE_SCRIPT = [
    "<think>ask the large model</think>\n"
    f"<search>LLaMA-3.1-70B-Instruct: {TOPA_Q}</search>",
    "\n<think>check it</think> "
    "<search>Gemma-2-27B-Instruct: who was his father?</search>\n",
    "<think>once more</think>"
    "<search>Mixtral-8x22B-Instruct: where did he die?</search>  ",
    " \t<think>last</think>\n<search>Qwen2.5-7B-Instruct: in which city?</search>",
    "<think>done</think><answer>Cusco</answer>",
]


def _capped_config(cap):
    return EngineConfig(
        max_routing_steps=4, max_sequence_tokens=cap, max_api_response_tokens=cap
    )


def _full_recount_episode(prompt, script, replies, cap):
    """(raw_trajectory, mask_spans) of an episode whose routes got ``replies``,
    with each info block trimmed by recounting the whole context."""
    lexicon = DEFAULT_LEXICON
    text = ""
    spans = []
    for continuation, info in zip(script, replies):
        text += continuation
        while True:
            block = f"\n{lexicon.info_open}{info}{lexicon.info_close}\n"
            overflow = token_count(prompt + text + block) - cap
            words = info.split()
            if overflow <= 0 or not words:
                break
            info = " ".join(words[: max(0, len(words) - overflow)])
        spans.append((len(text) + 1, len(text) + len(block) - 1))
        text += block
    return text + script[len(replies)], spans


@pytest.mark.parametrize("spare", [2000, 150, 100, 60, 30, 10, 1])
def test_multi_route_trims_match_a_full_recount(case_pool, spare):
    prompt = build_prompt(TOPA_Q, case_pool)
    cap = token_count(prompt) + spare
    episode = run_episode(
        TOPA_Q,
        ["Cusco"],
        ScriptedPolicy(MULTI_ROUTE_SCRIPT),
        case_pool,
        _window(),
        _capped_config(cap),
    )
    assert episode.route_count == 4
    replies = [call.response_text for call in episode.calls]
    raw, spans = _full_recount_episode(prompt, MULTI_ROUTE_SCRIPT, replies, cap)
    assert episode.raw_trajectory == raw
    assert episode.mask_spans == spans


def test_multi_route_contexts_stay_within_the_cap(case_pool):
    # The cap trims the last of four replies by ten words; each earlier reply
    # fits whole.
    roomy = ScriptedPolicy(MULTI_ROUTE_SCRIPT)
    run_episode(TOPA_Q, ["Cusco"], roomy, case_pool, _window())
    cap = token_count(roomy.seen_contexts[-1]) - 10
    assert token_count(roomy.seen_contexts[-2]) < cap
    policy = ScriptedPolicy(MULTI_ROUTE_SCRIPT)
    episode = run_episode(
        TOPA_Q, ["Cusco"], policy, case_pool, _window(), _capped_config(cap)
    )
    assert episode.route_count == 4
    assert all(token_count(context) <= cap for context in policy.seen_contexts)
    assert token_count(policy.seen_contexts[-1]) == cap
    prompt = build_prompt(TOPA_Q, case_pool)
    replies = [call.response_text for call in episode.calls]
    raw, spans = _full_recount_episode(prompt, MULTI_ROUTE_SCRIPT, replies, cap)
    assert (episode.raw_trajectory, episode.mask_spans) == (raw, spans)


@pytest.mark.parametrize("routes", [0, 1, 2, 3, 4])
def test_episode_counts_context_tokens_once_per_route(
    case_pool, monkeypatch, routes
):
    # Untrimmed: one count of the context per route, none of a reply (dispatch
    # counted it), and none at all for an episode that answers without
    # routing.  The two info tags are counted apart from the context.  A
    # first episode fills the prompt-head cache.
    script = MULTI_ROUTE_SCRIPT[:routes] + [MULTI_ROUTE_SCRIPT[-1]]
    run_episode(TOPA_Q, ["Cusco"], ScriptedPolicy(script), case_pool, _window())
    calls = []

    def counting(text):
        calls.append(text)
        return token_count(text)

    monkeypatch.setattr(engine, "token_count", counting)
    episode = run_episode(
        TOPA_Q, ["Cusco"], ScriptedPolicy(script), case_pool, _window()
    )
    assert episode.route_count == routes
    tags = (DEFAULT_LEXICON.info_open, DEFAULT_LEXICON.info_close)
    assert len([text for text in calls if text not in tags]) == routes
    replies = [call.response_text for call in episode.calls]
    assert not any(reply in text for text in calls for reply in replies)


def test_unscored_episode_skips_reward_and_window(case_pool):
    window = _window()
    episode = run_episode(
        QUESTION, None, _single_route_script(), case_pool, window
    )
    assert episode.rewards is None
    assert episode.golds is None
    assert len(window) == 0 and window.pushes == 0
    assert episode.to_record()["rewards"] is None


def test_scored_episode_pushes_exactly_once(case_pool):
    window = _window()
    run_episode(QUESTION, GOLDS, _single_route_script(), case_pool, window)
    assert window.pushes == 1


# ---------------------------------------------------------------------------
# info block counts, derived from the reply's count
# ---------------------------------------------------------------------------

# Characters ``str.split`` splits on, ASCII and not, and two that look blank
# but are not whitespace to it.
SPLIT_SPACES = (
    " \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0"
    "\u1680\u2000\u2009\u2028\u2029\u202f\u205f\u3000"
)
NOT_SPACES = "\u200b\ufeff"
EDGE_TEXTS = [
    "",
    " ",
    "\n\t ",
    "\xa0\x85\x1c\u2009",
    "word",
    " word",
    "word\n",
    "\u200bword\ufeff",
    "\xa0two words\x85",
    "\x1cleading and trailing\u3000",
    NO_ASSISTANCE_TEXT,
]
# (info_open, info_close) pairs whose ends are whitespace or not, including
# tags that are whitespace only.
INFO_TAGS = [
    ("<information>", "</information>"),
    (" <information>", "</information> "),
    ("<information>\n", "\t</information>"),
    ("\xa0[got]\x85", "\u2009[/got]\x1c"),
    ("[got] [it]", "[/got]\u200b"),
    ("\t", "\n"),
]
PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)
texts = st.text(
    alphabet=st.sampled_from(SPLIT_SPACES + NOT_SPACES + "ab<>/"), max_size=40
) | st.text(max_size=40)


def _info_lexicon(tags):
    open_tag, close_tag = tags
    return TagLexicon(info_open=open_tag, info_close=close_tag, info_aliases=())


def _block(text, lexicon):
    return f"\n{lexicon.info_open}{text}{lexicon.info_close}\n"


def _assert_block_count(text, tokens, lexicon):
    assert tokens == token_count(text)
    assert engine._info_block_tokens(text, tokens, lexicon) == token_count(
        _block(text, lexicon)
    )


@pytest.mark.parametrize("tags", INFO_TAGS)
def test_info_block_count_of_edge_texts(tags):
    for text in EDGE_TEXTS:
        _assert_block_count(text, token_count(text), _info_lexicon(tags))


@PROPERTY
@given(text=texts, tags=st.sampled_from(INFO_TAGS))
def test_info_block_count_matches_a_recount(text, tags):
    _assert_block_count(text, token_count(text), _info_lexicon(tags))


def _recount_fit(text, context_tokens, cap, lexicon):
    """The trim rule with every block counted whole."""
    while True:
        block = _block(text, lexicon)
        overflow = context_tokens + token_count(block) - cap
        words = text.split()
        if overflow <= 0 or not words:
            return block, token_count(block)
        text = " ".join(words[: max(0, len(words) - overflow)])


@PROPERTY
@given(
    text=texts,
    tags=st.sampled_from(INFO_TAGS),
    context_tokens=st.integers(0, 30),
    cap=st.integers(1, 60),
)
def test_trimmed_info_block_matches_a_recount(text, tags, context_tokens, cap):
    lexicon = _info_lexicon(tags)
    config = EngineConfig(max_sequence_tokens=cap, max_api_response_tokens=1)
    fitted = engine._fit_info_to_budget(
        text, token_count(text), context_tokens, config, lexicon
    )
    assert fitted == _recount_fit(text, context_tokens, cap, lexicon)


class _EchoBackend:
    """Replies with the text after the sub-query marker, as given."""

    def complete(self, prompt, max_tokens, timeout_ms):
        return prompt.rsplit(pool_module.SUB_QUERY_MARKER + " ", 1)[1], None, 0.0


def _echo_pool():
    return RoutingPool(
        [
            ModelDescriptor("echo", "Echo-1B", 1, 0.5, "echoes", _EchoBackend()),
            ModelDescriptor("down", "Down-1B", 1, 0.5, "fails", _FailingBackend()),
        ]
    )


@PROPERTY
@given(reply=texts, cap=st.integers(1, 12), tags=st.sampled_from(INFO_TAGS))
def test_dispatched_reply_count_gives_the_block_count(reply, cap, tags):
    # Over ``cap`` words the reply is truncated; a blank one fails the
    # directive; the failing model gets the no-assistance notice.
    lexicon = _info_lexicon(tags)
    config = EngineConfig(max_api_response_tokens=cap, lexicon=lexicon)
    for interior in (f"Echo-1B: {reply}", f"Down-1B: {reply}", reply):
        record = engine._handle_route(interior, _echo_pool(), config)
        _assert_block_count(record.response_text, record.response_tokens, lexicon)
        assert record.response_tokens <= cap or record.error is not None


# ---------------------------------------------------------------------------
# custom lexicon end-to-end
# ---------------------------------------------------------------------------


def test_episode_with_custom_lexicon(case_pool):
    lexicon = TagLexicon(
        think_open="[plan]",
        think_close="[/plan]",
        route_open="[ask]",
        route_close="[/ask]",
        info_open="[got]",
        info_close="[/got]",
        answer_open="[final]",
        answer_close="[/final]",
        info_aliases=(),
    )
    config = EngineConfig(lexicon=lexicon)
    policy = ScriptedPolicy(
        [
            "[plan]ask[/plan][ask]LLaMA-3.1-8B-Instruct: The radiographic "
            "term used to describe the dense bone of the socket and septal "
            "crest is?[/ask]",
            "[plan]ok[/plan][final]lamina dura[/final]",
        ]
    )
    episode = run_episode(
        "The radiographic term used to describe the dense bone of the socket "
        "and septal crest is?",
        ["lamina dura", "alveolar process", "the lamina dura"],
        policy,
        case_pool,
        _window(),
        config,
    )
    assert policy.seen_stops[0] == ["[/ask]", "[/final]"]
    assert episode.verdict.ok
    assert "[got]" in episode.raw_trajectory
    assert episode.final_answer == "lamina dura"
    assert episode.rewards.outcome == 1.0


# ---------------------------------------------------------------------------
# HTTP policy adapter
# ---------------------------------------------------------------------------


def test_http_policy_requests_stops_and_reappends_marker(monkeypatch):
    server = start_scripted_server(
        [
            # endpoint strips the stop sequence, as chat APIs do
            {
                "status": 200,
                "body": chat_body(
                    "<think>hm</think><search>Remote-1B: q?", finish="stop"
                ),
            }
        ]
    )
    monkeypatch.setenv("MULTIROUTE_POLICY_URL", server.url)
    try:
        policy = HttpPolicy(model="policy-model")
        text = policy.generate(
            "context", ["</search>", "</answer>"], max_tokens=64
        )
        assert text.endswith("</search>")
        sent = server.received[0]
        assert sent["stop"] == ["</search>", "</answer>"]
        assert sent["model"] == "policy-model"
    finally:
        stop_server(server)


def test_http_policy_leaves_complete_text_alone(monkeypatch):
    server = start_scripted_server(
        [
            {
                "status": 200,
                "body": chat_body(
                    "<think>t</think><answer>done</answer>", finish="length"
                ),
            }
        ]
    )
    monkeypatch.setenv("MULTIROUTE_POLICY_URL", server.url)
    try:
        policy = HttpPolicy(model="policy-model")
        text = policy.generate("context", ["</search>", "</answer>"], 64)
        assert text == "<think>t</think><answer>done</answer>"
    finally:
        stop_server(server)


def test_engine_config_validation():
    with pytest.raises(ValueError):
        EngineConfig(max_routing_steps=0)
    with pytest.raises(ValueError):
        EngineConfig(max_sequence_tokens=100, max_api_response_tokens=200)


# ---------------------------------------------------------------------------
# one parse per episode
# ---------------------------------------------------------------------------


def test_run_episode_parses_the_trajectory_once(case_pool, monkeypatch):
    # Count calls to the one function, whatever module name they go through.
    original = protocol.parse_trajectory
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "multiroute" and (
            getattr(module, "parse_trajectory", None) is original
        ):
            monkeypatch.setattr(module, "parse_trajectory", counting)
    episode = run_episode(
        QUESTION, GOLDS, _single_route_script(), case_pool, _window()
    )
    assert episode.rewards.outcome == 1.0
    assert calls == [episode.raw_trajectory]
    assert episode.trajectory is episode.verdict.trajectory


# ---------------------------------------------------------------------------
# malformed 200 replies from an HTTP backend
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "step, error",
    [
        ({"body": {"usage": {"completion_tokens": 3}}}, "no choices"),
        ({"body": {"choices": []}}, "no choices"),
        ({"body": {"choices": {"text": "a b c"}}}, "no choices"),
        ({"body": {"choices": ["a b c"]}}, "choice is not an object"),
        ({"body": {"choices": [{"message": "a b c"}]}}, "message is not an object"),
        ({"body": {"choices": [{"text": 7}]}}, "text is not a string"),
        ({"body": ["a b c"]}, "not a JSON object"),
        ({"raw": "<html>bad gateway</html>"}, "not JSON"),
        ({"body": chat_body("a b c", tokens=-5)}, None),
        ({"body": chat_body("a b c", tokens="7")}, None),
        ({"body": chat_body("a b c", tokens=True)}, None),
        ({"body": chat_body("a b c", tokens=7.0)}, None),
        ({"body": chat_body("a b c", tokens=601)}, None),
        ({"body": chat_body("a b c", tokens=10**308)}, None),
        ({"body": chat_body("a b c", tokens=10**400)}, None),
        ({"raw": "[" * 100_000}, "not JSON"),
    ],
    ids=[
        "no-choices",
        "empty-choices",
        "choices-not-a-list",
        "choice-not-an-object",
        "message-not-an-object",
        "text-not-a-string",
        "body-not-an-object",
        "body-not-json",
        "negative-usage",
        "string-usage",
        "bool-usage",
        "float-usage",
        "usage-above-the-asked-cap",
        "usage-pricing-to-inf",
        "usage-overflowing-a-float",
        "body-nested-too-deep",
    ],
)
def test_malformed_http_reply_does_not_escape_the_episode(monkeypatch, step, error):
    server = start_scripted_server([dict(step, status=200)])
    monkeypatch.setenv("MULTIROUTE_API_URL", server.url)
    pool = RoutingPool(
        [ModelDescriptor("r", "Remote-70B", 70, 2.0, "remote", HttpBackend("r"))]
    )
    policy = ScriptedPolicy(
        [
            "<think>t</think><search>Remote-70B: anything?</search>",
            "<think>t</think><answer>unknown</answer>",
        ]
    )
    try:
        episode = run_episode("Q?", ["x"], policy, pool, _window())
    finally:
        stop_server(server)
    assert len(server.received) == 1
    assert episode.verdict.ok
    assert episode.rewards is not None
    call = episode.calls[0]
    if error is None:
        assert call.error is None
        assert call.response_text == "a b c"
        assert call.output_tokens == 3
        assert call.cost == pytest.approx(6.0)
    else:
        assert error in call.error
        assert call.output_tokens == 0
        assert call.cost == 0.0
        assert NO_ASSISTANCE_TEXT in episode.raw_trajectory


# ---------------------------------------------------------------------------
# byte pins: prompts and episode records stay byte-identical
# ---------------------------------------------------------------------------

RETHEMED_LEXICON = TagLexicon(
    think_open="[plan]",
    think_close="[/plan]",
    route_open="[ask]",
    route_close="[/ask]",
    info_open="[got]",
    info_close="[/got]",
    answer_open="[final]",
    answer_close="[/final]",
    info_aliases=(("[note]", "[/note]"),),
)

# sha256 of build_prompt(QUESTION, case_pool, lexicon) for each lexicon.
GOLDEN_PROMPT_SHA256 = {
    "default": "fd4ef631c13df33e0096e8f3935a12d00da64fb2014243af45668da6f6bd4ecb",
    "rethemed": "36c59f59359bd73a60963e702f2fe8588e2989d397a178f5f9426c0218b10389",
}


@pytest.mark.parametrize(
    "name, lexicon",
    [("default", DEFAULT_LEXICON), ("rethemed", RETHEMED_LEXICON)],
    ids=["default", "rethemed"],
)
def test_build_prompt_bytes_match_golden_hash(case_pool, name, lexicon):
    prompt = build_prompt(QUESTION, case_pool, lexicon)
    assert hashlib.sha256(prompt.encode()).hexdigest() == GOLDEN_PROMPT_SHA256[name]


# sha256 of the sorted-key JSON record of a scored episode with one completed
# call, one backend failure and one bad directive (a format violation).
GOLDEN_EPISODE_SHA256 = "d4ef3a889c970806b581164ce999c9d627914a6e70d5df316e6273b48262d5f8"


def test_episode_record_bytes_match_golden_hash(case_pool):
    case_pool.register(
        ModelDescriptor("flaky", "Flaky-9B", 9, 0.4, "d", _FailingBackend())
    )
    policy = ScriptedPolicy(
        [
            "<think>ask</think>"
            f"<search>LLaMA-3.1-70B-Instruct: {QUESTION}</search>",
            "<think>again</think><search>Flaky-9B: anything?</search>",
            "<think>once more</think><search>GPT-9000: who?</search>",
            "<think>done</think><answer>Ek Haseena Thi Ek Deewana Tha</answer>",
        ]
    )
    episode = run_episode(
        QUESTION, GOLDS, policy, case_pool, _window(), EngineConfig(), RewardConfig(0.4)
    )
    assert [call.error is None for call in episode.calls] == [True, False, False]
    assert FormatRule.ROUTE_DIRECTIVE in episode.verdict.violated_rules
    blob = json.dumps(episode.to_record(), sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == GOLDEN_EPISODE_SHA256


def _episode_at_endpoint(monkeypatch, url, config=EngineConfig()):
    """Run one episode that routes once to an HTTP backend at ``url``."""
    monkeypatch.setenv("MULTIROUTE_API_URL", url)
    pool = RoutingPool(
        [ModelDescriptor("r", "Remote-70B", 70, 2.0, "remote", HttpBackend("r"))]
    )
    policy = ScriptedPolicy(
        [
            "<think>t</think><search>Remote-70B: anything?</search>",
            "<think>t</think><answer>unknown</answer>",
        ]
    )
    return run_episode("Q?", ["x"], policy, pool, _window(), config)


def test_unusable_endpoint_url_becomes_zero_cost_error_call(monkeypatch):
    episode = _episode_at_endpoint(monkeypatch, "not-a-url")
    (call,) = episode.calls
    assert call.model_id == "r"
    assert "Invalid URL 'not-a-url'" in call.error
    assert call.output_tokens == 0 and call.cost == 0.0
    assert NO_ASSISTANCE_TEXT in episode.raw_trajectory
    assert episode.verdict.ok


# Endpoint URLs that fail in parsing, in the connection's own checks, in the
# IDNA encoding of the host, in name lookup or at connect.
HOSTILE_ENDPOINT_URLS = [
    pytest.param("http://a..b/", id="empty-host-label"),
    pytest.param(f"http://{'a' * 300}/", id="300-char-host-label"),
    pytest.param("http://[::1/", id="unclosed-ipv6-bracket"),
    pytest.param("http://h:99999/", id="port-out-of-range"),
    pytest.param("http://h:abc/", id="port-not-a-number"),
    pytest.param("http://exa mple/", id="space-in-host"),
    pytest.param("http://127.0.0.1:9/a b", id="space-in-path"),
    pytest.param("http://\u00e9.invalid/", id="unresolvable-idna-host"),
    pytest.param("HTTP://127.0.0.1:9/", id="upper-case-scheme-refused"),
]


@pytest.mark.parametrize("url", HOSTILE_ENDPOINT_URLS)
def test_hostile_endpoint_url_becomes_zero_cost_error_call(monkeypatch, url):
    resolve_loopback_only(monkeypatch)
    episode = _episode_at_endpoint(monkeypatch, url)
    (call,) = episode.calls
    assert call.error
    assert call.output_tokens == 0 and call.cost == 0.0
    assert NO_ASSISTANCE_TEXT in episode.raw_trajectory
    assert episode.verdict.ok


def test_https_url_at_a_plain_http_server_becomes_zero_cost_error_call(monkeypatch):
    # The TLS handshake fails on each of the two attempts, or times out if
    # the server is still waiting for the end of a request line.
    server = start_scripted_server()
    attempts = []
    post = pool_module._post
    monkeypatch.setattr(
        pool_module, "_post", lambda *args: attempts.append(args) or post(*args)
    )
    url = server.url.replace("http://", "https://", 1)
    try:
        episode = _episode_at_endpoint(
            monkeypatch, url, EngineConfig(timeout_ms=1000)
        )
    finally:
        stop_server(server)
    (call,) = episode.calls
    assert len(attempts) == 2
    assert server.received == []
    assert call.model_id == "r" and call.error
    assert call.output_tokens == 0 and call.cost == 0.0
    assert call.response_text == NO_ASSISTANCE_TEXT
    assert episode.verdict.ok


def test_unsendable_api_key_stays_out_of_the_call_record(monkeypatch):
    monkeypatch.setenv("MULTIROUTE_API_KEY", "s3cr3t\nvalue")
    episode = _episode_at_endpoint(monkeypatch, "http://127.0.0.1:9/")
    (call,) = episode.calls
    assert "MULTIROUTE_API_KEY" in call.error
    assert call.output_tokens == 0 and call.cost == 0.0
    assert "s3cr3t" not in json.dumps(episode.to_record())
