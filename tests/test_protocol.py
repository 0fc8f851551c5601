"""Parser, directive, and format-rule tests."""

from __future__ import annotations

import random

import pytest

from multiroute.engine import reconstruct_cost
from multiroute.protocol import (
    DEFAULT_LEXICON,
    BlockKind,
    DirectiveError,
    DirectiveErrorKind,
    FormatRule,
    ParseFailure,
    TagLexicon,
    extract_answer,
    loss_mask,
    parse_route_directive,
    parse_trajectory,
    validate_format,
)

from format_fixtures import CORPUS, VALID_CORPUS


def gaps(trajectory) -> list[str]:
    """The text between blocks: ``raw`` outside the spans, in order."""
    edges = [0, *(i for b in trajectory.blocks for i in b.span), len(trajectory.raw)]
    return [trajectory.raw[a:b] for a, b in zip(edges[::2], edges[1::2])]


def assert_blocks_cover_raw(trajectory, lexicon=DEFAULT_LEXICON):
    """Spans rise strictly without overlap, each span is an accepted
    open/close pair of its block's kind around the block's text, and no text
    between blocks holds a tag lexeme."""
    raw = trajectory.raw
    pairs = lexicon.open_close_pairs()
    previous_end = 0
    for block in trajectory.blocks:
        start, end = block.span
        assert previous_end <= start < end, (raw, block)
        assert any(
            kind is block.kind and raw[start:end] == opener + block.text + closer
            for opener, closer, kind in pairs
        ), (raw, block)
        previous_end = end
    lexemes = [lex for opener, closer, _ in pairs for lex in (opener, closer)]
    for gap in gaps(trajectory):
        assert not any(lex in gap for lex in lexemes), (raw, gap)


# ---------------------------------------------------------------------------
# corpus agreement
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.name)
def test_corpus_labels(entry, case_pool):
    verdict = validate_format(entry.raw, DEFAULT_LEXICON, case_pool)
    assert verdict.ok == (not entry.violated)
    assert verdict.violated_rules == set(entry.violated)


@pytest.mark.parametrize("entry", VALID_CORPUS, ids=lambda e: e.name)
def test_valid_corpus_round_trips(entry):
    trajectory = parse_trajectory(entry.raw)
    assert_blocks_cover_raw(trajectory)


# ---------------------------------------------------------------------------
# parsing structure
# ---------------------------------------------------------------------------


def test_parse_block_sequence_and_interiors(case_pool):
    raw = (
        "<think>plan</think>junk"
        "<search>LLaMA-3.1-70B-Instruct: sub q</search>"
        "<information>fact</information><answer> final </answer>tail"
    )
    trajectory = parse_trajectory(raw)
    kinds = [b.kind for b in trajectory.blocks]
    assert kinds == [
        BlockKind.THINK,
        BlockKind.ROUTE,
        BlockKind.INFO,
        BlockKind.ANSWER,
    ]
    assert trajectory.blocks[0].text == "plan"
    assert parse_route_directive(trajectory.blocks[1].text, case_pool) == (
        "llama-3.1-70b-instruct",
        "sub q",
    )
    assert trajectory.blocks[2].text == "fact"
    assert gaps(trajectory) == ["", "junk", "", "", "tail"]
    assert_blocks_cover_raw(trajectory)


def test_parse_info_alias_maps_to_info_kind():
    raw = "<think>t</think><info>aliased</info><answer>x</answer>"
    trajectory = parse_trajectory(raw)
    assert trajectory.blocks[1].kind is BlockKind.INFO
    assert trajectory.blocks[1].text == "aliased"


def test_parse_spans_are_code_point_offsets():
    raw = "<think>héllo ✓</think><answer>ok</answer>"
    trajectory = parse_trajectory(raw)
    start, end = trajectory.blocks[0].span
    assert raw[start:end] == "<think>héllo ✓</think>"


def test_parse_empty_interior_allowed():
    trajectory = parse_trajectory("<think></think><answer></answer>")
    assert [b.text for b in trajectory.blocks] == ["", ""]


@pytest.mark.parametrize(
    "raw, offset, expected, found",
    [
        ("</think>x", 0, "an opening tag", "</think>"),
        ("<think>a<answer>b</answer>", 8, "</think>", "<answer>"),
        ("<think>never closed", 19, "</think>", "end of input"),
        ("ok so far<information>x</answer>", 23, "</information>", "</answer>"),
        # the same three failures after a block that parsed
        ("<think>a</think></answer>", 16, "an opening tag", "</answer>"),
        ("<think>a</think><answer>b", 25, "</answer>", "end of input"),
        ("<think>a</think><answer><think>", 24, "</answer>", "<think>"),
        ("<info>x</information>", 7, "</info>", "</information>"),
    ],
)
def test_parse_failures_report_position(raw, offset, expected, found):
    with pytest.raises(ParseFailure) as exc_info:
        parse_trajectory(raw)
    failure = exc_info.value
    assert failure.offset == offset
    assert failure.expected == expected
    assert failure.found == found


def test_untagged_text_is_not_a_block():
    trajectory = parse_trajectory("no tags at all")
    assert trajectory.blocks == []
    assert gaps(trajectory) == ["no tags at all"]


# ---------------------------------------------------------------------------
# route directives
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text, want_id, want_query",
    [
        ("llama-3.1-70b-instruct: Who founded Rome?", "llama-3.1-70b-instruct", "Who founded Rome?"),
        ("LLaMA-3.1-70B-Instruct: Who founded Rome?", "llama-3.1-70b-instruct", "Who founded Rome?"),
        ("  MIXTRAL-8X22B-INSTRUCT  :  spaced  ", "mixtral-8x22b-instruct", "spaced"),
        ("Qwen2.5-7B-Instruct: When does the 12:30 train arrive?", "qwen2.5-7b-instruct", "When does the 12:30 train arrive?"),
    ],
)
def test_directive_resolution(case_pool, text, want_id, want_query):
    model_id, query = parse_route_directive(text, case_pool)
    assert model_id == want_id
    assert query == want_query


@pytest.mark.parametrize(
    "text, kind",
    [
        ("no separator here", DirectiveErrorKind.NO_COLON),
        (":  question with no name", DirectiveErrorKind.EMPTY_NAME),
        ("Qwen2.5-7B-Instruct:   ", DirectiveErrorKind.EMPTY_QUERY),
        ("GPT-9000: hello", DirectiveErrorKind.UNKNOWN_MODEL),
    ],
)
def test_directive_errors(case_pool, text, kind):
    with pytest.raises(DirectiveError) as exc_info:
        parse_route_directive(text, case_pool)
    assert exc_info.value.kind is kind


def test_directive_unknown_model_carries_name(case_pool):
    with pytest.raises(DirectiveError) as exc_info:
        parse_route_directive("GPT-9000: hello", case_pool)
    assert exc_info.value.name == "GPT-9000"


# ---------------------------------------------------------------------------
# masking / answer extraction
# ---------------------------------------------------------------------------


def test_loss_mask_covers_exactly_info_spans():
    raw = (
        "<think>a</think>"
        "<search>Qwen2.5-7B-Instruct: q</search>"
        "<information>masked</information>"
        "<think>b</think><info>also masked</info><answer>x</answer>"
    )
    trajectory = parse_trajectory(raw)
    spans = loss_mask(trajectory)
    assert [raw[s:e] for s, e in spans] == [
        "<information>masked</information>",
        "<info>also masked</info>",
    ]
    # everything outside the mask was policy-emitted text
    for block in trajectory.blocks:
        if block.kind is not BlockKind.INFO:
            assert block.span not in spans


def test_extract_answer_takes_last_and_trims():
    trajectory = parse_trajectory(
        "<think>t</think><answer> first </answer><answer>  second  </answer>"
    )
    assert extract_answer(trajectory) == "second"
    assert extract_answer(parse_trajectory("<think>t</think>")) is None


# ---------------------------------------------------------------------------
# randomized round-trip and mutation checks
# ---------------------------------------------------------------------------

_WORDS = "alpha beta gamma delta epsilon zeta eta theta".split()


def _random_valid(rng: random.Random, pool) -> tuple[str, str]:
    """Assemble a well-formed trajectory; returns (raw, answer_text)."""
    names = [d.display_name for d in pool.descriptors]
    parts = [f"<think>{' '.join(rng.sample(_WORDS, 3))}</think>"]
    for _ in range(rng.randrange(3)):
        name = rng.choice(names)
        query = " ".join(rng.sample(_WORDS, 2))
        parts.append(f"<search>{name}: {query}?</search>")
        parts.append(f"<information>{rng.choice(_WORDS)}</information>")
        if rng.random() < 0.5:
            parts.append(f"<think>{rng.choice(_WORDS)}</think>")
    answer = " ".join(rng.sample(_WORDS, 2))
    parts.append(f"<answer>{answer}</answer>")
    glue = lambda: rng.choice(["", " ", "\n", " note "])  # noqa: E731
    raw = glue().join(parts)
    return raw, answer


def test_randomized_valid_trajectories(case_pool):
    rng = random.Random(7)
    for _ in range(200):
        raw, answer = _random_valid(rng, case_pool)
        trajectory = parse_trajectory(raw)
        assert_blocks_cover_raw(trajectory)
        assert extract_answer(trajectory) == answer
        verdict = validate_format(raw, DEFAULT_LEXICON, case_pool)
        assert verdict.ok, verdict.violations


def test_randomized_mutations_flag_expected_rule(case_pool):
    rng = random.Random(11)
    for _ in range(200):
        raw, _ = _random_valid(rng, case_pool)
        choice = rng.randrange(5)
        if choice == 0:  # drop a close tag somewhere
            close = rng.choice(["</think>", "</answer>"])
            mutated = raw.replace(close, "", 1)
            expected = {FormatRule.TAG_BALANCE}
        elif choice == 1:  # second answer block
            mutated = raw + "<answer>extra</answer>"
            expected = {FormatRule.THINK_ANSWER_COUNT}
        elif choice == 2:  # orphan info after the opening think
            head, sep, tail = raw.partition("</think>")
            mutated = head + sep + "<information>stray</information>" + tail
            expected = {FormatRule.ROUTE_INFO_PAIRING}
        elif choice == 3:  # trajectory no longer starts with a think block
            mutated = (
                "<search>Qwen2.5-7B-Instruct: warmup?</search>"
                "<information>i</information>" + raw
            )
            expected = {FormatRule.STARTS_THINK_ENDS_ANSWER}
        else:  # unresolvable directive
            if "<search>" not in raw:
                continue
            start = raw.index("<search>") + len("<search>")
            colon = raw.index(":", start)
            mutated = raw[:start] + "No-Such-Model" + raw[colon:]
            expected = {FormatRule.ROUTE_DIRECTIVE}
        verdict = validate_format(mutated, DEFAULT_LEXICON, case_pool)
        assert not verdict.ok
        assert expected <= verdict.violated_rules, (mutated, verdict.violations)


# ---------------------------------------------------------------------------
# configurable lexicons
# ---------------------------------------------------------------------------


def test_custom_lexicon_parses_and_validates(case_pool):
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
    raw = (
        "[plan]where?[/plan][ask]Gemma-2-27B-Instruct: where?[/ask]"
        "[got]nowhere[/got][final]nowhere[/final]"
    )
    trajectory = parse_trajectory(raw, lexicon)
    assert [b.kind for b in trajectory.blocks] == [
        BlockKind.THINK,
        BlockKind.ROUTE,
        BlockKind.INFO,
        BlockKind.ANSWER,
    ]
    assert validate_format(raw, lexicon, case_pool).ok
    # default tags are plain text under this lexicon
    plain = parse_trajectory("<think>not a tag</think>", lexicon)
    assert plain.blocks == []


def test_lexicon_rejects_substring_lexemes():
    with pytest.raises(ValueError):
        TagLexicon(think_open="<t>", answer_open="<t>x")


def test_lexicon_rejects_duplicate_lexemes():
    with pytest.raises(ValueError):
        TagLexicon(think_open="<same>", route_open="<same>")


def test_lexicon_rejects_empty_lexeme():
    with pytest.raises(ValueError):
        TagLexicon(info_close="")


# ---------------------------------------------------------------------------
# seeded fuzz: tag soup raises only the documented errors
# ---------------------------------------------------------------------------

RETHEMED = TagLexicon(
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


def _tag_soup(rng: random.Random, lexicon: TagLexicon, pool) -> str:
    """Whole blocks mixed with stray lexemes, broken tags and route text."""
    pairs = [(opener, closer) for opener, closer, _ in lexicon.open_close_pairs()]
    fillers = [
        *(f"{d.display_name}: q?" for d in pool),
        "Nobody: q?",
        ":",
        "Routing error: x",
        "No assistance available",
        "<", ">", "[", "]", "/",
        pairs[0][0][:-1],
        " ", "\n", "word", "\u00e9", "\ud800",
    ]
    parts = []
    for _ in range(rng.randrange(12)):
        opener, closer = rng.choice(pairs)
        roll = rng.random()
        if roll < 0.6:
            parts.append(f"{opener}{rng.choice(fillers)}{closer}")
        elif roll < 0.8:
            parts.append(rng.choice((opener, closer)))
        else:
            parts.append(rng.choice(fillers))
    return "".join(parts)


@pytest.mark.parametrize(
    "lexicon", [DEFAULT_LEXICON, RETHEMED], ids=["default", "rethemed"]
)
def test_tag_soup_raises_only_documented_errors(case_pool, lexicon):
    rng = random.Random(13)
    for _ in range(3000):
        raw = _tag_soup(rng, lexicon, case_pool)
        try:
            trajectory = parse_trajectory(raw, lexicon)
        except ParseFailure:
            trajectory = None
        else:
            assert_blocks_cover_raw(trajectory, lexicon)
            extract_answer(trajectory)
            loss_mask(trajectory)
            reconstruct_cost(trajectory, case_pool)
        verdict = validate_format(raw, lexicon, case_pool)
        assert verdict.ok == (not verdict.violations), raw
        assert (verdict.trajectory is None) == (trajectory is None), raw
