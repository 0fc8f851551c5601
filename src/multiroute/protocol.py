"""Tagged trajectory protocol: parsing, route directives, and format validation.

A trajectory is a flat sequence of tagged blocks (think / route / info /
answer) with arbitrary untagged text allowed between blocks.  Parsing is a
single left-to-right scan: the earliest tag lexeme wins, block interiors are
taken non-greedily up to the matching close lexeme, and nesting is rejected.
"""

from __future__ import annotations

import functools
import re
import reprlib
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .pool import RoutingPool


class BlockKind(Enum):
    THINK = "think"
    ROUTE = "route"
    INFO = "info"
    ANSWER = "answer"


@dataclass(frozen=True)
class TagLexicon:
    """Configurable tag lexemes for the four block kinds.

    ``info_aliases`` lists extra (open, close) pairs accepted for info blocks
    at parse time; emission always uses the primary pair.  All lexemes must be
    nonempty, pairwise distinct, and no lexeme may be a substring of another,
    so any text position matches at most one lexeme.
    """

    think_open: str = "<think>"
    think_close: str = "</think>"
    route_open: str = "<search>"
    route_close: str = "</search>"
    info_open: str = "<information>"
    info_close: str = "</information>"
    answer_open: str = "<answer>"
    answer_close: str = "</answer>"
    info_aliases: tuple[tuple[str, str], ...] = (("<info>", "</info>"),)

    def __post_init__(self) -> None:
        pairs = self.info_aliases
        if not isinstance(pairs, (list, tuple)) or any(
            not isinstance(p, (list, tuple)) or len(p) != 2 for p in pairs
        ):
            raise ValueError("info_aliases must be (open, close) pairs")
        aliases = tuple(tuple(pair) for pair in pairs)
        object.__setattr__(self, "info_aliases", aliases)
        lexemes = [lex for o, c, _ in self.open_close_pairs() for lex in (o, c)]
        if any(not isinstance(lex, str) or not lex for lex in lexemes):
            raise ValueError("tag lexemes must be nonempty strings")
        if len(set(lexemes)) != len(lexemes):
            raise ValueError("tag lexemes must be pairwise distinct")
        for a in lexemes:
            for b in lexemes:
                if a != b and a in b:
                    raise ValueError(
                        f"lexeme {reprlib.repr(a)} is a substring of "
                        f"{reprlib.repr(b)}; "
                        "scanning would be ambiguous"
                    )

    def open_close_pairs(self) -> tuple[tuple[str, str, BlockKind], ...]:
        """All accepted (open, close, kind) triples, one primary pair per kind
        in ``BlockKind`` order, then the info aliases: the one lexeme list."""
        return (
            (self.think_open, self.think_close, BlockKind.THINK),
            (self.route_open, self.route_close, BlockKind.ROUTE),
            (self.info_open, self.info_close, BlockKind.INFO),
            (self.answer_open, self.answer_close, BlockKind.ANSWER),
            *[(o, c, BlockKind.INFO) for o, c in self.info_aliases],
        )


DEFAULT_LEXICON = TagLexicon()


class ParseFailure(ValueError):
    """Raised when a trajectory cannot be parsed into balanced blocks."""

    def __init__(self, offset: int, expected: str, found: str):
        self.offset = offset
        self.expected = expected
        self.found = found
        super().__init__(
            f"at offset {offset}: expected {expected!r}, found {found!r}"
        )


class DirectiveErrorKind(Enum):
    NO_COLON = "no_colon"
    EMPTY_NAME = "empty_name"
    EMPTY_QUERY = "empty_query"
    UNKNOWN_MODEL = "unknown_model"


class DirectiveError(ValueError):
    """Raised when a route block's interior is not a usable directive."""

    def __init__(self, kind: DirectiveErrorKind, detail: str, name: str = ""):
        self.kind = kind
        self.name = name
        super().__init__(detail)


@dataclass
class Block:
    """One tagged block.  ``span`` covers the tags; ``text`` is the interior.

    Offsets are code-point indices into the raw string.  A route block's
    interior is read as a directive by `parse_route_directive`.
    """

    kind: BlockKind
    text: str
    span: tuple[int, int]


@dataclass
class Trajectory:
    """The parsed blocks of ``raw``; the text between them is ``raw`` outside
    the spans."""

    raw: str
    blocks: list[Block]


class FormatRule(Enum):
    TAG_BALANCE = "tag_balance"
    STARTS_THINK_ENDS_ANSWER = "starts_think_ends_answer"
    THINK_ANSWER_COUNT = "think_answer_count"
    ROUTE_INFO_PAIRING = "route_info_pairing"
    ROUTE_DIRECTIVE = "route_directive"


_RULE_ORDER = tuple(FormatRule)


@dataclass
class Violation:
    rule: FormatRule
    message: str
    offset: int | None = None

    def to_record(self) -> dict:
        return {**vars(self), "rule": self.rule.value}


@dataclass
class FormatVerdict:
    """The violations found, and the parsed trajectory unless parsing failed."""

    violations: list[Violation]
    trajectory: Trajectory | None = field(default=None, compare=False, repr=False)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def violated_rules(self) -> set[FormatRule]:
        return {v.rule for v in self.violations}


@functools.lru_cache(maxsize=64)
def _scanner(lexicon: TagLexicon):
    """Build (regex, open-table) for one lexicon, cached."""
    opens = {o: (c, kind) for o, c, kind in lexicon.open_close_pairs()}
    closes = {c for _, c, _ in lexicon.open_close_pairs()}
    alternation = "|".join(
        re.escape(lex) for lex in sorted(set(opens) | closes, key=len, reverse=True)
    )
    return re.compile(alternation), opens


def parse_trajectory(raw: str, lexicon: TagLexicon = DEFAULT_LEXICON) -> Trajectory:
    """Parse ``raw`` into a flat block sequence.

    Raises:
        ParseFailure: on a close lexeme with no open block, any tag lexeme
            other than the matching close inside a block (nesting), or end of
            input before an open block is closed.
    """
    pattern, opens = _scanner(lexicon)
    blocks: list[Block] = []
    opened = None  # the open tag of the block being read
    for match in pattern.finditer(raw):
        lexeme = match.group()
        if opened is None:
            if lexeme not in opens:
                raise ParseFailure(match.start(), "an opening tag", lexeme)
            opened = match
            close_lex, kind = opens[lexeme]
            continue
        if lexeme != close_lex:
            raise ParseFailure(match.start(), close_lex, lexeme)
        text = raw[opened.end() : match.start()]
        blocks.append(Block(kind, text, (opened.start(), match.end())))
        opened = None
    if opened is not None:
        raise ParseFailure(len(raw), close_lex, "end of input")
    return Trajectory(raw=raw, blocks=blocks)


def parse_route_directive(text: str, pool: "RoutingPool") -> tuple[str, str]:
    """Split a route interior into (model_id, sub_query).

    The interior is split at the first colon; both halves are trimmed; the
    name is resolved case-insensitively against pool ids and display names.

    Raises:
        DirectiveError: NO_COLON, EMPTY_NAME, EMPTY_QUERY, or UNKNOWN_MODEL.
    """
    if ":" not in text:
        raise DirectiveError(
            DirectiveErrorKind.NO_COLON, "route directive has no colon separator"
        )
    name, _, query = text.partition(":")
    name = name.strip()
    query = query.strip()
    if not name:
        raise DirectiveError(
            DirectiveErrorKind.EMPTY_NAME, "route directive has an empty model name"
        )
    if not query:
        raise DirectiveError(
            DirectiveErrorKind.EMPTY_QUERY, "route directive has an empty query"
        )
    descriptor = pool.resolve(name)
    if descriptor is None:
        raise DirectiveError(
            DirectiveErrorKind.UNKNOWN_MODEL,
            f"route directive names unknown model {name!r}",
            name=name,
        )
    return descriptor.id, query


def validate_format(
    raw: str, lexicon: TagLexicon, pool: "RoutingPool"
) -> FormatVerdict:
    """Check the five structural rules; returns all violations found, in
    ``FormatRule`` order, then block order.

    A parse failure short-circuits to a single TAG_BALANCE violation since
    the remaining rules are defined over the block sequence.  Otherwise the
    verdict carries the parsed ``trajectory`` so callers need not parse again.
    """
    try:
        trajectory = parse_trajectory(raw, lexicon)
    except ParseFailure as exc:
        return FormatVerdict([Violation(FormatRule.TAG_BALANCE, str(exc), exc.offset)])

    violations: list[Violation] = []

    def flag(rule: FormatRule, message: str, offset: int | None = None) -> None:
        violations.append(Violation(rule, message, offset))

    # Every route must be answered by an info block before any other route
    # or answer block appears; think blocks may intervene.  Info blocks with
    # no pending route are orphans.
    blocks = trajectory.blocks
    think_count = answer_count = 0
    pending_route: Block | None = None
    for block in blocks:
        kind, at = block.kind, block.span[0]
        if kind is BlockKind.THINK:
            think_count += 1
        elif kind is BlockKind.ROUTE:
            if pending_route is not None:
                flag(
                    FormatRule.ROUTE_INFO_PAIRING,
                    "route issued while a previous route awaits its info block",
                    at,
                )
            pending_route = block
            try:
                parse_route_directive(block.text, pool)
            except DirectiveError as exc:
                flag(FormatRule.ROUTE_DIRECTIVE, str(exc), at)
        elif kind is BlockKind.INFO:
            if pending_route is None:
                flag(
                    FormatRule.ROUTE_INFO_PAIRING,
                    "info block with no preceding route",
                    at,
                )
            pending_route = None
        elif kind is BlockKind.ANSWER:
            answer_count += 1
            if pending_route is not None:
                flag(
                    FormatRule.ROUTE_INFO_PAIRING,
                    "answer issued while a route awaits its info block",
                    at,
                )
                pending_route = None
    if pending_route is not None:
        flag(
            FormatRule.ROUTE_INFO_PAIRING,
            "trajectory ends while a route awaits its info block",
            pending_route.span[0],
        )

    if not blocks:
        flag(FormatRule.STARTS_THINK_ENDS_ANSWER, "no blocks present", 0)
    else:
        first, last = blocks[0], blocks[-1]
        if first.kind is not BlockKind.THINK:
            flag(
                FormatRule.STARTS_THINK_ENDS_ANSWER,
                f"first block is {first.kind.value}, not think",
                first.span[0],
            )
        if last.kind is not BlockKind.ANSWER:
            flag(
                FormatRule.STARTS_THINK_ENDS_ANSWER,
                f"last block is {last.kind.value}, not answer",
                last.span[0],
            )

    if think_count < 1 or answer_count != 1:
        flag(
            FormatRule.THINK_ANSWER_COUNT,
            f"need >=1 think and exactly 1 answer, "
            f"got {think_count} think / {answer_count} answer",
        )

    # Rule order, then block order: the sort is stable.
    violations.sort(key=lambda v: _RULE_ORDER.index(v.rule))
    return FormatVerdict(violations, trajectory)


def loss_mask(trajectory: Trajectory) -> list[tuple[int, int]]:
    """Spans of info blocks (tags included), i.e. text the policy did not emit."""
    return [b.span for b in trajectory.blocks if b.kind is BlockKind.INFO]


def extract_answer(trajectory: Trajectory) -> str | None:
    """Trimmed interior of the last answer block, or None if there is none."""
    for block in reversed(trajectory.blocks):
        if block.kind is BlockKind.ANSWER:
            return block.text.strip()
    return None
