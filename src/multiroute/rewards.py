"""Hierarchical episode rewards: format gate, exact match, and cost shaping.

Total reward is (1 - alpha) * outcome + alpha * cost_norm, nullified to -1
whenever the format gate fails.  Cost shaping normalizes the square root of
raw episode cost against a sliding window of recent episodes via the 5th and
95th percentiles, inverted so cheap episodes score high.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import numbers
import re
import reprlib
import string
import threading
from bisect import bisect_left, insort
from collections import Counter, deque
from dataclasses import dataclass

from .protocol import FormatVerdict

_ARTICLE_RE = re.compile(r"\b(a|an|the)\b")
_PUNCT_TABLE = str.maketrans("", "", string.punctuation)

# The longest text ``memoize_short_text`` keeps.  A longer one is computed
# afresh on each call, so a server fed long questions holds at most
# ``maxsize`` texts of this length in each memo.
MEMO_MAX_CHARS = 1024


def memoize_short_text(maxsize: int):
    """Decorate ``function(text, *keys)`` with ``functools.lru_cache(maxsize)``
    for texts of at most ``MEMO_MAX_CHARS`` characters.  The result is shared
    by every caller, so it must be immutable."""

    def decorate(function):
        cached = functools.lru_cache(maxsize=maxsize)(function)

        @functools.wraps(function)
        def call(text: str, *keys):
            if len(text) > MEMO_MAX_CHARS:
                return function(text, *keys)
            return cached(text, *keys)

        call.cache_info = cached.cache_info
        return call

    return decorate


def check_field_types(config) -> None:
    """Check that each ``int`` field of a dataclass holds an integer, each
    ``float`` field a finite real number, each ``tuple[float, ...]`` field a
    list or tuple of them and each ``str`` field a string; a bool is neither
    number.  Numbers are stored as Python floats, a tuple of them for a tuple.

    Raises:
        TypeError: naming the first field that holds another type.
        ValueError: naming the first number that is NaN or infinite, which
            ``json`` reads from ``NaN`` and ``Infinity``.
    """
    for spec in dataclasses.fields(config):
        name, value = spec.name, getattr(config, spec.name)
        # Annotations are strings under ``from __future__ import annotations``.
        if spec.type in ("float", float):
            object.__setattr__(config, name, _finite(name, value))
        elif spec.type == "tuple[float, ...]":
            if not isinstance(value, (list, tuple)):
                raise TypeError(f"{name} must be a list, got {reprlib.repr(value)}")
            value = tuple(_finite(f"{name}[{i}]", v) for i, v in enumerate(value))
            object.__setattr__(config, name, value)
        elif spec.type in ("int", int):
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise TypeError(f"{name} must be an integer, got {reprlib.repr(value)}")
        elif spec.type in ("str", str) and not isinstance(value, str):
            raise TypeError(f"{name} must be a string, got {reprlib.repr(value)}")


def _finite(name: str, value) -> float:
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise TypeError(f"{name} must be a number, got {reprlib.repr(value)}")
    try:
        if math.isfinite(value):
            return float(value)
        shown = value
    except OverflowError:  # an integer too large for a float
        shown = reprlib.repr(value)
    raise ValueError(f"{name} must be a finite number, got {shown}")


@dataclass(frozen=True)
class RewardConfig:
    alpha: float = 0.0
    window_capacity: int = 1000
    epsilon: float = 1e-6
    percentile_lo: float = 5.0
    percentile_hi: float = 95.0

    def __post_init__(self) -> None:
        check_field_types(self)
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        if self.window_capacity < 1:
            raise ValueError("window_capacity must be positive")
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be positive")
        if not 0.0 <= self.percentile_lo < self.percentile_hi <= 100.0:
            raise ValueError("percentiles must satisfy 0 <= lo < hi <= 100")


class CostWindow:
    """Bounded FIFO of transformed episode costs, kept sorted alongside.

    Percentiles are exactly numpy's default ("linear") method: the same
    floats ``np.percentile`` returns over the window's values.  A push costs
    O(log n) comparisons plus one list shift, to evict the oldest value from
    the sorted list and insert the new one.  Values must be finite, which
    ``cost_reward`` checks; NaN would break the sorted order.

    Push and percentile read happen under one lock so concurrent scoring
    never interleaves between the two.
    """

    def __init__(self, capacity: int = RewardConfig.window_capacity):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._buffer: deque[float] = deque(maxlen=capacity)
        self._sorted: list[float] = []
        self._lock = threading.Lock()
        self._pushes = 0

    def push_and_percentiles(
        self, value: float, lo: float, hi: float
    ) -> tuple[float, float]:
        """Append ``value``, then return the (lo, hi) percentiles of the buffer.

        Percentiles use linear interpolation between closest ranks
        (rank = q/100 * (n - 1)) over the buffer contents after the push;
        ``lo`` and ``hi`` lie in [0, 100].
        """
        with self._lock:
            if len(self._buffer) == self.capacity:
                del self._sorted[bisect_left(self._sorted, self._buffer[0])]
            self._buffer.append(value)
            insort(self._sorted, value)
            self._pushes += 1
            return _percentile(self._sorted, lo), _percentile(self._sorted, hi)

    def values(self) -> list[float]:
        with self._lock:
            return list(self._buffer)

    def copy(self) -> "CostWindow":
        clone = CostWindow(self.capacity)
        with self._lock:
            clone._buffer.extend(self._buffer)
            clone._sorted.extend(self._sorted)
            clone._pushes = self._pushes
        return clone

    @property
    def pushes(self) -> int:
        return self._pushes

    def __len__(self) -> int:
        return len(self._buffer)


def _percentile(ordered: list[float], q: float) -> float:
    """The q-th percentile of an ascending list, as ``np.percentile`` computes
    it bit for bit: the same rank, then numpy's ``_lerp``, which interpolates
    from the upper neighbour when the fraction is at least one half."""
    last = len(ordered) - 1
    index = last * (q / 100.0)
    below = math.floor(index)
    if below >= last:
        return ordered[last]
    a, b = ordered[below], ordered[below + 1]
    t = index - below
    if t >= 0.5:
        return b - (b - a) * (1 - t)
    return a + (b - a) * t


def format_reward(verdict: FormatVerdict) -> int:
    """-1 when any structural rule is violated, else 0."""
    return 0 if verdict.ok else -1


@memoize_short_text(maxsize=1024)
def normalize_answer(text: str) -> str:
    """Lowercase, drop articles, strip punctuation, collapse whitespace."""
    text = text.lower()
    text = _ARTICLE_RE.sub(" ", text)
    text = text.translate(_PUNCT_TABLE)
    return " ".join(text.split())


def exact_match(prediction: str, golds: list[str]) -> int:
    """1 if the normalized prediction equals any normalized gold, else 0."""
    if not golds:
        raise ValueError("golds must be nonempty")
    norm = normalize_answer(prediction)
    return int(any(norm == normalize_answer(g) for g in golds))


def f1_score(prediction: str, golds: list[str]) -> float:
    """Max token-level F1 over golds, on normalized whitespace tokens.

    Both token lists empty counts as 1.0; exactly one empty counts as 0.0.
    Overlap is multiset intersection, so repeated tokens count multiply.
    """
    if not golds:
        raise ValueError("golds must be nonempty")
    pred_tokens = normalize_answer(prediction).split()
    best = 0.0
    for gold in golds:
        gold_tokens = normalize_answer(gold).split()
        if not pred_tokens and not gold_tokens:
            best = max(best, 1.0)
            continue
        if not pred_tokens or not gold_tokens:
            continue
        overlap = sum((Counter(pred_tokens) & Counter(gold_tokens)).values())
        if overlap == 0:
            continue
        precision = overlap / len(pred_tokens)
        recall = overlap / len(gold_tokens)
        best = max(best, 2 * precision * recall / (precision + recall))
    return best


def episode_cost_raw(calls) -> float:
    """Sum of per-call costs for one episode."""
    return float(sum(call.cost for call in calls))


def cost_reward(window: CostWindow, raw_cost: float, config: RewardConfig) -> float:
    """Score raw episode cost in [0, 1]; cheaper-than-recent scores higher.

    The square root of ``raw_cost`` is pushed into the window first, then
    normalized against the window's percentile range.  A degenerate range
    (below ``config.epsilon``) yields the neutral score 0.5.

    Raises:
        ValueError: ``raw_cost`` is negative, infinite or NaN; the window is
            left unchanged.
    """
    if not 0.0 <= raw_cost < math.inf:
        raise ValueError("raw_cost must be nonnegative and finite")
    transformed = math.sqrt(raw_cost)
    lo, hi = window.push_and_percentiles(
        transformed, config.percentile_lo, config.percentile_hi
    )
    spread = hi - lo
    if spread < config.epsilon:
        return 0.5
    normalized = (transformed - lo) / spread
    return 1.0 - min(max(normalized, 0.0), 1.0)


def total_reward(
    format_r: int, outcome: float, cost_norm: float, alpha: float
) -> float:
    """Hierarchical combination: format failure nullifies the other terms."""
    if format_r not in (-1, 0):
        raise ValueError("format_r must be -1 or 0")
    if not 0.0 <= outcome <= 1.0:
        raise ValueError("outcome must be in [0, 1]")
    if not 0.0 <= cost_norm <= 1.0:
        raise ValueError("cost_norm must be in [0, 1]")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must be in [0, 1]")
    if format_r == -1:
        return -1.0
    return (1.0 - alpha) * outcome + alpha * cost_norm


@dataclass
class RewardBreakdown:
    """Per-episode reward components as actually applied.

    When the format gate fails, ``outcome`` and ``cost_norm`` are zeroed here
    to reflect nullification; ``cost_raw`` keeps the measured spend.
    """

    format: int
    outcome: float
    cost_raw: float
    cost_norm: float
    alpha: float
    total: float

    def to_record(self) -> dict:
        return dict(vars(self))


def compose_breakdown(
    format_r: int, outcome: float, cost_raw: float, cost_norm: float, alpha: float
) -> RewardBreakdown:
    total = total_reward(format_r, outcome, cost_norm, alpha)
    if format_r == -1:
        outcome = 0.0
        cost_norm = 0.0
    return RewardBreakdown(
        format=format_r,
        outcome=outcome,
        cost_raw=cost_raw,
        cost_norm=cost_norm,
        alpha=alpha,
        total=total,
    )
