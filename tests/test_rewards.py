"""Reward component tests: normalization, outcome scores, cost window, totals."""

from __future__ import annotations

import math
import random
import threading
from dataclasses import dataclass

import numpy as np
import pytest

from multiroute.protocol import DEFAULT_LEXICON, validate_format
from multiroute.rewards import (
    CostWindow,
    RewardConfig,
    check_field_types,
    compose_breakdown,
    cost_reward,
    episode_cost_raw,
    exact_match,
    f1_score,
    format_reward,
    MEMO_MAX_CHARS,
    normalize_answer,
    total_reward,
)

# ---------------------------------------------------------------------------
# answer normalization
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "raw, want",
    [
        ("The Lamina Dura", "lamina dura"),
        ("Cusco, Peru.", "cusco peru"),
        ("  An   Answer  ", "answer"),
        ("it's", "its"),
        ("a an the", ""),
        ("theater themes", "theater themes"),  # articles only as whole words
        ("Ek Haseena Thi Ek Deewana Tha", "ek haseena thi ek deewana tha"),
        ("a.b", "b"),  # article removed before punctuation stripping
        ("", ""),
    ],
)
def test_normalize_answer(raw, want):
    assert normalize_answer(raw) == want


def test_normalize_answer_memoizes_only_short_texts():
    short, long = "The Short One.", "The " + "x" * MEMO_MAX_CHARS
    normalize_answer(short)
    before = normalize_answer.cache_info()
    assert normalize_answer(short) == "short one"
    assert normalize_answer.cache_info().hits == before.hits + 1
    before = normalize_answer.cache_info()
    assert normalize_answer(long) == normalize_answer(long) == "x" * MEMO_MAX_CHARS
    assert normalize_answer.cache_info() == before


# ---------------------------------------------------------------------------
# exact match / F1
# ---------------------------------------------------------------------------


def test_exact_match_invariances():
    golds = ["Cusco", "Cuzco", "Cusco, Peru", "Cuzco, Peru"]
    assert exact_match("cuzco", golds) == 1
    assert exact_match("The Cusco!", golds) == 1
    assert exact_match("Lima", golds) == 0
    assert exact_match("the lamina dura", ["lamina dura"]) == 1


def test_exact_match_requires_golds():
    with pytest.raises(ValueError):
        exact_match("x", [])
    with pytest.raises(ValueError):
        f1_score("x", [])


@pytest.mark.parametrize(
    "pred, golds, want",
    [
        ("x y", ["y z"], 0.5),
        ("y", ["y"], 1.0),
        ("y y", ["y"], 2 / 3),  # multiset overlap: repeated token not free
        ("", ["y"], 0.0),
        ("y", [""], 0.0),
        ("", [""], 1.0),
        ("the a an", [""], 1.0),  # normalizes to empty on both sides
        ("x y z", ["x q", "z y x"], 1.0),  # max over golds
    ],
)
def test_f1_examples(pred, golds, want):
    assert f1_score(pred, golds) == pytest.approx(want)


def test_f1_upper_bounds_em():
    rng = random.Random(3)
    vocab = ["red", "blue", "stone", "river", "the", "a", "x1", "x2"]
    for _ in range(300):
        pred = " ".join(rng.choices(vocab, k=rng.randrange(4)))
        golds = [
            " ".join(rng.choices(vocab, k=rng.randrange(4))) for _ in range(2)
        ]
        em = exact_match(pred, golds)
        f1 = f1_score(pred, golds)
        assert 0.0 <= f1 <= 1.0
        assert em <= f1 + 1e-12
        if em == 1:
            assert f1 == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# format reward
# ---------------------------------------------------------------------------


def test_format_reward_gate(case_pool):
    good = validate_format(
        "<think>t</think><answer>x</answer>", DEFAULT_LEXICON, case_pool
    )
    bad = validate_format("<answer>x</answer>", DEFAULT_LEXICON, case_pool)
    assert format_reward(good) == 0
    assert format_reward(bad) == -1


# ---------------------------------------------------------------------------
# cost window + cost reward
# ---------------------------------------------------------------------------


def _oracle_percentile(values, q):
    """Closest-rank linear interpolation, written independently of numpy."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = q / 100.0 * (len(ordered) - 1)
    lo = math.floor(rank)
    hi = math.ceil(rank)
    frac = rank - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


def test_window_percentile_example():
    window = CostWindow(capacity=10)
    for value in (0.0, 5.0):
        window.push_and_percentiles(value, 5.0, 95.0)
    p5, p95 = window.push_and_percentiles(10.0, 5.0, 95.0)
    assert p5 == pytest.approx(0.5)
    assert p95 == pytest.approx(9.5)


def test_window_percentiles_match_manual_interpolation():
    rng = np.random.default_rng(5)
    window = CostWindow(capacity=64)
    kept = []
    for value in rng.uniform(0, 50, size=300):
        p5, p95 = window.push_and_percentiles(float(value), 5.0, 95.0)
        kept.append(float(value))
        kept = kept[-64:]
        assert p5 == pytest.approx(_oracle_percentile(kept, 5.0), abs=1e-9)
        assert p95 == pytest.approx(_oracle_percentile(kept, 95.0), abs=1e-9)


# criterion 07's warmup mix, as the window holds it: square roots of raw costs
_WARMUP_MIX = [math.sqrt(c) for c in [0.0] * 700 + [2.0] * 700 + [96.0] * 600]


@pytest.mark.parametrize("capacity", [1, 3, 8000])
def test_window_percentiles_equal_numpy_exactly(capacity):
    # The mix's ties make the window evict duplicates; the noise after it
    # spans 1e-9 to 1e9 and pushes 8000 past its first eviction.
    rng = random.Random(capacity)
    stream = _WARMUP_MIX + [
        rng.choice([0.0, math.sqrt(2.0), 10.0 ** rng.uniform(-9, 9)])
        for _ in range(6500)
    ]
    pairs = [(5.0, 95.0), (0.0, 100.0), (50.0, 99.9)]
    window = CostWindow(capacity)
    for i, value in enumerate(stream):
        lo, hi = pairs[i % len(pairs)]
        got = window.push_and_percentiles(value, lo, hi)
        if capacity == 8000 and i % 10 and i < len(stream) - 30:
            continue  # numpy over 8000 values on every push would be slow
        data = np.array(stream[max(0, i + 1 - capacity) : i + 1])
        assert got == (float(np.percentile(data, lo)), float(np.percentile(data, hi)))
    assert window.values() == stream[-capacity:]


def test_window_eviction_order():
    window = CostWindow(capacity=3)
    for value in (1.0, 2.0, 3.0, 4.0):
        window.push_and_percentiles(value, 5.0, 95.0)
    assert window.values() == [2.0, 3.0, 4.0]
    assert len(window) == 3
    assert window.pushes == 4


def test_window_copy_is_independent():
    window = CostWindow(capacity=4)
    for value in (1.0, 2.0, 3.0):
        window.push_and_percentiles(value, 5.0, 95.0)
    clone = window.copy()
    for value in (9.0, 9.0):  # the second push evicts 1.0 from the clone
        clone.push_and_percentiles(value, 5.0, 95.0)
    assert window.values() == [1.0, 2.0, 3.0]
    assert clone.values() == [2.0, 3.0, 9.0, 9.0]
    assert window.push_and_percentiles(4.0, 0.0, 100.0) == (1.0, 4.0)
    assert clone.push_and_percentiles(4.0, 0.0, 100.0) == (3.0, 9.0)


def test_cost_reward_inverted_scale():
    config = RewardConfig()
    window = CostWindow(config.window_capacity)
    # seed transformed costs 0 and 10 (raw 0 and 100)
    cost_reward(window, 0.0, config)
    cost_reward(window, 100.0, config)
    # raw 25 -> transformed 5 -> buffer [0, 5, 10]: p5=0.5, p95=9.5
    mid = cost_reward(window, 25.0, config)
    assert mid == pytest.approx(1.0 - (5.0 - 0.5) / 9.0)
    cheap = cost_reward(window, 0.0, config)
    assert cheap == pytest.approx(1.0)
    costly = cost_reward(window, 400.0, config)
    assert costly == pytest.approx(0.0)


def test_cost_reward_first_push_is_neutral():
    config = RewardConfig()
    window = CostWindow(config.window_capacity)
    assert cost_reward(window, 49.0, config) == pytest.approx(0.5)
    assert window.values() == [7.0]


def test_cost_reward_degenerate_spread_is_neutral():
    config = RewardConfig()
    window = CostWindow(config.window_capacity)
    for _ in range(5):
        assert cost_reward(window, 4.0, config) == pytest.approx(0.5)


def test_cost_reward_rejects_negative_cost():
    config = RewardConfig()
    window = CostWindow(config.window_capacity)
    with pytest.raises(ValueError):
        cost_reward(window, -1.0, config)


@pytest.mark.parametrize("raw", [math.inf, -math.inf, math.nan])
def test_cost_reward_rejects_non_finite_cost_without_pushing(raw):
    config = RewardConfig()
    window = CostWindow(config.window_capacity)
    for value in (0.0, 4.0, 100.0):
        cost_reward(window, value, config)
    with pytest.raises(ValueError, match="finite"):
        cost_reward(window, raw, config)
    assert (len(window), window.values(), window.pushes) == (3, [0.0, 2.0, 10.0], 3)
    assert cost_reward(window, 0.0, config) == 1.0


def test_cost_reward_query_never_raises_with_higher_cost():
    """Anti-monotonicity: a pricier episode never scores above a cheaper one."""
    rng = np.random.default_rng(17)
    config = RewardConfig()
    for _ in range(200):
        base = CostWindow(capacity=32)
        for value in rng.uniform(0, 30, size=rng.integers(1, 32)):
            base.push_and_percentiles(float(value), 5.0, 95.0)
        raw_a, raw_b = sorted(rng.uniform(0, 900, size=2))
        reward_a = cost_reward(base.copy(), float(raw_a), config)
        reward_b = cost_reward(base.copy(), float(raw_b), config)
        assert reward_b <= reward_a + 1e-12


def test_window_thread_smoke():
    config = RewardConfig(window_capacity=256)
    window = CostWindow(config.window_capacity)
    results = []
    lock = threading.Lock()

    def worker(seed):
        rng = random.Random(seed)
        local = []
        for _ in range(200):
            local.append(cost_reward(window, rng.uniform(0, 100), config))
        with lock:
            results.extend(local)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert window.pushes == 1600
    assert len(window) == 256
    assert all(0.0 <= r <= 1.0 for r in results)


# ---------------------------------------------------------------------------
# totals and breakdowns
# ---------------------------------------------------------------------------


def test_total_reward_hierarchy():
    assert total_reward(-1, 1.0, 1.0, 0.5) == -1.0
    assert total_reward(0, 1.0, 0.0, 0.0) == pytest.approx(1.0)
    assert total_reward(0, 0.0, 1.0, 0.0) == pytest.approx(0.0)
    assert total_reward(0, 1.0, 0.5, 0.4) == pytest.approx(0.6 * 1.0 + 0.4 * 0.5)
    assert total_reward(0, 0.25, 0.75, 1.0) == pytest.approx(0.75)


def test_total_reward_validates_ranges():
    with pytest.raises(ValueError):
        total_reward(0, 1.5, 0.0, 0.0)
    with pytest.raises(ValueError):
        total_reward(0, 0.0, -0.1, 0.0)
    with pytest.raises(ValueError):
        total_reward(0, 0.0, 0.0, 1.1)
    with pytest.raises(ValueError):
        total_reward(1, 0.0, 0.0, 0.0)  # format reward is -1 or 0 only


def test_breakdown_zeroes_components_on_format_failure():
    breakdown = compose_breakdown(-1, 1.0, 42.0, 0.9, 0.5)
    record = breakdown.to_record()
    assert record["total"] == -1.0
    assert record["outcome"] == 0.0
    assert record["cost_norm"] == 0.0
    assert record["cost_raw"] == 42.0
    assert record["format"] == -1


def test_breakdown_passes_through_on_success():
    breakdown = compose_breakdown(0, 1.0, 9.0, 0.25, 0.2)
    record = breakdown.to_record()
    assert record["total"] == pytest.approx(0.8 * 1.0 + 0.2 * 0.25)
    assert record["outcome"] == 1.0
    assert record["cost_norm"] == 0.25
    assert record["alpha"] == 0.2


def test_reward_config_validation():
    with pytest.raises(ValueError):
        RewardConfig(alpha=-0.1)
    with pytest.raises(ValueError):
        RewardConfig(alpha=1.2)
    with pytest.raises(ValueError):
        RewardConfig(window_capacity=0)
    with pytest.raises(ValueError):
        RewardConfig(epsilon=-1e-9)
    with pytest.raises(ValueError):
        RewardConfig(percentile_lo=95.0, percentile_hi=5.0)


def test_episode_cost_raw_sums_calls():
    class _Call:
        def __init__(self, cost):
            self.cost = cost

    assert episode_cost_raw([_Call(2.0), _Call(3.5)]) == pytest.approx(5.5)
    assert episode_cost_raw([]) == 0.0


def test_cost_window_capacity_must_be_positive():
    with pytest.raises(ValueError, match="capacity must be positive"):
        CostWindow(0)


# ---------------------------------------------------------------------------
# the one type rule for config values
# ---------------------------------------------------------------------------


@dataclass
class _Fields:
    count: int = 1
    rate: float = 0.5
    costs: tuple[float, ...] = ()
    label: str = "x"


@pytest.mark.parametrize(
    "value",
    [math.nan, math.inf, -math.inf, np.float64("nan")],
    ids=["nan", "inf", "minus-inf", "numpy-nan"],
)
def test_check_field_types_rejects_a_number_that_is_not_finite(value):
    with pytest.raises(ValueError, match=f"^rate must be a finite number, got {value}$"):
        check_field_types(_Fields(rate=value))
    with pytest.raises(ValueError, match=r"^costs\[1\] must be a finite number"):
        check_field_types(_Fields(costs=[0.0, value]))


def test_check_field_types_names_an_integer_too_large_for_a_float():
    huge = int("1" * 400)
    shown = r"must be a finite number, got 1+\.\.\.1+$"
    with pytest.raises(ValueError, match=f"^rate {shown}"):
        check_field_types(_Fields(rate=huge))
    with pytest.raises(ValueError, match=rf"^costs\[1\] {shown}"):
        check_field_types(_Fields(costs=[0.0, huge]))


def test_check_field_types_stores_numbers_as_floats():
    fields = _Fields(rate=2, costs=[1, np.float64(2.5)])
    check_field_types(fields)
    assert fields.rate == 2.0 and type(fields.rate) is float
    assert fields.costs == (1.0, 2.5)
    assert all(type(cost) is float for cost in fields.costs)


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"count": 1.0}, "count must be an integer, got 1.0"),
        ({"count": True}, "count must be an integer, got True"),
        ({"rate": True}, "rate must be a number, got True"),
        ({"rate": "0.5"}, "rate must be a number, got '0.5'"),
        ({"costs": 5}, "costs must be a list, got 5"),
        ({"costs": "12"}, "costs must be a list, got '12'"),
        ({"costs": [1.0, False]}, "costs[1] must be a number, got False"),
        ({"label": 5}, "label must be a string, got 5"),
    ],
    ids=[
        "int-float", "int-bool", "float-bool", "float-string",
        "tuple-int", "tuple-string", "tuple-bool-entry", "str-int",
    ],
)
def test_check_field_types_names_the_field_of_the_wrong_type(changes, message):
    with pytest.raises(TypeError) as exc_info:
        check_field_types(_Fields(**changes))
    assert str(exc_info.value) == message


@pytest.mark.parametrize("name", ["epsilon", "alpha", "percentile_lo"])
def test_reward_config_rejects_nan_with_the_shared_rule(name):
    with pytest.raises(ValueError, match=f"^{name} must be a finite number, got nan$"):
        RewardConfig(**{name: math.nan})
