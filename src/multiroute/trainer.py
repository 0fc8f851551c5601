"""Desk-scale policy-gradient trainer for the routing decision head.

The policy is a linear softmax over hashed bag-of-words question features
plus a round-index one-hot.  Actions are "route to model i" for each pool
model, plus a final "answer now" action that aggregates the info gathered so
far.  Training maximizes

    J = E[ log pi(a|s) * (R - b) ] - beta * E[ KL(pi(.|s) || pi_ref(.|s)) ]

by plain REINFORCE with an exponential-moving-average baseline b and a
frozen copy of the initial policy as the KL reference.
"""

from __future__ import annotations

import bisect
import json
import math
import reprlib
import zlib
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .engine import (
    EngineConfig,
    PolicyBackend,
    UNHELPFUL_INFO_PREFIXES,
    run_episode,
)
from .pool import RoutingPool
from .protocol import TagLexicon
from .rewards import (
    CostWindow,
    RewardConfig,
    check_field_types,
    cost_reward,
    memoize_short_text,
    normalize_answer,
)

ANSWER_ACTION = "answer"
ABSTAIN_TEXT = "unknown"


@dataclass
class PolicyParams:
    """Weights of the linear softmax decision head.

    ``actions`` lists pool model ids in pool order followed by the answer
    action; ``weights`` has one column per action.

    Raises TypeError or ValueError unless the actions are strings, the
    weights are finite with shape ``(feature_dim, len(actions))`` and the
    temperature is positive and finite.
    """

    feature_dim: int
    actions: tuple[str, ...]
    weights: np.ndarray
    temperature: float = 1.0

    def __post_init__(self) -> None:
        check_field_types(self)
        if not all(isinstance(action, str) for action in self.actions):
            raise TypeError("actions must be strings")
        shape = (self.feature_dim, len(self.actions))
        if self.weights.shape != shape:
            raise ValueError(
                f"weights must have shape {reprlib.repr(shape)}, "
                f"got {self.weights.shape}"
            )
        if not np.isfinite(self.weights).all():
            raise ValueError("weights must be finite")
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")

    @classmethod
    def initial(
        cls, feature_dim: int, pool: RoutingPool, temperature: float = 1.0
    ) -> "PolicyParams":
        actions = tuple(d.id for d in pool) + (ANSWER_ACTION,)
        weights = np.zeros((feature_dim, len(actions)), dtype=float)
        return cls(feature_dim, actions, weights, temperature)

    def copy(self) -> "PolicyParams":
        return PolicyParams(
            self.feature_dim, self.actions, self.weights.copy(), self.temperature
        )

    def to_json(self) -> str:
        return json.dumps(
            {
                **vars(self),
                "actions": list(self.actions),
                "weights": self.weights.tolist(),
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "PolicyParams":
        return cls.from_record(json.loads(text))

    @classmethod
    def from_record(cls, data) -> "PolicyParams":
        """Params from the parsed JSON of a params file."""
        try:
            weights = np.asarray(data["weights"], dtype=float)
            # ``float`` would also read "0.5" and true; neither is a number.
            if not all(
                isinstance(entry, (int, float)) and not isinstance(entry, bool)
                for entry in np.asarray(data["weights"], dtype=object).flat
            ):
                raise ValueError
        except ValueError:
            # numpy's own message echoes the bad entry, however long it is.
            raise ValueError("weights must be a matrix of numbers") from None
        return cls(
            feature_dim=data["feature_dim"],
            actions=tuple(data["actions"]),
            weights=weights,
            temperature=data["temperature"],
        )


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.2
    batch_size: int = 64
    steps: int = 225
    beta: float = 0.01
    baseline_momentum: float = 0.9
    seed: int = 0
    feature_dim: int = 64
    temperature: float = 1.0

    def __post_init__(self) -> None:
        check_field_types(self)
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if self.steps < 0:
            raise ValueError("steps must be nonnegative")
        if self.beta < 0:
            raise ValueError("beta must be nonnegative")
        if not 0.0 <= self.baseline_momentum < 1.0:
            raise ValueError("baseline_momentum must be in [0, 1)")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.feature_dim < 8:
            raise ValueError("feature_dim must be at least 8")
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")


def featurize(
    question: str,
    step_index: int,
    feature_dim: int,
    max_steps: int = EngineConfig.max_routing_steps,
) -> np.ndarray:
    """Hashed bag-of-words over the question plus a round one-hot.

    The last ``max_steps + 1`` slots encode the current round (clamped), the
    rest accumulate crc32-hashed lowercase token counts.
    """
    row = min(step_index, max_steps)
    return _table_features([question], feature_dim, max_steps, row, row + 1)[0]


def _table_features(
    questions: Sequence[str], feature_dim: int, max_steps: int, start: int, stop: int
) -> np.ndarray:
    """Rows ``start..stop`` of `featurize` of each question at rounds
    ``0..max_steps``, the questions one after another: row ``r`` is
    question ``r // (max_steps + 1)`` at round ``r % (max_steps + 1)``."""
    rounds = max_steps + 1
    features = np.empty((stop - start, feature_dim))
    for position in range(start // rounds, (stop - 1) // rounds + 1):
        first = max(position * rounds, start) - start
        last = min((position + 1) * rounds, stop) - start
        features[first:last] = _word_counts(questions[position], feature_dim, max_steps)
    rows = np.arange(start, stop)
    # The round slots of the word counts are 0.0.
    features[rows - start, feature_dim - rounds + rows % rounds] = 1.0
    return features


def check_feature_dim(feature_dim: int, max_steps: int) -> None:
    """Raise ValueError unless ``feature_dim`` leaves a word slot beside the
    round one-hot of ``max_steps + 1`` slots."""
    if feature_dim <= max_steps + 1:
        raise ValueError(
            f"feature_dim too small: {feature_dim} leaves no word slot beside "
            f"the round one-hot of {max_steps + 1} slots"
        )


@memoize_short_text(maxsize=256)
def _word_counts(question: str, feature_dim: int, max_steps: int) -> np.ndarray:
    """`featurize`'s vector with every round slot still zero, read-only
    because the memo hands the same array to every caller."""
    check_feature_dim(feature_dim, max_steps)
    word_dim = feature_dim - (max_steps + 1)
    features = np.zeros(feature_dim, dtype=float)
    for token in question.lower().split():
        features[zlib.crc32(token.encode()) % word_dim] += 1.0
    features.setflags(write=False)
    return features


class NonFiniteDecisionError(ValueError):
    """A decision's action probabilities are not finite."""


def _decision_rows(
    params: PolicyParams, features: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The action probabilities of each row of ``features`` and the
    cumulative distribution ``Generator.choice`` builds from them: the
    running sum of ``p / p.sum()``, divided by its last entry.

    Each row rounds as it would on its own.  A row that overflows comes out
    NaN without a warning; a decision that draws from it raises.
    """
    with np.errstate(all="ignore"):
        logits = _row_logits(features, params.weights, params.temperature)
        exp = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs = exp / exp.sum(axis=1, keepdims=True)
        cdfs = np.cumsum(probs / probs.sum(axis=1, keepdims=True), axis=1)
        return probs, cdfs / cdfs[:, -1:]


def _draw(cdf: list[float], rng: np.random.Generator) -> int:
    """The action index ``Generator.choice`` takes from a `_decision_rows`
    distribution."""
    # The last entry is the total over itself: 1.0, or NaN unless the
    # total is finite.
    if not math.isfinite(cdf[-1]):
        raise NonFiniteDecisionError("action probabilities are not finite")
    return bisect.bisect_right(cdf, rng.random())


@dataclass
class DecisionStep:
    features: np.ndarray
    action: int
    # The distribution the action was sampled from, kept for the entropy.
    probs: Optional[np.ndarray] = field(default=None, compare=False, repr=False)


class DecisionTable:
    """Every distribution the decisions of a run of episodes can draw from.

    Episode ``position`` asks ``questions[position]``.  Under fixed params a
    decision depends only on the question and the round, clamped to
    ``max_steps``, so row ``(max_steps + 1) * position + round`` of the
    table serves every decision of that episode at that round.  The table
    computes its rows as one array pass, in blocks of about
    ``_BLOCK_BYTES`` of features: each block is built from the first row a
    draw needs that the current block lacks, and only one is kept.  Each
    row is bit for bit the distribution of that decision computed on its
    own, and `draw` takes numpy's ``Generator.choice`` draw from it.
    """

    def __init__(
        self, params: PolicyParams, questions: Sequence[str], max_steps: int
    ):
        self.params = params
        self.questions = questions
        self.max_steps = max_steps
        self._start = self._stop = 0
        self._features: Optional[np.ndarray] = None
        self._probs: Optional[np.ndarray] = None
        self._cdfs: list[list[float]] = []

    def draw(
        self, position: int, round_index: int, rng: np.random.Generator
    ) -> DecisionStep:
        """Sample episode ``position``'s decision at ``round_index``.

        Raises:
            ValueError: ``feature_dim`` leaves no word slot.
            NonFiniteDecisionError: the row's probabilities are not finite.
        """
        row = (self.max_steps + 1) * position + min(round_index, self.max_steps)
        if not self._start <= row < self._stop:
            self._build(row)
        row -= self._start
        index = _draw(self._cdfs[row], rng)
        # A copy of its own, so the block can go once the next is built.
        return DecisionStep(self._features[row].copy(), index, self._probs[row])

    def _build(self, row: int) -> None:
        """Make the block of the rows from ``row`` on current."""
        feature_dim = self.params.feature_dim
        check_feature_dim(feature_dim, self.max_steps)  # before dividing by it
        self._features = None  # the old block goes before the new one comes
        self._start = row
        self._stop = min(
            row + max(1, _BLOCK_BYTES // (feature_dim * 8)),
            (self.max_steps + 1) * len(self.questions),
        )
        self._features = _table_features(
            self.questions, feature_dim, self.max_steps, self._start, self._stop
        )
        self._probs, cdfs = _decision_rows(self.params, self._features)
        self._cdfs = cdfs.tolist()


@dataclass
class EpisodeSample:
    """What the gradient step needs from one training episode."""

    reward: float
    steps: list[DecisionStep]


class LearnedRoutingPolicy(PolicyBackend):
    """Engine adapter around PolicyParams.

    Each generate call after a route first reads the reply to it, the info
    block the engine put right after the route directive, then either emits
    a route directive for the sampled model or answers by joining the
    helpful replies seen so far (first lines only).

    Decisions are drawn from row ``position`` of ``table``, a
    `DecisionTable` over the same params and ``max_steps`` whose question
    there is ``question``; a training step shares one across its episodes.
    Without one, the policy makes a one-question table, whose rows are
    still built at the first decision.
    """

    def __init__(
        self,
        params: PolicyParams,
        question: str,
        pool: RoutingPool,
        rng: np.random.Generator,
        lexicon: TagLexicon,
        max_steps: int = EngineConfig.max_routing_steps,
        table: Optional[DecisionTable] = None,
        position: int = 0,
    ):
        self.params = params
        self.question = question
        self.pool = pool
        self.rng = rng
        self.lexicon = lexicon
        self.decisions: list[DecisionStep] = []
        self._table = table or DecisionTable(params, [question], max_steps)
        self._position = position
        self._reply_at: Optional[int] = None
        self._facts: list[str] = []

    def generate(
        self, context: str, stop_markers: list[str], max_tokens: int
    ) -> str:
        if self._reply_at is not None:
            self._absorb_info(context)
        self._reply_at = None

        lex = self.lexicon
        answer_only = lex.route_close not in stop_markers
        if answer_only:
            return self._emit_answer()

        decision = self._table.draw(self._position, len(self.decisions), self.rng)
        self.decisions.append(decision)
        index = decision.action
        if self.params.actions[index] == ANSWER_ACTION:
            return self._emit_answer()
        model = self.pool.get(self.params.actions[index])
        directive = (
            f"{lex.think_open}I still need information for this question; "
            f"{model.display_name} looks suitable.{lex.think_close}\n"
            f"{lex.route_open}{model.display_name}: {self.question}{lex.route_close}"
        )
        # The engine puts the reply to this route right after it.
        self._reply_at = len(context) + len(directive)
        return directive

    def _emit_answer(self) -> str:
        lex = self.lexicon
        answer = " ".join(self._facts) if self._facts else ABSTAIN_TEXT
        return (
            f"{lex.think_open}I have enough to answer now.{lex.think_close}\n"
            f"{lex.answer_open}{answer}{lex.answer_close}"
        )

    def _absorb_info(self, context: str) -> None:
        # The reply is the first info block from ``_reply_at``.  A helpful
        # reply's first line is kept, duplicates included: the answer is a
        # faithful join of what was gathered, so redundant calls degrade it
        # and exact match itself penalizes over-routing.
        opener, closer = self.lexicon.info_open, self.lexicon.info_close
        start = context.find(opener, self._reply_at)
        end = context.find(closer, start + len(opener))
        if start == -1 or end == -1:
            return
        interior = context[start + len(opener) : end].strip()
        if interior and not interior.startswith(UNHELPFUL_INFO_PREFIXES):
            self._facts.append(interior.splitlines()[0].strip())


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def surrogate_objective(
    weights: np.ndarray,
    batch: Sequence[EpisodeSample],
    baseline: float,
    reference: PolicyParams,
    config: TrainConfig,
) -> float:
    """Batch-mean REINFORCE surrogate with the KL penalty, as a pure
    function of ``weights`` so it can be checked by finite differences."""
    temperature = config.temperature
    total = 0.0
    for sample in batch:
        advantage = sample.reward - baseline
        episode_term = 0.0
        for step in sample.steps:
            logits = step.features @ weights / temperature
            log_probs = _log_softmax(logits)
            episode_term += advantage * log_probs[step.action]
            if config.beta > 0.0:
                ref_logits = (
                    step.features @ reference.weights / reference.temperature
                )
                ref_log_probs = _log_softmax(ref_logits)
                probs = np.exp(log_probs)
                kl = float(np.sum(probs * (log_probs - ref_log_probs)))
                episode_term -= config.beta * kl
        total += episode_term
    return total / len(batch)


def surrogate_gradient(
    weights: np.ndarray,
    batch: Sequence[EpisodeSample],
    baseline: float,
    reference: PolicyParams,
    config: TrainConfig,
) -> np.ndarray:
    """Analytic gradient of `surrogate_objective` with respect to weights.

    Per decision step with features f, sampled action a, probabilities p and
    reference probabilities q (temperature tau):

        d log pi(a) / dW = outer(f, onehot(a) - p) / tau
        d KL(p || q) / dW = outer(f, p * (log(p / q) - KL)) / tau

    The decisions run as array operations over blocks of the batch.  Each
    decision's term takes the floating-point operations of the formulas in
    the order a loop over the decisions takes them, and the terms are added
    one after another, so the result is bit-identical to that loop.
    """
    steps = [
        (sample.reward - baseline, step) for sample in batch for step in sample.steps
    ]
    # The sum is kept transposed, one row per action, so the elementwise
    # work runs along the features; the values are the same either way.
    grad_t = np.zeros(weights.shape[::-1], dtype=weights.dtype)
    rows_per_step = 2 if config.beta > 0.0 else 1
    block = max(1, _BLOCK_BYTES // (grad_t.nbytes * rows_per_step))
    for start in range(0, len(steps), block):
        block_steps = steps[start : start + block]
        grad_t = _add_step_terms(weights, grad_t, block_steps, reference, config)
    return np.ascontiguousarray(grad_t.T) / len(batch)


# Bytes of gradient terms that one block of decisions holds at once.
_BLOCK_BYTES = 1 << 20


def _row_logits(
    features: np.ndarray, weights: np.ndarray, temperature: float
) -> np.ndarray:
    """``f @ weights / temperature`` for each row f of ``features``.

    A stacked ``matmul`` takes each row's vector-matrix product on its own
    and matches ``f @ weights`` bit for bit; ``features @ weights`` runs
    one matrix product, which may round differently.
    """
    return np.matmul(features[:, None, :], weights)[:, 0, :] / temperature


def _add_step_terms(
    weights: np.ndarray,
    grad_t: np.ndarray,
    steps: Sequence[tuple[float, DecisionStep]],
    reference: PolicyParams,
    config: TrainConfig,
) -> np.ndarray:
    """``grad_t`` plus the transposed term of each (advantage, step), in
    step order.

    The KL term of a step follows its REINFORCE term, negated, since
    ``grad - x`` is ``grad + (-x)`` exactly.
    """
    temperature = config.temperature
    features = np.array([step.features for _, step in steps])
    advantages = np.array([advantage for advantage, _ in steps])
    log_probs = _log_softmax(_row_logits(features, weights, temperature))
    probs = np.exp(log_probs)
    direction = -probs
    direction[np.arange(len(steps)), [step.action for _, step in steps]] += 1.0

    penalized = config.beta > 0.0
    stride = 2 if penalized else 1
    # Row 0 carries the running sum, so the reduce below adds in loop order.
    terms = np.empty((1 + stride * len(steps),) + grad_t.shape, dtype=grad_t.dtype)
    terms[0] = grad_t
    rows_of_features = features[:, None, :]
    reinforce = terms[1::stride]
    np.multiply(direction[:, :, None], rows_of_features, out=reinforce)
    np.multiply(advantages[:, None, None], reinforce, out=reinforce)
    np.divide(reinforce, temperature, out=reinforce)
    if penalized:
        ref_log_probs = _log_softmax(
            _row_logits(features, reference.weights, reference.temperature)
        )
        log_ratio = log_probs - ref_log_probs
        kl = (probs * log_ratio).sum(axis=-1, keepdims=True)
        kl_dir = probs * (log_ratio - kl)
        penalty = terms[2::stride]
        np.multiply(kl_dir[:, :, None], rows_of_features, out=penalty)
        np.multiply(config.beta, penalty, out=penalty)
        np.divide(penalty, temperature, out=penalty)
        np.negative(penalty, out=penalty)
    return np.add.reduce(terms, axis=0)


def policy_gradient_step(
    params: PolicyParams,
    batch: Sequence[EpisodeSample],
    reference: PolicyParams,
    config: TrainConfig,
    baseline: float,
) -> tuple[PolicyParams, float]:
    """One ascent step on the surrogate; returns (new params, new baseline).

    Advantages use the incoming baseline; the baseline then absorbs the
    batch's mean reward by exponential moving average.
    """
    grad = surrogate_gradient(params.weights, batch, baseline, reference, config)
    updated = params.copy()
    updated.weights = params.weights + config.learning_rate * grad
    mean_reward = float(np.mean([sample.reward for sample in batch]))
    momentum = config.baseline_momentum
    new_baseline = momentum * baseline + (1.0 - momentum) * mean_reward
    return updated, new_baseline


@dataclass
class TrainReport:
    mean_reward: list[float] = field(default_factory=list)
    mean_cost: list[float] = field(default_factory=list)
    entropy: list[float] = field(default_factory=list)
    route_fractions: list[dict[str, float]] = field(default_factory=list)
    params: Optional[PolicyParams] = None

    def step_records(self) -> list[dict]:
        return [
            {
                "step": i,
                "mean_reward": self.mean_reward[i],
                "mean_cost": self.mean_cost[i],
                "entropy": self.entropy[i],
                "route_fractions": self.route_fractions[i],
            }
            for i in range(len(self.mean_reward))
        ]


def _mean_entropy(distributions: Sequence[np.ndarray]) -> float:
    """Mean entropy of equal-length distributions, 0.0 for none.

    Each row's entropy rounds as it would on its own, so the mean is the
    same as that of a per-distribution loop.
    """
    if not distributions:
        return 0.0
    probs = np.array(distributions)
    return float(np.mean(-(probs * np.log(probs + 1e-12)).sum(axis=1)))


def train(
    tasks: Sequence,
    pool: RoutingPool,
    config: TrainConfig = TrainConfig(),
    reward_config: RewardConfig = RewardConfig(),
    engine_config: EngineConfig = EngineConfig(),
    warmup_costs: Sequence[float] = (),
) -> TrainReport:
    """Train the routing head on tasks with .question and .golds attributes.

    Tasks are cycled deterministically; all stochasticity flows from
    ``config.seed``, so identical inputs reproduce the report bit for bit.
    ``warmup_costs`` pre-populates the cost window, anchoring normalization
    before the first batch the same way eval warmup does.
    """
    if not tasks:
        raise ValueError("tasks must be nonempty")
    rng = np.random.default_rng(config.seed)
    params = PolicyParams.initial(config.feature_dim, pool, config.temperature)
    reference = params.copy()
    window = CostWindow(reward_config.window_capacity)
    for cost in warmup_costs:
        cost_reward(window, cost, reward_config)
    baseline = 0.0
    report = TrainReport()

    for step in range(config.steps):
        batch: list[EpisodeSample] = []
        costs: list[float] = []
        step_probs: list[np.ndarray] = []
        call_counts: dict[str, int] = {d.id: 0 for d in pool}
        total_calls = 0
        step_tasks = [
            tasks[(step * config.batch_size + i) % len(tasks)]
            for i in range(config.batch_size)
        ]
        # Built block by block as the episodes reach it, the first block
        # inside the first episode.
        table = DecisionTable(
            params,
            [task.question for task in step_tasks],
            engine_config.max_routing_steps,
        )
        for i, task in enumerate(step_tasks):
            policy = LearnedRoutingPolicy(
                params,
                task.question,
                pool,
                rng,
                engine_config.lexicon,
                max_steps=engine_config.max_routing_steps,
                table=table,
                position=i,
            )
            episode = run_episode(
                task.question,
                task.golds,
                policy,
                pool,
                window,
                engine_config,
                reward_config,
            )
            batch.append(EpisodeSample(episode.rewards.total, policy.decisions))
            costs.append(episode.rewards.cost_raw)
            step_probs.extend(decision.probs for decision in policy.decisions)
            for call in episode.calls:
                if call.model_id in call_counts:
                    call_counts[call.model_id] += 1
                total_calls += 1

        report.mean_reward.append(float(np.mean([s.reward for s in batch])))
        report.mean_cost.append(float(np.mean(costs)))
        report.entropy.append(_mean_entropy(step_probs))
        report.route_fractions.append(
            {
                model_id: (count / total_calls if total_calls else 0.0)
                for model_id, count in call_counts.items()
            }
        )
        params, baseline = policy_gradient_step(
            params, batch, reference, config, baseline
        )

    report.params = params
    return report


@dataclass
class SyntheticTask:
    """Training task over invented object attributes.

    ``facts`` maps model id to the answer fragment that model's knowledge
    base holds for this question; ``kind`` is "single" or "two".
    """

    question: str
    golds: list[str]
    facts: dict[str, str]
    kind: str


_COLORS = (
    "crimson", "teal", "amber", "violet", "olive", "indigo", "coral",
    "maroon", "silver", "turquoise",
)
_SHAPES = (
    "hexagon", "spiral", "cube", "wedge", "prism", "torus", "crescent",
    "lattice", "cylinder", "rhombus",
)
_ADJECTIVES = (
    "polished", "ancient", "humming", "dusty", "gilded", "woven", "frosted",
    "carved", "painted", "braided",
)
_NOUNS = (
    "beacon", "compass", "lantern", "tablet", "orrery", "chalice", "loom",
    "sundial", "astrolabe", "bellows",
)


def make_synthetic_tasks(
    n_tasks: int,
    strong_id: str,
    weak_id: str,
    seed: int = 0,
    two_fact_ratio: float = 0.0,
) -> list[SyntheticTask]:
    """Build attribute-lookup tasks answerable from simulated model KBs.

    Single-fact tasks ask for a color both models hold.  Two-fact tasks ask
    for color and shape, split across the two models, so answering them well
    requires one call to each.
    """
    rng = np.random.default_rng(seed)
    tasks: list[SyntheticTask] = []
    seen_objects: set[str] = set()
    while len(tasks) < n_tasks:
        obj = (
            f"{_ADJECTIVES[rng.integers(len(_ADJECTIVES))]} "
            f"{_NOUNS[rng.integers(len(_NOUNS))]} "
            f"{int(rng.integers(100)):02d}"
        )
        if obj in seen_objects:
            continue
        seen_objects.add(obj)
        color = _COLORS[rng.integers(len(_COLORS))]
        if rng.random() < two_fact_ratio:
            shape = _SHAPES[rng.integers(len(_SHAPES))]
            tasks.append(
                SyntheticTask(
                    question=f"what are the color and shape of the {obj}?",
                    golds=[f"{color} {shape}", f"{shape} {color}"],
                    facts={strong_id: color, weak_id: shape},
                    kind="two",
                )
            )
        else:
            tasks.append(
                SyntheticTask(
                    question=f"what is the color of the {obj}?",
                    golds=[color],
                    facts={strong_id: color, weak_id: color},
                    kind="single",
                )
            )
    return tasks


def knowledge_bases_for(tasks: Sequence[SyntheticTask]) -> dict[str, dict]:
    """Per-model KBs (normalized question -> answer) for the task set."""
    kbs: dict[str, dict] = {}
    for task in tasks:
        key = normalize_answer(task.question)
        for model_id, answer in task.facts.items():
            kbs.setdefault(model_id, {})[key] = answer
    return kbs
