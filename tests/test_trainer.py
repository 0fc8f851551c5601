"""Trainer tests: features, softmax head, gradients, rollouts, training loop."""

from __future__ import annotations

import bisect
import hashlib
import itertools
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from multiroute.engine import EngineConfig, run_episode
from multiroute.pool import (
    ModelDescriptor,
    RoutingPool,
    SimulatedBackend,
    SimulatedProfile,
)
from multiroute.protocol import DEFAULT_LEXICON
from multiroute.rewards import CostWindow, RewardConfig
from multiroute import trainer
from multiroute.trainer import (
    ABSTAIN_TEXT,
    ANSWER_ACTION,
    DecisionStep,
    DecisionTable,
    EpisodeSample,
    LearnedRoutingPolicy,
    NonFiniteDecisionError,
    PolicyParams,
    SyntheticTask,
    TrainConfig,
    featurize,
    knowledge_bases_for,
    make_synthetic_tasks,
    policy_gradient_step,
    surrogate_gradient,
    surrogate_objective,
    train,
)

# ---------------------------------------------------------------------------
# features
# ---------------------------------------------------------------------------


def test_featurize_shape_and_step_one_hot():
    features = featurize("what is the color?", 2, 64, max_steps=4)
    assert features.shape == (64,)
    word_dim = 64 - 5
    step_slots = features[word_dim:]
    assert step_slots.tolist() == [0.0, 0.0, 1.0, 0.0, 0.0]
    assert features[:word_dim].sum() == 4.0  # one count per token


def test_featurize_counts_repeated_tokens():
    single = featurize("echo", 0, 32)
    double = featurize("echo echo", 0, 32)
    word_dim = 32 - 5
    assert double[:word_dim].sum() == 2.0
    assert np.array_equal(double[:word_dim], 2.0 * single[:word_dim])


def test_featurize_clamps_step_index():
    late = featurize("q", 99, 32, max_steps=4)
    at_cap = featurize("q", 4, 32, max_steps=4)
    assert np.array_equal(late, at_cap)


def test_featurize_is_case_insensitive():
    assert np.array_equal(featurize("Color", 0, 32), featurize("color", 0, 32))


def test_featurize_rejects_tiny_dim():
    with pytest.raises(ValueError):
        featurize("q", 0, 5, max_steps=4)


# ---------------------------------------------------------------------------
# softmax head
# ---------------------------------------------------------------------------


def _two_model_pool():
    def sim(kb):
        from multiroute.rewards import normalize_answer

        normalized = {normalize_answer(k): v for k, v in kb.items()}
        return SimulatedBackend(
            SimulatedProfile(knowledge_base=normalized, verbosity=8, seed=1)
        )

    return RoutingPool(
        [
            ModelDescriptor("m1", "Model-One", 7, 0.1, "first", sim({})),
            ModelDescriptor("m2", "Model-Two", 70, 1.0, "second", sim({})),
        ]
    )


def test_initial_params_actions_and_zeros():
    pool = _two_model_pool()
    params = PolicyParams.initial(32, pool)
    assert params.actions == ("m1", "m2", ANSWER_ACTION)
    assert params.weights.shape == (32, 3)
    assert not params.weights.any()


def test_params_json_round_trip():
    pool = _two_model_pool()
    params = PolicyParams.initial(16, pool, temperature=0.7)
    params.weights[3, 1] = 2.5
    restored = PolicyParams.from_json(params.to_json())
    assert restored.actions == params.actions
    assert restored.temperature == params.temperature
    assert restored.feature_dim == params.feature_dim
    assert np.array_equal(restored.weights, params.weights)
    assert restored.to_json() == params.to_json()


@pytest.mark.parametrize("entry", ["0.5", True, False, None])
def test_params_weights_must_be_numbers(entry):
    record = json.loads(PolicyParams.initial(16, _two_model_pool()).to_json())
    record["weights"][3][1] = entry
    with pytest.raises(ValueError, match="^weights must be a matrix of numbers$"):
        PolicyParams.from_record(record)


def test_params_copy_is_deep_for_weights():
    params = PolicyParams.initial(16, _two_model_pool())
    clone = params.copy()
    clone.weights[0, 0] = 9.0
    assert params.weights[0, 0] == 0.0


def _first_decision(params, question, rng=None):
    """The first decision of a one-question table."""
    table = DecisionTable(params, [question], EngineConfig.max_routing_steps)
    return table.draw(0, 0, rng or np.random.default_rng(0))


def test_uniform_distribution_at_zero_weights():
    params = PolicyParams.initial(32, _two_model_pool())
    probs = _first_decision(params, "q").probs
    assert probs.shape == (3,)
    assert probs == pytest.approx([1 / 3, 1 / 3, 1 / 3])


def test_temperature_flattens_distribution():
    pool = _two_model_pool()
    sharp = PolicyParams.initial(32, pool, temperature=0.25)
    flat = PolicyParams.initial(32, pool, temperature=4.0)
    for params in (sharp, flat):
        params.weights[:, 0] = 0.5
    p_sharp = _first_decision(sharp, "which model?").probs
    p_flat = _first_decision(flat, "which model?").probs
    assert p_sharp[0] > p_flat[0] > 1 / 3


def test_sample_action_is_seed_deterministic():
    params = PolicyParams.initial(32, _two_model_pool())
    params.weights[:, 2] = 0.3
    draws_a = [_first_decision(params, "pick", np.random.default_rng(42)).action]
    table = DecisionTable(params, ["pick"] * 20, EngineConfig.max_routing_steps)
    rng_b = np.random.default_rng(42)
    rng_c = np.random.default_rng(42)
    seq_b = [table.draw(i, 0, rng_b).action for i in range(20)]
    seq_c = [table.draw(i, 0, rng_c).action for i in range(20)]
    assert seq_b == seq_c
    assert draws_a[0] == seq_b[0]
    assert set(seq_b) <= {0, 1, 2}


def test_sample_action_draws_like_generator_choice():
    """The inline draw is ``Generator.choice(n, p=probs / probs.sum())``:
    equal indices, and the twin generators end in equal states."""
    spec_rng = np.random.default_rng(2024)
    ours, theirs = np.random.default_rng(77), np.random.default_rng(77)
    feature_dim = 8
    features = np.ones(feature_dim)
    for trial in range(6000):
        n_actions = int(spec_rng.integers(2, 9))
        scale = (0.1, 3.0, 40.0, 400.0)[trial % 4]
        params = PolicyParams(
            feature_dim,
            tuple(f"a{i}" for i in range(n_actions)),
            spec_rng.normal(scale=scale, size=(feature_dim, n_actions)),
        )
        probs, cdfs = trainer._decision_rows(params, features[None, :])
        probs = probs[0]
        index = trainer._draw(cdfs[0].tolist(), ours)
        expected = int(theirs.choice(len(probs), p=probs / probs.sum()))
        assert index == expected, trial
    assert ours.bit_generator.state == theirs.bit_generator.state


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
def test_sample_action_rejects_non_finite_weights(value):
    params = PolicyParams.initial(16, _two_model_pool())
    params.weights[:, 0] = value
    with pytest.raises(NonFiniteDecisionError):
        _first_decision(params, "pick")


def test_decision_step_probs_stay_out_of_eq_and_repr():
    features = featurize("q", 0, 16)
    bare = DecisionStep(features=features, action=1)
    kept = DecisionStep(features, 1, np.array([0.2, 0.5, 0.3]))
    assert bare.probs is None
    assert bare == kept
    assert repr(bare) == repr(kept)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(steps=-1)
    with pytest.raises(ValueError):
        TrainConfig(beta=-0.01)
    with pytest.raises(ValueError):
        TrainConfig(baseline_momentum=1.0)
    with pytest.raises(ValueError):
        TrainConfig(feature_dim=7)
    with pytest.raises(ValueError):
        TrainConfig(temperature=0.0)
    TrainConfig(steps=0)  # zero steps is a valid no-op


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------


def _random_batch(rng, feature_dim, n_actions, n_episodes=3):
    batch = []
    for _ in range(n_episodes):
        steps = [
            DecisionStep(
                features=rng.normal(size=feature_dim),
                action=int(rng.integers(n_actions)),
            )
            for _ in range(rng.integers(1, 4))
        ]
        batch.append(EpisodeSample(reward=float(rng.normal()), steps=steps))
    return batch


@pytest.mark.parametrize("beta", [0.0, 0.1, 1.0])
def test_gradient_matches_finite_differences(beta):
    rng = np.random.default_rng(5)
    feature_dim, n_actions = 8, 3
    config = TrainConfig(beta=beta, feature_dim=feature_dim, temperature=0.8)
    reference = PolicyParams.initial(feature_dim, _two_model_pool(), 0.8)
    reference.weights = rng.normal(scale=0.3, size=(feature_dim, n_actions))
    weights = rng.normal(scale=0.5, size=(feature_dim, n_actions))
    batch = _random_batch(rng, feature_dim, n_actions)
    baseline = 0.2
    grad = surrogate_gradient(weights, batch, baseline, reference, config)
    step = 1e-5
    for _ in range(10):
        i = int(rng.integers(feature_dim))
        j = int(rng.integers(n_actions))
        bumped_up = weights.copy()
        bumped_up[i, j] += step
        bumped_down = weights.copy()
        bumped_down[i, j] -= step
        numeric = (
            surrogate_objective(bumped_up, batch, baseline, reference, config)
            - surrogate_objective(bumped_down, batch, baseline, reference, config)
        ) / (2 * step)
        assert grad[i, j] == pytest.approx(numeric, rel=1e-4, abs=1e-7)


def test_zero_advantage_zero_beta_gives_zero_gradient():
    rng = np.random.default_rng(9)
    config = TrainConfig(beta=0.0, feature_dim=8)
    reference = PolicyParams.initial(8, _two_model_pool())
    weights = rng.normal(size=(8, 3))
    batch = _random_batch(rng, 8, 3)
    baseline = 1.7
    for sample in batch:
        sample.reward = baseline  # advantage exactly zero everywhere
    grad = surrogate_gradient(weights, batch, baseline, reference, config)
    assert np.abs(grad).max() == 0.0


def test_kl_penalty_is_maximal_at_reference():
    """With zero advantage the surrogate is pure -beta*KL, peaking at the
    reference weights."""
    rng = np.random.default_rng(11)
    config = TrainConfig(beta=0.5, feature_dim=8)
    reference = PolicyParams.initial(8, _two_model_pool())
    reference.weights = rng.normal(size=(8, 3))
    batch = _random_batch(rng, 8, 3)
    baseline = 0.0
    for sample in batch:
        sample.reward = 0.0
    at_reference = surrogate_objective(
        reference.weights, batch, baseline, reference, config
    )
    assert at_reference == pytest.approx(0.0, abs=1e-12)
    for _ in range(5):
        off = reference.weights + rng.normal(scale=0.5, size=(8, 3))
        assert (
            surrogate_objective(off, batch, baseline, reference, config)
            < at_reference + 1e-12
        )


def test_gradient_ascent_separates_good_from_bad_action():
    features = featurize("same state every time", 0, 16)
    batch = [
        EpisodeSample(reward=1.0, steps=[DecisionStep(features, action=0)]),
        EpisodeSample(reward=-1.0, steps=[DecisionStep(features, action=1)]),
    ]
    config = TrainConfig(learning_rate=0.5, beta=0.0, feature_dim=16)
    params = PolicyParams.initial(16, _two_model_pool())
    reference = params.copy()
    baseline = 0.0
    history = []
    for _ in range(25):
        history.append(_loop_distribution(params, features)[0])
        params, baseline = policy_gradient_step(
            params, batch, reference, config, baseline=0.0
        )
    assert all(b > a for a, b in zip(history, history[1:]))
    assert history[-1] > 0.9


def test_baseline_moves_by_ema():
    params = PolicyParams.initial(16, _two_model_pool())
    features = featurize("q", 0, 16)
    batch = [
        EpisodeSample(reward=1.0, steps=[DecisionStep(features, 0)]),
        EpisodeSample(reward=0.0, steps=[DecisionStep(features, 1)]),
    ]
    config = TrainConfig(baseline_momentum=0.9, feature_dim=16)
    _, new_baseline = policy_gradient_step(
        params, batch, params.copy(), config, baseline=0.0
    )
    assert new_baseline == pytest.approx(0.1 * 0.5)
    _, chained = policy_gradient_step(
        params, batch, params.copy(), config, baseline=new_baseline
    )
    assert chained == pytest.approx(0.9 * new_baseline + 0.1 * 0.5)


def _loop_gradient(weights, batch, baseline, reference, config):
    """`surrogate_gradient` as a loop over the decisions, one at a time."""
    temperature = config.temperature
    grad = np.zeros_like(weights)
    for sample in batch:
        advantage = sample.reward - baseline
        for step in sample.steps:
            logits = step.features @ weights / temperature
            log_probs = trainer._log_softmax(logits)
            probs = np.exp(log_probs)
            direction = -probs.copy()
            direction[step.action] += 1.0
            grad += advantage * np.outer(step.features, direction) / temperature
            if config.beta > 0.0:
                ref_logits = (
                    step.features @ reference.weights / reference.temperature
                )
                ref_log_probs = trainer._log_softmax(ref_logits)
                log_ratio = log_probs - ref_log_probs
                kl = float(np.sum(probs * log_ratio))
                kl_dir = probs * (log_ratio - kl)
                grad -= config.beta * np.outer(step.features, kl_dir) / temperature
    return grad / len(batch)


def _loop_mean_entropy(distributions):
    """The training report's entropy as a loop over the decisions."""
    entropies = [float(-(p * np.log(p + 1e-12)).sum()) for p in distributions]
    return float(np.mean(entropies)) if entropies else 0.0


def _sparse_batch(rng, feature_dim, n_actions, n_steps):
    """``n_steps`` decisions over episodes of 0 to 5 steps, with features
    that are often exactly zero and some rows that are all zero."""
    batch, left = [], n_steps
    while left or not batch:
        count = min(left, int(rng.integers(0, 6)))
        steps = []
        for _ in range(count):
            features = rng.normal(scale=2.0, size=feature_dim)
            features[rng.random(feature_dim) < 0.5] = 0.0
            if rng.random() < 0.1:
                features[:] = 0.0
            steps.append(DecisionStep(features, int(rng.integers(n_actions))))
        batch.append(EpisodeSample(reward=float(rng.normal()), steps=steps))
        left -= count
    return batch


def _gradient_case(seed, beta, temperature, feature_dim, n_actions, n_steps):
    rng = np.random.default_rng(seed)
    config = TrainConfig(beta=beta, feature_dim=feature_dim, temperature=temperature)
    actions = tuple(f"a{i}" for i in range(n_actions))
    scale = (0.1, 1.0, 30.0)[seed % 3]  # the large scale underflows probs to 0
    weights = rng.normal(scale=scale, size=(feature_dim, n_actions))
    reference = PolicyParams(
        feature_dim,
        actions,
        rng.normal(scale=0.5, size=(feature_dim, n_actions)),
        temperature,
    )
    batch = _sparse_batch(rng, feature_dim, n_actions, n_steps)
    return weights, batch, float(rng.normal()), reference, config


# (feature_dim, actions, decisions): numpy sums 8 or more numbers pairwise,
# so 8 and 9 actions take another summation path than 2 to 7.
GRADIENT_SHAPES = [
    (8, 2, 1), (13, 9, 2), (64, 3, 17), (100, 8, 70), (256, 5, 160), (37, 7, 320)
]


@pytest.mark.parametrize("temperature", [0.8, 1.0, 4.0])
@pytest.mark.parametrize("beta", [0.0, 0.01, 1.0])
def test_gradient_is_bit_identical_to_the_decision_loop(beta, temperature):
    for seed, (feature_dim, n_actions, n_steps) in enumerate(GRADIENT_SHAPES):
        rng_seed = seed + int(temperature * 10)
        case = _gradient_case(
            rng_seed, beta, temperature, feature_dim, n_actions, n_steps
        )
        batched = surrogate_gradient(*case)
        assert batched.tobytes() == _loop_gradient(*case).tobytes(), seed


@pytest.mark.parametrize("beta", [0.0, 0.01])
def test_gradient_spanning_several_blocks_matches_the_loop(beta):
    case = _gradient_case(
        7, beta, 1.0, feature_dim=2048, n_actions=9, n_steps=40
    )
    weights, _, _, _, config = case
    per_block = trainer._BLOCK_BYTES // (weights.nbytes * (2 if beta else 1))
    assert 40 > 4 * per_block
    assert surrogate_gradient(*case).tobytes() == _loop_gradient(*case).tobytes()


def test_gradient_of_empty_samples_is_zero_and_of_no_samples_is_nan():
    reference = PolicyParams.initial(8, _two_model_pool())
    weights = np.ones((8, 3))
    config = TrainConfig(feature_dim=8)
    empty = [EpisodeSample(reward=1.0, steps=[]), EpisodeSample(-1.0, [])]
    grad = surrogate_gradient(weights, empty, 0.3, reference, config)
    assert grad.tobytes() == np.zeros((8, 3)).tobytes()
    with np.errstate(invalid="ignore"):
        assert np.isnan(surrogate_gradient(weights, [], 0.3, reference, config)).all()


def test_stacked_matmul_matches_per_row_products():
    """The batched gradient rests on this: ``np.matmul`` over a stack of
    1-row matrices rounds each row as ``f @ W`` does on its own."""
    rng = np.random.default_rng(31)
    for feature_dim in (8, 13, 64, 256, 1024, 2048):
        for n_actions in (2, 3, 5, 9):
            weights = rng.normal(size=(feature_dim, n_actions))
            features = rng.normal(size=(50, feature_dim))
            features[rng.random(features.shape) < 0.3] = 0.0
            stacked = np.matmul(features[:, None, :], weights)[:, 0, :]
            per_row = np.stack([row @ weights for row in features])
            assert stacked.tobytes() == per_row.tobytes(), (feature_dim, n_actions)


def test_mean_entropy_is_bit_identical_to_the_decision_loop():
    rng = np.random.default_rng(17)
    assert trainer._mean_entropy([]) == _loop_mean_entropy([]) == 0.0
    for trial in range(60):
        n_actions = int(rng.integers(2, 10))
        rows = []
        for _ in range(int(rng.integers(1, 200))):
            logits = rng.normal(scale=(0.1, 2.0, 40.0)[trial % 3], size=n_actions)
            exp = np.exp(logits - logits.max())
            rows.append(exp / exp.sum())
        assert trainer._mean_entropy(rows) == _loop_mean_entropy(rows), trial


@pytest.mark.parametrize("beta", [0.0, 0.01])
def test_gradient_memory_stays_bounded_on_a_large_batch(beta):
    """320 decisions of 2,048 features and 9 actions: their terms alone
    would take 45 MiB at once."""
    case = _gradient_case(3, beta, 1.0, feature_dim=2048, n_actions=9, n_steps=320)
    tracemalloc.start()
    try:
        surrogate_gradient(*case)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20


# ---------------------------------------------------------------------------
# the decision table
# ---------------------------------------------------------------------------


def _loop_features(question, round_index, feature_dim, max_steps):
    """`featurize` as one decision's own vector: the question's word counts
    with its round's slot set."""
    features = trainer._word_counts(question, feature_dim, max_steps).copy()
    features[feature_dim - (max_steps + 1) + min(round_index, max_steps)] = 1.0
    return features


def _loop_distribution(params, features):
    """One decision's action probabilities as its own vector operations."""
    logits = features @ params.weights / params.temperature
    logits = logits - logits.max()
    exp = np.exp(logits)
    return exp / exp.sum()


def _loop_sample(params, features, rng):
    """One decision's draw on its own: numpy's ``Generator.choice``
    algorithm in Python floats."""
    probs = _loop_distribution(params, features)
    cdf = list(itertools.accumulate((probs / probs.sum()).tolist()))
    total = cdf[-1]
    if not math.isfinite(total):
        raise ValueError("action probabilities are not finite")
    return bisect.bisect_right([value / total for value in cdf], rng.random()), probs


WORDS = ("color", "shape", "of", "the", "lantern", "torus", "what", "is", "a")


@pytest.mark.parametrize("temperature", [0.25, 1.0, 4.0])
def test_table_rows_and_draws_match_the_decision_loop(monkeypatch, temperature):
    """Rows equal `featurize` and the per-decision softmax byte for byte,
    rounds past ``max_steps`` included, and the draws take the same indices
    and leave the generator in the same state, across blocks."""
    monkeypatch.setattr(trainer, "_BLOCK_BYTES", 6000)
    spec = np.random.default_rng(int(temperature * 8))
    ours, theirs = np.random.default_rng(5), np.random.default_rng(5)
    draws = 0
    for trial in range(60):
        feature_dim = int(spec.integers(8, 257))
        n_actions = int(spec.integers(2, 10))
        max_steps = int(spec.integers(1, 6))
        scale = (0.1, 3.0, 40.0, 400.0)[trial % 4]
        params = PolicyParams(
            feature_dim,
            tuple(f"a{i}" for i in range(n_actions)),
            spec.normal(scale=scale, size=(feature_dim, n_actions)),
            temperature,
        )
        questions = [
            " ".join(spec.choice(WORDS, size=int(spec.integers(1, 8))))
            for _ in range(int(spec.integers(1, 30)))
        ]
        table = DecisionTable(params, questions, max_steps)
        for position, question in enumerate(questions):
            for round_index in range(int(spec.integers(1, max_steps + 4))):
                step = table.draw(position, round_index, ours)
                features = _loop_features(
                    question, round_index, feature_dim, max_steps
                )
                index, probs = _loop_sample(params, features, theirs)
                assert step.features.tobytes() == features.tobytes()
                assert featurize(
                    question, round_index, feature_dim, max_steps
                ).tobytes() == features.tobytes()
                assert step.probs.tobytes() == probs.tobytes(), trial
                assert step.action == index, trial
                draws += 1
    assert draws > 500
    assert ours.bit_generator.state == theirs.bit_generator.state


def _params_that_overflow_on(word, feature_dim=16, max_steps=4):
    """Params whose logits are infinite for questions holding ``word`` and
    zero for the others."""
    params = PolicyParams.initial(feature_dim, _two_model_pool(), 1e-300)
    slot = np.flatnonzero(trainer._word_counts(word, feature_dim, max_steps))[0]
    params.weights[slot, 0] = 1e10
    return params


def test_a_non_finite_row_raises_only_when_drawn():
    params = _params_that_overflow_on("boom")
    questions = ["calm words", "boom words", "calm again"]
    table = DecisionTable(params, questions, 4)
    rng = np.random.default_rng(3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        first = table.draw(0, 0, rng)
        assert table.draw(2, 6, rng).probs.tolist() == first.probs.tolist()
        state = rng.bit_generator.state
        with pytest.raises(NonFiniteDecisionError, match="^action probabilities"):
            table.draw(1, 0, rng)
    assert rng.bit_generator.state == state  # no double was taken
    assert issubclass(NonFiniteDecisionError, ValueError)
    with np.errstate(all="ignore"), pytest.raises(ValueError):
        _loop_sample(params, featurize("boom words", 0, 16), rng)


def test_table_work_waits_for_the_first_episode(monkeypatch):
    events = []
    in_episode = []
    original_build = trainer.DecisionTable._build
    original_episode = trainer.run_episode

    def build(self, row):
        events.append(("build", bool(in_episode)))
        return original_build(self, row)

    def episode(*args, **kwargs):
        events.append(("episode", False))
        in_episode.append(True)
        try:
            return original_episode(*args, **kwargs)
        finally:
            in_episode.pop()

    monkeypatch.setattr(trainer.DecisionTable, "_build", build)
    monkeypatch.setattr(trainer, "run_episode", episode)
    pool, tasks = _task_pool_and_tasks()
    train(tasks, pool, TrainConfig(steps=2, batch_size=3, feature_dim=16))
    assert events[:2] == [("episode", False), ("build", True)]
    assert [event for event in events if event[0] == "build"] == [("build", True)] * 2

    events.clear()
    policy = LearnedRoutingPolicy(
        PolicyParams.initial(16, pool), "q?", pool, np.random.default_rng(0),
        DEFAULT_LEXICON,
    )
    policy.generate("ctx", ["</answer>"], 128)
    assert events == []
    policy.generate("ctx", ["</search>", "</answer>"], 128)
    assert events == [("build", False)]


def test_adapter_raises_at_the_decision_that_draws_a_non_finite_row():
    pool = _two_model_pool()
    policy = LearnedRoutingPolicy(
        _params_that_overflow_on("boom"), "boom words", pool, np.random.default_rng(0),
        DEFAULT_LEXICON,
    )
    policy.generate("ctx", ["</answer>"], 128)
    with pytest.raises(NonFiniteDecisionError):
        policy.generate("ctx", ["</search>", "</answer>"], 128)
    assert policy.decisions == []


def _record_batches(monkeypatch):
    """A list that collects the samples of each batch `train` hands to the
    gradient step, in order."""
    samples = []
    original = trainer.policy_gradient_step

    def recorded(params, batch, *args, **kwargs):
        samples.extend(batch)
        return original(params, batch, *args, **kwargs)

    monkeypatch.setattr(trainer, "policy_gradient_step", recorded)
    return samples


def _record_episodes(monkeypatch):
    """A list that collects each episode `train` runs, in order."""
    episodes = []
    original = trainer.run_episode

    def recorded(*args, **kwargs):
        episodes.append(original(*args, **kwargs))
        return episodes[-1]

    monkeypatch.setattr(trainer, "run_episode", recorded)
    return episodes


def _eight_model_pool_and_tasks(n_tasks):
    tasks = make_synthetic_tasks(n_tasks, "m0", "m1", seed=8, two_fact_ratio=0.5)
    kbs = knowledge_bases_for(tasks)
    pool = RoutingPool(
        [
            ModelDescriptor(
                f"m{i}", f"Model-{i}", 7 + i, 0.1 * (i + 1), f"model {i}",
                SimulatedBackend(SimulatedProfile(
                    knowledge_base=kbs.get(f"m{i}", {}), verbosity=8, seed=i,
                )),
            )
            for i in range(8)
        ]
    )
    return pool, tasks


def test_training_step_memory_stays_bounded_on_a_large_batch(monkeypatch):
    """One step of 320 episodes, 2,048 features and 9 actions.  Beyond the
    features each decision keeps, it holds the word-count memo (4 MiB at
    most), one table block and the gradient's blocks.  A table whose
    decisions kept views of it would hold every block, 25 MiB, to the end
    of the step."""
    samples = _record_batches(monkeypatch)
    pool, tasks = _eight_model_pool_and_tasks(320)
    config = TrainConfig(steps=1, batch_size=320, feature_dim=2048, seed=1)
    tracemalloc.start()
    try:
        train(tasks, pool, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    kept = sum(step.features.nbytes for sample in samples for step in sample.steps)
    assert len(samples) == 320 and kept > 10 * 2**20
    assert all(
        step.features.base is None for sample in samples for step in sample.steps
    )
    assert peak < kept + 10 * 2**20


# ---------------------------------------------------------------------------
# the engine adapter
# ---------------------------------------------------------------------------


def _forced_params(pool, route_id=None, answer_round=None, feature_dim=32):
    """Weights that deterministically route to ``route_id`` on round 0 and
    answer on round ``answer_round`` (via the round one-hot slots)."""
    params = PolicyParams.initial(feature_dim, pool)
    word_dim = feature_dim - 5
    answer_col = params.actions.index(ANSWER_ACTION)
    if route_id is None:
        params.weights[:, answer_col] = 50.0
    else:
        route_col = params.actions.index(route_id)
        params.weights[word_dim + 0, route_col] = 50.0
        if answer_round is not None:
            params.weights[word_dim + answer_round, answer_col] = 50.0
    return params


def test_adapter_answers_immediately_when_forced():
    pool = _two_model_pool()
    policy = LearnedRoutingPolicy(
        _forced_params(pool),
        "anything?",
        pool,
        np.random.default_rng(0),
        DEFAULT_LEXICON,
    )
    text = policy.generate("ctx", ["</search>", "</answer>"], 128)
    assert text.endswith(f"<answer>{ABSTAIN_TEXT}</answer>")
    assert len(policy.decisions) == 1


def test_adapter_emits_route_directive():
    pool = _two_model_pool()
    policy = LearnedRoutingPolicy(
        _forced_params(pool, route_id="m2", answer_round=1),
        "what is it?",
        pool,
        np.random.default_rng(0),
        DEFAULT_LEXICON,
    )
    text = policy.generate("ctx", ["</search>", "</answer>"], 128)
    assert "<search>Model-Two: what is it?</search>" in text
    assert text.startswith("<think>")


def test_adapter_absorbs_info_and_answers_with_it():
    pool = _two_model_pool()
    policy = LearnedRoutingPolicy(
        _forced_params(pool, route_id="m1", answer_round=1),
        "q?",
        pool,
        np.random.default_rng(0),
        DEFAULT_LEXICON,
    )
    first = policy.generate("PROMPT", ["</search>", "</answer>"], 128)
    context = "PROMPT" + first + "\n<information>Fact line\nignored</information>\n"
    second = policy.generate(context, ["</search>", "</answer>"], 128)
    assert "<answer>Fact line</answer>" in second


def test_adapter_skips_unhelpful_info():
    pool = _two_model_pool()
    policy = LearnedRoutingPolicy(
        _forced_params(pool, route_id="m1", answer_round=1),
        "q?",
        pool,
        np.random.default_rng(0),
        DEFAULT_LEXICON,
    )
    first = policy.generate("P", ["</search>", "</answer>"], 128)
    context = (
        "P"
        + first
        + "\n<information>I am unable to assist with this question. Please "
        "consult other LLMs for further assistance.</information>\n"
    )
    second = policy.generate(context, ["</search>", "</answer>"], 128)
    assert f"<answer>{ABSTAIN_TEXT}</answer>" in second


def test_adapter_keeps_duplicate_facts():
    """Redundant routing shows up verbatim in the answer, so exact match
    scoring punishes it; the adapter must not silently deduplicate."""
    pool = _two_model_pool()
    params = _forced_params(pool, route_id="m1", answer_round=2)
    word_dim = 32 - 5
    params.weights[word_dim + 1, params.actions.index("m1")] = 50.0
    policy = LearnedRoutingPolicy(
        params, "q?", pool, np.random.default_rng(0), DEFAULT_LEXICON
    )
    context = "P"
    for _ in range(2):
        text = policy.generate(context, ["</search>", "</answer>"], 128)
        context += text + "\n<information>crimson</information>\n"
    final = policy.generate(context, ["</search>", "</answer>"], 128)
    assert "<answer>crimson crimson</answer>" in final


def test_adapter_respects_answer_only_stops():
    pool = _two_model_pool()
    params = _forced_params(pool, route_id="m1")  # wants to route forever
    policy = LearnedRoutingPolicy(
        params, "q?", pool, np.random.default_rng(0), DEFAULT_LEXICON
    )
    text = policy.generate("ctx", ["</answer>"], 128)
    assert "</answer>" in text and "<search>" not in text
    assert policy.decisions == []  # forced answers are not sampled decisions


# ---------------------------------------------------------------------------
# rollout + train loop
# ---------------------------------------------------------------------------


def _task_pool_and_tasks(n_tasks=6, two_fact_ratio=0.0, accuracy=1.0, seed=3):
    tasks = make_synthetic_tasks(
        n_tasks, "strong", "weak", seed=seed, two_fact_ratio=two_fact_ratio
    )
    kbs = knowledge_bases_for(tasks)
    pool = RoutingPool(
        [
            ModelDescriptor(
                "strong", "Strong-72B", 72, 2.0, "large and reliable",
                SimulatedBackend(SimulatedProfile(
                    knowledge_base=kbs.get("strong", {}),
                    accuracy=accuracy, verbosity=48, seed=11,
                )),
            ),
            ModelDescriptor(
                "weak", "Weak-7B", 7, 0.05, "small and cheap",
                SimulatedBackend(SimulatedProfile(
                    knowledge_base=kbs.get("weak", {}),
                    accuracy=accuracy, verbosity=40, seed=23,
                )),
            ),
        ]
    )
    return pool, tasks


def test_rollout_reward_matches_episode_total(monkeypatch):
    pool, tasks = _task_pool_and_tasks()
    params = _forced_params(pool, route_id="strong", answer_round=1)
    monkeypatch.setattr(PolicyParams, "initial", lambda *args: params)
    samples = _record_batches(monkeypatch)
    episodes = _record_episodes(monkeypatch)
    train(
        tasks[:1],
        pool,
        TrainConfig(steps=1, batch_size=1, feature_dim=params.feature_dim),
        RewardConfig(alpha=0.0),
    )
    [sample], [episode] = samples, episodes
    assert sample.reward == episode.rewards.total
    assert len(sample.steps) == 2  # route decision + answer decision
    assert episode.final_answer == tasks[0].golds[0]
    assert episode.rewards.outcome == 1.0


def test_forced_route_episode_is_fully_deterministic():
    pool, tasks = _task_pool_and_tasks()
    params = _forced_params(pool, route_id="strong", answer_round=1)

    def run():
        policy = LearnedRoutingPolicy(
            params, tasks[0].question, pool,
            np.random.default_rng(7), DEFAULT_LEXICON,
        )
        return run_episode(
            tasks[0].question, tasks[0].golds, policy, pool, CostWindow(10)
        ).to_record()

    assert run() == run()


def test_train_rejects_empty_tasks():
    pool, _ = _task_pool_and_tasks()
    with pytest.raises(ValueError):
        train([], pool, TrainConfig(steps=1, batch_size=2))


def test_train_zero_steps_returns_initial_params():
    pool, tasks = _task_pool_and_tasks()
    report = train(tasks, pool, TrainConfig(steps=0, feature_dim=16))
    assert report.mean_reward == []
    assert report.params.actions == ("strong", "weak", ANSWER_ACTION)
    assert not report.params.weights.any()
    assert report.step_records() == []


def test_train_is_bit_reproducible():
    pool_a, tasks_a = _task_pool_and_tasks()
    pool_b, tasks_b = _task_pool_and_tasks()
    config = TrainConfig(
        steps=3, batch_size=4, learning_rate=0.3, seed=12, feature_dim=16
    )
    report_a = train(tasks_a, pool_a, config, RewardConfig(alpha=0.3))
    report_b = train(tasks_b, pool_b, config, RewardConfig(alpha=0.3))
    assert report_a.params.to_json() == report_b.params.to_json()
    assert report_a.mean_reward == report_b.mean_reward
    assert report_a.mean_cost == report_b.mean_cost
    assert report_a.entropy == report_b.entropy
    assert report_a.route_fractions == report_b.route_fractions


# sha256 of a seeded report with the default beta (KL path on), from the
# trainer as it was before the decision path kept its probabilities.
GOLDEN_TRAIN_SHA256 = "a5453b2b41c6be1fa19481728c86f9138671e0a5760356f7be139983edc2385d"


def test_train_bytes_match_golden_hash():
    pool, tasks = _task_pool_and_tasks(n_tasks=6, two_fact_ratio=0.5)
    config = TrainConfig(
        steps=4, batch_size=6, learning_rate=0.3, seed=12, feature_dim=16
    )
    assert config.beta == 0.01
    report = train(tasks, pool, config, RewardConfig(alpha=0.3))
    blob = json.dumps(
        {
            "params": report.params.to_json(),
            "mean_reward": report.mean_reward,
            "mean_cost": report.mean_cost,
            "entropy": report.entropy,
            "route_fractions": report.route_fractions,
        },
        sort_keys=True,
    )
    assert hashlib.sha256(blob.encode()).hexdigest() == GOLDEN_TRAIN_SHA256


def test_train_builds_one_table_per_step(monkeypatch):
    """Each step's table is one block here: one pass over the four
    questions of the batch at rounds 0 to 4, for every decision of the
    step."""
    built = []
    original = trainer._decision_rows

    def counted(params, features):
        built.append(features.shape)
        return original(params, features)

    monkeypatch.setattr(trainer, "_decision_rows", counted)
    pool, tasks = _task_pool_and_tasks(two_fact_ratio=0.5)
    train(tasks, pool, TrainConfig(steps=3, batch_size=4, feature_dim=16, seed=4))
    assert built == [(4 * 5, 16)] * 3


def test_train_builds_table_blocks_as_its_episodes_reach_them(monkeypatch):
    """At 2,048 features a block holds 64 rows, so the 150 rows of a batch
    of 30 at rounds 0 to 4 take three blocks.  Each starts at the first row
    a draw needs beyond the one before, and the last stops at the batch's
    end."""
    built = []
    original = trainer.DecisionTable._build

    def build(self, row):
        original(self, row)
        built.append((self._start, self._stop, self._features.shape))

    monkeypatch.setattr(trainer.DecisionTable, "_build", build)
    pool, tasks = _task_pool_and_tasks(two_fact_ratio=0.5)
    assert trainer._BLOCK_BYTES // (2048 * 8) == 64
    train(tasks, pool, TrainConfig(steps=2, batch_size=30, feature_dim=2048))
    assert len(built) == 3 * 2
    for step in (built[:3], built[3:]):
        assert step[0][0] == 0 and step[-1][1] == 30 * 5
        assert all(
            start >= previous_stop
            for (_, previous_stop, _), (start, _, _) in zip(step, step[1:])
        )
        assert all(
            shape == (stop - start, 2048) and stop - start <= 64
            for start, stop, shape in step
        )


def test_a_one_question_table_keeps_one_block_of_its_rounds():
    """A question with 1,001 rounds at 2,048 features has 16 MiB of rows; a
    draw holds one 1 MiB block of them, and a round past ``max_steps``
    builds the last row alone."""
    params = PolicyParams.initial(2048, _two_model_pool())
    table = DecisionTable(params, ["what is the colour?"], 1000)
    rng = np.random.default_rng(0)
    trainer._word_counts("what is the colour?", 2048, 1000)  # memo outside
    tracemalloc.start()
    try:
        table.draw(0, 0, rng)
        table.draw(0, 63, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < trainer._BLOCK_BYTES + 2**17
    assert (table._start, table._stop) == (0, 64)
    last = table.draw(0, 5000, rng)
    assert (table._start, table._stop) == (1000, 1001)
    assert last.features.tobytes() == featurize(
        "what is the colour?", 1000, 2048, 1000
    ).tobytes()


@pytest.mark.parametrize("beta, per_step", [(0.0, 1), (0.01, 2)])
def test_train_runs_one_gradient_softmax_per_step(monkeypatch, beta, per_step):
    """The gradient takes one block of decisions per step at this size: one
    batched log-softmax, plus one for the reference with the KL term on."""
    calls = []
    original = trainer._log_softmax

    def counted(logits):
        calls.append(logits.shape)
        return original(logits)

    monkeypatch.setattr(trainer, "_log_softmax", counted)
    pool, tasks = _task_pool_and_tasks(two_fact_ratio=0.5)
    config = TrainConfig(steps=3, batch_size=4, feature_dim=16, seed=4, beta=beta)
    train(tasks, pool, config)
    assert len(calls) == per_step * config.steps
    assert all(len(shape) == 2 and shape[0] >= config.batch_size for shape in calls)


def test_train_entropy_matches_the_decision_loop(monkeypatch):
    samples = _record_batches(monkeypatch)
    pool, tasks = _task_pool_and_tasks(two_fact_ratio=0.5)
    report = train(tasks, pool, TrainConfig(steps=3, batch_size=5, feature_dim=16))
    expected = [
        _loop_mean_entropy(
            [d.probs for sample in samples[i : i + 5] for d in sample.steps]
        )
        for i in range(0, 15, 5)
    ]
    assert report.entropy == expected


def test_adapter_features_equal_featurize_each_round():
    pool = _two_model_pool()
    params = _forced_params(pool, route_id="m1", answer_round=3)
    word_dim = 32 - 5
    params.weights[word_dim + 1, params.actions.index("m1")] = 50.0
    params.weights[word_dim + 2, params.actions.index("m1")] = 50.0
    question = "What is the colour of the colour wheel?"
    policy = LearnedRoutingPolicy(
        params, question, pool, np.random.default_rng(0), DEFAULT_LEXICON
    )
    context = "P"
    for _ in range(4):
        context += policy.generate(context, ["</search>", "</answer>"], 128)
    assert len(policy.decisions) == 4
    for round_index, decision in enumerate(policy.decisions):
        expected = featurize(question, round_index, 32)
        assert np.array_equal(decision.features, expected)
        assert np.array_equal(
            decision.probs, _loop_distribution(params, expected)
        )


def test_featurize_returns_a_writable_array_of_its_own():
    question = "what is the colour of the wheel?"
    first = featurize(question, 1, 32)
    want = first.copy()
    assert first.flags.writeable
    first[:] = 7.0
    assert np.array_equal(featurize(question, 1, 32), want)
    pool = _two_model_pool()
    policy = LearnedRoutingPolicy(
        PolicyParams.initial(32, pool),
        question,
        pool,
        np.random.default_rng(0),
        DEFAULT_LEXICON,
    )
    policy.generate("P", ["</search>", "</answer>"], 128)
    assert np.array_equal(policy.decisions[0].features, featurize(question, 0, 32))
    assert not np.array_equal(policy.decisions[0].features, first)


def test_adapter_checks_feature_dim_on_its_first_decision():
    pool = _two_model_pool()
    params = PolicyParams.initial(5, pool)
    policy = LearnedRoutingPolicy(
        params, "q?", pool, np.random.default_rng(0), DEFAULT_LEXICON
    )
    policy.generate("ctx", ["</answer>"], 128)  # answer-only: no features
    with pytest.raises(ValueError, match="feature_dim too small"):
        policy.generate("ctx", ["</search>", "</answer>"], 128)


def test_train_report_shapes_and_first_step_entropy():
    pool, tasks = _task_pool_and_tasks()
    config = TrainConfig(steps=2, batch_size=4, feature_dim=16, seed=1)
    report = train(tasks, pool, config)
    assert len(report.mean_reward) == 2
    assert len(report.step_records()) == 2
    # initial weights are zero, so every decision at step 0 was uniform
    assert report.entropy[0] == pytest.approx(np.log(3.0), abs=1e-9)
    for fractions in report.route_fractions:
        assert set(fractions) == {"strong", "weak"}
        assert all(0.0 <= v <= 1.0 for v in fractions.values())
    record = report.step_records()[0]
    assert record["step"] == 0
    assert set(record) == {
        "step", "mean_reward", "mean_cost", "entropy", "route_fractions",
    }


def test_train_warmup_costs_anchor_the_window():
    """With warmup anchors, a zero-cost answer-now policy scores the best
    cost reward from the very first step."""
    pool, tasks = _task_pool_and_tasks()
    config = TrainConfig(steps=1, batch_size=4, feature_dim=16, seed=2)
    reward_config = RewardConfig(alpha=1.0, window_capacity=64)
    report = train(
        tasks, pool, config, reward_config,
        warmup_costs=[0.0] * 8 + [4.0] * 8 + [100.0] * 8,
    )
    assert len(report.mean_reward) == 1
    assert 0.0 <= report.mean_reward[0] <= 1.0


# ---------------------------------------------------------------------------
# synthetic tasks
# ---------------------------------------------------------------------------


def test_make_synthetic_tasks_single_fact():
    tasks = make_synthetic_tasks(20, "strong", "weak", seed=0)
    assert len(tasks) == 20
    assert len({t.question for t in tasks}) == 20
    for task in tasks:
        assert task.kind == "single"
        assert task.question.startswith("what is the color of the ")
        assert len(task.golds) == 1
        assert task.facts["strong"] == task.golds[0]
        assert task.facts["weak"] == task.golds[0]


def test_make_synthetic_tasks_two_fact_split():
    tasks = make_synthetic_tasks(
        30, "strong", "weak", seed=1, two_fact_ratio=1.0
    )
    for task in tasks:
        assert task.kind == "two"
        color, shape = task.facts["strong"], task.facts["weak"]
        assert task.golds == [f"{color} {shape}", f"{shape} {color}"]


def test_make_synthetic_tasks_reproducible():
    a = make_synthetic_tasks(10, "s", "w", seed=5, two_fact_ratio=0.5)
    b = make_synthetic_tasks(10, "s", "w", seed=5, two_fact_ratio=0.5)
    assert [t.question for t in a] == [t.question for t in b]
    assert [t.golds for t in a] == [t.golds for t in b]


def test_knowledge_bases_for_normalizes_keys():
    tasks = make_synthetic_tasks(5, "strong", "weak", seed=2)
    kbs = knowledge_bases_for(tasks)
    assert set(kbs) == {"strong", "weak"}
    for key in kbs["strong"]:
        assert key == key.lower()
        assert "?" not in key
    assert len(kbs["strong"]) == 5


def test_end_to_end_forced_two_hop():
    """Round-dependent weights route to each specialist once, then compose
    both facts into the answer."""
    pool, tasks = _task_pool_and_tasks(n_tasks=4, two_fact_ratio=1.0)
    task = tasks[0]
    params = PolicyParams.initial(32, pool)
    word_dim = 32 - 5
    params.weights[word_dim + 0, params.actions.index("strong")] = 50.0
    params.weights[word_dim + 1, params.actions.index("weak")] = 50.0
    params.weights[word_dim + 2, params.actions.index(ANSWER_ACTION)] = 50.0
    policy = LearnedRoutingPolicy(
        params, task.question, pool, np.random.default_rng(3), DEFAULT_LEXICON
    )
    episode = run_episode(
        task.question, task.golds, policy, pool, CostWindow(10)
    )
    assert episode.route_count == 2
    assert episode.final_answer == task.golds[0]
    assert episode.rewards.outcome == 1.0
    assert episode.rewards.cost_raw == pytest.approx(2.0 * 48 + 0.05 * 40)


def test_params_json_bytes_are_pinned():
    params = PolicyParams(
        feature_dim=2,
        actions=("m1", "m2", ANSWER_ACTION),
        weights=np.array([[0.0, -1.5, 2.0], [0.25, 3.0, -0.125]]),
        temperature=0.7,
    )
    assert params.to_json() == (
        '{"actions": ["m1", "m2", "answer"], "feature_dim": 2, '
        '"temperature": 0.7, '
        '"weights": [[0.0, -1.5, 2.0], [0.25, 3.0, -0.125]]}'
    )
