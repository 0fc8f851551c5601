"""The benchmark's trace hooks still see every layer of an episode.

``perfbench/tracer.py`` times the program by rebinding module attributes:
each front end's ``run_episode`` and warmup ``cost_reward``, and the engine's
``cost_reward``, ``dispatch``, ``validate_format`` and ``parse_trajectory``,
and the trainer's ``LearnedRoutingPolicy.generate``.
A refactor that stops calling through one of those names breaks only a traced
benchmark run; these tests catch it in the suite instead.  The untraced
benchmark's ``EpisodeClock`` reads ``route_count`` and ``calls`` off each
``Episode`` a front end's ``run_episode`` returns; its counts are checked too.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from multiroute import evaluation, serve, trainer
from multiroute.config import RunConfig
from multiroute.evaluation import TaskRecord
from multiroute.policies import ScriptedPolicy
from multiroute.rewards import RewardConfig

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

QUESTION = "Where was the place of death of Topa Inca Yupanqui's father?"
# Task "t" routes to a pool model; task "u" names one the pool lacks, which
# gives its episode one error record.
SCRIPTS = {
    "t": [
        "<think>Ask the large model.</think>\n"
        f"<search>LLaMA-3.1-70B-Instruct: {QUESTION}</search>",
        "<think>Done.</think>\n<answer>Cusco</answer>",
    ],
    "u": [
        "<think>Ask a model the pool lacks.</think>\n"
        f"<search>GPT-9000: {QUESTION}</search>",
        "<think>Done.</think>\n<answer>Cusco</answer>",
    ],
}
WARMUP_COSTS = (3.0, 30.0, 300.0)
SPANS = (
    "engine.episode",
    "rewards.warmup",
    "rewards.cost_reward",
    "protocol.parse",
    "protocol.validate",
)


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tasks():
    return [
        TaskRecord(id=task_id, question=QUESTION, golds=["Cusco"])
        for task_id in SCRIPTS
    ]


def _through_trainer(pool):
    trainer.train(
        _tasks(),
        pool,
        trainer.TrainConfig(steps=2, batch_size=len(SCRIPTS), feature_dim=16),
        warmup_costs=WARMUP_COSTS,
    )


def _through_evaluation(pool):
    evaluation.evaluate(
        _tasks(), lambda task: ScriptedPolicy(SCRIPTS[task.id]), pool,
        warmup_costs=WARMUP_COSTS,
    )


def _through_serve(pool):
    run = RunConfig(
        pool=pool,
        reward=RewardConfig(alpha=0.5),
        policy={"kind": "scripted", "script": SCRIPTS},
        eval_warmup_costs=WARMUP_COSTS,
    )
    router = serve.Router(run)
    for task in _tasks():
        router.route(task)


@pytest.mark.parametrize(
    "front_end, drive, front_end_spans",
    [
        (trainer, _through_trainer, ("trainer.decision",)),
        (evaluation, _through_evaluation, ()),
        (serve, _through_serve, ()),
    ],
    ids=["trainer", "evaluation", "serve"],
)
def test_engine_spans_see_one_scored_episode(
    case_pool, front_end, drive, front_end_spans
):
    tracer_module = _load_tracer()
    tracer = tracer_module.Tracer()
    original = front_end.run_episode
    tracer_module.install_engine_spans(tracer, front_end, front_end)
    try:
        drive(case_pool)
    finally:
        tracer.restore()
    assert front_end.run_episode is original
    spans = tracer.snapshot()
    counts = {
        name: spans.get(name, {}).get("count", 0) for name in SPANS + front_end_spans
    }
    assert all(count >= 1 for count in counts.values()), counts


@pytest.mark.parametrize(
    "front_end, drive, episodes, routes_and_failures",
    [
        # The learned policy's routes are drawn, so only their sum is checked.
        (trainer, _through_trainer, 2 * len(SCRIPTS), None),
        (evaluation, _through_evaluation, len(SCRIPTS), (2, 1)),
        (serve, _through_serve, len(SCRIPTS), (2, 1)),
    ],
    ids=["trainer", "evaluation", "serve"],
)
def test_episode_clock_counts_episodes_routes_and_failures(
    case_pool, monkeypatch, front_end, drive, episodes, routes_and_failures
):
    returned = []
    run_episode = front_end.run_episode

    def recording(*args, **kwargs):
        returned.append(run_episode(*args, **kwargs))
        return returned[-1]

    monkeypatch.setattr(front_end, "run_episode", recording)
    clock = _load_tracer().EpisodeClock(front_end, "run_episode")
    try:
        drive(case_pool)
    finally:
        clock.restore()
    assert front_end.run_episode is recording
    assert len(clock.durations) == len(returned) == episodes
    assert clock.first_start is not None
    assert clock.routes == sum(len(episode.calls) for episode in returned)
    assert clock.failed == sum(
        any(call.error is not None for call in episode.calls) for episode in returned
    )
    if routes_and_failures is not None:
        assert (clock.routes, clock.failed) == routes_and_failures
