"""The benchmark's trace hooks still see every layer of an episode.

``perfbench/tracer.py`` times the program by rebinding module attributes:
each front end's ``run_episode`` and warmup ``cost_reward``, and the engine's
``cost_reward``, ``dispatch``, ``validate_format`` and ``parse_trajectory``,
and the trainer's ``LearnedRoutingPolicy.generate``.
A refactor that stops calling through one of those names breaks only a traced
benchmark run; these tests catch it in the suite instead.
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
SCRIPT = [
    "<think>Ask the large model.</think>\n"
    f"<search>LLaMA-3.1-70B-Instruct: {QUESTION}</search>",
    "<think>Done.</think>\n<answer>Cusco</answer>",
]
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


def _task():
    return TaskRecord(id="t", question=QUESTION, golds=["Cusco"])


def _through_trainer(pool):
    trainer.train(
        [_task()],
        pool,
        trainer.TrainConfig(steps=1, batch_size=1, feature_dim=16),
        warmup_costs=WARMUP_COSTS,
    )


def _through_evaluation(pool):
    evaluation.evaluate(
        [_task()], lambda task: ScriptedPolicy(SCRIPT), pool,
        warmup_costs=WARMUP_COSTS,
    )


def _through_serve(pool):
    run = RunConfig(
        pool=pool,
        reward=RewardConfig(alpha=0.5),
        policy={"kind": "scripted", "script": SCRIPT},
        eval_warmup_costs=WARMUP_COSTS,
    )
    serve.Router(run).route(_task())


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
