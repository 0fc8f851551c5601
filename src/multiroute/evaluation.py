"""Evaluation harness: task files, batch runs, and metric reports."""

from __future__ import annotations

import json
import reprlib
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .engine import EngineConfig, Episode, PolicyBackend, run_episode
from .pool import LineError as TaskFileError, RoutingPool, read_jsonl
from .rewards import CostWindow, RewardConfig, cost_reward, exact_match, f1_score


class DuplicateTaskIdError(TaskFileError):
    pass


@dataclass
class TaskRecord:
    """One question; ``id`` and ``golds`` are None for ad-hoc questions.

    Raises ValueError unless the question is a nonempty string that encodes
    as UTF-8 (so holds no lone surrogate) and the golds are None or pass
    ``is_gold_list``.
    """

    id: Optional[str]
    question: str
    golds: Optional[list[str]]

    def __post_init__(self) -> None:
        if not isinstance(self.question, str) or not self.question.strip():
            raise ValueError("question must be a nonempty string")
        try:
            self.question.encode()
        except UnicodeEncodeError as exc:
            raise ValueError(
                f"question holds a lone surrogate at index {exc.start}"
            ) from None
        if self.golds is not None and not is_gold_list(self.golds):
            raise ValueError("golds must be a nonempty list of strings")


def is_gold_list(value) -> bool:
    """True for a nonempty list of strings, the one accepted form of golds."""
    return (
        isinstance(value, list)
        and bool(value)
        and all(isinstance(gold, str) for gold in value)
    )


def load_tasks(path: str) -> list[TaskRecord]:
    """Load a JSONL task file of {"id", "question", "golden_answers"} rows.

    Raises:
        TaskFileError: a line that is not UTF-8, malformed JSON or
            missing/invalid fields, with the offending line number.
        DuplicateTaskIdError: repeated task id.
    """
    tasks: dict[str, TaskRecord] = {}
    for line_no, row in read_jsonl(path):
        if not isinstance(row, dict):
            raise TaskFileError(line_no, "row must be a JSON object")
        try:
            task_id = row["id"]
            if isinstance(task_id, bool) or not isinstance(task_id, (str, int)):
                raise ValueError(
                    f"id must be a string or an integer, got {reprlib.repr(task_id)}"
                )
            # A task row must carry golds: null fails like an empty list.
            task = TaskRecord(
                id=str(task_id),
                question=row["question"],
                golds=row["golden_answers"] or [],
            )
        except KeyError as exc:
            raise TaskFileError(line_no, f"missing field {exc}")
        except ValueError as exc:
            raise TaskFileError(line_no, str(exc))
        if task.id in tasks:
            detail = f"duplicate task id {reprlib.repr(task.id)}"
            raise DuplicateTaskIdError(line_no, detail)
        tasks[task.id] = task
    return list(tasks.values())


@dataclass
class MetricsSummary:
    n: int
    em_mean: float
    f1_mean: float
    avg_api_calls: float
    avg_cost_raw: float
    per_model_calls: dict[str, int] = field(default_factory=dict)

    def to_record(self) -> dict:
        return {**vars(self), "per_model_calls": dict(self.per_model_calls)}

    @classmethod
    def from_record(cls, record: dict) -> "MetricsSummary":
        return cls(**record)


def evaluate(
    tasks: Sequence,
    policy_factory: Callable[[object], PolicyBackend],
    pool: RoutingPool,
    engine_config: EngineConfig = EngineConfig(),
    reward_config: RewardConfig = RewardConfig(),
    warmup_costs: Sequence[float] = (),
) -> tuple[MetricsSummary, list[Episode]]:
    """Run every task through a fresh policy and aggregate metrics.

    EM and F1 are computed on final answers directly (an absent answer
    scores 0), independent of the format gate.  The cost window starts
    fresh, primed only with ``warmup_costs``.

    Raises:
        ValueError: empty task list (metrics would be undefined).
    """
    if not tasks:
        raise ValueError("cannot evaluate an empty task list")
    window = CostWindow(reward_config.window_capacity)
    for cost in warmup_costs:
        cost_reward(window, cost, reward_config)

    episodes: list[Episode] = []
    em_total = 0.0
    f1_total = 0.0
    calls_total = 0
    cost_total = 0.0
    per_model: dict[str, int] = {}
    for task in tasks:
        policy = policy_factory(task)
        episode = run_episode(
            task.question,
            list(task.golds),
            policy,
            pool,
            window,
            engine_config,
            reward_config,
        )
        episodes.append(episode)
        answer = episode.final_answer
        if answer is not None:
            em_total += exact_match(answer, task.golds)
            f1_total += f1_score(answer, task.golds)
        calls_total += episode.route_count
        cost_total += episode.rewards.cost_raw
        for call in episode.calls:
            per_model[call.model_id] = per_model.get(call.model_id, 0) + 1

    n = len(episodes)
    summary = MetricsSummary(
        n=n,
        em_mean=em_total / n,
        f1_mean=f1_total / n,
        avg_api_calls=calls_total / n,
        avg_cost_raw=cost_total / n,
        per_model_calls=per_model,
    )
    return summary, episodes


def report(summary: MetricsSummary, fmt: str = "table") -> str:
    """Render a summary as an aligned table or a machine-readable JSON line."""
    if fmt == "machine":
        return json.dumps(summary.to_record(), sort_keys=True)
    if fmt != "table":
        raise ValueError(f"unknown report format {fmt!r}")
    lines = [
        f"{'tasks':>16}  {summary.n}",
        f"{'exact match':>16}  {summary.em_mean:.4f}",
        f"{'f1':>16}  {summary.f1_mean:.4f}",
        f"{'avg api calls':>16}  {summary.avg_api_calls:.4f}",
        f"{'avg raw cost':>16}  {summary.avg_cost_raw:.4f}",
    ]
    for model_id in sorted(summary.per_model_calls):
        lines.append(
            f"{'calls to':>16}  {model_id}: {summary.per_model_calls[model_id]}"
        )
    return "\n".join(lines)


def write_episode_log(path: str, episodes: Sequence[Episode]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for episode in episodes:
            handle.write(json.dumps(episode.to_record(), sort_keys=True) + "\n")
