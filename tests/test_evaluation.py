"""Evaluation harness tests: task loading, batch metrics, reports, logs."""

from __future__ import annotations

import json

import numpy as np
import pytest

from multiroute.engine import EngineConfig
from multiroute.evaluation import (
    DuplicateTaskIdError,
    MetricsSummary,
    TaskFileError,
    TaskRecord,
    evaluate,
    load_tasks,
    report,
    write_episode_log,
)
from multiroute.policies import ScriptedPolicy
from multiroute.pool import LineError
from multiroute.protocol import DEFAULT_LEXICON
from multiroute.rewards import RewardConfig
from multiroute.trainer import LearnedRoutingPolicy, PolicyParams

# ---------------------------------------------------------------------------
# task files
# ---------------------------------------------------------------------------


def _write_tasks(tmp_path, rows):
    path = tmp_path / "tasks.jsonl"
    lines = [json.dumps(row) if isinstance(row, dict) else row for row in rows]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_load_tasks_happy_path(tmp_path):
    path = _write_tasks(
        tmp_path,
        [
            {"id": "t1", "question": "Who?", "golden_answers": ["Ada"]},
            "",  # blank lines are skipped
            {"id": 2, "question": "Where?", "golden_answers": ["Cusco", "Cuzco"]},
        ],
    )
    tasks = load_tasks(path)
    assert [t.id for t in tasks] == ["t1", "2"]
    assert tasks[1].golds == ["Cusco", "Cuzco"]
    assert tasks[0].question == "Who?"


@pytest.mark.parametrize(
    "row, line_no",
    [
        ("{not json", 1),
        ('"just a string"', 1),
        (json.dumps({"id": "a", "question": "q"}), 1),
        (json.dumps({"id": "a", "golden_answers": ["x"]}), 1),
        (json.dumps({"id": "a", "question": "  ", "golden_answers": ["x"]}), 1),
        (json.dumps({"id": "a", "question": "q", "golden_answers": []}), 1),
        (json.dumps({"id": "a", "question": "q", "golden_answers": [1]}), 1),
        (json.dumps({"id": ["a"], "question": "q", "golden_answers": ["x"]}), 1),
        (json.dumps({"id": None, "question": "q", "golden_answers": ["x"]}), 1),
        (json.dumps({"id": True, "question": "q", "golden_answers": ["x"]}), 1),
        (json.dumps({"id": 1.5, "question": "q", "golden_answers": ["x"]}), 1),
    ],
)
def test_load_tasks_rejects_bad_rows(tmp_path, row, line_no):
    path = _write_tasks(tmp_path, [row])
    with pytest.raises(TaskFileError) as exc_info:
        load_tasks(path)
    assert exc_info.value.line_no == line_no


def test_load_tasks_rejects_duplicate_ids(tmp_path):
    path = _write_tasks(
        tmp_path,
        [
            {"id": "t1", "question": "a?", "golden_answers": ["x"]},
            {"id": "t1", "question": "b?", "golden_answers": ["y"]},
        ],
    )
    with pytest.raises(DuplicateTaskIdError) as exc_info:
        load_tasks(path)
    assert exc_info.value.line_no == 2


def test_load_tasks_reports_line_numbers_after_blanks(tmp_path):
    path = _write_tasks(
        tmp_path,
        [
            {"id": "t1", "question": "a?", "golden_answers": ["x"]},
            "",
            "{broken",
        ],
    )
    with pytest.raises(TaskFileError) as exc_info:
        load_tasks(path)
    assert exc_info.value.line_no == 3


def test_task_file_error_is_the_jsonl_line_error():
    assert TaskFileError is LineError
    assert issubclass(DuplicateTaskIdError, LineError)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

_ANSWER_SCRIPTS = {
    # answers the film question correctly via one route
    "Which film was released more recently, Sacred Silence or "
    "Ek Haseena Thi Ek Deewana Tha?": [
        "<think>ask the large model</think>\n"
        "<search>LLaMA-3.1-70B-Instruct: Which film was released more "
        "recently, Sacred Silence or Ek Haseena Thi Ek Deewana Tha?</search>",
        "<think>clear now</think>\n"
        "<answer>Ek Haseena Thi Ek Deewana Tha</answer>",
    ],
    # answers the dental question without routing, partially right
    "The radiographic term used to describe the dense bone of the socket "
    "and septal crest is?": [
        "<think>I recall this one.</think>"
        "<answer>the lamina dura region</answer>",
    ],
}


def _script_factory(task):
    return ScriptedPolicy(_ANSWER_SCRIPTS[task.question])


def _film_and_dental_tasks():
    return [
        TaskRecord(
            id="film",
            question=(
                "Which film was released more recently, Sacred Silence or "
                "Ek Haseena Thi Ek Deewana Tha?"
            ),
            golds=["Ek Haseena Thi Ek Deewana Tha"],
        ),
        TaskRecord(
            id="dental",
            question=(
                "The radiographic term used to describe the dense bone of "
                "the socket and septal crest is?"
            ),
            golds=["lamina dura", "alveolar process", "the lamina dura"],
        ),
    ]


def test_evaluate_aggregates_metrics(case_pool):
    summary, episodes = evaluate(
        _film_and_dental_tasks(), _script_factory, case_pool
    )
    assert summary.n == 2
    # film: EM 1 / F1 1.  dental: EM 0; best F1 vs "lamina dura" or
    # "the lamina dura" = 2*(2/3*1)/(2/3+1) = 0.8
    assert summary.em_mean == pytest.approx(0.5)
    assert summary.f1_mean == pytest.approx((1.0 + 0.8) / 2)
    assert summary.avg_api_calls == pytest.approx(0.5)
    assert summary.avg_cost_raw == pytest.approx((0.9 * 48) / 2)
    assert summary.per_model_calls == {"llama-3.1-70b-instruct": 1}
    assert len(episodes) == 2
    assert episodes[0].rewards is not None


def test_evaluate_rejects_empty_tasks(case_pool):
    with pytest.raises(ValueError):
        evaluate([], _script_factory, case_pool)


def test_evaluate_missing_answer_scores_zero(case_pool):
    tasks = [TaskRecord(id="t", question="anything?", golds=["x"])]
    summary, episodes = evaluate(
        tasks, lambda task: ScriptedPolicy([]), case_pool
    )
    assert summary.em_mean == 0.0
    assert summary.f1_mean == 0.0
    assert episodes[0].final_answer is None


def test_evaluate_em_never_exceeds_f1(case_pool):
    rng = np.random.default_rng(0)
    tasks = _film_and_dental_tasks()
    for _ in range(3):

        def factory(task, rng=rng):
            params = PolicyParams.initial(16, case_pool)
            params.weights = rng.normal(scale=0.4, size=params.weights.shape)
            return LearnedRoutingPolicy(
                params, task.question, case_pool,
                np.random.default_rng(int(rng.integers(1 << 31))),
                DEFAULT_LEXICON,
            )

        summary, _ = evaluate(tasks, factory, case_pool)
        assert summary.em_mean <= summary.f1_mean + 1e-12


def test_evaluate_warmup_costs_prime_the_window(case_pool):
    tasks = _film_and_dental_tasks()
    plain, _ = evaluate(
        tasks, _script_factory, case_pool, reward_config=RewardConfig(alpha=1.0)
    )
    anchored, episodes = evaluate(
        tasks,
        _script_factory,
        case_pool,
        reward_config=RewardConfig(alpha=1.0),
        warmup_costs=[0.0] * 4 + [10000.0] * 4,
    )
    # identical trajectories either way; only reward normalization differs
    assert anchored.em_mean == plain.em_mean
    # with wide anchors, both episodes sit near the cheap end of the window
    for episode in episodes:
        assert episode.rewards.cost_norm > 0.5


def test_evaluate_uses_fresh_policy_per_task(case_pool):
    built = []

    def factory(task):
        policy = ScriptedPolicy(_ANSWER_SCRIPTS[task.question])
        built.append(policy)
        return policy

    evaluate(_film_and_dental_tasks(), factory, case_pool)
    assert len(built) == 2
    assert built[0] is not built[1]


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def _summary():
    return MetricsSummary(
        n=4,
        em_mean=0.75,
        f1_mean=0.8125,
        avg_api_calls=1.5,
        avg_cost_raw=22.5,
        per_model_calls={"m1": 4, "m2": 2},
    )


def test_machine_report_round_trips():
    summary = _summary()
    text = report(summary, fmt="machine")
    assert MetricsSummary.from_record(json.loads(text)) == summary
    assert json.loads(text)["per_model_calls"] == {"m1": 4, "m2": 2}


def test_table_report_contents():
    text = report(_summary(), fmt="table")
    assert "exact match" in text
    assert "0.7500" in text
    assert "m1: 4" in text
    assert "m2: 2" in text
    # right-aligned labels produce a fixed-width gutter
    for line in text.splitlines():
        assert line[:18].endswith("  ")


def test_report_rejects_unknown_format():
    with pytest.raises(ValueError):
        report(_summary(), fmt="yaml")


def test_summary_record_round_trip():
    summary = _summary()
    assert MetricsSummary.from_record(summary.to_record()) == summary


def test_write_episode_log(tmp_path, case_pool):
    _, episodes = evaluate(_film_and_dental_tasks(), _script_factory, case_pool)
    path = tmp_path / "episodes.jsonl"
    write_episode_log(str(path), episodes)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 2
    first = json.loads(lines[0])
    assert first["question"].startswith("Which film was released")
    assert first["rewards"]["outcome"] == 1.0
    assert first["route_count"] == 1


def test_summary_record_copies_calls_and_takes_exactly_its_fields():
    summary = _summary()
    record = summary.to_record()
    record["per_model_calls"]["m1"] += 1
    assert summary.per_model_calls["m1"] == 4
    missing = {key: value for key, value in record.items() if key != "n"}
    for bad in (missing, {**record, "extra": 1}):
        with pytest.raises(TypeError):
            MetricsSummary.from_record(bad)
