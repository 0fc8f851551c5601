"""End-to-end CLI tests, run in-process through main(argv)."""

from __future__ import annotations

import json
import random
import re
import sys
import threading

import pytest
import requests

from multiroute import cli
from multiroute.cli import main
from multiroute.config import load_run_config
from multiroute.engine import (
    MAX_SEQUENCE_TOKENS,
    NO_ASSISTANCE_TEXT,
    _directive_error_notice,
)
from multiroute.evaluation import MetricsSummary, load_tasks
from multiroute.pool import (
    DEFAULT_MAX_API_RESPONSE_TOKENS,
    UNABLE_RESPONSE,
    token_count,
)
from multiroute.protocol import DirectiveError, DirectiveErrorKind
from multiroute.rewards import normalize_answer
from multiroute.serve import POLL_INTERVAL_S, build_server
from multiroute.trainer import PolicyParams, make_synthetic_tasks, train

FILM_Q = (
    "Which film was released more recently, Sacred Silence or "
    "Ek Haseena Thi Ek Deewana Tha?"
)
FILM_GOLD = "Ek Haseena Thi Ek Deewana Tha"
DENTAL_Q = (
    "The radiographic term used to describe the dense bone of the socket "
    "and septal crest is?"
)

FILM_SCRIPT = [
    "<think>The large model should know film release dates.</think>\n"
    f"<search>LLaMA-3.1-70B-Instruct: {FILM_Q}</search>",
    "<think>That settles it.</think>\n"
    f"<answer>{FILM_GOLD}</answer>",
]
DENTAL_SCRIPT = [
    "<think>I know this term.</think><answer>lamina dura</answer>",
]


def _pool_mapping():
    return {
        "models": [
            {
                "id": "llama-3.1-70b-instruct",
                "display_name": "LLaMA-3.1-70B-Instruct",
                "param_count_b": 70,
                "cost_per_token": 0.9,
                "descriptor_text": "large general model",
                "backend": {
                    "type": "sim",
                    "kb": {normalize_answer(FILM_Q): FILM_GOLD},
                    "verbosity": 48,
                    "seed": 3,
                },
            },
            {
                "id": "llama-3.1-8b-instruct",
                "display_name": "LLaMA-3.1-8B-Instruct",
                "param_count_b": 8,
                "cost_per_token": 0.2,
                "descriptor_text": "small general model",
                "backend": {
                    "type": "sim",
                    "kb": {normalize_answer(DENTAL_Q): "lamina dura"},
                    "verbosity": 24,
                    "seed": 4,
                },
            },
        ]
    }


@pytest.fixture
def workdir(tmp_path):
    route_cfg = tmp_path / "route.json"
    route_cfg.write_text(
        json.dumps(
            {
                "pool": _pool_mapping(),
                "reward": {"alpha": 0.9},
                "policy": {"kind": "scripted", "script": FILM_SCRIPT},
            }
        )
    )
    eval_cfg = tmp_path / "eval.json"
    eval_cfg.write_text(
        json.dumps(
            {
                "pool": _pool_mapping(),
                "policy": {
                    "kind": "scripted",
                    "script": {
                        "film": FILM_SCRIPT,
                        "dental": DENTAL_SCRIPT,
                        "default": [],
                    },
                },
            }
        )
    )
    tasks = tmp_path / "tasks.jsonl"
    tasks.write_text(
        json.dumps(
            {"id": "film", "question": FILM_Q, "golden_answers": [FILM_GOLD]}
        )
        + "\n"
        + json.dumps(
            {
                "id": "dental",
                "question": DENTAL_Q,
                "golden_answers": ["lamina dura", "the lamina dura"],
            }
        )
        + "\n"
    )
    return tmp_path


# ---------------------------------------------------------------------------
# route
# ---------------------------------------------------------------------------


def test_route_with_gold_prints_full_record(workdir, capsys):
    code = main(
        [
            "route",
            "--config", str(workdir / "route.json"),
            "--question", FILM_Q,
            "--gold", FILM_GOLD,
            "--alpha", "0.0",
        ]
    )
    assert code == 0
    record = json.loads(capsys.readouterr().out)
    assert record["final_answer"] == FILM_GOLD
    assert record["route_count"] == 1
    assert record["rewards"]["outcome"] == 1.0
    assert record["rewards"]["alpha"] == 0.0  # flag beat the config's 0.9
    assert record["rewards"]["total"] == 1.0
    assert record["calls"][0]["model_id"] == "llama-3.1-70b-instruct"
    assert record["format_violations"] == []


def test_route_alpha_comes_from_config_without_flag(workdir, capsys):
    code = main(
        [
            "route",
            "--config", str(workdir / "route.json"),
            "--question", FILM_Q,
            "--gold", FILM_GOLD,
        ]
    )
    assert code == 0
    record = json.loads(capsys.readouterr().out)
    assert record["rewards"]["alpha"] == 0.9


def test_route_without_gold_omits_rewards(workdir, capsys):
    code = main(
        [
            "route",
            "--config", str(workdir / "route.json"),
            "--question", FILM_Q,
        ]
    )
    assert code == 0
    record = json.loads(capsys.readouterr().out)
    assert "rewards" not in record
    assert record["final_answer"] == FILM_GOLD


def test_route_respects_max_routing_steps_flag(workdir, capsys):
    code = main(
        [
            "route",
            "--config", str(workdir / "route.json"),
            "--question", FILM_Q,
            "--max-routing-steps", "1",
        ]
    )
    assert code == 0
    record = json.loads(capsys.readouterr().out)
    assert record["route_count"] <= 1


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def test_eval_table_output(workdir, capsys):
    code = main(
        [
            "eval",
            "--config", str(workdir / "eval.json"),
            "--tasks", str(workdir / "tasks.jsonl"),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "exact match" in out
    assert "1.0000" in out  # both tasks answered exactly


def test_eval_machine_output_and_artifacts(workdir, capsys):
    metrics_path = workdir / "metrics.json"
    episodes_path = workdir / "episodes.jsonl"
    code = main(
        [
            "eval",
            "--config", str(workdir / "eval.json"),
            "--tasks", str(workdir / "tasks.jsonl"),
            "--format", "machine",
            "--out", str(metrics_path),
            "--episodes-log", str(episodes_path),
        ]
    )
    assert code == 0
    summary = MetricsSummary.from_record(json.loads(capsys.readouterr().out))
    assert summary.n == 2
    assert summary.em_mean == 1.0
    assert summary.avg_api_calls == 0.5
    assert summary.per_model_calls == {"llama-3.1-70b-instruct": 1}
    saved = json.loads(metrics_path.read_text())
    assert saved == summary.to_record()
    lines = episodes_path.read_text().strip().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0])["final_answer"] == FILM_GOLD


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


@pytest.fixture
def train_workdir(tmp_path):
    tasks = make_synthetic_tasks(8, "strong", "weak", seed=3)
    kb_strong = {normalize_answer(t.question): t.facts["strong"] for t in tasks}
    kb_weak = {normalize_answer(t.question): t.facts["weak"] for t in tasks}
    config = {
        "pool": {
            "models": [
                {
                    "id": "strong",
                    "display_name": "Strong-72B",
                    "param_count_b": 72,
                    "cost_per_token": 2.0,
                    "descriptor_text": "large, reliable",
                    "backend": {"type": "sim", "kb": kb_strong,
                                "verbosity": 48, "seed": 11},
                },
                {
                    "id": "weak",
                    "display_name": "Weak-7B",
                    "param_count_b": 7,
                    "cost_per_token": 0.05,
                    "descriptor_text": "small, cheap",
                    "backend": {"type": "sim", "kb": kb_weak,
                                "verbosity": 40, "seed": 23},
                },
            ]
        },
        "trainer": {
            "steps": 2,
            "batch_size": 4,
            "learning_rate": 0.3,
            "beta": 0.0,
            "feature_dim": 16,
            "seed": 5,
        },
    }
    (tmp_path / "train.json").write_text(json.dumps(config))
    lines = [
        json.dumps(
            {"id": f"s{i}", "question": t.question, "golden_answers": t.golds}
        )
        for i, t in enumerate(tasks)
    ]
    (tmp_path / "tasks.jsonl").write_text("\n".join(lines) + "\n")
    return tmp_path


def test_train_writes_params_and_metrics(train_workdir, capsys):
    params_path = train_workdir / "params.json"
    metrics_path = train_workdir / "metrics.jsonl"
    code = main(
        [
            "train",
            "--config", str(train_workdir / "train.json"),
            "--tasks", str(train_workdir / "tasks.jsonl"),
            "--params-out", str(params_path),
            "--metrics-out", str(metrics_path),
        ]
    )
    assert code == 0
    stdout = json.loads(capsys.readouterr().out)
    assert stdout["steps"] == 2
    assert isinstance(stdout["final_mean_reward"], float)
    params = PolicyParams.from_json(params_path.read_text())
    assert params.actions == ("strong", "weak", "answer")
    assert params.feature_dim == 16
    records = [
        json.loads(line)
        for line in metrics_path.read_text().strip().splitlines()
    ]
    assert [r["step"] for r in records] == [0, 1]
    assert all("mean_cost" in r and "entropy" in r for r in records)


def test_train_with_no_steps_prints_null_reward(train_workdir, capsys):
    code = main(
        [
            "train",
            "--config", str(train_workdir / "train.json"),
            "--tasks", str(train_workdir / "tasks.jsonl"),
            "--steps", "0",
        ]
    )
    assert code == 0

    def not_json(constant):
        raise ValueError(f"{constant} is not JSON")

    stdout = json.loads(capsys.readouterr().out, parse_constant=not_json)
    assert stdout == {"final_mean_reward": None, "steps": 0}


def test_train_same_seed_reproduces_params_bytes(train_workdir, capsys):
    outputs = []
    for name in ("a.json", "b.json"):
        path = train_workdir / name
        code = main(
            [
                "train",
                "--config", str(train_workdir / "train.json"),
                "--tasks", str(train_workdir / "tasks.jsonl"),
                "--params-out", str(path),
            ]
        )
        assert code == 0
        capsys.readouterr()
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]


def test_train_flag_overrides_steps(train_workdir, capsys):
    code = main(
        [
            "train",
            "--config", str(train_workdir / "train.json"),
            "--tasks", str(train_workdir / "tasks.jsonl"),
            "--steps", "1",
        ]
    )
    assert code == 0
    assert json.loads(capsys.readouterr().out)["steps"] == 1


def test_train_primes_its_window_with_eval_warmup_costs(train_workdir, capsys):
    config_path = train_workdir / "train.json"
    config = json.loads(config_path.read_text())
    config.update(reward={"alpha": 0.5}, eval_warmup_costs=[0.0, 1.0e6])
    config_path.write_text(json.dumps(config))
    params_path = train_workdir / "params.json"
    code = main(
        [
            "train",
            "--config", str(config_path),
            "--tasks", str(train_workdir / "tasks.jsonl"),
            "--params-out", str(params_path),
        ]
    )
    assert code == 0
    capsys.readouterr()
    run = load_run_config(str(config_path))
    tasks = load_tasks(str(train_workdir / "tasks.jsonl"))

    def trained(warmup_costs):
        result = train(
            tasks, run.pool, run.trainer, run.reward, run.engine,
            warmup_costs=warmup_costs,
        )
        return result.params.to_json() + "\n"

    primed = trained(run.eval_warmup_costs)
    assert params_path.read_text() == primed
    assert trained(()) != primed


# ---------------------------------------------------------------------------
# reward-check
# ---------------------------------------------------------------------------


def test_reward_check_scores_logged_trajectories(workdir, capsys):
    good_raw = (
        "<think>route</think>"
        f"<search>LLaMA-3.1-70B-Instruct: {FILM_Q}</search>"
        "<information>It points to the 2017 release.</information>"
        f"<answer>{FILM_GOLD}</answer>"
    )
    audit = workdir / "audit.jsonl"
    audit.write_text(
        json.dumps(
            {"id": "good", "raw": good_raw, "golden_answers": [FILM_GOLD]}
        )
        + "\n"
        + json.dumps({"id": "bad", "raw": "<answer>x</answer>"})
        + "\n"
    )
    code = main(
        [
            "reward-check",
            "--config", str(workdir / "eval.json"),
            "--file", str(audit),
            "--alpha", "0.0",
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    good = json.loads(lines[0])
    bad = json.loads(lines[1])
    assert good["id"] == "good"
    assert good["ok"] is True
    assert good["violations"] == []
    assert good["outcome"] == 1.0
    assert good["total"] == 1.0
    # info was re-priced at the 70B rate: 6 whitespace tokens * 0.9
    assert good["cost_raw"] == pytest.approx(6 * 0.9)
    assert bad["ok"] is False
    assert bad["total"] == -1.0
    assert {v["rule"] for v in bad["violations"]} == {
        "starts_think_ends_answer",
        "think_answer_count",
    }


ROUTING_NOTICE = _directive_error_notice(
    DirectiveError(DirectiveErrorKind.UNKNOWN_MODEL, "unknown model", name="GPT-9")
)


@pytest.mark.parametrize(
    "info, billed",
    [(NO_ASSISTANCE_TEXT, False), (ROUTING_NOTICE, False), (UNABLE_RESPONSE, True)],
    ids=["no-assistance-notice", "routing-error-notice", "unable-reply"],
)
def test_reward_check_bills_replies_but_not_engine_notices(
    workdir, capsys, info, billed
):
    raw = (
        "<think>route</think>"
        f"<search>LLaMA-3.1-70B-Instruct: {FILM_Q}</search>"
        f"<information>{info}</information>"
        "<think>guess</think><answer>x</answer>"
    )
    audit = workdir / "audit.jsonl"
    audit.write_text(json.dumps({"raw": raw, "golden_answers": [FILM_GOLD]}) + "\n")
    code = main(
        ["reward-check", "--config", str(workdir / "eval.json"), "--file", str(audit)]
    )
    assert code == 0
    row = json.loads(capsys.readouterr().out)
    assert row["ok"] is True
    assert row["cost_raw"] == (0.9 * token_count(info) if billed else 0.0)


AUDITED_SCRIPTS = {
    # The 8B model cannot answer (a billed refusal), the 70B model can.
    "answered": [
        "<think>Try the small model.</think>\n"
        f"<search>LLaMA-3.1-8B-Instruct: {FILM_Q}</search>",
        "<think>Try the large model.</think>\n"
        f"<search>LLaMA-3.1-70B-Instruct: {FILM_Q}</search>",
        f"<think>Done.</think>\n<answer>{FILM_GOLD}</answer>",
    ],
    # An unknown model: a zero-cost routing notice and a format failure.
    "misrouted": [
        f"<think>Ask.</think>\n<search>GPT-9: {FILM_Q}</search>",
        "<think>Guess.</think>\n<answer>Sacred Silence</answer>",
    ],
}


@pytest.mark.parametrize("name", sorted(AUDITED_SCRIPTS))
def test_reward_check_reproduces_an_episodes_rewards(tmp_path, capsys, name):
    cfg = tmp_path / "audit.json"
    cfg.write_text(
        json.dumps(
            {
                "pool": _pool_mapping(),
                "reward": {"alpha": 0.5},
                "eval_warmup_costs": [0.0, 4.0, 30.0, 100.0],
                "policy": {"kind": "scripted", "script": AUDITED_SCRIPTS[name]},
            }
        )
    )
    code = main(
        ["route", "--config", str(cfg), "--question", FILM_Q, "--gold", FILM_GOLD]
    )
    assert code == 0
    episode = json.loads(capsys.readouterr().out)
    audit = tmp_path / "audit.jsonl"
    audit.write_text(
        json.dumps(
            {"raw": episode["raw_trajectory"], "golden_answers": [FILM_GOLD]}
        )
        + "\n"
    )
    code = main(["reward-check", "--config", str(cfg), "--file", str(audit)])
    assert code == 0
    checked = json.loads(capsys.readouterr().out)
    assert episode["route_count"] == len(AUDITED_SCRIPTS[name]) - 1
    for key in ("format", "outcome", "cost_raw", "cost_norm", "total"):
        assert checked[key] == episode["rewards"][key], key


def test_reward_check_rejects_bad_rows(workdir, capsys):
    audit = workdir / "audit.jsonl"
    audit.write_text('{"no_raw": 1}\n')
    code = main(
        [
            "reward-check",
            "--config", str(workdir / "eval.json"),
            "--file", str(audit),
        ]
    )
    assert code == 2
    assert "bad trajectory row" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# error handling and parser behavior
# ---------------------------------------------------------------------------


def test_missing_config_file_exits_2(workdir, capsys):
    code = main(
        [
            "route",
            "--config", str(workdir / "nope.json"),
            "--question", "q?",
        ]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_bad_task_file_exits_2(workdir, capsys):
    bad = workdir / "bad_tasks.jsonl"
    bad.write_text('{"id": "x"}\n')
    code = main(
        [
            "eval",
            "--config", str(workdir / "eval.json"),
            "--tasks", str(bad),
        ]
    )
    assert code == 2
    assert "line 1" in capsys.readouterr().err


def test_unknown_policy_kind_exits_2(workdir, capsys):
    cfg = workdir / "badpolicy.json"
    cfg.write_text(
        json.dumps({"pool": _pool_mapping(), "policy": {"kind": "oracle"}})
    )
    code = main(
        ["route", "--config", str(cfg), "--question", "q?"]
    )
    assert code == 2
    assert "unknown policy kind" in capsys.readouterr().err


def test_bad_bind_exits_2(workdir, capsys):
    code = main(
        [
            "serve",
            "--config", str(workdir / "route.json"),
            "--bind", "no-port-here",
        ]
    )
    assert code == 2
    assert "host:port" in capsys.readouterr().err


def test_argparse_requires_config(workdir):
    with pytest.raises(SystemExit) as exc_info:
        main(["route", "--question", "q?"])
    assert exc_info.value.code == 2


def test_argparse_requires_subcommand():
    with pytest.raises(SystemExit) as exc_info:
        main([])
    assert exc_info.value.code == 2


# ---------------------------------------------------------------------------
# bad inputs: one error line and exit 2, never a traceback
# ---------------------------------------------------------------------------


def _route_with(mutate):
    """argv for `route` over the route config after ``mutate`` edits it."""

    def argv(workdir):
        config = {
            "pool": _pool_mapping(),
            "policy": {"kind": "scripted", "script": FILM_SCRIPT},
        }
        mutate(config)
        path = workdir / "bad_run.json"
        path.write_text(json.dumps(config))
        return ["route", "--config", str(path), "--question", FILM_Q]

    return argv


def _reward_check_row(row):
    def argv(workdir):
        audit = workdir / "audit.jsonl"
        audit.write_text(json.dumps(row) + "\n")
        return [
            "reward-check",
            "--config", str(workdir / "eval.json"),
            "--file", str(audit),
        ]

    return argv


def _sim_backend(**values):
    return _route_with(lambda c: c["pool"]["models"][0]["backend"].update(values))


BAD_TIMEOUTS = (
    ("zero", 0, "timeout_ms must be positive"),
    ("negative", -5, "timeout_ms must be positive"),
    ("nan", float("nan"), "timeout_ms must be a finite number"),
    # longer than any socket timeout, which ``settimeout`` would refuse
    (
        "over-socket-limit",
        1e13,
        f"timeout_ms must be at most {int(threading.TIMEOUT_MAX * 1000)}",
    ),
)


def _top_level(**values):
    return _route_with(lambda c: c.update(values))


def _model(**values):
    return _route_with(lambda c: c["pool"]["models"][0].update(values))


def _with_dir(argv):
    """``argv`` after making an empty directory ``adir`` in the workdir."""

    def build(workdir):
        (workdir / "adir").mkdir(exist_ok=True)
        return argv(workdir)

    return build


# Nesting deep enough that ``json`` raises RecursionError, in a small file.
DEEP_JSON = "[" * 100_000


def _with_deep_file(name, argv):
    """``argv`` after writing ``DEEP_JSON`` to ``name`` in the workdir."""

    def build(workdir):
        (workdir / name).write_text(DEEP_JSON + "\n")
        return argv(workdir)

    return build


def _eval_into(tasks, out=None):
    """argv for `eval` with workdir files ``tasks`` and, if given, ``out``."""

    def argv(workdir):
        extra = ["--out", str(workdir / out)] if out else []
        return [
            "eval",
            "--config", str(workdir / "eval.json"),
            "--tasks", str(workdir / tasks),
            *extra,
        ]

    return argv


def _with_params(seed=0, question=FILM_Q, **values):
    """argv for `route` over a params policy whose file holds zero weights
    for the route pool, after ``values`` replace some of its fields."""
    params = {
        "feature_dim": 64,
        "actions": ["llama-3.1-70b-instruct", "llama-3.1-8b-instruct", "answer"],
        "weights": [[0.0] * 3] * 64,
        "temperature": 1.0,
        **values,
    }

    def build(workdir):
        (workdir / "params.json").write_text(json.dumps(params))
        argv = _top_level(policy={"kind": "params", "path": "params.json"})
        # A repeated --question overrides the one ``_route_with`` gives.
        return argv(workdir) + ["--seed", str(seed), "--question", question]

    return build


def _with_task_row(row):
    """argv for `eval` over a task file holding ``row`` alone."""

    def build(workdir):
        (workdir / "row.jsonl").write_text(json.dumps(row) + "\n")
        return _eval_into("row.jsonl")(workdir)

    return build


def _with_bytes(name, data, argv):
    """``argv`` after writing the bytes ``data`` to ``name`` in the workdir."""

    def build(workdir):
        (workdir / name).write_bytes(data)
        return argv(workdir)

    return build


# A task row whose question is Latin-1 text: its e-acute is not UTF-8.
LATIN1_ROW = b'{"id": "b", "question": "caf\xe9?", "golden_answers": ["x"]}\n'


def _reward_check(name, config="eval.json"):
    """argv for `reward-check` over the workdir files ``config`` and ``name``."""

    def argv(workdir):
        return [
            "reward-check",
            "--config", str(workdir / config),
            "--file", str(workdir / name),
        ]

    return argv


def _with_config(config, argv):
    """``argv`` after writing the run config ``config`` to ``cfg.json``."""

    def build(workdir):
        (workdir / "cfg.json").write_text(json.dumps(config))
        return argv(workdir)

    return build


def _pool_priced(price):
    """The route pool with its first model at ``price`` per token."""
    pool = _pool_mapping()
    pool["models"][0]["cost_per_token"] = price
    return pool


def _train_with(trainer, *flags):
    """argv for a two-step `train` over the route pool and ``tasks.jsonl``,
    with ``trainer`` added to the trainer section and ``flags`` appended."""
    config = {
        "pool": _pool_mapping(),
        "trainer": {"steps": 2, "batch_size": 1, **trainer},
    }
    return _with_config(
        config,
        lambda workdir: [
            "train",
            "--config", str(workdir / "cfg.json"),
            "--tasks", str(workdir / "tasks.jsonl"),
            *flags,
        ],
    )


def _serve_bind(bind):
    """argv for `serve` over the route config with ``--bind bind``."""
    return lambda workdir: [
        "serve", "--config", str(workdir / "route.json"), "--bind", bind
    ]


# One reply of one token at this price bills 1e308, which is finite, but a
# logged reply of two tokens re-prices to infinity.
ONE_TOKEN_ENGINE = {"max_api_response_tokens": 1, "max_routing_steps": 1}
TWO_TOKEN_REPLY = (
    "<search>LLaMA-3.1-70B-Instruct: q?</search>"
    "<information>two tokens</information><answer>x</answer>"
)

BAD_INPUTS = [
    # run-config values
    pytest.param(
        _sim_backend(accuracy=2.0),
        "pool model #0",
        "accuracy must be in [0, 1]",
        id="sim-accuracy",
    ),
    pytest.param(
        _sim_backend(verbosity="many"),
        "pool model #0",
        "verbosity must be an integer",
        id="sim-verbosity",
    ),
    pytest.param(
        _route_with(lambda c: c["pool"]["models"].append(5)),
        "pool model #2",
        "int is not a JSON object",
        id="model-entry-not-object",
    ),
    pytest.param(
        _top_level(eval_warmup_costs=[-1.0]),
        "run config",
        "eval_warmup_costs must be numbers >= 0",
        id="warmup-cost-negative",
    ),
    pytest.param(
        _top_level(eval_warmup_costs=5),
        "run config",
        "eval_warmup_costs must be a list",
        id="warmup-costs-not-list",
    ),
    pytest.param(
        _top_level(seed="x"), "run config", "seed must be an integer", id="seed-not-int"
    ),
    pytest.param(
        _top_level(lexicon={"info_aliases": [["<i>"]]}),
        "lexicon",
        "info_aliases must be (open, close) pairs",
        id="info-alias-not-pair",
    ),
    # policy files
    pytest.param(
        _top_level(policy={"kind": "params", "path": "not.json"}),
        "params policy {dir}/not.json",
        "invalid JSON",
        id="params-file-not-json",
    ),
    pytest.param(
        _top_level(policy={"kind": "params", "path": "no_weights.json"}),
        "params policy {dir}/no_weights.json",
        "bad params file: KeyError: 'weights'",
        id="params-file-without-weights",
    ),
    pytest.param(
        _top_level(policy={"kind": "scripted", "script_path": "not.json"}),
        "scripted policy {dir}/not.json",
        "invalid JSON",
        id="script-file-not-json",
    ),
    pytest.param(
        _top_level(policy={"kind": "scripted", "script": [5]}),
        "scripted policy",
        "script must be a list of strings",
        id="script-entry-not-string",
    ),
    # reward-check rows
    pytest.param(
        _reward_check_row({"raw": 5}),
        "{dir}/audit.jsonl:1",
        "raw must be a string",
        id="raw-not-string",
    ),
    pytest.param(
        _reward_check_row({"raw": "<answer>x</answer>", "golden_answers": "x"}),
        "{dir}/audit.jsonl:1",
        "golden_answers must be a nonempty string list",
        id="golds-not-list",
    ),
    # paths that are not strings or name a directory
    pytest.param(
        _top_level(policy={"kind": "params", "path": 5}),
        "params policy",
        "path must be a string",
        id="params-path-not-string",
    ),
    pytest.param(
        _top_level(policy={"kind": "scripted", "script_path": ["s.json"]}),
        "scripted policy",
        "script_path must be a string",
        id="script-path-not-string",
    ),
    pytest.param(
        _with_dir(_top_level(policy={"kind": "params", "path": "adir"})),
        "{dir}/adir",
        "Is a directory",
        id="params-path-is-directory",
    ),
    pytest.param(
        _with_dir(_top_level(policy={"kind": "scripted", "script_path": "adir"})),
        "{dir}/adir",
        "Is a directory",
        id="script-path-is-directory",
    ),
    pytest.param(
        _with_dir(
            lambda workdir: [
                "route", "--config", str(workdir / "adir"), "--question", FILM_Q
            ]
        ),
        "{dir}/adir",
        "Is a directory",
        id="config-is-directory",
    ),
    pytest.param(
        _with_dir(_sim_backend(kb_path="adir")),
        "pool model #0",
        "[Errno 21] Is a directory: '{dir}/adir'",
        id="kb-path-is-directory",
    ),
    pytest.param(
        _sim_backend(kb_path="no_kb.jsonl"),
        "pool model #0",
        "[Errno 2] No such file or directory: '{dir}/no_kb.jsonl'",
        id="kb-path-missing",
    ),
    pytest.param(
        _with_dir(_eval_into("adir")),
        "{dir}/adir",
        "Is a directory",
        id="tasks-is-directory",
    ),
    pytest.param(
        _with_dir(_eval_into("tasks.jsonl", out="adir")),
        "{dir}/adir",
        "Is a directory",
        id="out-is-directory",
    ),
    # config values of the wrong type
    pytest.param(
        _top_level(trainer={"batch_size": 2.5}),
        "trainer",
        "batch_size must be an integer",
        id="batch-size-float",
    ),
    pytest.param(
        _top_level(engine={"timeout_ms": "30"}),
        "engine",
        "timeout_ms must be a number",
        id="timeout-string",
    ),
    # timeouts that are not positive and finite
    *[
        pytest.param(
            _top_level(engine={"timeout_ms": value}),
            "engine",
            reason,
            id=f"timeout-{name}",
        )
        for name, value, reason in BAD_TIMEOUTS
    ],
    *[
        pytest.param(
            _top_level(policy={"kind": "http", "model": "m", "timeout_ms": value}),
            "http policy",
            reason,
            id=f"http-policy-timeout-{name}",
        )
        for name, value, reason in BAD_TIMEOUTS
    ],
    pytest.param(
        _top_level(reward={"alpha": True}),
        "reward",
        "alpha must be a number",
        id="alpha-bool",
    ),
    # a window longer than a deque can hold
    pytest.param(
        _top_level(reward={"window_capacity": 10**19}),
        "reward",
        f"window_capacity must be at most {sys.maxsize}",
        id="window-capacity-over-maxsize",
    ),
    # a blank question, which POST /route answers with 400
    pytest.param(
        lambda workdir: [
            "route", "--config", str(workdir / "route.json"), "--question", "   "
        ],
        "route",
        "question must be a nonempty string",
        id="blank-question",
    ),
    # values of the wrong type in models, backends and the http policy
    pytest.param(
        _sim_backend(verbosity=2.9),
        "pool model #0",
        "verbosity must be an integer",
        id="verbosity-float",
    ),
    pytest.param(
        _sim_backend(verbosity=True),
        "pool model #0",
        "verbosity must be an integer",
        id="verbosity-bool",
    ),
    pytest.param(
        _sim_backend(accuracy="0.5"),
        "pool model #0",
        "accuracy must be a number",
        id="accuracy-string",
    ),
    pytest.param(
        _sim_backend(seed="7"),
        "pool model #0",
        "seed must be an integer",
        id="sim-seed-string",
    ),
    pytest.param(
        _model(param_count_b=True),
        "pool model #0",
        "param_count_b must be a number",
        id="params-bool",
    ),
    pytest.param(
        _model(cost_per_token=True),
        "pool model #0",
        "cost_per_token must be a number",
        id="price-bool",
    ),
    pytest.param(
        _model(id=["a"]), "pool model #0", "id must be a string", id="model-id-list"
    ),
    pytest.param(
        _model(descriptor_text={"x": 1}),
        "pool model #0",
        "descriptor_text must be a string",
        id="descriptor-text-object",
    ),
    pytest.param(
        _model(backend={"type": "http", "model": None}),
        "pool model #0",
        "model must be a string",
        id="http-backend-model-null",
    ),
    pytest.param(
        _model(backend={"type": "http", "model": "m", "url_env": None}),
        "pool model #0",
        "url_env must be a string",
        id="http-backend-url-env-null",
    ),
    pytest.param(
        _top_level(policy={"kind": "http", "model": "p", "temperature": True}),
        "http policy",
        "temperature must be a number",
        id="http-policy-temperature-bool",
    ),
    pytest.param(
        _top_level(policy={"kind": "http", "model": ["p"]}),
        "http policy",
        "model must be a string",
        id="http-policy-model-list",
    ),
    # JSON nested too deep for the parser, in each file the CLI reads
    pytest.param(
        _with_deep_file(
            "deep.json",
            lambda workdir: [
                "route", "--config", str(workdir / "deep.json"), "--question", FILM_Q
            ],
        ),
        "config file {dir}/deep.json",
        "invalid JSON: maximum recursion depth exceeded",
        id="config-nested-too-deep",
    ),
    pytest.param(
        _with_deep_file("deep.jsonl", _eval_into("deep.jsonl")),
        "line 1",
        "invalid JSON: maximum recursion depth exceeded",
        id="task-row-nested-too-deep",
    ),
    pytest.param(
        _with_deep_file("deep.jsonl", _sim_backend(kb_path="deep.jsonl")),
        "pool model #0",
        "{dir}/deep.jsonl: line 1: invalid JSON",
        id="kb-row-nested-too-deep",
    ),
    pytest.param(
        _with_deep_file(
            "deep.jsonl",
            lambda workdir: [
                "reward-check",
                "--config", str(workdir / "eval.json"),
                "--file", str(workdir / "deep.jsonl"),
            ],
        ),
        "{dir}/deep.jsonl:1",
        "invalid JSON: maximum recursion depth exceeded",
        id="reward-check-row-nested-too-deep",
    ),
    pytest.param(
        _with_deep_file(
            "deep.json", _top_level(policy={"kind": "params", "path": "deep.json"})
        ),
        "params policy {dir}/deep.json",
        "invalid JSON: maximum recursion depth exceeded",
        id="params-file-nested-too-deep",
    ),
    pytest.param(
        _with_bytes(
            "huge.json",
            b'{"feature_dim": ' + b"1" * 5000 + b"}",
            _top_level(policy={"kind": "params", "path": "huge.json"}),
        ),
        "params policy {dir}/huge.json",
        "invalid JSON: Exceeds the limit (4300 digits)",
        id="params-file-huge-int",
    ),
    pytest.param(
        _top_level(eval_warmup_costs=[True, False]),
        "run config",
        "eval_warmup_costs[0] must be a number",
        id="warmup-cost-bool",
    ),
    pytest.param(
        _model(backend={"type": "http", "model": ""}),
        "pool model #0",
        "model is required",
        id="http-backend-model-empty",
    ),
    # params files the policy could not run
    pytest.param(
        _with_params(weights=[[0.0] * 3] * 32),
        "params policy {dir}/params.json",
        "weights must have shape (64, 3), got (32, 3)",
        id="params-weights-too-few-rows",
    ),
    pytest.param(
        _with_params(actions=["zz", "llama-3.1-8b-instruct", "answer"], seed=2),
        "params policy {dir}/params.json",
        "actions not in the pool: ['zz']",
        id="params-action-not-in-pool-seed-2",
    ),
    pytest.param(
        _with_params(actions=["zz", "llama-3.1-8b-instruct", "answer"], seed=3),
        "params policy {dir}/params.json",
        "actions not in the pool: ['zz']",
        id="params-action-not-in-pool-seed-3",
    ),
    pytest.param(
        _with_params(actions=[5, "llama-3.1-8b-instruct", "answer"]),
        "params policy {dir}/params.json",
        "actions must be strings",
        id="params-action-not-string",
    ),
    pytest.param(
        _with_params(temperature=0),
        "params policy {dir}/params.json",
        "temperature must be positive",
        id="params-temperature-zero",
    ),
    pytest.param(
        _with_params(weights=[[float("nan")] * 3] * 64),
        "params policy {dir}/params.json",
        "weights must be finite",
        id="params-weights-nan",
    ),
    pytest.param(
        _with_params(weights=[["0.5", True, 0.0]] + [[0.0] * 3] * 63),
        "params policy {dir}/params.json",
        "bad params file: ValueError: weights must be a matrix of numbers",
        id="params-weights-string-and-bool",
    ),
    pytest.param(
        _with_params(feature_dim=5, weights=[[0.0] * 3] * 5),
        "params policy {dir}/params.json",
        "feature_dim too small",
        id="params-feature-dim-too-small",
    ),
    # a question holding a lone surrogate, which no backend can encode
    pytest.param(
        _with_params(question="\udcff?"),
        "route",
        "question holds a lone surrogate",
        id="question-lone-surrogate",
    ),
    pytest.param(
        _with_task_row({"id": "s", "question": "\ud800?", "golden_answers": ["x"]}),
        "line 1",
        "question holds a lone surrogate",
        id="task-question-lone-surrogate",
    ),
    # files holding a byte that is not UTF-8
    pytest.param(
        _with_bytes(
            "latin1.json",
            b'{"pool": {"models": []}, "seed": "\xff"}',
            lambda workdir: [
                "route", "--config", str(workdir / "latin1.json"), "--question", FILM_Q
            ],
        ),
        "config file {dir}/latin1.json",
        "not UTF-8 text",
        id="config-not-utf8",
    ),
    pytest.param(
        _with_bytes(
            "latin1.jsonl",
            json.dumps({"id": "a", "question": "q?", "golden_answers": ["x"]}).encode()
            + b"\n"
            + LATIN1_ROW,
            _eval_into("latin1.jsonl"),
        ),
        "line 2",
        "not UTF-8 text",
        id="tasks-not-utf8",
    ),
    pytest.param(
        _with_bytes(
            "latin1.jsonl",
            b'{"raw": "<answer>caf\xe9</answer>"}\n',
            lambda workdir: [
                "reward-check",
                "--config", str(workdir / "eval.json"),
                "--file", str(workdir / "latin1.jsonl"),
            ],
        ),
        "{dir}/latin1.jsonl:1",
        "not UTF-8 text",
        id="reward-check-file-not-utf8",
    ),
    # a bad row after a good one: stdout stays empty
    pytest.param(
        _with_bytes(
            "audit2.jsonl",
            (
                json.dumps({"raw": "<answer>x</answer>"})
                + "\n"
                + json.dumps({"no_raw": 1})
                + "\n"
            ).encode(),
            _reward_check("audit2.jsonl"),
        ),
        "{dir}/audit2.jsonl:2",
        "bad trajectory row: 'raw'",
        id="reward-check-bad-row-after-a-good-one",
    ),
    # a knowledge base names its file and the line
    pytest.param(
        _with_bytes(
            "latin1_kb.jsonl",
            b'{"key": "a", "answer": "b"}\n{"key": "caf\xe9?", "answer": "x"}\n',
            _sim_backend(kb_path="latin1_kb.jsonl"),
        ),
        "pool model #0: {dir}/latin1_kb.jsonl: line 2",
        "not UTF-8 text",
        id="kb-not-utf8",
    ),
    # a finite price whose bill overflows
    pytest.param(
        lambda workdir: _model(cost_per_token=1e308)(workdir)
        + ["--gold", FILM_GOLD],
        "run config",
        "cost_per_token 1e+308 overflows a bill",
        id="price-bill-overflows",
    ),
    pytest.param(
        _with_config(
            {"pool": _pool_priced(1e308), "engine": ONE_TOKEN_ENGINE},
            _with_bytes(
                "overflow.jsonl",
                json.dumps({"raw": TWO_TOKEN_REPLY}).encode() + b"\n",
                _reward_check("overflow.jsonl", config="cfg.json"),
            ),
        ),
        "{dir}/overflow.jsonl:1",
        "re-priced cost is not finite",
        id="reward-check-cost-overflows",
    ),
    # a trainer whose features hold only the round one-hot
    pytest.param(
        _with_config(
            {
                "pool": _pool_mapping(),
                "engine": {"max_routing_steps": 7},
                "trainer": {"feature_dim": 8, "steps": 1, "batch_size": 1},
            },
            lambda workdir: [
                "train",
                "--config", str(workdir / "cfg.json"),
                "--tasks", str(workdir / "tasks.jsonl"),
            ],
        ),
        "trainer",
        "feature_dim too small",
        id="train-feature-dim-too-small",
    ),
    pytest.param(
        lambda workdir: [
            "serve",
            "--config", str(workdir / "route.json"),
            "--bind", "127.0.0.1:0",
            "--max-inflight", "-1",
        ],
        "serve",
        "--max-inflight must be >= 0",
        id="serve-max-inflight-negative",
    ),
    # a task file with no rows, empty or blank
    pytest.param(
        _with_bytes("empty.jsonl", b"", _eval_into("empty.jsonl")),
        "{dir}/empty.jsonl",
        "no tasks",
        id="eval-empty-task-file",
    ),
    pytest.param(
        _with_bytes(
            "blank.jsonl",
            b"\n  \n",
            lambda workdir: [
                "train",
                "--config", str(workdir / "eval.json"),
                "--tasks", str(workdir / "blank.jsonl"),
            ],
        ),
        "{dir}/blank.jsonl",
        "no tasks",
        id="train-empty-task-file",
    ),
    # number fields holding NaN or an infinity, which JSON files can spell
    pytest.param(
        lambda workdir: _top_level(reward={"epsilon": float("nan")})(workdir)
        + ["--gold", FILM_GOLD],
        "reward",
        "epsilon must be a finite number",
        id="reward-epsilon-nan",
    ),
    pytest.param(
        _train_with({"learning_rate": float("nan")}),
        "trainer",
        "learning_rate must be a finite number",
        id="trainer-learning-rate-nan",
    ),
    pytest.param(
        _train_with({"beta": float("inf")}),
        "trainer",
        "beta must be a finite number",
        id="trainer-beta-infinity",
    ),
    pytest.param(
        _train_with({"temperature": float("nan")}),
        "trainer",
        "temperature must be a finite number",
        id="trainer-temperature-nan",
    ),
    pytest.param(
        _model(backend={"type": "http", "model": "m", "temperature": float("nan")}),
        "pool model #0",
        "temperature must be a finite number",
        id="http-backend-temperature-nan",
    ),
    pytest.param(
        _top_level(policy={"kind": "http", "model": "p", "temperature": float("inf")}),
        "http policy",
        "temperature must be a finite number",
        id="http-policy-temperature-infinity",
    ),
    # negative seeds, which numpy's generator refuses
    pytest.param(
        _train_with({}, "--seed", "-1"),
        "trainer",
        "seed must be nonnegative",
        id="train-seed-negative",
    ),
    pytest.param(
        _with_params(seed=-1),
        "run config",
        "seed must be nonnegative",
        id="route-seed-negative",
    ),
    # an integer literal longer than Python converts
    pytest.param(
        _with_bytes(
            "long_int.json",
            b'{"pool": {"models": []}, "seed": ' + b"1" * 5000 + b"}",
            lambda workdir: [
                "route",
                "--config", str(workdir / "long_int.json"),
                "--question", FILM_Q,
            ],
        ),
        "config file {dir}/long_int.json",
        "Exceeds the limit (4300 digits)",
        id="config-integer-over-4300-digits",
    ),
    pytest.param(
        _with_bytes(
            "long_int.jsonl",
            b'{"id": ' + b"1" * 5000 + b', "question": "q?", "golden_answers": ["x"]}',
            _eval_into("long_int.jsonl"),
        ),
        "line 1",
        "Exceeds the limit (4300 digits)",
        id="task-integer-over-4300-digits",
    ),
    # a path holding a NUL byte, which no file name can hold
    pytest.param(
        _top_level(policy={"kind": "scripted", "script_path": "/a\u0000b"}),
        "scripted policy '/a\\x00b'",
        "a path cannot hold a NUL byte",
        id="script-path-nul-byte",
    ),
    pytest.param(
        _top_level(pool="/po\u0000ol.json"),
        "pool config '/po\\x00ol.json'",
        "a path cannot hold a NUL byte",
        id="pool-path-nul-byte",
    ),
    pytest.param(
        _top_level(policy={"kind": "params", "path": "/p\u0000q"}),
        "params policy '/p\\x00q'",
        "a path cannot hold a NUL byte",
        id="params-path-nul-byte",
    ),
    pytest.param(
        _sim_backend(kb_path="/k\u0000b.jsonl"),
        "pool model #0: kb_path '/k\\x00b.jsonl'",
        "a path cannot hold a NUL byte",
        id="kb-path-nul-byte",
    ),
    # an integer too large for a float in a number field
    pytest.param(
        _top_level(reward={"epsilon": int("1" * 400)}),
        "reward",
        "epsilon must be a finite number",
        id="reward-epsilon-oversized-int",
    ),
    pytest.param(
        _top_level(eval_warmup_costs=[1.0, int("1" * 400)]),
        "run config",
        "eval_warmup_costs[1] must be a finite number",
        id="warmup-cost-oversized-int",
    ),
    # ... and in a params file: a weight no float can hold, and a feature_dim
    # that the error line shows cut short
    pytest.param(
        _with_params(weights=[[int("1" * 400), 0.0, 0.0]] + [[0.0] * 3] * 63),
        "params policy {dir}/params.json",
        "bad params file: OverflowError: int too large to convert to float",
        id="params-weight-400-digits",
    ),
    pytest.param(
        _with_params(feature_dim=int("1" * 400)),
        "params policy {dir}/params.json",
        "weights must have shape (" + "1" * 18 + "..." + "1" * 19 + ", 3), got (64, 3)",
        id="params-feature-dim-400-digits",
    ),
    # a --bind port that no socket can bind
    *[
        pytest.param(
            _serve_bind(bind),
            "serve",
            "--bind must be host:port with a port from 0 to 65535",
            id=f"bind-port-{name}",
        )
        for name, bind in (
            ("out-of-range", "127.0.0.1:99999"),
            ("not-ascii", "127.0.0.1:\u00b2"),
            ("5000-digits", "127.0.0.1:" + "1" * 5000),
        )
    ],
    # a knowledge-base path that is not a string
    pytest.param(
        _sim_backend(kb_path=5),
        "pool model #0",
        "kb_path must be a string",
        id="kb-path-not-string",
    ),
    pytest.param(
        _sim_backend(kb_path=False),
        "pool model #0",
        "kb_path must be a string",
        id="kb-path-false",
    ),
    # a path key that is present and falsy, which names no file
    pytest.param(
        _top_level(policy={"kind": "scripted", "script": [], "script_path": False}),
        "scripted policy",
        "script_path must be a string",
        id="script-path-false",
    ),
    pytest.param(
        _top_level(policy={"kind": "scripted", "script_path": 0}),
        "scripted policy",
        "script_path must be a string",
        id="script-path-zero",
    ),
    pytest.param(
        _top_level(policy={"kind": "scripted", "script": [], "script_path": ""}),
        "scripted policy",
        "script_path must not be empty",
        id="script-path-empty",
    ),
    pytest.param(
        _sim_backend(kb_path=""),
        "pool model #0",
        "kb_path must not be empty",
        id="kb-path-empty",
    ),
    # JSON files holding a byte that is not UTF-8, each read the same way
    pytest.param(
        _with_bytes(
            "latin1_params.json",
            b'{"feature_dim": "\xff"}',
            _top_level(policy={"kind": "params", "path": "latin1_params.json"}),
        ),
        "params policy {dir}/latin1_params.json",
        "not UTF-8 text",
        id="params-file-not-utf8",
    ),
    pytest.param(
        _with_bytes(
            "latin1_script.json",
            b'["caf\xe9"]',
            _top_level(
                policy={"kind": "scripted", "script_path": "latin1_script.json"}
            ),
        ),
        "scripted policy {dir}/latin1_script.json",
        "not UTF-8 text",
        id="script-file-not-utf8",
    ),
    pytest.param(
        _with_bytes(
            "latin1_pool.json",
            b'{"models": "\xff"}',
            _top_level(pool="latin1_pool.json"),
        ),
        "pool config {dir}/latin1_pool.json",
        "not UTF-8 text",
        id="pool-file-not-utf8",
    ),
    # a misspelled key in an object read outside a dataclass section
    pytest.param(
        _top_level(rewards={"alpha": 0.9}),
        "run config",
        "unknown key 'rewards'",
        id="top-level-unknown-key",
    ),
    pytest.param(
        _top_level(eval_warmup_cost=[1.0]),
        "run config",
        "unknown key 'eval_warmup_cost'",
        id="top-level-misspelled-warmup-costs",
    ),
    pytest.param(
        _route_with(lambda c: c["pool"].update(extra=1)),
        "pool config",
        "unknown key 'extra'",
        id="pool-config-unknown-key",
    ),
    pytest.param(
        _top_level(lexicon={"rout": ["<search>", "</search>"]}),
        "lexicon",
        "unknown key 'rout'",
        id="lexicon-unknown-key",
    ),
    pytest.param(
        _top_level(policy={"kind": "scripted", "scirpt": FILM_SCRIPT}),
        "scripted policy",
        "unknown key 'scirpt'",
        id="scripted-policy-unknown-key",
    ),
    pytest.param(
        _top_level(policy={"kind": "params", "path": "p.json", "temprature": 5}),
        "params policy",
        "unknown key 'temprature'",
        id="params-policy-unknown-key",
    ),
    # an empty pool path, which names the config's own directory
    pytest.param(
        _top_level(pool=""),
        "run config",
        "pool must not be empty",
        id="pool-path-empty",
    ),
    # a null path, script or alias list, which is no more a value than ""
    pytest.param(
        _sim_backend(kb_path=None),
        "pool model #0",
        "kb_path must be a string",
        id="kb-path-null",
    ),
    pytest.param(
        _top_level(policy={"kind": "scripted", "script": [], "script_path": None}),
        "scripted policy",
        "script_path must be a string",
        id="script-path-null",
    ),
    pytest.param(
        _top_level(policy={"kind": "scripted", "script": None}),
        "scripted policy",
        "script must be a list of strings or a mapping of such lists",
        id="script-null",
    ),
    pytest.param(
        _top_level(lexicon={"info_aliases": None}),
        "lexicon",
        "info_aliases must be (open, close) pairs",
        id="info-aliases-null",
    ),
    # a path holding a lone surrogate, which no file name can encode
    pytest.param(
        _top_level(pool="/po\ud800ol.json"),
        "pool config '/po\\ud800ol.json'",
        "a path cannot be encoded as a file name",
        id="pool-path-surrogate",
    ),
    pytest.param(
        _sim_backend(kb_path="/k\ud800b.jsonl"),
        "pool model #0: kb_path '/k\\ud800b.jsonl'",
        "a path cannot be encoded as a file name",
        id="kb-path-surrogate",
    ),
    pytest.param(
        _top_level(policy={"kind": "params", "path": "/p\ud800q"}),
        "params policy '/p\\ud800q'",
        "a path cannot be encoded as a file name",
        id="params-path-surrogate",
    ),
    # a model id holding a lone surrogate, which the eval table cannot print
    pytest.param(
        _model(id="llama\ud800"),
        "pool model #0",
        "id holds a lone surrogate at index 5",
        id="model-id-surrogate",
    ),
    # a field the loader fills in itself
    pytest.param(
        _sim_backend(knowledge_base={}),
        "pool model #0",
        "unknown key 'knowledge_base'",
        id="sim-knowledge-base-key",
    ),
    pytest.param(
        _top_level(engine={"lexicon": {}}),
        "engine",
        "unknown key 'lexicon'",
        id="engine-lexicon-key",
    ),
    pytest.param(
        _top_level(policy={"kind": "http", "lexicon": {}}),
        "http policy",
        "unknown key 'lexicon'",
        id="http-policy-lexicon-key",
    ),
    # inline data beside a path to the same data
    pytest.param(
        _with_bytes(
            "kb.jsonl",
            b'{"key": "q?", "answer": "a"}\n',
            _sim_backend(kb_path="kb.jsonl"),
        ),
        "pool model #0",
        "give kb or kb_path, not both",
        id="kb-and-kb-path",
    ),
    pytest.param(
        _with_bytes(
            "script.json",
            json.dumps(FILM_SCRIPT).encode(),
            _top_level(
                policy={
                    "kind": "scripted",
                    "script": FILM_SCRIPT,
                    "script_path": "script.json",
                }
            ),
        ),
        "scripted policy",
        "give script or script_path, not both",
        id="script-and-script-path",
    ),
    # a context too long to pad a simulated reply to; refused at load time,
    # so nothing this large is allocated
    pytest.param(
        _route_with(
            lambda c: (
                c.update(
                    engine={
                        "max_sequence_tokens": 10**19,
                        "max_api_response_tokens": 10**19,
                    }
                ),
                c["pool"]["models"][0]["backend"].update(verbosity=10**19),
            )
        ),
        "engine",
        f"max_sequence_tokens must be at most {MAX_SEQUENCE_TOKENS}",
        id="sequence-tokens-over-bound",
    ),
]


@pytest.mark.parametrize("argv, context, reason", BAD_INPUTS)
def test_bad_inputs_exit_2_with_one_error_line(workdir, capsys, argv, context, reason):
    (workdir / "not.json").write_text("{nope")
    (workdir / "no_weights.json").write_text(json.dumps({"feature_dim": 64}))
    code = main(argv(workdir))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    prefix = f"error: {context.format(dir=workdir)}: "
    assert captured.err.startswith(prefix)
    assert reason.format(dir=workdir) in captured.err[len(prefix) :]


@pytest.mark.parametrize(
    "argv, context, reason", [p for p in BAD_INPUTS if p.id.endswith("-nul-byte")]
)
def test_nul_byte_in_a_path_is_shown_escaped(workdir, capsys, argv, context, reason):
    assert main(argv(workdir)) == 2
    err = capsys.readouterr().err
    assert "\x00" not in err
    assert err == f"error: {context}: {reason}\n"


@pytest.mark.parametrize("verbosity", [10**19, 10**30])
def test_huge_verbosity_pads_only_what_dispatch_keeps(workdir, capsys, verbosity):
    """A sim reply is padded to one token over the dispatch cap at most, so
    a verbosity no list could hold routes like one just over the cap."""
    records = []
    for value in (verbosity, DEFAULT_MAX_API_RESPONSE_TOKENS + 1):
        assert main(_sim_backend(verbosity=value)(workdir)) == 0
        records.append(json.loads(capsys.readouterr().out))
    assert records[0] == records[1]
    [call] = records[0]["calls"]
    assert call["output_tokens"] == DEFAULT_MAX_API_RESPONSE_TOKENS


@pytest.mark.parametrize(
    "argv, context, reason",
    [p for p in BAD_INPUTS if p.id.endswith("-oversized-int")],
)
def test_oversized_integer_names_its_field(workdir, capsys, argv, context, reason):
    assert main(argv(workdir)) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(
        rf"error: {context}: {re.escape(reason)}, got 1{{10,}}\.\.\.1{{10,}}\n",
        err,
    )


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(
            _with_bytes(
                "latin1_params.json",
                b'{"actions": ["caf\xe9"], "pad": "' + b"x" * 1960 + b'"}',
                _top_level(policy={"kind": "params", "path": "latin1_params.json"}),
            ),
            id="params-not-utf8",
        ),
        pytest.param(_top_level(seed="x" * 50000), id="seed-50k"),
        pytest.param(
            _model(backend={"type": "x" * 50000}), id="backend-type-50k"
        ),
        pytest.param(_top_level(policy={"kind": "x" * 50000}), id="policy-kind-50k"),
        pytest.param(
            _with_bytes(
                "dup.jsonl",
                2 * (json.dumps({"id": "x" * 50000, "question": "q?",
                                 "golden_answers": ["a"]}) + "\n").encode(),
                _eval_into("dup.jsonl"),
            ),
            id="duplicate-task-id-50k",
        ),
        pytest.param(
            _with_task_row({"id": ["x"] * 50000, "question": "q?",
                            "golden_answers": ["a"]}),
            id="task-id-list-50k",
        ),
        pytest.param(
            _top_level(lexicon={"route": ["<think>" + "x" * 50000, "</route>"]}),
            id="lexeme-50k",
        ),
        pytest.param(
            lambda workdir: [
                "serve", "--config", str(workdir / "route.json"), "--bind", "x" * 50000
            ],
            id="bind-50k",
        ),
        pytest.param(_top_level(engine={"x" * 5000: 1}), id="engine-key-5k"),
        pytest.param(
            _with_params(weights=[["x" * 5000, 0.0, 0.0]] + [[0.0] * 3] * 63),
            id="params-weight-5k",
        ),
        pytest.param(
            _with_params(feature_dim=int("1" * 400)), id="params-feature-dim-400-digits"
        ),
    ],
)
def test_error_lines_are_bounded(workdir, capsys, argv):
    code = main(argv(workdir))
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1
    assert len(err.encode()) < 300


# Values that replace one leaf of a run config at a time: JSON's types at and
# past their edges, a NUL and a lone surrogate ("\ud800" in the file).
HOSTILE_VALUES = (
    None, "", 0, -1, 1, True, False, 1e308, -1e308, 10**19, 10**30, 10**400,
    0.5, [], {}, [1], {"a": 1}, "\u0000", "\ud800",
)


def _full_run_configs():
    """A scripted and a params run config that set every section and field
    and differ only in policy.  The second model reads its knowledge base
    from ``kb.jsonl``."""
    pool = _pool_mapping()
    backend = pool["models"][1]["backend"]
    del backend["kb"]
    backend.update(kb_path="kb.jsonl", accuracy=1.0)
    base = {
        "pool": pool,
        "engine": {
            "max_routing_steps": 4,
            "max_response_tokens": 512,
            "max_sequence_tokens": 2048,
            "max_api_response_tokens": 64,
            "timeout_ms": 1000.0,
        },
        "lexicon": {
            "think": ["<think>", "</think>"],
            "route": ["<search>", "</search>"],
            "info": ["<information>", "</information>"],
            "answer": ["<answer>", "</answer>"],
            "info_aliases": [["<info>", "</info>"]],
        },
        "reward": {
            "alpha": 0.5,
            "window_capacity": 100,
            "epsilon": 1e-6,
            "percentile_lo": 5.0,
            "percentile_hi": 95.0,
        },
        "trainer": {
            "learning_rate": 0.2,
            "batch_size": 2,
            "steps": 3,
            "beta": 0.01,
            "baseline_momentum": 0.9,
            "seed": 1,
            "feature_dim": 64,
            "temperature": 1.0,
        },
        "seed": 3,
        "eval_warmup_costs": [1.0, 2.0],
    }
    return [
        {**base, "policy": {"kind": "scripted", "script": FILM_SCRIPT}},
        {**base, "policy": {"kind": "params", "path": "params.json"}},
    ]


def _leaf_paths(value, path=()):
    """The key path of every leaf of a JSON value; an empty container is a
    leaf."""
    if isinstance(value, dict) and value:
        items = value.items()
    elif isinstance(value, list) and value:
        items = enumerate(value)
    else:
        return [path]
    return [leaf for key, item in items for leaf in _leaf_paths(item, (*path, key))]


def _replaced(config, path, value):
    config = json.loads(json.dumps(config))
    target = config
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return config


def test_every_hostile_leaf_runs_or_exits_2_with_one_line(workdir, capsys):
    """Each leaf of a full run config, replaced by each hostile value, gives
    `route` a run or one error line; `eval` gets a seeded sample of them."""
    (workdir / "kb.jsonl").write_text(
        json.dumps({"key": DENTAL_Q, "answer": "lamina dura"}) + "\n"
    )
    _with_params()(workdir)  # writes params.json
    config_path = workdir / "mutant.json"
    route = ["route", "--config", str(config_path), "--question", FILM_Q]
    tasks = str(workdir / "tasks.jsonl")
    evaluate = ["eval", "--config", str(config_path), "--tasks", tasks]
    scripted, params = _full_run_configs()
    # The two configs differ only in policy, so the params one adds its own.
    leaves = [(scripted, path) for path in _leaf_paths(scripted)]
    leaves += [(params, path) for path in _leaf_paths(params["policy"], ("policy",))]
    mutants = [(c, path, value) for c, path in leaves for value in HOSTILE_VALUES]
    rng = random.Random(17)
    runs = [(route, mutant) for mutant in mutants]
    runs += [(evaluate, mutant) for mutant in rng.sample(mutants, 100)]
    exits = set()
    for argv, (config, path, value) in runs:
        config_path.write_text(json.dumps(_replaced(config, path, value)))
        code = main(argv)
        out, err = capsys.readouterr()
        case = f"{argv[0]} {path} = {value!r:.40}: exit {code}, stderr {err!r:.200}"
        assert code in (0, 2), case
        if code == 2:
            assert out == "" and err.count("\n") == 1 and err.endswith("\n"), case
        exits.add(code)
    assert exits == {0, 2}


def test_integer_price_bills_a_float_cost(workdir, capsys):
    mapping = _pool_mapping()
    mapping["models"][0]["cost_per_token"] = 2
    config = {"pool": mapping, "policy": {"kind": "scripted", "script": FILM_SCRIPT}}
    path = workdir / "int_price.json"
    path.write_text(json.dumps(config))
    assert main(["route", "--config", str(path), "--question", FILM_Q]) == 0
    record = json.loads(capsys.readouterr().out)
    (call,) = record["calls"]
    assert call["output_tokens"] == 48
    assert isinstance(call["cost"], float) and call["cost"] == 96.0


# ---------------------------------------------------------------------------
# route and serve share one Router
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("golds", [None, [FILM_GOLD]], ids=["unscored", "scored"])
def test_route_prints_the_body_post_route_returns(workdir, capsys, golds):
    config = str(workdir / "route.json")
    server = build_server(load_run_config(config), "127.0.0.1", 0)
    thread = threading.Thread(
        target=server.serve_forever, args=(POLL_INTERVAL_S,), daemon=True
    )
    thread.start()
    try:
        payload = {"question": FILM_Q}
        if golds:
            payload["golds"] = golds
        response = requests.post(
            f"http://127.0.0.1:{server.server_port}/route", json=payload, timeout=10
        )
    finally:
        server.shutdown()
        server.server_close()
    assert response.status_code == 200
    gold_flags = ["--gold", golds[0]] if golds else []
    assert main(["route", "--config", config, "--question", FILM_Q, *gold_flags]) == 0
    assert capsys.readouterr().out == response.text + "\n"


def test_serve_hands_flag_overrides_to_the_server(workdir, monkeypatch):
    served = []
    monkeypatch.setattr(
        cli, "serve_forever", lambda run, host, port, max_inflight: served.append(run)
    )
    argv = ["serve", "--config", str(workdir / "route.json"), "--bind", "127.0.0.1:0"]
    assert main(argv + ["--alpha", "0.0", "--seed", "7"]) == 0
    assert main(argv) == 0
    assert [(run.reward.alpha, run.seed) for run in served] == [(0.0, 7), (0.9, 0)]


# ---------------------------------------------------------------------------
# a policy endpoint that fails: one error line and exit 1
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        lambda config, workdir: ["route", "--config", config, "--question", FILM_Q],
        lambda config, workdir: [
            "eval", "--config", config, "--tasks", str(workdir / "tasks.jsonl")
        ],
    ],
    ids=["route", "eval"],
)
def test_policy_endpoint_failure_exits_1_with_one_error_line(
    workdir, capsys, monkeypatch, argv
):
    monkeypatch.delenv("MULTIROUTE_POLICY_URL", raising=False)
    path = workdir / "http_policy.json"
    path.write_text(
        json.dumps({"pool": _pool_mapping(), "policy": {"kind": "http", "model": "p"}})
    )
    code = main(argv(str(path), workdir))
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == (
        "error: policy: backend returned status 0: "
        "environment variable MULTIROUTE_POLICY_URL is not set\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        lambda config, workdir: ["route", "--config", config, "--question", FILM_Q],
        lambda config, workdir: [
            "eval", "--config", config, "--tasks", str(workdir / "tasks.jsonl")
        ],
    ],
    ids=["route", "eval"],
)
def test_unusable_policy_url_exits_1_with_one_error_line(
    workdir, capsys, monkeypatch, argv
):
    monkeypatch.setenv("MULTIROUTE_POLICY_URL", "not-a-url")
    path = workdir / "http_policy.json"
    path.write_text(
        json.dumps({"pool": _pool_mapping(), "policy": {"kind": "http", "model": "p"}})
    )
    code = main(argv(str(path), workdir))
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(
        "error: policy: backend returned status 0: Invalid URL 'not-a-url'"
    )


# A params file that passes every load check, whose decisions overflow:
# a weight over a temperature of 1e-320 is infinite, and every logit with it.
OVERFLOWING_PARAMS = {"temperature": 1e-320, "weights": [[1.0] * 3] * 64}


def _eval_with_params(**values):
    """argv for `eval` of the workdir tasks under ``_with_params``' policy."""

    def build(workdir):
        route_argv = _with_params(**values)(workdir)
        return [
            "eval", "--config", route_argv[2], "--tasks", str(workdir / "tasks.jsonl")
        ]

    return build


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(_with_params(**OVERFLOWING_PARAMS), id="route"),
        pytest.param(_eval_with_params(**OVERFLOWING_PARAMS), id="eval"),
    ],
)
def test_non_finite_decision_exits_1_with_one_error_line(workdir, capsys, argv):
    code = main(argv(workdir))
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: policy: action probabilities are not finite\n"


def test_unsendable_policy_key_exits_1_without_showing_it(workdir, capsys, monkeypatch):
    monkeypatch.setenv("MULTIROUTE_POLICY_URL", "http://127.0.0.1:9/")
    monkeypatch.setenv("MULTIROUTE_POLICY_KEY", "s3cr3t\nvalue")
    path = workdir / "http_policy.json"
    path.write_text(
        json.dumps({"pool": _pool_mapping(), "policy": {"kind": "http", "model": "p"}})
    )
    code = main(["route", "--config", str(path), "--question", FILM_Q])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == (
        "error: policy: backend returned status 0: "
        "MULTIROUTE_POLICY_KEY is not printable ASCII\n"
    )


def test_policy_url_with_an_empty_host_label_exits_1_with_one_error_line(
    workdir, capsys, monkeypatch
):
    monkeypatch.setenv("MULTIROUTE_POLICY_URL", "http://a..b/")
    path = workdir / "http_policy.json"
    path.write_text(
        json.dumps({"pool": _pool_mapping(), "policy": {"kind": "http", "model": "p"}})
    )
    code = main(["route", "--config", str(path), "--question", FILM_Q])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: policy: backend returned status 0: ")
