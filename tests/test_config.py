"""Run-config loading tests: pool specs, sections, overrides, lexicons."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from http_stub import chat_body, start_scripted_server, stop_server

from multiroute.config import (
    ConfigError,
    load_pool_config,
    load_run_config,
    policy_factory,
)
from multiroute.engine import EngineConfig
from multiroute.policies import HttpPolicy
from multiroute.pool import HttpBackend, SimulatedBackend, dispatch
from multiroute.rewards import RewardConfig
from multiroute.trainer import PolicyParams, TrainConfig


def _pool_mapping():
    return {
        "models": [
            {
                "id": "sim-small",
                "display_name": "Sim-Small",
                "param_count_b": 7,
                "cost_per_token": 0.1,
                "descriptor_text": "small simulated model",
                "backend": {
                    "type": "sim",
                    "kb": {"capital of peru": "Lima"},
                    "accuracy": 0.8,
                    "verbosity": 12,
                    "seed": 4,
                },
            },
            {
                "id": "remote-big",
                "param_count_b": 70,
                "cost_per_token": 1.5,
                "descriptor_text": "remote model",
                "backend": {
                    "type": "http",
                    "model": "remote-big-v1",
                    "url_env": "MY_URL",
                    "temperature": 0.3,
                },
            },
        ]
    }


def test_load_pool_inline_mapping():
    pool = load_pool_config(_pool_mapping())
    assert len(pool) == 2
    small = pool.get("sim-small")
    assert small.display_name == "Sim-Small"
    assert isinstance(small.backend, SimulatedBackend)
    assert small.backend.profile.accuracy == 0.8
    assert small.backend.profile.knowledge_base == {"capital of peru": "Lima"}
    big = pool.get("remote-big")
    assert big.display_name == "remote-big"  # defaults to the id
    assert isinstance(big.backend, HttpBackend)
    assert big.backend.model == "remote-big-v1"
    assert big.backend.url_env == "MY_URL"
    assert big.backend.temperature == 0.3


def test_load_pool_from_file_resolves_kb_path(tmp_path):
    kb_path = tmp_path / "kb.jsonl"
    kb_path.write_text(json.dumps({"key": "The Question?", "answer": "A"}) + "\n")
    mapping = _pool_mapping()
    mapping["models"][0]["backend"] = {"type": "sim", "kb_path": "kb.jsonl"}
    pool_path = tmp_path / "pool.json"
    pool_path.write_text(json.dumps(mapping))
    pool = load_pool_config(str(pool_path))
    profile = pool.get("sim-small").backend.profile
    assert profile.knowledge_base == {"question": "A"}


@pytest.mark.parametrize(
    "mutate",
    [
        lambda m: m.pop("models"),
        lambda m: m.update(models=[]),
        lambda m: m["models"][0].pop("backend"),
        lambda m: m["models"][0]["backend"].update(type="quantum"),
        lambda m: m["models"][0].pop("cost_per_token"),
        lambda m: m["models"][1]["backend"].pop("model"),
        lambda m: m["models"][0].update(param_count_b=0),
        lambda m: m["models"][1].update(id="sim-small"),  # duplicate
    ],
)
def test_load_pool_rejects_bad_specs(mutate):
    mapping = _pool_mapping()
    mutate(mapping)
    with pytest.raises(ConfigError):
        load_pool_config(mapping)


def test_load_pool_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        load_pool_config("no/such/pool.json")


def test_load_pool_bad_kb_file(tmp_path):
    (tmp_path / "kb.jsonl").write_text("{broken\n")
    mapping = _pool_mapping()
    mapping["models"][0]["backend"] = {"type": "sim", "kb_path": "kb.jsonl"}
    pool_path = tmp_path / "pool.json"
    pool_path.write_text(json.dumps(mapping))
    with pytest.raises(ConfigError):
        load_pool_config(str(pool_path))


# ---------------------------------------------------------------------------
# run configs
# ---------------------------------------------------------------------------


def _write_run_config(tmp_path, extra=None, pool=None):
    data = {"pool": pool or _pool_mapping()}
    data.update(extra or {})
    path = tmp_path / "run.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_load_run_config_defaults(tmp_path):
    run = load_run_config(_write_run_config(tmp_path))
    assert len(run.pool) == 2
    assert run.engine.max_routing_steps == 4
    assert run.reward.alpha == 0.0
    assert run.trainer.steps == 225
    assert run.policy == {"kind": "scripted", "script": []}
    assert run.seed == 0
    assert run.eval_warmup_costs == ()
    assert run.base_dir == str(tmp_path)


def test_load_run_config_sections_and_pool_path(tmp_path):
    pool_path = tmp_path / "pool.json"
    pool_path.write_text(json.dumps(_pool_mapping()))
    path = _write_run_config(
        tmp_path,
        pool="pool.json",
        extra={
            "engine": {"max_routing_steps": 2, "max_sequence_tokens": 2048},
            "reward": {"alpha": 0.6, "window_capacity": 500},
            "trainer": {"steps": 10, "batch_size": 8},
            "policy": {"kind": "params", "path": "params.json"},
            "seed": 9,
            "eval_warmup_costs": [0.0, 4.0],
        },
    )
    run = load_run_config(path)
    assert len(run.pool) == 2
    assert run.engine.max_routing_steps == 2
    assert run.engine.max_sequence_tokens == 2048
    assert run.reward.alpha == 0.6
    assert run.reward.window_capacity == 500
    assert run.trainer.steps == 10
    assert run.policy["kind"] == "params"
    assert run.seed == 9
    assert run.eval_warmup_costs == (0.0, 4.0)


def test_overrides_beat_file_values(tmp_path):
    path = _write_run_config(
        tmp_path, extra={"reward": {"alpha": 0.9}, "trainer": {"steps": 50}}
    )
    run = load_run_config(
        path,
        {
            "reward.alpha": 0.2,
            "trainer.steps": None,  # None overrides are ignored
            "seed": 3,
        },
    )
    assert run.reward.alpha == 0.2
    assert run.trainer.steps == 50
    assert run.seed == 3


def test_override_into_missing_section(tmp_path):
    path = _write_run_config(tmp_path)
    run = load_run_config(path, {"engine.max_routing_steps": 1})
    assert run.engine.max_routing_steps == 1


def test_custom_lexicon_section(tmp_path):
    path = _write_run_config(
        tmp_path,
        extra={
            "lexicon": {
                "think": ["[plan]", "[/plan]"],
                "route": ["[ask]", "[/ask]"],
                "info": ["[got]", "[/got]"],
                "answer": ["[final]", "[/final]"],
                "info_aliases": [],
            }
        },
    )
    run = load_run_config(path)
    assert run.engine.lexicon.route_open == "[ask]"
    assert run.engine.lexicon.info_aliases == ()
    # unspecified kinds keep their defaults
    path2 = _write_run_config(tmp_path, extra={"lexicon": {"route": ["[a]", "[/a]"]}})
    run2 = load_run_config(path2)
    assert run2.engine.lexicon.route_open == "[a]"
    assert run2.engine.lexicon.think_open == "<think>"


@pytest.mark.parametrize(
    "extra",
    [
        {"engine": {"max_routing_steps": 4, "warp_drive": 1}},
        {"reward": {"alpha": 2.0}},
        {"trainer": {"steps": -5}},
        {"policy": {"script": []}},  # no kind
        {"policy": "scripted"},
        {"lexicon": {"think": ["<t>"]}},
        {"lexicon": {"think": ["<x>", "<x>y"], "route": ["<r>", "</r>"]}},
        {"eval_warmup_costs": [1.0, "cheap"]},
    ],
)
def test_run_config_rejects_bad_sections(tmp_path, extra):
    path = _write_run_config(tmp_path, extra=extra)
    with pytest.raises(ConfigError):
        load_run_config(path)


def test_run_config_file_errors(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_run_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_run_config(str(bad))
    array = tmp_path / "array.json"
    array.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="object"):
        load_run_config(str(array))


def test_run_config_requires_a_pool(tmp_path):
    path = tmp_path / "no_pool.json"
    path.write_text(json.dumps({"seed": 1}))
    with pytest.raises(ConfigError, match=r"^run config: missing required key 'pool'$"):
        load_run_config(str(path))


def test_params_policy_requires_a_path(tmp_path):
    path = _write_run_config(tmp_path, extra={"policy": {"kind": "params"}})
    run = load_run_config(path)
    with pytest.raises(ConfigError, match=r"^params policy: 'path' is required$"):
        policy_factory(run)


# ---------------------------------------------------------------------------
# sections built by the classes that own them
# ---------------------------------------------------------------------------


def _set(path, value):
    """Mutation that sets ``mapping[path[0]]...[path[-1]] = value``."""

    def mutate(mapping):
        target = mapping
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value

    return mutate


@pytest.mark.parametrize(
    "mutate",
    [
        # unknown keys
        _set(["models", 0, "vendor"], "acme"),
        _set(["models", 0, "backend", "temperature"], 0.1),
        _set(["models", 1, "backend", "accuracy"], 1.0),
        # values the owning class rejects
        _set(["models", 0, "cost_per_token"], float("nan")),
        _set(["models", 0, "param_count_b"], float("inf")),
        _set(["models", 0, "backend", "verbosity"], float("inf")),
        _set(["models", 0, "backend", "kb"], ["capital of peru"]),
        _set(["models", 0, "backend", "kb_path"], 5),
        _set(["models", 0, "backend"], "sim"),
        _set(["models", 1, "backend", "temperature"], "warm"),
        _set(["models", 1, "backend", "model"], ""),
    ],
)
def test_pool_sections_reject_unknown_keys_and_bad_values(mutate):
    mapping = _pool_mapping()
    mutate(mapping)
    with pytest.raises(ConfigError, match=r"^pool model #[01]: "):
        load_pool_config(mapping)


@pytest.mark.parametrize(
    "extra, context",
    [
        ({"engine": {"max_routing_steps": "4"}}, "engine"),
        ({"engine": {"lexicon": {}}}, "engine"),
        ({"lexicon": {"think": [1, 2]}}, "lexicon"),
        ({"lexicon": {"info_aliases": ["<i>"]}}, "lexicon"),
        ({"lexicon": "plain"}, "lexicon"),
        ({"eval_warmup_costs": [float("nan")]}, "run config"),
        ({"eval_warmup_costs": "12"}, "run config"),
        ({"seed": float("inf")}, "run config"),
        ({"trainer": {"batch_size": 2.5}}, "trainer"),
        ({"trainer": {"steps": True}}, "trainer"),
        ({"trainer": {"learning_rate": "0.1"}}, "trainer"),
        ({"engine": {"timeout_ms": "30"}}, "engine"),
        ({"engine": {"max_response_tokens": 64.0}}, "engine"),
        ({"reward": {"alpha": False}}, "reward"),
        ({"reward": {"window_capacity": None}}, "reward"),
        ({"engine": {"timeout_ms": 0}}, "engine"),
        ({"engine": {"timeout_ms": -5}}, "engine"),
        ({"engine": {"timeout_ms": float("nan")}}, "engine"),
        ({"seed": 2.9}, "run config"),
        ({"seed": True}, "run config"),
        ({"eval_warmup_costs": [True, False]}, "run config"),
    ],
)
def test_run_config_sections_name_their_context(tmp_path, extra, context):
    path = _write_run_config(tmp_path, extra=extra)
    with pytest.raises(ConfigError, match=f"^{context}: "):
        load_run_config(path)


@pytest.mark.parametrize(
    "section",
    [
        {"kind": "http", "model": "m", "retries": 2},
        {"kind": "http", "model": "m", "temperature": "warm"},
        {"kind": "http", "model": ""},
        {"kind": "http"},
        {"kind": "http", "model": "m", "timeout_ms": 0},
        {"kind": "http", "model": "m", "timeout_ms": -5},
        {"kind": "http", "model": "m", "timeout_ms": float("nan")},
    ],
)
def test_http_policy_section_is_built_by_http_policy(tmp_path, section):
    run = load_run_config(_write_run_config(tmp_path, extra={"policy": section}))
    with pytest.raises(ConfigError, match="^http policy: "):
        policy_factory(run)


def test_http_policy_section_values_reach_the_policy(tmp_path):
    section = {
        "kind": "http",
        "model": "policy-v2",
        "url_env": "MY_POLICY_URL",
        "temperature": 1,
        "timeout_ms": 500,
    }
    run = load_run_config(_write_run_config(tmp_path, extra={"policy": section}))
    policy = policy_factory(run)(None)
    assert isinstance(policy, HttpPolicy)
    assert (policy.model, policy.url_env, policy.api_key_env) == (
        "policy-v2",
        "MY_POLICY_URL",
        "MULTIROUTE_POLICY_KEY",
    )
    assert (policy.temperature, policy.timeout_ms) == (1.0, 500.0)
    assert isinstance(policy.temperature, float)


def _write_full_run_config(tmp_path, kind, pool_file, where=None):
    """Write a run config that sets every section, with a ``kind`` policy and
    its pool inline or, with ``pool_file``, in ``pool.json``.  The object at
    the key path ``where``, if given, gets a ``"bogus"`` key.  Returns the
    config's path."""
    pool = _pool_mapping()
    policies = {
        "scripted": {"kind": "scripted", "script": {"default": []}},
        "params": {"kind": "params", "path": "params.json"},
        "http": {"kind": "http", "model": "m", "timeout_ms": 1000},
    }
    config = {
        "pool": pool,
        "engine": {"max_routing_steps": 2},
        "reward": {"alpha": 0.5},
        "trainer": {"steps": 1},
        "lexicon": {"route": ["<search>", "</search>"]},
        "policy": policies[kind],
        "seed": 1,
        "eval_warmup_costs": [1.0],
    }
    if where is not None:
        target = config
        for key in where:
            target = target[key]
        target["bogus"] = []
    if pool_file:
        (tmp_path / "pool.json").write_text(json.dumps(pool))
        config["pool"] = "pool.json"
    params = PolicyParams.initial(64, load_pool_config(_pool_mapping()))
    (tmp_path / "params.json").write_text(params.to_json())
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    return str(path)


@pytest.mark.parametrize(
    "where, context, kind, pool_file",
    [
        pytest.param((), "run config", "scripted", False, id="top-level"),
        pytest.param(("pool",), "pool config", "scripted", False, id="pool-inline"),
        pytest.param(("pool",), "pool config", "scripted", True, id="pool-file"),
        pytest.param(("pool", "models", 0), "pool model #0", "scripted", True, id="model"),
        pytest.param(
            ("pool", "models", 0, "backend"), "pool model #0", "scripted", False,
            id="sim-backend",
        ),
        pytest.param(
            ("pool", "models", 1, "backend"), "pool model #1", "scripted", False,
            id="http-backend",
        ),
        pytest.param(("engine",), "engine", "scripted", False, id="engine"),
        pytest.param(("reward",), "reward", "scripted", False, id="reward"),
        pytest.param(("trainer",), "trainer", "scripted", False, id="trainer"),
        pytest.param(("lexicon",), "lexicon", "scripted", False, id="lexicon"),
        pytest.param(
            ("policy",), "scripted policy", "scripted", False, id="scripted-policy"
        ),
        pytest.param(("policy",), "params policy", "params", False, id="params-policy"),
        pytest.param(("policy",), "http policy", "http", False, id="http-policy"),
    ],
)
def test_every_run_config_object_rejects_an_unknown_key(
    tmp_path, where, context, kind, pool_file
):
    # Without the key, the same config loads and builds its policy.
    policy_factory(load_run_config(_write_full_run_config(tmp_path, kind, pool_file)))
    path = _write_full_run_config(tmp_path, kind, pool_file, where)
    with pytest.raises(ConfigError, match=f"^{context}: unknown key 'bogus'$"):
        policy_factory(load_run_config(path))


def test_kb_and_script_mappings_take_any_key(tmp_path):
    """The inline ``kb`` is keyed by question and a ``script`` mapping by
    task id, so an extra key in either is data."""
    kb = ("pool", "models", 0, "backend", "kb")
    run = load_run_config(_write_full_run_config(tmp_path, "scripted", False, kb))
    assert run.pool.get("sim-small").backend.profile.knowledge_base["bogus"] == "[]"
    script = ("policy", "script")
    run = load_run_config(_write_full_run_config(tmp_path, "scripted", False, script))
    assert run.policy["script"] == {"default": [], "bogus": []}
    policy_factory(run)


def test_inline_kb_keys_are_normalized_like_kb_files():
    mapping = _pool_mapping()
    backend = mapping["models"][0]["backend"]
    backend["kb"] = {"Capital of Peru?": "Lima"}
    backend["accuracy"] = 1.0
    pool = load_pool_config(mapping)
    profile = pool.get("sim-small").backend.profile
    assert profile.knowledge_base == {"capital of peru": "Lima"}
    call = dispatch(pool, "sim-small", "capital of peru")
    assert call.response_text.startswith("Lima")


def test_readme_run_config_example_loads(tmp_path):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme[readme.index("### Run config") :]
    example = section[section.index("```json\n") + len("```json\n") :]
    example = example[: example.index("```")]
    (tmp_path / "run.json").write_text(example)
    (tmp_path / "kb.jsonl").write_text(
        json.dumps({"key": "Where did Pachacuti die?", "answer": "Cusco"}) + "\n"
    )
    run = load_run_config(str(tmp_path / "run.json"))
    data = json.loads(example)
    assert [d.id for d in run.pool] == [m["id"] for m in data["pool"]["models"]]
    llama = run.pool.get("llama-3.1-70b-instruct").backend.profile
    assert llama.knowledge_base == {"where did pachacuti die": "Cusco"}
    assert (llama.verbosity, llama.seed) == (48, 103)
    assert run.pool.get("gpt-4o-mini").backend.model == "gpt-4o-mini"
    assert run.engine.max_api_response_tokens == 600
    assert run.reward.alpha == 0.5
    assert run.trainer.feature_dim == 64
    assert run.policy == {"kind": "params", "path": "params.json"}
    assert run.eval_warmup_costs == (0.0, 2.0, 96.0)


def test_integer_values_load_for_number_fields(tmp_path):
    extra = {
        "engine": {"timeout_ms": 30000, "max_routing_steps": 2},
        "reward": {"alpha": 1, "epsilon": 1},
        "trainer": {"learning_rate": 1, "beta": 0, "batch_size": 8},
    }
    run = load_run_config(_write_run_config(tmp_path, extra=extra))
    assert (run.engine.timeout_ms, run.reward.alpha, run.trainer.batch_size) == (
        30000,
        1,
        8,
    )
    # numpy scalars are numbers too, for Python callers
    assert TrainConfig(batch_size=np.int64(4), beta=np.float64(0.5)).batch_size == 4
    assert RewardConfig(window_capacity=np.int32(8)).window_capacity == 8
    with pytest.raises(TypeError, match="max_routing_steps must be an integer"):
        EngineConfig(max_routing_steps=np.float64(2.0))


@pytest.mark.parametrize(
    "build",
    [
        lambda: HttpBackend(model=None),
        lambda: HttpPolicy(model="p", temperature=True),
    ],
    ids=["backend-model-none", "policy-temperature-bool"],
)
def test_http_clients_check_their_field_types(build):
    with pytest.raises(TypeError):
        build()


def test_http_backend_requires_a_model():
    with pytest.raises(ValueError, match="model is required"):
        HttpBackend(model="")


def test_http_policy_restores_a_stripped_stop_from_the_run_lexicon(
    tmp_path, monkeypatch
):
    # The endpoint strips the stop sequence "[/answer]", as chat APIs do.
    server = start_scripted_server(
        [{"status": 200, "body": chat_body("[plan]ok[/plan][final]Cusco")}]
    )
    monkeypatch.setenv("MULTIROUTE_POLICY_URL", server.url)
    extra = {
        "lexicon": {
            "think": ["[plan]", "[/plan]"],
            "route": ["[ask]", "[/ask]"],
            "answer": ["[final]", "[/final]"],
        },
        "policy": {"kind": "http", "model": "policy-model"},
    }
    try:
        run = load_run_config(_write_run_config(tmp_path, extra=extra))
        policy = policy_factory(run)(None)
        text = policy.generate("context", ["[/ask]", "[/final]"], max_tokens=64)
    finally:
        stop_server(server)
    assert text == "[plan]ok[/plan][final]Cusco[/final]"
