"""JSON run configuration: pool definitions, engine/reward/trainer knobs, policy.

A run config gathers everything a CLI command needs.  Paths inside a config
file resolve relative to the file's own directory.  Command-line flags
override config values, which override built-in defaults.  Each section is
built by the class that owns it and holds its defaults (``build_section``),
the policy section by ``policy_factory``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import reprlib
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .engine import EngineConfig
from .policies import HttpPolicy, ScriptedPolicy
from .pool import (
    HttpBackend,
    LineError,
    ModelDescriptor,
    RoutingPool,
    SimulatedBackend,
    SimulatedProfile,
    load_knowledge_base,
)
from .protocol import DEFAULT_LEXICON, BlockKind, TagLexicon
from .rewards import RewardConfig, check_field_types, normalize_answer
from .trainer import (
    ANSWER_ACTION,
    LearnedRoutingPolicy,
    PolicyParams,
    TrainConfig,
    check_feature_dim,
)


class ConfigError(ValueError):
    pass


def json_object(value, context: str, keys=None) -> dict:
    """``value``, which must be a JSON object holding no key outside ``keys``
    (any key when ``keys`` is None); raises ConfigError naming ``context``."""
    if not isinstance(value, dict):
        raise ConfigError(f"{context}: {type(value).__name__} is not a JSON object")
    for key in value if keys is not None else ():
        if key not in keys:
            raise ConfigError(f"{context}: unknown key {reprlib.repr(key)}")
    return value


def build_section(cls, section, context: str, **fixed):
    """Build ``cls(**section, **fixed)`` from one config section.

    Raises:
        ConfigError: the section is not an object, holds a key that is not
            a field of ``cls`` or that ``fixed`` gives, or ``cls`` rejects a
            value with a TypeError, ValueError or OverflowError.
    """
    keys = {f.name for f in dataclasses.fields(cls)} - fixed.keys()
    json_object(section, context, keys)
    try:
        return cls(**section, **fixed)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{context}: {exc}") from None


def _build_backend(section, context: str, base_dir: str):
    fields = dict(json_object(section, f"{context}: backend"))
    kind = fields.pop("type", None)
    if kind == "sim":
        kb = fields.pop("kb", {})
        if "kb_path" in fields:
            kb_path = fields.pop("kb_path")
            kb_file = _section_path(
                kb_path, "kb_path", context, base_dir, f"{context}: kb_path"
            )
            try:
                kb = load_knowledge_base(kb_file)
            except LineError as exc:
                raise ConfigError(f"{context}: {kb_file}: {exc}") from None
            except OSError as exc:
                raise ConfigError(f"{context}: {exc}")
            if "kb" in section:
                raise ConfigError(f"{context}: give kb or kb_path, not both")
        else:
            kb = {
                normalize_answer(str(key)): str(answer)
                for key, answer in json_object(kb, f"{context}: kb").items()
            }
        profile = build_section(SimulatedProfile, fields, context, knowledge_base=kb)
        return SimulatedBackend(profile)
    if kind == "http":
        return build_section(HttpBackend, fields, context)
    raise ConfigError(f"{context}: unknown backend type {reprlib.repr(kind)}")


def policy_factory(run: RunConfig):
    """Build a ``TaskRecord -> PolicyBackend`` factory from the policy section.

    Raises:
        ConfigError: unknown policy kind, a malformed section or policy file.
    """
    section = run.policy
    kind = section.get("kind")
    context = f"{kind} policy"
    if kind == "scripted":
        json_object(section, context, ("kind", "script", "script_path"))
        script = section.get("script", [])
        if "script_path" in section:
            path = _section_path(
                section["script_path"], "script_path", context, run.base_dir
            )
            script = read_json(path, context)
            if "script" in section:
                raise ConfigError(f"{context}: give script or script_path, not both")
        if isinstance(script, list):
            script = {"default": script}
        if not isinstance(script, dict) or not all(
            isinstance(lines, list) and all(isinstance(line, str) for line in lines)
            for lines in script.values()
        ):
            raise ConfigError(
                "scripted policy: script must be a list of strings "
                "or a mapping of such lists"
            )
        default = script.get("default", [])
        return lambda task: ScriptedPolicy(script.get(task.id, default))
    if kind == "params":
        json_object(section, context, ("kind", "path"))
        if not section.get("path"):
            raise ConfigError("params policy: 'path' is required")
        path = _section_path(section["path"], "path", context, run.base_dir)
        data = read_json(path, context)
        try:
            params = PolicyParams.from_record(data)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(
                f"params policy {path}: bad params file: {type(exc).__name__}: {exc}"
            )
        unknown = [
            action
            for action in params.actions
            if action != ANSWER_ACTION and run.pool.resolve(action) is None
        ]
        if unknown:
            raise ConfigError(
                f"params policy {path}: actions not in the pool: {unknown}"
            )
        try:
            check_feature_dim(params.feature_dim, run.engine.max_routing_steps)
        except ValueError as exc:
            raise ConfigError(f"params policy {path}: {exc}") from None

        def factory(task):
            rng = np.random.default_rng(run.seed)
            return LearnedRoutingPolicy(
                params,
                task.question,
                run.pool,
                rng,
                run.engine.lexicon,
                max_steps=run.engine.max_routing_steps,
            )

        return factory
    if kind == "http":
        fields = {key: value for key, value in section.items() if key != "kind"}
        policy = build_section(HttpPolicy, fields, context, lexicon=run.engine.lexicon)
        return lambda task: policy
    raise ConfigError(f"unknown policy kind {reprlib.repr(kind)}")


def _section_path(value, key: str, context: str, base_dir: str, what="") -> str:
    """``value``, the path under ``key`` in section ``context``, joined to
    ``base_dir``.  Raises ConfigError unless it is a nonempty string that a
    file name can hold: no NUL byte, and nothing the file system encoding
    cannot encode, such as a lone surrogate.  ``what`` (``context`` by
    default) names it, shown escaped, in those two errors."""
    if not isinstance(value, str):
        raise ConfigError(f"{context}: {key} must be a string")
    if not value:
        raise ConfigError(f"{context}: {key} must not be empty")
    path = os.path.join(base_dir, value)
    shown = f"{what or context} {reprlib.repr(path)}"
    if "\0" in path:
        raise ConfigError(f"{shown}: a path cannot hold a NUL byte")
    try:
        os.fsencode(path)
    except UnicodeEncodeError:
        raise ConfigError(f"{shown}: a path cannot be encoded as a file name") from None
    return path


def read_json(path: str, what: str):
    """Parse the UTF-8 JSON file at ``path``; ``what`` names it in a
    ConfigError."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except FileNotFoundError:
        raise ConfigError(f"{what} not found: {path}")
    except UnicodeDecodeError:
        raise ConfigError(f"{what} {path}: not UTF-8 text") from None
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"{what} {path}: invalid JSON: {exc}")


def load_pool_config(source, base_dir: str = ".") -> RoutingPool:
    """Build a RoutingPool from a config path or an inline mapping."""
    if isinstance(source, str):
        path = _section_path(source, "pool", "run config", base_dir, "pool config")
        base_dir = os.path.dirname(path) or "."
        source = read_json(path, "pool config")
    models = json_object(source, "pool config", ("models",)).get("models")
    if not isinstance(models, list) or not models:
        raise ConfigError("pool config: models must be a nonempty list")
    pool = RoutingPool()
    for i, entry in enumerate(models):
        context = f"pool model #{i}"
        fields = dict(json_object(entry, context))
        backend = _build_backend(fields.pop("backend", None), context, base_dir)
        fields.setdefault("display_name", fields.get("id"))
        descriptor = build_section(ModelDescriptor, fields, context, backend=backend)
        try:
            pool.register(descriptor)
        except ValueError as exc:
            raise ConfigError(f"{context}: {exc}")
    return pool


def _lexicon_from(section) -> TagLexicon:
    json_object(section, "lexicon", [*(k.value for k in BlockKind), "info_aliases"])
    fields = {}
    for kind in (k.value for k in BlockKind):
        if kind in section:
            value = section[kind]
            if not (isinstance(value, list) and len(value) == 2):
                raise ConfigError(f"lexicon: {kind} must be an [open, close] pair")
            fields[f"{kind}_open"], fields[f"{kind}_close"] = value
    if "info_aliases" in section:
        fields["info_aliases"] = section["info_aliases"]
    return build_section(TagLexicon, fields, "lexicon")


@dataclass
class RunConfig:
    pool: RoutingPool
    engine: EngineConfig = EngineConfig()
    reward: RewardConfig = RewardConfig()
    trainer: TrainConfig = TrainConfig()
    policy: dict = field(default_factory=lambda: {"kind": "scripted", "script": []})
    seed: int = 0
    eval_warmup_costs: tuple[float, ...] = ()
    base_dir: str = "."

    def __post_init__(self) -> None:
        if not isinstance(self.policy, dict) or "kind" not in self.policy:
            raise ValueError("policy section must be an object with a 'kind'")
        check_field_types(self)
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if any(cost < 0 for cost in self.eval_warmup_costs):
            raise ValueError("eval_warmup_costs must be numbers >= 0")
        # The largest bill an episode can run up must not overflow a float.
        engine = self.engine
        most_tokens = engine.max_api_response_tokens * engine.max_routing_steps
        for i, model in enumerate(self.pool):
            if model.cost_per_token * most_tokens > sys.float_info.max:
                raise ValueError(
                    f"pool model #{i}: cost_per_token {model.cost_per_token} "
                    f"overflows a bill of {most_tokens} tokens"
                )


def load_run_config(path: str, overrides: Optional[dict] = None) -> RunConfig:
    """Load a run config file and apply flag overrides.

    ``overrides`` maps dotted section keys ("reward.alpha", "trainer.steps",
    "engine.max_routing_steps", "seed") to values; None values are ignored.
    """
    keys = "pool engine reward trainer lexicon policy seed eval_warmup_costs".split()
    data = json_object(read_json(path, "config file"), "run config", keys)

    for key, value in (overrides or {}).items():
        section, _, leaf = key.rpartition(".")
        target = data.setdefault(section, {}) if section else data
        # A section that is not an object fails in build_section below.
        if value is not None and isinstance(target, dict):
            target[leaf] = value

    if "pool" not in data:
        raise ConfigError("run config: missing required key 'pool'")
    base_dir = os.path.dirname(path) or "."
    lexicon = (
        _lexicon_from(data["lexicon"]) if "lexicon" in data else DEFAULT_LEXICON
    )
    top_level = {
        key: data[key] for key in ("policy", "seed", "eval_warmup_costs") if key in data
    }
    return build_section(
        RunConfig,
        top_level,
        "run config",
        pool=load_pool_config(data["pool"], base_dir),
        engine=build_section(
            EngineConfig, data.get("engine", {}), "engine", lexicon=lexicon
        ),
        reward=build_section(RewardConfig, data.get("reward", {}), "reward"),
        trainer=build_section(TrainConfig, data.get("trainer", {}), "trainer"),
        base_dir=base_dir,
    )
