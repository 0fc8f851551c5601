"""JSON run configuration: pool definitions, engine/reward/trainer knobs.

A run config gathers everything a CLI command needs.  Paths inside a config
file resolve relative to the file's own directory.  Command-line flags
override config values, which override built-in defaults.  Each section is
built by the class that owns it and holds its defaults (``build_section``).
"""

from __future__ import annotations

import dataclasses
import json
import os
import reprlib
import sys
from dataclasses import dataclass, field
from typing import Optional

from .engine import EngineConfig
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
from .trainer import TrainConfig


class ConfigError(ValueError):
    pass


def _object(value, context: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{context}: {type(value).__name__} is not a JSON object")
    return value


def build_section(cls, section, context: str, **fixed):
    """Build ``cls(**section, **fixed)`` from one config section.

    Raises:
        ConfigError: the section is not an object, holds a key that is not
            a field of ``cls``, or ``cls`` rejects a value with a TypeError,
            ValueError or OverflowError.
    """
    _object(section, context)
    names = {f.name for f in dataclasses.fields(cls)}
    for key in section:
        if key not in names:
            raise ConfigError(f"{context}: unknown key {reprlib.repr(key)}")
    try:
        return cls(**section, **fixed)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{context}: {exc}") from None


def _build_backend(section, context: str, base_dir: str):
    fields = dict(_object(section, f"{context}: backend"))
    kind = fields.pop("type", None)
    if kind == "sim":
        kb = fields.pop("kb", {})
        kb_path = fields.pop("kb_path", None)
        if kb_path is not None:
            check_path_value(kb_path, "kb_path", context)
            try:
                kb_file = config_path(base_dir, kb_path, f"{context}: kb_path")
                kb = load_knowledge_base(kb_file)
            except LineError as exc:
                raise ConfigError(f"{context}: {kb_file}: {exc}") from None
            except OSError as exc:
                raise ConfigError(f"{context}: {exc}")
        else:
            kb = {
                normalize_answer(str(key)): str(answer)
                for key, answer in _object(kb, f"{context}: kb").items()
            }
        profile = build_section(SimulatedProfile, fields, context, knowledge_base=kb)
        return SimulatedBackend(profile)
    if kind == "http":
        return build_section(HttpBackend, fields, context)
    raise ConfigError(f"{context}: unknown backend type {reprlib.repr(kind)}")


def config_path(base_dir: str, path: str, what: str) -> str:
    """``path`` joined to ``base_dir``; ``what`` names it in a ConfigError.

    Raises:
        ConfigError: the path holds a NUL byte, which no file name can hold;
            the error shows the path through ``reprlib.repr``.
        TypeError: ``path`` is not a string.
    """
    path = os.path.join(base_dir, path)
    if "\0" in path:
        raise ConfigError(f"{what} {reprlib.repr(path)}: a path cannot hold a NUL byte")
    return path


def check_path_value(value, key: str, context: str) -> None:
    """Raise ConfigError unless the path under ``key`` is a nonempty string;
    ``context`` names the section."""
    if not isinstance(value, str):
        raise ConfigError(f"{context}: {key} must be a string")
    if not value:
        raise ConfigError(f"{context}: {key} must not be empty")


def read_text(path: str, what: str) -> str:
    """The UTF-8 text of the file at ``path``; ``what`` names it in a
    ConfigError."""
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except FileNotFoundError:
        raise ConfigError(f"{what} not found: {path}")
    except UnicodeDecodeError:
        raise ConfigError(f"{what} {path}: not UTF-8 text") from None


def read_json(path: str, what: str):
    """Parse the JSON file at ``path``; ``what`` names it in a ConfigError."""
    text = read_text(path, what)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"{what} {path}: invalid JSON: {exc}")


def load_pool_config(source, base_dir: str = ".") -> RoutingPool:
    """Build a RoutingPool from a config path or an inline mapping."""
    if isinstance(source, str):
        path = config_path(base_dir, source, "pool config")
        base_dir = os.path.dirname(path) or "."
        source = read_json(path, "pool config")
    models = _object(source, "pool config").get("models")
    if not isinstance(models, list) or not models:
        raise ConfigError("pool config: models must be a nonempty list")
    pool = RoutingPool()
    for i, entry in enumerate(models):
        context = f"pool model #{i}"
        fields = dict(_object(entry, context))
        backend = _build_backend(fields.pop("backend", None), context, base_dir)
        fields.setdefault("display_name", fields.get("id"))
        descriptor = build_section(ModelDescriptor, fields, context, backend=backend)
        try:
            pool.register(descriptor)
        except ValueError as exc:
            raise ConfigError(f"{context}: {exc}")
    return pool


def _lexicon_from(section) -> TagLexicon:
    _object(section, "lexicon")
    fields = {}
    for kind in (k.value for k in BlockKind):
        if kind in section:
            value = section[kind]
            if not (isinstance(value, list) and len(value) == 2):
                raise ConfigError(f"lexicon: {kind} must be an [open, close] pair")
            fields[f"{kind}_open"], fields[f"{kind}_close"] = value
    if section.get("info_aliases") is not None:
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
    data = _object(read_json(path, "config file"), "run config")

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
