"""Inputs shared by the workloads: the two-model pool, tasks and params.

Everything here is a pure function of the workload seed.
"""

from __future__ import annotations

import json
import os

import numpy as np

from multiroute.pool import (
    ModelDescriptor,
    RoutingPool,
    SimulatedBackend,
    SimulatedProfile,
)
from multiroute.trainer import (
    ANSWER_ACTION,
    PolicyParams,
    knowledge_bases_for,
    make_synthetic_tasks,
)

STRONG = "strong-72b"
WEAK = "weak-7b"
N_TASKS = 60
FEATURE_DIM = 64
MAX_ROUTING_STEPS = 4

# The criterion-07 pool: pricing, accuracy and simulation seed per model.
MODELS = (
    {
        "id": STRONG,
        "display_name": "Strong-72B",
        "param_count_b": 72,
        "cost_per_token": 2.0,
        "descriptor_text": "a large model with broad knowledge; expensive per token",
        "accuracy": 0.9,
        "seed": 11,
    },
    {
        "id": WEAK,
        "display_name": "Weak-7B",
        "param_count_b": 7,
        "cost_per_token": 0.05,
        "descriptor_text": "a small budget model; often wrong but nearly free",
        "accuracy": 0.6,
        "seed": 23,
    },
)
DESCRIPTOR_KEYS = (
    "id", "display_name", "param_count_b", "cost_per_token", "descriptor_text",
)

SHORT_REPLIES = {STRONG: 48, WEAK: 40}
LONG_REPLIES = {STRONG: 600, WEAK: 400}


def tasks_for(seed: int):
    return make_synthetic_tasks(N_TASKS, STRONG, WEAK, seed)


def sim_pool(tasks, verbosity: dict) -> RoutingPool:
    kbs = knowledge_bases_for(tasks)
    return RoutingPool(
        ModelDescriptor(
            *(model[key] for key in DESCRIPTOR_KEYS),
            SimulatedBackend(
                SimulatedProfile(
                    knowledge_base=kbs.get(model["id"], {}),
                    accuracy=model["accuracy"],
                    verbosity=verbosity[model["id"]],
                    seed=model["seed"],
                )
            ),
        )
        for model in MODELS
    )


def pool_section(backends: dict) -> dict:
    """Run-config ``pool`` object; ``backends`` maps model id to its backend."""
    return {
        "models": [
            {**{key: model[key] for key in DESCRIPTOR_KEYS}, "backend": backends[model["id"]]}
            for model in MODELS
        ]
    }


def write_knowledge_bases(work_dir: str, tasks) -> dict:
    """One JSONL knowledge base per model; returns model id -> file name."""
    names = {}
    for model in MODELS:
        name = f"kb-{model['id']}.jsonl"
        with open(os.path.join(work_dir, name), "w", encoding="utf-8") as handle:
            for task in tasks:
                row = {"key": task.question, "answer": task.facts[model["id"]]}
                handle.write(json.dumps(row) + "\n")
        names[model["id"]] = name
    return names


def routing_params(seed: int, plan: tuple[str, ...]) -> PolicyParams:
    """Seeded policy head that follows ``plan`` (one action per round).

    Small seeded noise on every weight, plus a margin of 12 logits on the
    planned action's round slot, so episodes route nearly the same number
    of times whatever the seed.  (With a margin of 4, eval episodes made
    1.5 to 2.6 calls on average depending on the seed, and the episode rate
    followed.)
    """
    actions = tuple(model["id"] for model in MODELS) + (ANSWER_ACTION,)
    rng = np.random.default_rng(seed)
    weights = rng.normal(scale=0.3, size=(FEATURE_DIM, len(actions)))
    round_slot = FEATURE_DIM - (MAX_ROUTING_STEPS + 1)
    for round_index, action in enumerate(plan):
        weights[round_slot + round_index, actions.index(action)] += 12.0
    return PolicyParams(FEATURE_DIM, actions, weights)
