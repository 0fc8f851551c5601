"""serve_long: the HTTP routing service under a closed-loop client.

The server runs in a child process (serve_child.py) built from a generated
run config: simulated backends with long replies (600 and 400 words), a
``params`` policy that routes four times, a cost window of 1000.  One client
process (client.py) drives it over two connections; a seeded half of the
requests carry golds and write to the shared window, the other half never
touch it.  Set-up is the time from starting the server process until it
accepts connections, taken over several starts.

The client cuts the measured time into windows of ``WINDOW_S`` seconds; the
speed metrics are the median over the windows.  (The best window, which
shrugs off slow stretches of a shared host, was less steady: fast stretches
that last a fraction of a second make it jump between runs.  Over ten 40 s
runs on a 2-vCPU VM it spread 0.17-0.19, interquartile range over median;
the median window 0.04-0.07.)
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from multiroute.config import load_run_config
from multiroute.engine import run_episode
from multiroute.rewards import CostWindow
from multiroute.trainer import LearnedRoutingPolicy, PolicyParams

from client import episode_digest
from common import Child, Phase, median, proc_peak_rss_mb, summarize, write_json
from fixtures import (
    LONG_REPLIES,
    MODELS,
    STRONG,
    WEAK,
    pool_section,
    routing_params,
    tasks_for,
    write_knowledge_bases,
)
from tracer import layer_metrics

ROUTE_PLAN = (STRONG, WEAK, STRONG, WEAK)
SETUP_REPEATS = 5
CONNECTIONS = 2
WARMUP_S = 1.0
WINDOW_S = 0.5
PLAN_LENGTH = 4096


def write_inputs(work_dir: str, seed: int, tasks) -> tuple[str, str]:
    """Knowledge bases, params, run config and request plan; returns the
    config and plan paths."""
    kb_names = write_knowledge_bases(work_dir, tasks)
    params_name = "serve-params.json"
    with open(os.path.join(work_dir, params_name), "w", encoding="utf-8") as handle:
        handle.write(routing_params(seed, ROUTE_PLAN).to_json())
    backends = {
        model["id"]: {
            "type": "sim",
            "kb_path": kb_names[model["id"]],
            "accuracy": model["accuracy"],
            "verbosity": LONG_REPLIES[model["id"]],
            "seed": model["seed"],
        }
        for model in MODELS
    }
    config = {
        "pool": pool_section(backends),
        "reward": {"alpha": 0.6, "window_capacity": 1000},
        "policy": {"kind": "params", "path": params_name},
        "eval_warmup_costs": [0.0, 2.0, 96.0],
        "seed": seed,
    }
    rng = np.random.default_rng([seed, 1])
    plan = {
        "questions": [task.question for task in tasks],
        "golds": [task.golds for task in tasks],
        "requests": [
            [int(task), bool(scored)]
            for task, scored in zip(
                rng.integers(len(tasks), size=PLAN_LENGTH),
                rng.random(PLAN_LENGTH) < 0.5,
            )
        ],
    }
    return (
        write_json(os.path.join(work_dir, "serve-run.json"), config),
        write_json(os.path.join(work_dir, "serve-plan.json"), plan),
    )


def replay_digests(config_path: str, tasks) -> list[str]:
    """Unscored in-process episode of every task, as the server's params
    policy runs it (a fresh generator seeded with the run seed)."""
    run = load_run_config(config_path)
    with open(os.path.join(run.base_dir, run.policy["path"]), encoding="utf-8") as handle:
        params = PolicyParams.from_json(handle.read())
    digests = []
    for task in tasks:
        policy = LearnedRoutingPolicy(
            params,
            task.question,
            run.pool,
            np.random.default_rng(run.seed),
            run.engine.lexicon,
            max_steps=run.engine.max_routing_steps,
        )
        episode = run_episode(
            task.question,
            None,
            policy,
            run.pool,
            CostWindow(run.reward.window_capacity),
            run.engine,
            run.reward,
        )
        digests.append(episode_digest(episode.to_record()))
    return digests


def run(seed: int, seconds: float, traced: bool, work_dir: str) -> Phase:
    tasks = tasks_for(seed)
    config_path, plan_path = write_inputs(work_dir, seed, tasks)
    child_args = ["--config", config_path] + (["--trace"] if traced else [])
    setups = []
    children: list[Child] = []
    try:
        for _ in range(SETUP_REPEATS):
            if children:
                children[-1].stop()
            started = time.perf_counter()
            children.append(Child("serve_child.py", *child_args))
            setups.append(time.perf_counter() - started)
        server = children[-1]
        client = Child(
            "client.py",
            "--port", str(server.ready["port"]),
            "--server-pid", str(server.pid),
            "--plan", plan_path,
            "--seconds", str(seconds),
            "--warmup-s", str(WARMUP_S),
            "--connections", str(CONNECTIONS),
            "--window-s", str(WINDOW_S),
        )
        children.append(client)
        result = client.stop(timeout=seconds + 120.0)[-1]
        peak_rss_mb = proc_peak_rss_mb(server.pid)
        server_tail = server.stop()
    finally:
        for child in children:
            child.stop()

    expected = replay_digests(config_path, tasks)
    statuses = result["statuses"]
    completed = statuses.get("200", 0)
    latencies_ms = result["latencies_ms"]
    phase = Phase(
        e2e={
            "setup_s": median(setups),
            "episodes_per_s": median(result["window_rates"]),
            "cpu_ms_per_episode": median(result["window_cpu_ms"]),
            "latency_ms_p50": median(result["window_latency_ms_p50"]),
            "peak_rss_mb": peak_rss_mb,
        },
        samples={
            "setup_s": summarize(setups),
            "latency_ms": summarize(latencies_ms),
            "episodes_per_s": summarize(result["window_rates"]),
            "cpu_ms_per_episode": summarize(result["window_cpu_ms"]),
            "window_latency_ms_p50": summarize(result["window_latency_ms_p50"]),
        },
        attempted=result["attempted"],
        failed=result["attempted"] - completed + result["call_errors"],
        checks={
            "every_response_200": completed == result["attempted"],
            "rewards_only_when_scored": result["wrong_shape"] == 0,
            "responses_match_replay": bool(result["digests"])
            and all(
                found == [expected[int(task)]]
                for task, found in result["digests"].items()
            ),
        },
        output=json.dumps(expected),
        details={
            "completed": completed,
            "duration_s": result["duration_s"],
            "server_cpu_s": result["server_cpu_s"],
            "tasks_seen": len(result["digests"]),
            "server_ready": server.ready,
        },
    )
    if traced:
        spans = server_tail[-1]["spans"]
        episodes = spans["engine.episode"]["count"]
        episode_s = spans["engine.episode"]["total_s"] / episodes
        cpu_s = result["server_cpu_s"] / completed
        layers = layer_metrics(
            spans, episodes, result["routes"] / completed, 1, (cpu_s - episode_s) * episodes
        )
        layers["serve.response_kb"] = (
            result["response_bytes"] / sum(statuses.values()) / 1024.0
        )
        layers["serve.rejected_ratio"] = statuses.get("503", 0) / result["attempted"]
        phase.layers = layers
    return phase
