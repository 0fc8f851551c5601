"""eval_http: batch evaluation over HTTP backends.

Both pool models are ``HttpBackend``s pointed at the loopback stub
(stub.py), which runs in its own process and adds a fixed delay per call.
Repeats ``evaluation.evaluate`` over one seed's 60 tasks until the phase's
time is up, with a ``LearnedRoutingPolicy`` whose params come from the seed,
a cost window of 1000 and the README warmup [0, 2, 96].  Set-up is loading
the run config plus everything ``evaluate`` does before its first episode.
"""

from __future__ import annotations

import http.client
import json
import os
import time

import numpy as np

import multiroute.evaluation as evaluation
from multiroute.config import load_run_config
from multiroute.trainer import ANSWER_ACTION, LearnedRoutingPolicy

from common import Child, Phase, median, self_peak_rss_mb, summarize, write_json
from fixtures import (
    MODELS,
    SHORT_REPLIES,
    STRONG,
    WEAK,
    pool_section,
    routing_params,
    tasks_for,
)
from tracer import EpisodeClock, Tracer, install_engine_spans, layer_metrics

STUB_DELAY_MS = 5.0
URL_ENV = "PERFBENCH_STUB_URL"
KEY_ENV = "PERFBENCH_STUB_KEY"  # never set, so no Authorization header is sent
# Ask the cheap model, then the strong one, then answer.
ROUTE_PLAN = (WEAK, STRONG, ANSWER_ACTION)


def stub_stats(port: int) -> dict:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request("GET", "/stats")
        return json.loads(conn.getresponse().read())
    finally:
        conn.close()


def write_inputs(work_dir: str, seed: int, tasks) -> tuple[str, str]:
    """Stub model table and run config; returns their paths."""
    models = {
        model["id"]: {
            "kb": {task.question: task.facts[model["id"]] for task in tasks},
            "accuracy": model["accuracy"],
            "seed": model["seed"],
            "verbosity": SHORT_REPLIES[model["id"]],
        }
        for model in MODELS
    }
    backends = {
        model["id"]: {
            "type": "http",
            "model": model["id"],
            "url_env": URL_ENV,
            "api_key_env": KEY_ENV,
        }
        for model in MODELS
    }
    config = {
        "pool": pool_section(backends),
        "reward": {"alpha": 0.6, "window_capacity": 1000},
        "eval_warmup_costs": [0.0, 2.0, 96.0],
        "seed": seed,
    }
    return (
        write_json(os.path.join(work_dir, "stub-models.json"), models),
        write_json(os.path.join(work_dir, "eval-run.json"), config),
    )


def evaluate_once(config_path: str, tasks, params, seed: int):
    run = load_run_config(config_path)
    rng = np.random.default_rng(seed + 1000)

    def factory(task):
        return LearnedRoutingPolicy(
            params,
            task.question,
            run.pool,
            rng,
            run.engine.lexicon,
            max_steps=run.engine.max_routing_steps,
        )

    started = time.perf_counter()
    summary, episodes = evaluation.evaluate(
        tasks, factory, run.pool, run.engine, run.reward, run.eval_warmup_costs
    )
    return summary, episodes, time.perf_counter() - started


def run(seed: int, seconds: float, traced: bool, work_dir: str) -> Phase:
    tasks = tasks_for(seed)
    params = routing_params(seed, ROUTE_PLAN)
    models_path, config_path = write_inputs(work_dir, seed, tasks)
    stub = Child("stub.py", "--models", models_path, "--delay-ms", str(STUB_DELAY_MS))
    port = stub.ready["port"]
    os.environ[URL_ENV] = f"http://127.0.0.1:{port}/v1/chat/completions"
    clock = EpisodeClock(evaluation, "run_episode")
    tracer = Tracer()
    if traced:
        install_engine_spans(tracer, evaluation, evaluation)
    setups, rates, cpu_ms, outputs = [], [], [], []
    evaluate_s = 0.0
    try:
        stats_before = stub_stats(port)
        deadline = time.perf_counter() + seconds
        while not outputs or time.perf_counter() < deadline:
            clock.begin()
            before = len(clock.durations)
            started = time.perf_counter()
            summary, episodes, elapsed = evaluate_once(config_path, tasks, params, seed)
            ended, cpu_end = time.perf_counter(), time.process_time()
            evaluate_s += elapsed
            count = len(clock.durations) - before
            setups.append(clock.first_start - started)
            rates.append(count / (ended - clock.first_start))
            cpu_ms.append((cpu_end - clock.first_cpu) * 1000.0 / count)
            outputs.append(
                json.dumps(summary.to_record(), sort_keys=True)
                + "".join(episode.raw_trajectory for episode in episodes)
            )
            if len(outputs) == 1:
                # Later repeats redo the same work and only grow this
                # benchmark's sample lists, so the program's peak is read here.
                peak_rss_mb = self_peak_rss_mb()
        stats_after = stub_stats(port)
    finally:
        tracer.restore()
        clock.restore()
        os.environ.pop(URL_ENV, None)
        stub.stop()

    completions = stats_after["completions"] - stats_before["completions"]
    connections = stats_after["connections"] - stats_before["connections"]
    latencies_ms = [d * 1000.0 for d in clock.durations]
    episodes = len(latencies_ms)
    phase = Phase(
        e2e={
            "setup_s": median(setups),
            "episodes_per_s": median(rates),
            "cpu_ms_per_episode": median(cpu_ms),
            "latency_ms_p50": median(latencies_ms),
            "peak_rss_mb": peak_rss_mb,
        },
        samples={
            "setup_s": summarize(setups),
            "episodes_per_s": summarize(rates),
            "cpu_ms_per_episode": summarize(cpu_ms),
            "latency_ms": summarize(latencies_ms),
        },
        attempted=episodes,
        failed=clock.failed,
        checks={
            "summary_identical_across_repeats": len(set(outputs)) == 1,
            "one_stub_completion_per_route": completions == clock.routes,
        },
        output=outputs[0],
        details={
            "repeats": len(outputs),
            "episodes": episodes,
            "stub_delay_ms": STUB_DELAY_MS,
            "stub_completions": completions,
            "stub_connections": connections,
        },
    )
    if traced:
        spans = tracer.snapshot()
        inside_s = spans["engine.episode"]["total_s"] + spans["rewards.warmup"]["total_s"]
        layers = layer_metrics(
            spans,
            episodes,
            clock.routes / episodes,
            len(outputs),
            evaluate_s - inside_s,
            STUB_DELAY_MS / 1000.0,
        )
        layers["pool.connections_per_call"] = connections / completions
        phase.layers = layers
    return phase
