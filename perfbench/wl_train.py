"""train_window8k: REINFORCE training in the criterion-07 configuration.

Repeats ``trainer.train`` on one seed's 60 tasks until the phase's time is
up: batch 48, 80 steps, lr 0.3, beta 0, feature_dim 64, alpha 0.6, a cost
window of 8000 primed with 2,000 warmup costs, short simulated replies.  No
network.  Set-up is task and pool construction plus everything ``train``
does before its first episode, the warmup pushes included.
"""

from __future__ import annotations

import json
import time

import multiroute.trainer as trainer
from multiroute.engine import EngineConfig
from multiroute.rewards import RewardConfig

from common import Phase, median, self_peak_rss_mb, summarize
from fixtures import FEATURE_DIM, SHORT_REPLIES, sim_pool, tasks_for
from tracer import EpisodeClock, Tracer, install_engine_spans, layer_metrics

STEPS = 80
WARMUP_COSTS = [0.0] * 700 + [2.0] * 700 + [96.0] * 600


def train_once(seed: int):
    tasks = tasks_for(seed)
    pool = sim_pool(tasks, SHORT_REPLIES)
    config = trainer.TrainConfig(
        learning_rate=0.3,
        batch_size=48,
        steps=STEPS,
        beta=0.0,
        seed=seed,
        feature_dim=FEATURE_DIM,
    )
    reward_config = RewardConfig(alpha=0.6, window_capacity=8000)
    return trainer.train(
        tasks, pool, config, reward_config, EngineConfig(), warmup_costs=WARMUP_COSTS
    )


def run(seed: int, seconds: float, traced: bool, work_dir: str) -> Phase:
    clock = EpisodeClock(trainer, "run_episode")
    tracer = Tracer()
    if traced:
        install_engine_spans(tracer, trainer, trainer)
        tracer.wrap(trainer, "policy_gradient_step", "trainer.grad_step")
    setups, rates, cpu_ms, outputs = [], [], [], []
    training_s = 0.0
    try:
        deadline = time.perf_counter() + seconds
        while not outputs or time.perf_counter() < deadline:
            clock.begin()
            before = len(clock.durations)
            started = time.perf_counter()
            report = train_once(seed)
            ended, cpu_end = time.perf_counter(), time.process_time()
            episodes = len(clock.durations) - before
            setups.append(clock.first_start - started)
            training_s += ended - clock.first_start
            rates.append(episodes / (ended - clock.first_start))
            cpu_ms.append((cpu_end - clock.first_cpu) * 1000.0 / episodes)
            outputs.append(report.params.to_json() + json.dumps(report.mean_reward))
            if len(outputs) == 1:
                # Later repeats redo the same work and only grow this
                # benchmark's sample lists, so the program's peak is read here.
                peak_rss_mb = self_peak_rss_mb()
    finally:
        tracer.restore()
        clock.restore()

    latencies_ms = [d * 1000.0 for d in clock.durations]
    episodes = len(latencies_ms)
    samples = {
        "setup_s": summarize(setups),
        "episodes_per_s": summarize(rates),
        "cpu_ms_per_episode": summarize(cpu_ms),
        "latency_ms": summarize(latencies_ms),
    }
    phase = Phase(
        e2e={
            "setup_s": median(setups),
            "episodes_per_s": median(rates),
            "cpu_ms_per_episode": median(cpu_ms),
            "latency_ms_p50": median(latencies_ms),
            "peak_rss_mb": peak_rss_mb,
        },
        samples=samples,
        attempted=episodes,
        failed=clock.failed,
        checks={"params_and_rewards_identical_across_repeats": len(set(outputs)) == 1},
        output=outputs[0],
        details={"repeats": len(outputs), "episodes": episodes},
    )
    if traced:
        spans = tracer.snapshot()
        inside_s = spans["engine.episode"]["total_s"] + spans["trainer.grad_step"]["total_s"]
        phase.layers = layer_metrics(
            spans, episodes, clock.routes / episodes, len(outputs), training_s - inside_s
        )
    return phase
