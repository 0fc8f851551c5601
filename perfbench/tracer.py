"""Timing hooks installed from outside the program.

Both classes rebind attributes of the program's modules in the running
process and put the originals back on ``restore``; no file under ``src/`` is
changed.  ``EpisodeClock`` is the only hook an untraced run installs: two
clock reads around each call of the front end's ``run_episode``.  ``Tracer``
adds a span at every layer boundary the engine crosses.
"""

from __future__ import annotations

import functools
import threading
import time

import multiroute.engine as engine
import multiroute.protocol as protocol
import multiroute.trainer as trainer
from multiroute.pool import BackendError, BackendTimeout


class EpisodeClock:
    """Wall-clock duration of every call to ``owner.attr``.

    ``begin`` starts a repeat: the first call after it also records the
    wall and CPU clocks at its start, which end that repeat's set-up.
    Routes are summed, and episodes whose calls carry an error record are
    counted as failed.
    """

    def __init__(self, owner, attr: str):
        self.durations: list[float] = []
        self.routes = 0
        self.failed = 0
        self.first_start: float | None = None
        self.first_cpu: float | None = None
        self._owner, self._attr = owner, attr
        self._original = getattr(owner, attr)
        original = self._original

        @functools.wraps(original)
        def timed(*args, **kwargs):
            if self.first_start is None:
                self.first_cpu = time.process_time()
                self.first_start = time.perf_counter()
            start = time.perf_counter()
            episode = original(*args, **kwargs)
            self.durations.append(time.perf_counter() - start)
            self.routes += episode.route_count
            if any(call.error is not None for call in episode.calls):
                self.failed += 1
            return episode

        setattr(owner, attr, timed)

    def begin(self) -> None:
        self.first_start = None
        self.first_cpu = None

    def restore(self) -> None:
        setattr(self._owner, self._attr, self._original)


class Tracer:
    """Per-name call count, total time, self time and error count.

    Self time is a span's duration minus the time covered by spans opened
    inside it on the same thread.  Spans are aggregated as they close, so
    memory stays flat however long the run.
    """

    def __init__(self):
        self.spans: dict[str, list] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, errors: tuple = ()) -> None:
        original = getattr(owner, attr)
        local, lock, spans = self._local, self._lock, self.spans

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            stack.append(0.0)
            failed = 0
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            except errors:
                failed = 1
                raise
            finally:
                duration = time.perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += duration
                with lock:
                    entry = spans.setdefault(name, [0, 0.0, 0.0, 0])
                    entry[0] += 1
                    entry[1] += duration
                    entry[2] += duration - children
                    entry[3] += failed

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def snapshot(self) -> dict:
        with self._lock:
            return {
                name: {"count": c, "total_s": t, "self_s": s, "errors": e}
                for name, (c, t, s, e) in self.spans.items()
            }


def install_engine_spans(tracer: Tracer, front_end, warmup_module) -> None:
    """Span every layer boundary of one episode.

    ``front_end`` is the module whose ``run_episode`` the workload drives
    (trainer, evaluation or serve); ``warmup_module`` is the one whose
    ``cost_reward`` primes the cost window before the first episode.
    """
    tracer.wrap(front_end, "run_episode", "engine.episode")
    tracer.wrap(warmup_module, "cost_reward", "rewards.warmup")
    tracer.wrap(engine, "cost_reward", "rewards.cost_reward")
    tracer.wrap(
        engine, "dispatch", "pool.dispatch", errors=(BackendError, BackendTimeout)
    )
    tracer.wrap(engine, "validate_format", "protocol.validate")
    # The engine parses once itself and once more inside validate_format,
    # which looks the name up in the protocol module.
    tracer.wrap(engine, "parse_trajectory", "protocol.parse")
    tracer.wrap(protocol, "parse_trajectory", "protocol.parse")
    tracer.wrap(trainer.LearnedRoutingPolicy, "generate", "trainer.decision")


def layer_metrics(
    spans: dict,
    episodes: int,
    routes_per_episode: float,
    setups: int,
    frontend_overhead_s: float,
    backend_delay_s: float = 0.0,
) -> dict:
    """Per-layer numbers every workload reports, from a ``Tracer.snapshot``.

    Times are means per call.  ``frontend_overhead_s`` is the time the
    front end spent outside ``run_episode`` and warmup, over all episodes;
    ``backend_delay_s`` is the fixed per-call delay of the backends (the
    stub's, or 0 for simulated ones).  The HTTP and serve counters start at
    0 and are filled in by the workloads that have them.
    """

    def count(name: str) -> int:
        return spans.get(name, {}).get("count", 0)

    def mean(name: str, key: str = "total_s") -> float:
        calls = count(name)
        return spans[name][key] / calls if calls else 0.0

    return {
        "rewards.cost_reward_us": mean("rewards.cost_reward") * 1e6,
        "rewards.warmup_s": (
            spans["rewards.warmup"]["total_s"] / setups if count("rewards.warmup") else 0.0
        ),
        "protocol.parse_us": mean("protocol.parse") * 1e6,
        "protocol.validate_us": mean("protocol.validate", "self_s") * 1e6,
        "protocol.parses_per_episode": count("protocol.parse") / episodes,
        "pool.dispatch_us": mean("pool.dispatch") * 1e6,
        "pool.calls_per_episode": count("pool.dispatch") / episodes,
        "pool.call_error_ratio": (
            spans["pool.dispatch"]["errors"] / count("pool.dispatch")
            if count("pool.dispatch")
            else 0.0
        ),
        "pool.overhead_us": (mean("pool.dispatch") - backend_delay_s) * 1e6,
        "pool.connections_per_call": 0.0,
        "engine.episode_us": mean("engine.episode") * 1e6,
        "engine.routes_per_episode": routes_per_episode,
        "engine.self_us": mean("engine.episode", "self_s") * 1e6,
        "trainer.decision_us": mean("trainer.decision") * 1e6,
        "trainer.grad_step_ms": mean("trainer.grad_step") * 1e3,
        "frontend.overhead_us": frontend_overhead_s * 1e6 / episodes,
        "serve.response_kb": 0.0,
        "serve.rejected_ratio": 0.0,
    }
