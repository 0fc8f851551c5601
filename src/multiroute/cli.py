"""Command-line interface.

Subcommands: route (one question), eval (task file -> metrics), train
(task file -> params + metric series), reward-check (recompute rewards for
logged trajectories), serve (HTTP service).  Flags override config-file
values, which override defaults.  Exit code 2 flags config or input-file
problems; exit code 1 flags a policy that failed: an endpoint, or a
decision whose action probabilities are not finite.
"""

from __future__ import annotations

import argparse
import json
import math
import reprlib
import sys

from .config import ConfigError, RunConfig, load_run_config
from .engine import reconstruct_cost, score_episode
from .evaluation import (
    TaskRecord,
    evaluate,
    is_gold_list,
    load_tasks,
    report,
    write_episode_log,
)
from .policies import policy_factory
from .pool import BackendError, BackendTimeout, LineError, read_jsonl
from .protocol import extract_answer, validate_format
from .rewards import CostWindow, cost_reward
from .serve import (
    DEFAULT_HOST,
    DEFAULT_MAX_INFLIGHT,
    DEFAULT_PORT,
    Router,
    serve_forever,
)
from .trainer import NonFiniteDecisionError, check_feature_dim, train


class CliError(Exception):
    pass


def cmd_route(args: argparse.Namespace, run: RunConfig) -> int:
    try:
        task = TaskRecord(id=None, question=args.question, golds=args.gold)
    except ValueError as exc:
        raise CliError(f"route: {exc}")
    print(json.dumps(Router(run).route(task), sort_keys=True))
    return 0


def _load_nonempty_tasks(path: str) -> list[TaskRecord]:
    tasks = load_tasks(path)
    if not tasks:
        raise CliError(f"{path}: no tasks")
    return tasks


def cmd_eval(args: argparse.Namespace, run: RunConfig) -> int:
    tasks = _load_nonempty_tasks(args.tasks)
    factory = policy_factory(run)
    summary, episodes = evaluate(
        tasks,
        factory,
        run.pool,
        run.engine,
        run.reward,
        warmup_costs=run.eval_warmup_costs,
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(summary.to_record(), sort_keys=True) + "\n")
    if args.episodes_log:
        write_episode_log(args.episodes_log, episodes)
    # Printed last, so a file that cannot be written leaves stdout empty.
    print(report(summary, fmt=args.format))
    return 0


def cmd_train(args: argparse.Namespace, run: RunConfig) -> int:
    try:
        check_feature_dim(run.trainer.feature_dim, run.engine.max_routing_steps)
    except ValueError as exc:
        raise CliError(f"trainer: {exc}") from None
    tasks = _load_nonempty_tasks(args.tasks)
    result = train(
        tasks,
        run.pool,
        run.trainer,
        run.reward,
        run.engine,
        warmup_costs=run.eval_warmup_costs,
    )
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            for record in result.step_records():
                handle.write(json.dumps(record, sort_keys=True) + "\n")
    if args.params_out:
        with open(args.params_out, "w", encoding="utf-8") as handle:
            handle.write(result.params.to_json() + "\n")
    final_reward = result.mean_reward[-1] if result.mean_reward else None
    print(
        json.dumps(
            {
                "steps": len(result.mean_reward),
                "final_mean_reward": final_reward,
            },
            sort_keys=True,
        )
    )
    return 0


def cmd_reward_check(args: argparse.Namespace, run: RunConfig) -> int:
    window = CostWindow(run.reward.window_capacity)
    for cost in run.eval_warmup_costs:
        cost_reward(window, cost, run.reward)
    records = []
    try:
        for line_no, row in read_jsonl(args.file):
            try:
                raw = row["raw"]
            except (KeyError, TypeError) as exc:
                raise LineError(line_no, f"bad trajectory row: {exc}") from None
            if not isinstance(raw, str):
                raise LineError(line_no, "raw must be a string")
            golds = row.get("golden_answers")
            if golds is not None and not is_gold_list(golds):
                detail = "golden_answers must be a nonempty string list"
                raise LineError(line_no, detail)
            verdict = validate_format(raw, run.engine.lexicon, run.pool)
            trajectory = verdict.trajectory
            cost = reconstruct_cost(trajectory, run.pool) if trajectory else 0.0
            if not math.isfinite(cost):
                raise LineError(line_no, "re-priced cost is not finite")
            breakdown = score_episode(
                verdict,
                extract_answer(trajectory) if trajectory else None,
                golds,
                cost,
                window,
                run.reward,
            )
            record = {
                "id": row.get("id", line_no),
                "ok": verdict.ok,
                "violations": [v.to_record() for v in verdict.violations],
                **breakdown.to_record(),
            }
            records.append(json.dumps(record, sort_keys=True) + "\n")
    except LineError as exc:
        raise CliError(f"{args.file}:{exc.line_no}: {exc.detail}") from None
    # Printed once every row has scored, so a bad row leaves stdout empty.
    sys.stdout.write("".join(records))
    return 0


def cmd_serve(args: argparse.Namespace, run: RunConfig) -> int:
    host, _, port = args.bind.rpartition(":")
    digits = port.isascii() and port.isdigit() and len(port) <= 5
    if not host or not digits or int(port) > 65535:
        raise CliError(
            "serve: --bind must be host:port with a port from 0 to 65535, "
            f"got {reprlib.repr(args.bind)}"
        )
    if args.max_inflight < 0:
        raise CliError(f"serve: --max-inflight must be >= 0, got {args.max_inflight}")
    serve_forever(run, host, int(port), max_inflight=args.max_inflight)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multiroute",
        description="Multi-round LLM routing: run, evaluate, train, audit, serve.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def override(p, flag, key, type):
        p.add_argument(flag, dest=key, type=type, default=None,
                       help=f"override {key}")

    def add_common(p):
        p.add_argument("--config", required=True, help="run config JSON file")
        override(p, "--alpha", "reward.alpha", float)

    p_route = sub.add_parser("route", help="answer one question")
    add_common(p_route)
    p_route.add_argument("--question", required=True)
    p_route.add_argument("--gold", action="append", default=None,
                         help="golden answer (repeatable); enables rewards")
    override(p_route, "--seed", "seed", int)
    override(p_route, "--max-routing-steps", "engine.max_routing_steps", int)
    p_route.set_defaults(func=cmd_route)

    p_eval = sub.add_parser("eval", help="evaluate a policy on a task file")
    add_common(p_eval)
    p_eval.add_argument("--tasks", required=True, help="JSONL task file")
    p_eval.add_argument("--out", default=None, help="write metrics JSON here")
    p_eval.add_argument("--episodes-log", default=None,
                        help="write per-episode JSONL here")
    p_eval.add_argument("--format", choices=("table", "machine"), default="table")
    override(p_eval, "--seed", "seed", int)
    p_eval.set_defaults(func=cmd_eval)

    p_train = sub.add_parser("train", help="train the routing policy")
    add_common(p_train)
    p_train.add_argument("--tasks", required=True, help="JSONL task file")
    p_train.add_argument("--metrics-out", default=None,
                         help="write per-step metrics JSONL here")
    p_train.add_argument("--params-out", default=None,
                         help="write trained params JSON here")
    override(p_train, "--steps", "trainer.steps", int)
    override(p_train, "--batch-size", "trainer.batch_size", int)
    override(p_train, "--learning-rate", "trainer.learning_rate", float)
    override(p_train, "--beta", "trainer.beta", float)
    override(p_train, "--seed", "trainer.seed", int)
    p_train.set_defaults(func=cmd_train)

    p_check = sub.add_parser(
        "reward-check", help="recompute rewards for logged trajectories"
    )
    add_common(p_check)
    p_check.add_argument("--file", required=True,
                         help="JSONL of {raw, golden_answers?} rows")
    p_check.set_defaults(func=cmd_reward_check)

    p_serve = sub.add_parser("serve", help="serve routing over HTTP")
    add_common(p_serve)
    p_serve.add_argument("--bind", default=f"{DEFAULT_HOST}:{DEFAULT_PORT}")
    p_serve.add_argument("--max-inflight", type=int, default=DEFAULT_MAX_INFLIGHT)
    override(p_serve, "--seed", "seed", int)
    p_serve.set_defaults(func=cmd_serve)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Override flags (``override`` in build_parser) store their values under
    # config keys: a dotted section key, or the top-level seed.
    overrides = {k: v for k, v in vars(args).items() if "." in k or k == "seed"}
    try:
        return args.func(args, load_run_config(args.config, overrides))
    except (BackendError, BackendTimeout, NonFiniteDecisionError) as exc:
        print(f"error: policy: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, LineError, CliError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    except OSError as exc:
        detail = f"{exc.filename}: {exc.strerror}" if exc.filename else exc
        print(f"error: {detail}", file=sys.stderr)
    return 2


def script_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    script_main()
