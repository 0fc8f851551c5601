"""Walkthrough of the trajectory tag protocol.

A routing trajectory is plain text structured by paired tags: the policy
thinks in <think> blocks, requests help with <search>Model-Name: sub-query
</search>, receives replies inside <information> blocks, and commits to a
final <answer>.  This script parses a well-formed trajectory, shows the
block structure and the loss mask, then runs the format validator over a
few broken variants to show which rule each one trips.
"""

from __future__ import annotations

from multiroute import (
    DEFAULT_LEXICON,
    BlockKind,
    ModelDescriptor,
    RoutingPool,
    SimulatedBackend,
    SimulatedProfile,
    extract_answer,
    loss_mask,
    parse_route_directive,
    parse_trajectory,
    validate_format,
)

GOOD = (
    "<think>The question asks for a city; the large model should know."
    "</think>\n"
    "<search>LLaMA-3.1-70B-Instruct: Where did Pachacuti die?</search>\n"
    "<information>Pachacuti died in Cusco.</information>\n"
    "<think>That settles it.</think>\n"
    "<answer>Cusco</answer>"
)

BROKEN = {
    "unclosed think tag": GOOD.replace("</think>\n<answer>", "\n<answer>"),
    "route before any thinking": (
        "<search>LLaMA-3.1-70B-Instruct: hm?</search>\n"
        "<information>reply</information>\n<answer>Cusco</answer>"
    ),
    "two answers": GOOD + "<answer>Lima</answer>",
    "route without an information reply": (
        "<think>hm</think><search>LLaMA-3.1-70B-Instruct: hm?</search>"
        "<answer>Cusco</answer>"
    ),
    "unknown model in the directive": GOOD.replace(
        "LLaMA-3.1-70B-Instruct", "GPT-9000"
    ),
}


def build_pool() -> RoutingPool:
    return RoutingPool(
        [
            ModelDescriptor(
                "llama-3.1-70b-instruct",
                "LLaMA-3.1-70B-Instruct",
                70,
                0.9,
                "a large general model, strong at factual recall",
                SimulatedBackend(SimulatedProfile(verbosity=32, seed=1)),
            )
        ]
    )


def main() -> None:
    pool = build_pool()

    print("=== parsing a well-formed trajectory ===")
    trajectory = parse_trajectory(GOOD, DEFAULT_LEXICON)
    for block in trajectory.blocks:
        start, end = block.span
        preview = block.text if len(block.text) <= 48 else block.text[:45] + "..."
        print(f"  [{start:3d},{end:3d})  {block.kind.name:<6} {preview!r}")
        if block.kind is BlockKind.ROUTE:
            model_id, sub_query = parse_route_directive(block.text, pool)
            print(f"        directive -> model={model_id!r} sub_query={sub_query!r}")

    print("\nfinal answer:", extract_answer(trajectory))
    print("loss-mask spans (info blocks are env-injected, not policy output):")
    for start, end in loss_mask(trajectory):
        print(f"  masked [{start},{end}): {GOOD[start:end]!r}")

    print("\n=== validating the good text ===")
    verdict = validate_format(GOOD, DEFAULT_LEXICON, pool)
    print("  ok =", verdict.ok)

    print("\n=== validating broken variants ===")
    for label, text in BROKEN.items():
        verdict = validate_format(text, DEFAULT_LEXICON, pool)
        rules = sorted(rule.value for rule in verdict.violated_rules)
        print(f"  {label:<38} -> {rules}")


if __name__ == "__main__":
    main()
