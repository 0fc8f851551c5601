"""Package modules use each other only through public names, and the
package does not import ``requests``.

A ``_``-prefixed name is private to the module that defines it; importing
one from another package module couples the two on an implementation
detail.  This test parses every module under ``src/multiroute/`` and fails on
any such import.  The HTTP clients use the standard library, so ``requests``
is a test dependency only.  ``rewards.check_field_types`` alone decides that
a config number is finite, so no ``__post_init__`` repeats that check.  The
server runs for a long time, so no memo of a function with parameters is
unbounded.  Every config section is built in ``config.py``, so no other
module imports its section helpers; ``serve`` shares its one JSON-object rule
for a request body.  Imports sit at a module's top level only, besides an
``if TYPE_CHECKING:`` block.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = "multiroute"
PACKAGE_DIR = Path(__file__).resolve().parents[1] / "src" / PACKAGE


def private_imports(source: str, filename: str = "<source>") -> list[str]:
    """``from <package module> import _name`` statements in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != PACKAGE:
            continue
        for alias in node.names:
            name = alias.name
            if name.startswith("_") and not name.endswith("__"):
                found.append(
                    f"{filename}:{node.lineno}: "
                    f"from {'.' * node.level}{module} import {name}"
                )
    return found


MODULES = sorted(PACKAGE_DIR.glob("*.py"))


def test_package_modules_are_found():
    assert {"cli.py", "engine.py", "serve.py"} <= {path.name for path in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_module_imports_no_private_names(path):
    assert private_imports(path.read_text(encoding="utf-8"), path.name) == []


def nested_imports(source: str, filename: str = "<source>") -> list[str]:
    """``<file>:<line>`` for each import in ``source`` that is not a
    statement of the module itself or of its ``if TYPE_CHECKING:`` block."""
    found = []
    for statement in ast.parse(source, filename=filename).body:
        if isinstance(statement, (ast.Import, ast.ImportFrom)) or (
            isinstance(statement, ast.If)
            and isinstance(statement.test, ast.Name)
            and statement.test.id == "TYPE_CHECKING"
        ):
            continue
        found.extend(
            node.lineno
            for node in ast.walk(statement)
            if isinstance(node, (ast.Import, ast.ImportFrom))
        )
    return [f"{filename}:{line}" for line in sorted(found)]


def test_checker_finds_imports_below_the_top_level():
    source = (
        "import os\n"
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from .pool import RoutingPool\n"
        "def f():\n"
        "    from .rewards import normalize_answer\n"
        "    def g():\n"
        "        import json\n"
        "class A:\n"
        "    def m(self):\n"
        "        import re\n"
    )
    assert nested_imports(source) == ["<source>:6", "<source>:8", "<source>:11"]


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_module_imports_only_at_its_top_level(path):
    """A module's imports are read at its top, so a function body imports
    nothing and an import cycle shows up when the module loads."""
    assert nested_imports(path.read_text(encoding="utf-8"), path.name) == []


def test_checker_flags_relative_and_absolute_private_imports():
    source = (
        "from .cli import _policy_factory\n"
        "from multiroute.pool import chat_completion, _reply_fields\n"
        "from . import __version__\n"
        "from os import _exit\n"
    )
    assert private_imports(source) == [
        "<source>:1: from .cli import _policy_factory",
        "<source>:2: from multiroute.pool import _reply_fields",
    ]


def test_utf8_line_rule_lives_only_in_read_jsonl():
    """Only ``pool.read_jsonl`` decodes with ``surrogateescape``, so every
    JSONL reader shares its one rule for a line that is not UTF-8."""
    counts = {
        path.name: path.read_text(encoding="utf-8").count("surrogateescape")
        for path in MODULES
    }
    assert {name: n for name, n in counts.items() if n} == {"pool.py": 1}


# The names of ``config`` that other package modules may import.
CONFIG_API = {
    "ConfigError",
    "RunConfig",
    "json_object",
    "load_run_config",
    "policy_factory",
}


def names_imported_from(source: str, module: str) -> set[str]:
    """The names that ``source`` imports from the package module ``module``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
            (node.level == 1 and node.module == module)
            or (node.level == 0 and node.module == f"{PACKAGE}.{module}")
        ):
            found.update(alias.name for alias in node.names)
    return found


def test_checker_finds_names_imported_from_a_module():
    source = (
        "from .config import RunConfig, read_json\n"
        "from multiroute.config import build_section\n"
        "from .pool import read_jsonl\n"
        "from other.config import x\n"
    )
    assert names_imported_from(source, "config") == {
        "RunConfig", "read_json", "build_section"
    }


def test_config_sections_are_built_only_in_config():
    """Only ``config.py`` uses its section helpers; the other modules take a
    loaded run config, its error and the policy factory."""
    extra = {
        path.name: names_imported_from(path.read_text(encoding="utf-8"), "config")
        - CONFIG_API
        for path in MODULES
        if path.name != "config.py"
    }
    assert {name: names for name, names in extra.items() if names} == {}


def colon_partitions(source: str) -> list[str]:
    """The function around each ``.partition(":")`` call in ``source``, or
    ``<module>`` for a call outside any function."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr == "partition"
                and len(child.args) == 1
                and isinstance(child.args[0], ast.Constant)
                and child.args[0].value == ":"
            ):
                found.append(where)
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


def test_checker_finds_colon_partitions():
    source = (
        "a, _, b = text.partition(':')\n"
        "def f(t):\n"
        "    def g(u):\n"
        "        return u.partition(':')\n"
        "    return t.partition(':'), t.rpartition(':'), t.partition(',')\n"
    )
    assert colon_partitions(source) == ["<module>", "g", "f"]


def test_route_directive_grammar_lives_only_in_parse_route_directive():
    """Only ``protocol.parse_route_directive`` splits text at its first
    colon, so a route interior is read as a directive by one rule."""
    sites = {
        path.name: colon_partitions(path.read_text(encoding="utf-8"))
        for path in MODULES
    }
    assert {name: s for name, s in sites.items() if s} == {
        "protocol.py": ["parse_route_directive"]
    }


def imported_top_modules(source: str) -> set[str]:
    """First components of the absolute imports in ``source``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add((node.module or "").split(".")[0])
    return found


def test_checker_finds_plain_and_from_imports():
    source = "import requests.adapters\nfrom numpy import array\nfrom . import pool\n"
    assert imported_top_modules(source) == {"requests", "numpy"}


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_module_does_not_import_requests(path):
    assert "requests" not in imported_top_modules(path.read_text(encoding="utf-8"))


def test_front_ends_leave_requests_unloaded():
    code = (
        "import sys, multiroute.cli, multiroute.serve; "
        "print('requests' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        env=dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent)),
        check=True,
    )
    assert result.stdout == "False\n"


def finite_checks_in_post_inits(source: str) -> list[str]:
    """``__post_init__:<line>`` for each place a ``__post_init__`` in
    ``source`` names ``math.inf`` or ``math.isfinite``, or a bare ``inf`` or
    ``isfinite``."""
    names = {"inf", "isfinite"}
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.FunctionDef) and node.name == "__post_init__"):
            continue
        for inner in ast.walk(node):
            if (
                isinstance(inner, ast.Attribute)
                and inner.attr in names
                and isinstance(inner.value, ast.Name)
                and inner.value.id == "math"
            ) or (isinstance(inner, ast.Name) and inner.id in names):
                found.append(f"{node.name}:{inner.lineno}")
    return found


def test_checker_finds_finite_checks_in_post_init():
    source = (
        "class A:\n"
        "    def __post_init__(self):\n"
        "        if not 0 < self.x < math.inf:\n"
        "            pass\n"
        "        if not isfinite(self.y):\n"
        "            pass\n"
        "    def other(self):\n"
        "        return math.isfinite(self.x)\n"
    )
    assert finite_checks_in_post_inits(source) == ["__post_init__:3", "__post_init__:5"]


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_only_check_field_types_rules_numbers_finite(path):
    """``rewards.check_field_types`` is the one place that rejects NaN and
    the infinities in a config number, so no ``__post_init__`` repeats it."""
    source = path.read_text(encoding="utf-8")
    assert finite_checks_in_post_inits(source) == []


# Decorators whose ``maxsize`` must be an integer constant.
BOUNDED_MEMOS = {"lru_cache", "memoize_short_text"}


def unbounded_memos(source: str, filename: str = "<source>") -> list[str]:
    """``<file>:<line>: <function>`` for each function with parameters that is
    decorated with ``functools.cache``, or with a memo from ``BOUNDED_MEMOS``
    whose ``maxsize`` is ``None`` or not a constant."""
    found = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        if not any(
            (args.posonlyargs, args.args, args.kwonlyargs, args.vararg, args.kwarg)
        ):
            continue
        for decorator in node.decorator_list:
            call = decorator if isinstance(decorator, ast.Call) else None
            target = call.func if call else decorator
            name = getattr(target, "attr", getattr(target, "id", ""))
            if name == "cache":
                unbounded = True
            elif name in BOUNDED_MEMOS and call is not None:
                sizes = call.args[:1] + [
                    k.value for k in call.keywords if k.arg == "maxsize"
                ]
                unbounded = not (
                    sizes
                    and isinstance(sizes[0], ast.Constant)
                    and type(sizes[0].value) is int
                )
            else:
                unbounded = False
            if unbounded:
                found.append(f"{filename}:{node.lineno}: {node.name}")
    return found


def test_checker_finds_unbounded_memos():
    source = (
        "@functools.cache\n"
        "def a(x): pass\n"
        "@cache\n"
        "def b(*xs): pass\n"
        "@functools.lru_cache(maxsize=None)\n"
        "def c(x): pass\n"
        "@lru_cache(None)\n"
        "def d(x): pass\n"
        "@lru_cache(maxsize=SIZE)\n"
        "def e(x): pass\n"
        "@memoize_short_text(maxsize=None)\n"
        "def f(x): pass\n"
        "@functools.cache\n"
        "def no_parameters(): pass\n"
        "@functools.lru_cache(maxsize=64)\n"
        "def bounded(x): pass\n"
        "@lru_cache\n"
        "def default_size(x): pass\n"
        "@memoize_short_text(256)\n"
        "def short_texts(x): pass\n"
    )
    assert unbounded_memos(source) == [
        f"<source>:{line}: {name}"
        for line, name in [(2, "a"), (4, "b"), (6, "c"), (8, "d"), (10, "e"), (12, "f")]
    ]


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_memos_of_functions_with_parameters_are_bounded(path):
    assert unbounded_memos(path.read_text(encoding="utf-8"), path.name) == []
