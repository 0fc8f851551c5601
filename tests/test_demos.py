"""Each demo script runs to completion in a fresh interpreter."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import multiroute

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
# The directory that holds the ``multiroute`` package the tests import.
PACKAGE_ROOT = str(Path(multiroute.__file__).resolve().parents[1])


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("script", DEMOS, ids=[path.stem for path in DEMOS])
def test_demo_exits_0(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout
