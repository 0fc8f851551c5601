"""Shared helpers: statistics, /proc readers, run environment, child processes.

Every file the benchmark writes goes under ``WORK_DIR`` inside the checkout;
``/proc`` is only ever read.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")

# Seconds a child process gets to report that it is ready, or to exit.
CHILD_TIMEOUT_S = 60.0

_CLK_TCK = os.sysconf("SC_CLK_TCK")


# --------------------------------------------------------------------------
# statistics


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile (rank = q * (n - 1)) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of an empty sample")
    rank = q * (len(ordered) - 1)
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def median(values) -> float:
    return quantile(values, 0.5)


def summarize(values) -> dict:
    """Median, the highest percentile with at least ten samples beyond it,
    and the sample count."""
    n = len(values)
    out = {"median": median(values), "n": n}
    for pct in (99.9, 99.0, 90.0):
        if n * (1.0 - pct / 100.0) >= 10.0:
            out[f"p{pct:g}"] = quantile(values, pct / 100.0)
            break
    return out


# --------------------------------------------------------------------------
# /proc readers (read only)


def steal_jiffies() -> int:
    """Cumulative VM steal time of all CPUs, in clock ticks."""
    with open("/proc/stat", encoding="ascii") as handle:
        fields = handle.readline().split()
    return int(fields[8])


def proc_cpu_seconds(pid: int) -> float:
    """User plus system CPU time of one process, from /proc/<pid>/stat."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        rest = handle.read().rsplit(")", 1)[1].split()
    return (int(rest[11]) + int(rest[12])) / _CLK_TCK


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set size (VmHWM) of one process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------------------
# run environment


def _git_sha() -> str:
    """HEAD commit read from .git without running git; "unknown" outside a
    repository."""
    git_dir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD"), encoding="ascii") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git_dir, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="ascii") as handle:
                return handle.read().strip()
        with open(os.path.join(git_dir, "packed-refs"), encoding="ascii") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """sha256 over every .py file under src/, so two checkouts can be told
    apart even where no git metadata exists."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(SRC)):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def environment() -> dict:
    import numpy
    import requests

    return {
        "git_sha": _git_sha(),
        "src_sha256": source_digest(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "requests": requests.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


# --------------------------------------------------------------------------
# scratch files and child processes


def make_work_dir() -> str:
    os.makedirs(WORK_DIR, exist_ok=True)
    return tempfile.mkdtemp(prefix="run-", dir=WORK_DIR)


def remove_work_dir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)


def write_json(path: str, payload) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True)
    return path


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


class Child:
    """A benchmark helper process speaking JSON lines on stdout.

    The child prints one JSON line when ready and exits when its stdin
    closes, printing any final JSON line first.
    """

    def __init__(self, script: str, *args: str):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(BENCH_DIR, script), *args],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=ROOT,
            env=child_env(),
            text=True,
        )
        self.ready = self.read_line()

    @property
    def pid(self) -> int:
        return self.proc.pid

    def read_line(self) -> dict:
        """Next JSON line from the child; kills it if none comes in time."""
        timer = threading.Timer(CHILD_TIMEOUT_S, self.proc.kill)
        timer.start()
        try:
            line = self.proc.stdout.readline()
        finally:
            timer.cancel()
        if not line:
            self.stop()
            raise RuntimeError(
                f"child {self.proc.args[1]} exited with {self.proc.returncode}"
            )
        return json.loads(line)

    def stop(self, timeout: float = CHILD_TIMEOUT_S) -> list[dict]:
        """Close stdin, collect the remaining JSON lines and reap the child."""
        if self.proc.returncode is not None:
            return []
        try:
            tail, _ = self.proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            tail, _ = self.proc.communicate()
        return [json.loads(line) for line in (tail or "").splitlines() if line]


@dataclass
class Phase:
    """What one workload phase measured.

    ``e2e`` holds the end-to-end metric values and ``samples`` their
    distributions; ``output`` is the canonical text of the program's
    outputs, compared between runs of one seed; ``layers`` is filled only by
    traced phases.
    """

    e2e: dict
    samples: dict
    attempted: int
    failed: int
    checks: dict
    output: str
    layers: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)
