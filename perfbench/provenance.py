"""Run manifest and accuracy against the paper's tables.

The manifest stamps every run with what it takes to reproduce it: the
seed, the resolved workload parameters, the package and interpreter
versions, the git commit when the checkout has one, and the machine.
"""

from __future__ import annotations

import os
import platform
from pathlib import Path

import numpy as np

import repro
from repro.analysis.tables import generate_table1, generate_table2
from repro.workloads.scenarios import PaperScenario

from workloads import BOOK_SEED

#: The relative error against the paper the table benchmarks assert.
PAPER_TOLERANCE = 0.25


def git_sha(root: Path) -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        return None
    return None


def cpu_model() -> str:
    """The CPU model string, or the machine type when it is not exposed."""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _blas() -> str:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return deps["blas"]["name"]
    except (TypeError, KeyError):
        return "unknown"


def manifest(root: Path, workload, seed: int, seconds: float, trace: bool) -> dict:
    """Everything needed to reproduce and attribute this run."""
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "params": {"book_seed": BOOK_SEED, **vars(workload)},
        "op": workload.op,
        "package": {"name": "repro-cds", "version": repro.__version__},
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "threads": {
            k: v for k, v in sorted(os.environ.items())
            if k.endswith(("_NUM_THREADS", "_MAXIMUM_THREADS"))
        },
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
    }


def paper_accuracy() -> list[tuple[str, str, float, float, float]]:
    """Regenerate Tables I and II; ``(config, quantity, simulated, paper,
    relative error)`` for every value the paper reports."""
    rows = []
    for r in generate_table1(PaperScenario(n_options=64)):
        if r.paper_options_per_second is not None:
            rows.append((
                r.key, "options/s", r.options_per_second,
                r.paper_options_per_second,
            ))
    for r in generate_table2(PaperScenario(n_options=250)):
        if r.paper is None:
            continue
        for quantity, got, paper in zip(
            ("options/s", "watts", "options/W"),
            (r.options_per_second, r.watts, r.options_per_watt),
            r.paper,
        ):
            rows.append((r.key, quantity, got, paper))
    return [(k, q, got, paper, abs(got / paper - 1.0)) for k, q, got, paper in rows]
