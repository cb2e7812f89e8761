"""The documentation's Python examples run as written.

Each ``python`` block of README.md and docs/api.md, and the library
quickstart and kernel-profiling blocks of docs/observability.md, is
executed verbatim in a fresh namespace with a temporary directory as the
working directory, so a block that writes a file (the quickstart writes
``trace.json``) leaves nothing in the checkout.  The backend registry is
restored after each block: docs/api.md's custom-backend block registers
a backend, which must not leak into other tests.

Every backticked ``repro.*`` dotted path in README.md and ``docs/``
must also resolve, through :mod:`ast` as the orphan guard resolves
imports: to a module, or to a module and a name defined or imported at
its top level.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

import repro.api.registry
from tests.test_orphan_modules import ImportGraph

REPO_ROOT = Path(__file__).resolve().parents[1]

#: A fenced ``python`` block: the code between the fences.
PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```$", re.MULTILINE | re.DOTALL)


def _blocks(text: str) -> list[str]:
    return PYTHON_BLOCK.findall(text)


def _first_block_under(page: str, heading: str) -> str:
    """The first block under ``heading`` of ``docs/<page>``."""
    text = (REPO_ROOT / "docs" / page).read_text()
    return _blocks(text.split(heading, 1)[1])[0]


SNIPPETS = {
    f"{name}:{i}": code
    for name in ("README.md", "docs/api.md")
    for i, code in enumerate(_blocks((REPO_ROOT / name).read_text()), 1)
}
SNIPPETS["docs/observability.md:quickstart"] = _first_block_under(
    "observability.md", "## Quickstart (library)"
)
SNIPPETS["docs/observability.md:kernel-profiling"] = _first_block_under(
    "observability.md", "## Kernel profiling"
)


@pytest.mark.parametrize("code", SNIPPETS.values(), ids=SNIPPETS.keys())
def test_snippet_runs(code, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(
        repro.api.registry, "_FACTORIES", dict(repro.api.registry._FACTORIES)
    )
    exec(compile(code, "<snippet>", "exec"), {"__name__": "__snippet__"})


#: A backticked dotted path into the package, e.g. ``repro.sim.Resource``.
DOTTED_PATH = re.compile(r"`(repro(?:\.\w+)+)`")

DOC_PAGES = ["README.md"] + sorted(
    f"docs/{page.name}" for page in (REPO_ROOT / "docs").glob("*.md")
)


def _top_level_names(path: Path) -> set[str]:
    """Names a module defines or imports at its top level."""
    names: set[str] = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {a.asname or a.name.split(".")[0] for a in node.names}
    return names


def _resolves(dotted: str, graph: ImportGraph) -> bool:
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        module = ".".join(parts[:cut])
        if module in graph.files:
            rest = parts[cut:]
            return not rest or (
                len(rest) == 1 and rest[0] in _top_level_names(graph.files[module])
            )
    return False


def test_every_documented_repro_path_resolves():
    graph = ImportGraph()
    stale = [
        f"{page}: {dotted}"
        for page in DOC_PAGES
        for dotted in DOTTED_PATH.findall((REPO_ROOT / page).read_text())
        if not _resolves(dotted, graph)
    ]
    assert not stale, "documented paths that no longer resolve:\n" + "\n".join(
        stale
    )


def test_path_resolution_rule():
    graph = ImportGraph()
    assert _resolves("repro.sim", graph)
    assert _resolves("repro.sim.Resource", graph)  # a package re-export
    assert _resolves("repro.monitor.regress.STUDIES", graph)
    assert not _resolves("repro.analysis.session", graph)
    assert not _resolves("repro.sim.Process", graph)
    assert not _resolves("repro.sim.resources.Resource.reserve", graph)
