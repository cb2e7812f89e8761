"""Guard: no new ``repro`` module or top-level name is one only tests use.

A module only tests import is dead weight: it is maintained, documented
and counted, yet no command, example, benchmark or library path runs
it.  This test walks the import graph with :mod:`ast` alone (nothing
scanned is imported) and fails naming every module nothing reaches,
apart from the known ones in :data:`TEST_ONLY`.

The walk starts from :data:`ROOTS` and from every ``repro`` import in
``benchmarks/``, ``examples/`` and ``perfbench/``, then follows each
``import`` and ``from ... import`` of ``repro.*`` -- function-local ones
included -- through ``src/repro``:

* ``from pkg import name`` resolves through the package ``__init__``'s
  re-exports to the module that defines ``name``;
* ``from pkg import submodule`` counts for the submodule;
* package ``__init__`` files only resolve names, so a module that only
  a re-export names is not reached; nor is one that only imports itself.

The same holds one level down, for each top-level public ``def`` and
``class`` of a module under ``src/repro`` (``__init__`` files excluded):
it counts as used when its identifier is read, as an ``ast.Name`` or an
``ast.Attribute``, outside its own body in ``src/repro``,
``benchmarks/``, ``examples/`` or a non-``test_*`` file of
``perfbench/``.  Imports and ``__all__`` strings are no reads.  The scan
matches names, not call paths: any read of the same identifier, from
another definition or an attribute of anything, counts, so it
under-reports.  The names nothing reads are pinned in
:data:`TEST_ONLY_NAMES`.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"

#: Modules that run without a scanned file importing them: the
#: ``repro-cds`` script's entry point, ``python -m repro``, and the
#: built-in backends, which ``repro.api`` imports so that they register
#: themselves (``create_backend`` then reaches them by name).
ROOTS = ("repro.cli", "repro.__main__", "repro.api.backends")

#: Directories whose code runs the library from outside it.
ENTRY_DIRS = ("benchmarks", "examples", "perfbench")

#: The modules only tests import today.  Each is to be deleted with its
#: tests, or wired into code that runs; the guard pins the set, so it
#: also fails when one of them is deleted or starts to run and this
#: tuple is not updated.
TEST_ONLY = (
    "repro.analysis.capacity",
    "repro.hls.schedule",
    "repro.io",
)

#: Top-level public names that nothing but tests reads today.  Each is
#: to be deleted with its tests, or wired into code that runs; the guard
#: pins the set, so it also fails when one of them is deleted or starts
#: to be read and this tuple is not updated.
TEST_ONLY_NAMES = (
    "repro.analysis.capacity.compare_platforms",
    "repro.analysis.compare.compare_ratio",
    "repro.analysis.metrics.geometric_mean",
    "repro.core.schedule.schedule_lengths",
    "repro.dataflow.engine.collector",
    "repro.dataflow.engine.feeder",
    "repro.dataflow.engine.transformer",
    "repro.dataflow.stats.stall_fraction",
    "repro.fpga.floorplan.require_fit_or_explain",
    "repro.hls.pragmas.DataflowPragma",
    "repro.hls.pragmas.StreamPragma",
    "repro.hls.schedule.analyse_loop",
    "repro.hls.schedule.listing1_accumulation_loop",
    "repro.hls.schedule.naive_accumulation_loop",
    "repro.io.curve_to_csv",
    "repro.io.curve_to_json",
    "repro.io.load_curve",
    "repro.io.load_portfolio",
    "repro.io.portfolio_to_csv",
    "repro.io.portfolio_to_json",
    "repro.io.result_to_json",
    "repro.io.save",
    "repro.risk.measures.expected_shortfall",
    "repro.risk.scenarios.recovery_shocks",
)


def _repro_imports(path: Path) -> list[tuple[str, str | None]]:
    """``(module, name)`` for each ``repro`` import in a file; ``name``
    is None for a plain ``import``."""
    found: list[tuple[str, str | None]] = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found += [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found += [(node.module, alias.name) for alias in node.names]
    return [(m, n) for m, n in found if m.split(".")[0] == "repro"]


def _reexports(init: Path) -> dict[str, tuple[str, str]]:
    """A package ``__init__``'s names -> the ``(module, name)`` it
    imports each from."""
    return {
        alias.asname or alias.name: (node.module, alias.name)
        for node in ast.parse(init.read_text()).body
        if isinstance(node, ast.ImportFrom) and node.level == 0
        for alias in node.names
    }


class ImportGraph:
    def __init__(self) -> None:
        self.files: dict[str, Path] = {}
        self.packages: set[str] = set()
        for path in sorted((SRC / "repro").rglob("*.py")):
            parts = path.relative_to(SRC).with_suffix("").parts
            if parts[-1] == "__init__":
                parts = parts[:-1]
                self.packages.add(".".join(parts))
            self.files[".".join(parts)] = path
        self.reexports = {pkg: _reexports(self.files[pkg]) for pkg in self.packages}

    def resolve(self, module: str, name: str | None = None) -> str | None:
        """The module an import reaches (None outside ``src/repro``)."""
        if name is not None and module in self.packages:
            if f"{module}.{name}" in self.files:
                return f"{module}.{name}"
            source = self.reexports[module].get(name)
            return self.resolve(*source) if source else None
        return module if module in self.files else None

    def imported_by(self, path: Path) -> set[str]:
        """The non-package modules a file imports."""
        reached = {self.resolve(m, n) for m, n in _repro_imports(path)}
        return reached - self.packages - {None}

    def unreached(self) -> list[str]:
        """Non-package modules no import reaches from the entry points."""
        frontier = set(ROOTS)
        for directory in ENTRY_DIRS:
            for path in sorted((REPO_ROOT / directory).rglob("*.py")):
                frontier |= self.imported_by(path)
        reached: set[str] = set()
        while frontier:
            module = frontier.pop()
            reached.add(module)
            frontier |= self.imported_by(self.files[module]) - reached
        return sorted(set(self.files) - self.packages - reached)


def _reads(tree: ast.AST) -> Counter:
    """How often each identifier is read as a name or an attribute."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def unread_names() -> list[str]:
    """``module.name`` of each top-level public ``def`` and ``class``
    whose identifier nothing outside its own body reads."""
    paths = sorted((SRC / "repro").rglob("*.py"))
    for directory in ENTRY_DIRS:
        paths += [
            path
            for path in sorted((REPO_ROOT / directory).rglob("*.py"))
            if directory != "perfbench" or not path.name.startswith("test_")
        ]
    trees = {path: ast.parse(path.read_text()) for path in paths}
    reads: Counter = Counter()
    for tree in trees.values():
        reads.update(_reads(tree))
    unread = []
    for path, tree in trees.items():
        if not path.is_relative_to(SRC) or path.name == "__init__.py":
            continue
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        unread += [
            f"{module}.{node.name}"
            for node in tree.body
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            )
            and not node.name.startswith("_")
            and reads[node.name] == _reads(node)[node.name]
        ]
    return sorted(unread)


def test_no_new_module_is_test_only():
    unreached = ImportGraph().unreached()
    new = sorted(set(unreached) - set(TEST_ONLY))
    assert not new, (
        "modules nothing outside tests/ imports -- delete them, or wire "
        f"them into the code that runs: {new}"
    )
    gone = sorted(set(TEST_ONLY) - set(unreached))
    assert not gone, f"now deleted or reached -- drop them from TEST_ONLY: {gone}"


def test_names_resolve_to_the_defining_module():
    graph = ImportGraph()
    # Re-exported twice: repro -> repro.core -> repro.core.types.
    assert graph.resolve("repro", "CDSOption") == "repro.core.types"
    assert graph.resolve("repro.api", "open_session") == "repro.api.session"
    assert graph.resolve("repro.analysis", "tables") == "repro.analysis.tables"
    assert graph.resolve("repro.core.pricing", "price_cds") == "repro.core.pricing"
    assert graph.resolve("repro.core.pricing") == "repro.core.pricing"
    assert graph.resolve("repro.nonexistent") is None


def test_no_new_name_is_test_only():
    unread = unread_names()
    new = sorted(set(unread) - set(TEST_ONLY_NAMES))
    assert not new, (
        "top-level names nothing outside tests/ reads -- delete them, or "
        f"wire them into the code that runs: {new}"
    )
    gone = sorted(set(TEST_ONLY_NAMES) - set(unread))
    assert not gone, (
        f"now deleted or read -- drop them from TEST_ONLY_NAMES: {gone}"
    )
