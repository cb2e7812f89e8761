"""The documentation's Python examples run as written.

Each ``python`` block of README.md and docs/api.md, and the library
quickstart and kernel-profiling blocks of docs/observability.md, is
executed verbatim in a fresh namespace with a temporary directory as the
working directory, so a block that writes a file (the quickstart writes
``trace.json``) leaves nothing in the checkout.  The backend registry is
restored after each block: docs/api.md's custom-backend block registers
a backend, which must not leak into other tests.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

import repro.api.registry

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
