"""The documentation's Python examples run as written.

Each ``python`` block of README.md, and the library quickstart of
docs/observability.md, is executed verbatim in a fresh namespace with a
temporary directory as the working directory, so a block that writes a
file (the quickstart writes ``trace.json``) leaves nothing in the
checkout.  docs/api.md's blocks are left out: one of them registers a
backend for the whole process.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

#: A fenced ``python`` block: the code between the fences.
PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```$", re.MULTILINE | re.DOTALL)


def _blocks(text: str) -> list[str]:
    return PYTHON_BLOCK.findall(text)


def _quickstart() -> str:
    """The first block under docs/observability.md's library quickstart."""
    text = (REPO_ROOT / "docs" / "observability.md").read_text()
    return _blocks(text.split("## Quickstart (library)", 1)[1])[0]


SNIPPETS = {
    f"README.md:{i}": code
    for i, code in enumerate(_blocks((REPO_ROOT / "README.md").read_text()), 1)
}
SNIPPETS["docs/observability.md:quickstart"] = _quickstart()


@pytest.mark.parametrize("code", SNIPPETS.values(), ids=SNIPPETS.keys())
def test_snippet_runs(code, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exec(compile(code, "<snippet>", "exec"), {"__name__": "__snippet__"})
