"""Guard: no scalar check in ``src/`` lets NaN through.

``if x < 0: raise ...`` accepts NaN, because every ordered comparison
with NaN is false.  A check that refuses must be written so that NaN
fails it: negated (``if not x >= 0``), through one of the scalar checks
of :mod:`repro.core.validation`, or next to an explicit ``isfinite`` /
``isnan`` / ``is_index`` test of the same operand.

This test reads ``src/repro`` with :mod:`ast` alone (nothing scanned is
imported) and fails naming every guard -- an ``if`` whose body is a
single ``raise`` of ``ValidationError``, ``CurveError`` or
``ScheduleError`` -- whose test compares a name, attribute or subscript
to a numeric literal with ``<``, ``<=``, ``>`` or ``>=`` outside any
``not``, unless that same operand is also passed to ``isfinite``,
``isnan`` or ``is_index`` in the test.  Comparisons inside calls count
too: ``np.any(x < 0)`` and ``any(v <= 0 for v in vs)`` pass NaN as well.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

RAISED = {"ValidationError", "CurveError", "ScheduleError"}
ORDERED = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)
OPERANDS = (ast.Name, ast.Attribute, ast.Subscript)
NAN_AWARE = {"isfinite", "isnan", "is_index"}


def _called(node: ast.AST) -> str | None:
    func = node.func if isinstance(node, ast.Call) else None
    if isinstance(func, ast.Name):
        return func.id
    return func.attr if isinstance(func, ast.Attribute) else None


def _is_guard(node: ast.AST) -> bool:
    if not isinstance(node, ast.If) or len(node.body) != 1:
        return False
    stmt = node.body[0]
    return isinstance(stmt, ast.Raise) and _called(stmt.exc) in RAISED


def _is_number(node: ast.AST) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, (int, float))
        and not isinstance(node.value, bool)
    )


def _unguarded(test: ast.expr) -> list[str]:
    """Operands the test compares to a number where NaN slips through."""
    aware = {
        ast.dump(arg)
        for node in ast.walk(test)
        if _called(node) in NAN_AWARE
        for arg in node.args
    }
    found: list[str] = []

    def visit(node: ast.AST) -> None:
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            return  # a negated comparison fails on NaN
        if isinstance(node, ast.Compare):
            terms = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, terms, terms[1:]):
                if not isinstance(op, ORDERED):
                    continue
                for operand, other in ((left, right), (right, left)):
                    if (
                        isinstance(operand, OPERANDS)
                        and _is_number(other)
                        and ast.dump(operand) not in aware
                    ):
                        found.append(ast.unparse(operand))
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(test)
    return found


def nan_unsafe_guards(root: Path = SRC) -> list[str]:
    """``path:line: operand`` for every NaN-unsafe scalar guard."""
    out = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if _is_guard(node):
                out += [
                    f"{path.relative_to(root.parent)}:{node.lineno}: {operand}"
                    for operand in _unguarded(node.test)
                ]
    return out


def test_no_scalar_guard_lets_nan_through():
    unsafe = nan_unsafe_guards()
    assert not unsafe, (
        "guards a NaN passes -- negate the comparison (`not x >= 0`) or "
        "call a repro.core.validation check:\n" + "\n".join(unsafe)
    )


def _flagged(source: str) -> list[str]:
    tree = ast.parse(source)
    return [
        op for node in ast.walk(tree) if _is_guard(node)
        for op in _unguarded(node.test)
    ]


def test_the_rule_flags_what_nan_passes_and_nothing_else():
    raise_ = "\n    raise ValidationError('x')"
    assert _flagged("if x < 0:" + raise_) == ["x"]
    assert _flagged("if self.n <= 0 or y > 1:" + raise_) == ["self.n", "y"]
    assert _flagged("if a[0] >= -1.5:" + raise_) == ["a[0]"]
    assert _flagged("if any(v <= 0 for v in vs):" + raise_) == ["v"]
    assert _flagged("if not x >= 0:" + raise_) == []
    assert _flagged("if not 0 < x < math.inf:" + raise_) == []
    assert _flagged("if not math.isfinite(x) or x < 0:" + raise_) == []
    assert _flagged("if not is_index(n) or n < 1:" + raise_) == []
    assert _flagged("if len(e) < 2:" + raise_) == []
    assert _flagged("if b <= a:" + raise_) == []
    assert _flagged("if x < 0:\n    raise KeyError('x')") == []
    assert _flagged("if x < 0:\n    y = 1" + raise_) == []
