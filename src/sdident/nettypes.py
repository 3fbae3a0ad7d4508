"""The A/B/C/D type algebra over series/parallel composition.

Every spring-dashpot constitutive equation falls in one of four shape
classes, determined by the strain-side shape relative to the highest
stress order n (the stress side always has shape [n, 0]):

    A: strain [n, 0]      B: strain [n+1, 1]
    C: strain [n+1, 0]    D: strain [n, 1]

Composing two networks maps their classes through one of two symmetric
5x5 tables (one per connection kind) over {A, B, C, D, u}, where ``u``
marks an unidentifiable result and absorbs everything.  Folding a whole
expression through the tables (springs start as A, dashpots as B)
decides local identifiability without deriving any equation.
"""

from __future__ import annotations

from enum import Enum

from .network import SPRING, Leaf, NetworkExpr, Record, Series, subtree_texts
from .opalg import InvariantViolation, Shape


class NetType(str, Enum):
    A = "A"
    B = "B"
    C = "C"
    D = "D"
    U = "u"

    def __str__(self) -> str:
        return self.value


# Composition tables, stored as data so they can be audited row by row.
_PARALLEL_TABLE = {
    "A": {"A": "u", "B": "C", "C": "u", "D": "A", "u": "u"},
    "B": {"A": "C", "B": "u", "C": "u", "D": "B", "u": "u"},
    "C": {"A": "u", "B": "u", "C": "u", "D": "C", "u": "u"},
    "D": {"A": "A", "B": "B", "C": "C", "D": "D", "u": "u"},
    "u": {"A": "u", "B": "u", "C": "u", "D": "u", "u": "u"},
}

_SERIES_TABLE = {
    "A": {"A": "u", "B": "D", "C": "A", "D": "u", "u": "u"},
    "B": {"A": "D", "B": "u", "C": "B", "D": "u", "u": "u"},
    "C": {"A": "A", "B": "B", "C": "C", "D": "D", "u": "u"},
    "D": {"A": "u", "B": "u", "C": "D", "D": "u", "u": "u"},
    "u": {"A": "u", "B": "u", "C": "u", "D": "u", "u": "u"},
}


def _view(table: dict) -> dict:
    """A string table keyed and valued by ``NetType``, for the fold."""
    return {
        NetType(a): {NetType(b): NetType(c) for b, c in row.items()} for a, row in table.items()
    }


_PARALLEL, _SERIES = _view(_PARALLEL_TABLE), _view(_SERIES_TABLE)


def table_parallel(t1: NetType, t2: NetType) -> NetType:
    """Type of the parallel connection of two networks of known types."""
    return _PARALLEL[t1][t2]


def table_series(t1: NetType, t2: NetType) -> NetType:
    """Type of the series connection of two networks of known types."""
    return _SERIES[t1][t2]


# Strain shape of each class over stress shape [n, 0]: (n + offset, low).
_STRAIN_SHAPES = {
    NetType.A: (0, 0),
    NetType.B: (1, 1),
    NetType.C: (1, 0),
    NetType.D: (0, 1),
}


def classify(eps: Shape, sig: Shape) -> tuple[NetType, int]:
    """Shape class and stress index n of an equation's strain and stress
    shapes.

    Every constitutive equation has one of the four classes; ``u`` never
    comes out of here (unidentifiability is a counting property, not a
    shape property).
    """
    n = sig.n
    for t, (offset, low) in _STRAIN_SHAPES.items():
        if eps == (n + offset, low):
            return t, n
    raise InvariantViolation(f"strain shape {eps} does not match any class for stress shape {sig}")


class TraceStep(Record):
    """One table application while folding an expression: a "series" or
    "parallel" ``connection`` in ``node``, a rendered subexpression at ``depth``."""

    __slots__ = ("connection", "left", "right", "result", "node", "depth")

    def __init__(
        self, connection: str, left: NetType, right: NetType, result: NetType, node: str,
        depth: int = 0,
    ):
        self.connection, self.left, self.right = connection, left, right
        self.result, self.node, self.depth = result, node, depth


def leaf_type(leaf: Leaf) -> NetType:
    return NetType.A if leaf.element.kind == SPRING else NetType.B


def type_trace(expr: NetworkExpr) -> tuple[NetType, tuple[TraceStep, ...]]:
    """Fold the tables over a flattened expression, recording each step.

    Steps come out in evaluation order (innermost first); ``depth`` lets
    a printer indent them like a nested derivation chain.
    """
    steps: list[TraceStep] = []
    labels = subtree_texts(expr)

    def walk(node: NetworkExpr, depth: int) -> NetType:
        if isinstance(node, Leaf):
            return leaf_type(node)
        if isinstance(node, Series):
            table, name = _SERIES, "series"
        else:
            table, name = _PARALLEL, "parallel"
        acc = walk(node.children[0], depth + 1)
        for child in node.children[1:]:
            t = walk(child, depth + 1)
            result = table[acc][t]
            steps.append(TraceStep(name, acc, t, result, labels[id(node)], depth))
            acc = result
        return acc

    return walk(expr, 0), tuple(steps)


def format_tables() -> str:
    """Both composition tables as printable grids."""
    letters = ["A", "B", "C", "D", "u"]
    blocks = []
    for title, table in (
        ("Parallel connection (|)", _PARALLEL_TABLE),
        ("Series connection (&)", _SERIES_TABLE),
    ):
        lines = [title, "  " + "  ".join(letters)]
        for row in letters:
            lines.append(row + " " + "  ".join(table[row][col] for col in letters))
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)
