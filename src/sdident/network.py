"""Expression language for spring-dashpot networks.

A network is a two-terminal series/parallel composition of two kinds of
basic elements: springs (stress proportional to strain) and dashpots
(stress proportional to strain rate).  Text syntax:

    expr    := term { "|" term }        parallel connection
    term    := factor { "&" factor }    series connection
    factor  := element | "(" expr ")"
    element := identifier

'&' binds tighter than '|', both are left associative, whitespace is
insignificant, and parentheses nest at most ``MAX_NESTING`` levels deep
(deeper input is a ``ParseError``).  The identifier prefix decides the
element kind: names starting with "E" or "k" are springs, names starting
with "n" or "eta" are dashpots.  Parameter names must be unique within
one network.

The internal representation is an n-ary tree that is always kept
flattened: a Series node never has a Series child and a Parallel node
never has a Parallel child (series/parallel composition is associative).
"""

from __future__ import annotations

import random
from typing import Union

SPRING = "spring"
DASHPOT = "dashpot"

# Each parenthesis level can add two tree levels (a parallel inside a
# series), and the recursive tree walks take two to three interpreter
# frames per tree level, so this keeps every walk within Python's
# default recursion limit.
MAX_NESTING = 100


class ParseError(ValueError):
    """Bad network text.  ``position`` is the character offset, if known."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class Record:
    """Base of the record types: a subclass names its fields in ``__slots__``
    and assigns them in its ``__init__``; instances are treated as immutable.
    Records of one class with equal fields are equal; repr ``Class(field=value, ...)``."""

    __slots__ = ()

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__slots__])
        return f"{self.__class__.__qualname__}({fields})"


class Element(Record):
    __slots__ = ("kind", "name")

    def __init__(self, kind: str, name: str):
        if kind not in (SPRING, DASHPOT):
            raise ValueError(f"unknown element kind {kind!r}")
        self.kind, self.name = kind, name


class Leaf(Record):
    __slots__ = ("element",)

    def __init__(self, element: Element):
        self.element = element


class Series(Record):
    __slots__ = ("children",)

    def __init__(self, children: tuple["NetworkExpr", ...]):
        self.children = children


class Parallel(Record):
    __slots__ = ("children",)

    def __init__(self, children: tuple["NetworkExpr", ...]):
        self.children = children


NetworkExpr = Union[Leaf, Series, Parallel]


def element_kind(name: str, position: int) -> str:
    """Classify an identifier (at ``position`` in the text) as spring or dashpot by its prefix."""
    if name.startswith("eta") or name.startswith("n"):
        return DASHPOT
    if name.startswith("E") or name.startswith("k"):
        return SPRING
    raise ParseError(
        f"cannot tell whether {name!r} is a spring or a dashpot; "
        'use a name starting with "E"/"k" (spring) or "n"/"eta" (dashpot)',
        position,
    )


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "&|()":
            tokens.append((ch, ch, i))
            i += 1
        elif ch.isalpha() or ch == "_":
            j = i + 1
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]], length: int):
        self.tokens = tokens
        self.pos = 0
        self.length = length
        self.seen: set[str] = set()
        self.depth = 0  # open parentheses

    def peek(self) -> str | None:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos][0]
        return None

    def take(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def here(self) -> int:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos][2]
        return self.length

    def expr(self) -> NetworkExpr:
        items = [self.term()]
        while self.peek() == "|":
            self.take()
            items.append(self.term())
        if len(items) == 1:
            return items[0]
        return Parallel(tuple(items))

    def term(self) -> NetworkExpr:
        items = [self.factor()]
        while self.peek() == "&":
            self.take()
            items.append(self.factor())
        if len(items) == 1:
            return items[0]
        return Series(tuple(items))

    def factor(self) -> NetworkExpr:
        kind = self.peek()
        if kind == "name":
            _, name, pos = self.take()
            if name in self.seen:
                raise ParseError(f"duplicate parameter name {name!r}", pos)
            self.seen.add(name)
            return Leaf(Element(element_kind(name, pos), name))
        if kind == "(":
            _, _, pos = self.take()
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING} levels", pos)
            inner = self.expr()
            if self.peek() != ")":
                raise ParseError("expected ')'", self.here())
            self.take()
            self.depth -= 1
            return inner
        raise ParseError("expected an element name or '('", self.here())


def parse(text: str) -> NetworkExpr:
    """Parse network text into a flattened expression tree."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty expression", 0)
    parser = _Parser(tokens, len(text))
    tree = parser.expr()
    if parser.peek() is not None:
        raise ParseError("unexpected trailing input", parser.here())
    return flatten(tree)


def flatten(expr: NetworkExpr) -> NetworkExpr:
    """Merge nested same-kind nodes; series/parallel composition is associative."""
    if isinstance(expr, Leaf):
        return expr
    kids: list[NetworkExpr] = []
    for child in expr.children:
        flat = flatten(child)
        if type(flat) is type(expr):
            kids.extend(flat.children)  # type: ignore[union-attr]
        else:
            kids.append(flat)
    if len(kids) == 1:
        return kids[0]
    return type(expr)(tuple(kids))


def leaves(expr: NetworkExpr) -> list[Element]:
    """All elements in canonical order (depth first, left to right)."""
    if isinstance(expr, Leaf):
        return [expr.element]
    out: list[Element] = []
    for child in expr.children:
        out.extend(leaves(child))
    return out


def params(expr: NetworkExpr) -> list[str]:
    """Parameter names in canonical order; list position is the parameter index."""
    return [el.name for el in leaves(expr)]


def render(expr: NetworkExpr) -> str:
    """Canonical text with minimal parentheses; ``parse(render(e)) == e``."""
    return subtree_texts(expr)[id(expr)]


def subtree_texts(expr: NetworkExpr) -> dict[int, str]:
    """``render`` of every subtree, keyed by ``id(node)``, from one
    post-order pass that joins each node once from its children's text."""
    texts: dict[int, str] = {}

    def walk(node: NetworkExpr) -> str:
        if isinstance(node, Leaf):
            text = node.element.name
        else:
            text = _joined(node, [walk(c) for c in node.children])
        texts[id(node)] = text
        return text

    walk(expr)
    return texts


def _joined(node: Series | Parallel, parts: list[str]) -> str:
    if isinstance(node, Parallel):
        return " | ".join(parts)
    # parallel children bind looser than '&' and need parentheses
    return " & ".join(
        f"({p})" if isinstance(c, Parallel) else p for c, p in zip(node.children, parts)
    )


def random_network(seed: int, n_elements: int) -> NetworkExpr:
    """Deterministic random flattened network with exactly ``n_elements`` leaves."""
    if n_elements < 1:
        raise ValueError("n_elements must be >= 1")
    rng = random.Random(seed)
    counter = [0]

    def fresh_leaf() -> Leaf:
        counter[0] += 1
        if rng.random() < 0.5:
            return Leaf(Element(SPRING, f"E{counter[0]}"))
        return Leaf(Element(DASHPOT, f"n{counter[0]}"))

    def build(n: int) -> NetworkExpr:
        if n == 1:
            return fresh_leaf()
        split = rng.randint(1, n - 1)
        node = rng.choice((Series, Parallel))
        return node((build(split), build(n - split)))

    return flatten(build(n_elements))
