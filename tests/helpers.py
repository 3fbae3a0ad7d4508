"""Shared test machinery: named example networks, the enumeration of
every small series-parallel network, the frozen composition row data
and class shapes, builders for random identifiable components of a
given shape class and stress index, exact evaluation of symbolic
polynomials, the reference polynomial printer, the former renderers of
``sdident derive``'s equation line and normal form, the symbolic
reference Jacobian, schoolbook operator products and sums, the fold on
operator objects that the package's coefficient-list kernel replaced
(the kernel's reference) and that kernel's step on two equations, the
oracle's Jacobian as Fractions, one plain Fraction elimination behind a rank and
a determinant, a cofactor-expansion determinant, the paper's Sylvester
layer (Sylvester matrices, resultants, factor-matrix sizes and the
predicted block determinant), the random probe of the shape
factorization problem, and the coprimality spot check for the
composition rules."""

from __future__ import annotations

import functools
import itertools
import random
from fractions import Fraction
from typing import Sequence

from sdident import (
    DASHPOT,
    SPRING,
    ConstitutiveEq,
    DiffOperator,
    Element,
    InvariantViolation,
    Leaf,
    NetType,
    NetworkExpr,
    Parallel,
    ParamPoint,
    ParamPoly,
    Series,
    Shape,
    coefficient_map,
    constitutive,
    factor_matrix,
    flatten,
    params,
)
from sdident.cli import _symbol
from sdident.opalg import Rat, _step, fold_constitutive
from sdident.oracle import _integer_point, _jacobian_rows

# classic textbook models and the two larger literature networks
MAXWELL = "E1 & n1"
VOIGT = "E1 | n1"
BURGERS = "(Ev | nv) & Em & nm"
GEN_KELVIN_VOIGT = "E0 & (E1|n1) & (E2|n2) & (E3|n3)"
# eight-element ladder: alternating series/parallel growth, one element at a time
LADDER_8 = "((((((E1|n1) & E2) & n2) | n3) & E3) | n4) & E4"
# ten-element network assembled from five two-element series branches
BRANCHED_10 = "(((E1&n1)|(E2&n2)) & E3 & n3 | (E4&n4)) & E5 & n5"

ALL_EXAMPLES = [MAXWELL, VOIGT, BURGERS, GEN_KELVIN_VOIGT, LADDER_8, BRANCHED_10]


def nested_chain(levels: int) -> str:
    """A ladder with ``levels`` nested parentheses, each adding a parallel
    inside a series: the deepest tree that many parentheses allow."""
    text = "E0"
    for k in range(levels, 0, -1):
        text = f"E{k} | n{k} & ({text})"
    return text


def maxwell_bank(modes: int) -> str:
    """Generalized Maxwell model: a spring parallel to ``modes`` Maxwell
    arms, E0 | (E1 & n1) | ...; locally identifiable, local-only from
    two modes on."""
    return " | ".join(["E0"] + [f"(E{i} & n{i})" for i in range(1, modes + 1)])


def _compositions(n):
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first,) + rest


def structures(n, banned_root=None):
    """All flattened tree shapes over n leaves (leaf kinds unassigned)."""
    if n == 1:
        yield "leaf"
        return
    for root in ("S", "P"):
        if root == banned_root:
            continue
        for comp in _compositions(n):
            if len(comp) < 2:
                continue
            child_options = [list(structures(k, root)) for k in comp]
            for choice in itertools.product(*child_options):
                yield (root, choice)


def _materialize(structure, kinds, cursor):
    if structure == "leaf":
        kind = kinds[cursor[0]]
        cursor[0] += 1
        name = f"{'E' if kind == SPRING else 'n'}{cursor[0]}"
        return Leaf(Element(kind, name))
    root, children = structure
    node = Series if root == "S" else Parallel
    return node(tuple(_materialize(c, kinds, cursor) for c in children))


def all_networks(max_elements):
    """Every flattened series-parallel network of 1..max_elements leaves,
    each shape with every spring/dashpot assignment (2, 8, 48, 352, 2880
    networks of sizes 1..5)."""
    for n in range(1, max_elements + 1):
        for structure in structures(n):
            for kinds in itertools.product((SPRING, DASHPOT), repeat=n):
                yield _materialize(structure, list(kinds), [0])


# Expected outcome of combining two identifiable components, keyed by the
# unordered class pair.  Shapes and counts are functions of the component
# stress indices n1, n2; "identifiable" says whether parameter and
# coefficient counts still balance; "result" is the shape class of the
# combined equation.
SERIES_ROWS = {
    ("A", "A"): dict(eps=lambda a, b: (a + b, 0), sig=lambda a, b: (a + b, 0),
                     nonmonic=lambda a, b: 2 * a + 2 * b + 1, params=lambda a, b: 2 * a + 2 * b + 2,
                     identifiable=False, result="A"),
    ("A", "B"): dict(eps=lambda a, b: (a + b + 1, 1), sig=lambda a, b: (a + b + 1, 0),
                     nonmonic=lambda a, b: 2 * a + 2 * b + 2, params=lambda a, b: 2 * a + 2 * b + 2,
                     identifiable=True, result="D"),
    ("A", "C"): dict(eps=lambda a, b: (a + b + 1, 0), sig=lambda a, b: (a + b + 1, 0),
                     nonmonic=lambda a, b: 2 * a + 2 * b + 3, params=lambda a, b: 2 * a + 2 * b + 3,
                     identifiable=True, result="A"),
    ("A", "D"): dict(eps=lambda a, b: (a + b, 1), sig=lambda a, b: (a + b, 0),
                     nonmonic=lambda a, b: 2 * a + 2 * b, params=lambda a, b: 2 * a + 2 * b + 1,
                     identifiable=False, result="D"),
    ("B", "B"): dict(eps=lambda a, b: (a + b + 1, 1), sig=lambda a, b: (a + b, 0),
                     nonmonic=lambda a, b: 2 * a + 2 * b + 1, params=lambda a, b: 2 * a + 2 * b + 2,
                     identifiable=False, result="B"),
    ("B", "C"): dict(eps=lambda a, b: (a + b + 2, 1), sig=lambda a, b: (a + b + 1, 0),
                     nonmonic=lambda a, b: 2 * a + 2 * b + 3, params=lambda a, b: 2 * a + 2 * b + 3,
                     identifiable=True, result="B"),
    ("B", "D"): dict(eps=lambda a, b: (a + b, 1), sig=lambda a, b: (a + b, 0),
                     nonmonic=lambda a, b: 2 * a + 2 * b, params=lambda a, b: 2 * a + 2 * b + 1,
                     identifiable=False, result="D"),
    ("C", "C"): dict(eps=lambda a, b: (a + b + 2, 0), sig=lambda a, b: (a + b + 1, 0),
                     nonmonic=lambda a, b: 2 * a + 2 * b + 4, params=lambda a, b: 2 * a + 2 * b + 4,
                     identifiable=True, result="C"),
    ("C", "D"): dict(eps=lambda a, b: (a + b + 1, 1), sig=lambda a, b: (a + b + 1, 0),
                     nonmonic=lambda a, b: 2 * a + 2 * b + 2, params=lambda a, b: 2 * a + 2 * b + 2,
                     identifiable=True, result="D"),
    ("D", "D"): dict(eps=lambda a, b: (a + b - 1, 1), sig=lambda a, b: (a + b - 1, 0),
                     nonmonic=lambda a, b: 2 * a + 2 * b - 2, params=lambda a, b: 2 * a + 2 * b,
                     identifiable=False, result="D"),
}

PARALLEL_ROWS = {
    ("A", "A"): dict(eps=lambda a, b: (a + b, 0), sig=lambda a, b: (a + b, 0),
                     nonmonic=lambda a, b: 2 * a + 2 * b + 1, params=lambda a, b: 2 * a + 2 * b + 2,
                     identifiable=False, result="A"),
    ("A", "B"): dict(eps=lambda a, b: (a + b + 1, 0), sig=lambda a, b: (a + b, 0),
                     nonmonic=lambda a, b: 2 * a + 2 * b + 2, params=lambda a, b: 2 * a + 2 * b + 2,
                     identifiable=True, result="C"),
    ("A", "C"): dict(eps=lambda a, b: (a + b + 1, 0), sig=lambda a, b: (a + b, 0),
                     nonmonic=lambda a, b: 2 * a + 2 * b + 2, params=lambda a, b: 2 * a + 2 * b + 3,
                     identifiable=False, result="C"),
    ("A", "D"): dict(eps=lambda a, b: (a + b, 0), sig=lambda a, b: (a + b, 0),
                     nonmonic=lambda a, b: 2 * a + 2 * b + 1, params=lambda a, b: 2 * a + 2 * b + 1,
                     identifiable=True, result="A"),
    ("B", "B"): dict(eps=lambda a, b: (a + b + 1, 1), sig=lambda a, b: (a + b, 0),
                     nonmonic=lambda a, b: 2 * a + 2 * b + 1, params=lambda a, b: 2 * a + 2 * b + 2,
                     identifiable=False, result="B"),
    ("B", "C"): dict(eps=lambda a, b: (a + b + 1, 0), sig=lambda a, b: (a + b, 0),
                     nonmonic=lambda a, b: 2 * a + 2 * b + 2, params=lambda a, b: 2 * a + 2 * b + 3,
                     identifiable=False, result="C"),
    ("B", "D"): dict(eps=lambda a, b: (a + b + 1, 1), sig=lambda a, b: (a + b, 0),
                     nonmonic=lambda a, b: 2 * a + 2 * b + 1, params=lambda a, b: 2 * a + 2 * b + 1,
                     identifiable=True, result="B"),
    ("C", "C"): dict(eps=lambda a, b: (a + b + 1, 0), sig=lambda a, b: (a + b, 0),
                     nonmonic=lambda a, b: 2 * a + 2 * b + 2, params=lambda a, b: 2 * a + 2 * b + 4,
                     identifiable=False, result="C"),
    ("C", "D"): dict(eps=lambda a, b: (a + b + 1, 0), sig=lambda a, b: (a + b, 0),
                     nonmonic=lambda a, b: 2 * a + 2 * b + 2, params=lambda a, b: 2 * a + 2 * b + 2,
                     identifiable=True, result="C"),
    ("D", "D"): dict(eps=lambda a, b: (a + b, 1), sig=lambda a, b: (a + b, 0),
                     nonmonic=lambda a, b: 2 * a + 2 * b, params=lambda a, b: 2 * a + 2 * b,
                     identifiable=True, result="D"),
}


# strain shape of each class over stress shape [n, 0], as (n + offset, low):
# A [n, 0], B [n+1, 1], C [n+1, 0], D [n, 1]
CLASS_STRAIN_SHAPES = {"A": (0, 0), "B": (1, 1), "C": (1, 0), "D": (0, 1)}


def predicted_shapes(t: NetType, n: int) -> tuple[Shape, Shape]:
    """(strain shape, stress shape) for a class and stress index."""
    if t is NetType.U:
        raise ValueError("the unidentifiable marker has no shape")
    offset, low = CLASS_STRAIN_SHAPES[t.value]
    if n < 0 or n + offset < low:
        raise ValueError(f"invalid index {n} for class {t}")
    return Shape(n + offset, low), Shape(n, 0)


def typed_network(letter: str, n: int, rng: random.Random) -> NetworkExpr:
    """Random identifiable network of the given shape class and index.

    Built by inverting the composition tables: each class/index pair is
    produced from smaller identifiable pieces through a randomly chosen
    table row that yields it.
    """
    counter = [0]

    def leaf(kind: str) -> Leaf:
        counter[0] += 1
        name = f"E{counter[0]}" if kind == "spring" else f"n{counter[0]}"
        return Leaf(Element(kind, name))

    def node(conn: str, a: NetworkExpr, b: NetworkExpr) -> NetworkExpr:
        if rng.random() < 0.5:
            a, b = b, a
        raw = Series((a, b)) if conn == "s" else Parallel((a, b))
        return flatten(raw)

    def build(t: str, k: int) -> NetworkExpr:
        prods: list[tuple] = []
        if t == "A":
            if k == 0:
                prods.append(("leaf", "spring"))
            for i in range(k):
                prods.append(("s", ("A", i), ("C", k - 1 - i)))
            for i in range(1, k + 1):
                prods.append(("p", ("A", k - i), ("D", i)))
        elif t == "B":
            if k == 0:
                prods.append(("leaf", "dashpot"))
            for i in range(k):
                prods.append(("s", ("B", i), ("C", k - 1 - i)))
            for i in range(1, k + 1):
                prods.append(("p", ("B", k - i), ("D", i)))
        elif t == "C":
            for i in range(k + 1):
                prods.append(("p", ("A", i), ("B", k - i)))
            for i in range(k):
                prods.append(("s", ("C", i), ("C", k - 1 - i)))
            for i in range(1, k + 1):
                prods.append(("p", ("C", k - i), ("D", i)))
        elif t == "D":
            assert k >= 1, "class D needs index >= 1"
            for i in range(k):
                prods.append(("s", ("A", i), ("B", k - 1 - i)))
            for i in range(1, k):
                prods.append(("s", ("C", k - 1 - i), ("D", i)))
            for i in range(1, k):
                prods.append(("p", ("D", k - i), ("D", i)))
        else:
            raise ValueError(f"unknown class {t!r}")
        choice = rng.choice(prods)
        if choice[0] == "leaf":
            return leaf(choice[1])
        conn, (t1, k1), (t2, k2) = choice
        return node(conn, build(t1, k1), build(t2, k2))

    return build(letter, n)


def valid_indices(letter: str, top: int = 3) -> list[int]:
    return list(range(1, top + 1)) if letter == "D" else list(range(0, top + 1))


def _shifted_equation(expr: NetworkExpr, total: int, start: int) -> ConstitutiveEq:
    """Equation of ``expr`` over a ``total``-parameter space, its own
    parameters taking indices ``start``, ``start + 1``, ..."""
    width = len(params(expr))
    variables = [ParamPoly.var(total, i) for i in range(start, start + width)]
    return fold_constitutive(expr, variables, ParamPoly.const(total, 1))


def embedded_pair(n1: NetworkExpr, n2: NetworkExpr) -> tuple[ConstitutiveEq, ConstitutiveEq]:
    """Constitutive equations of two networks in their joint parameter space."""
    p1, p2 = len(params(n1)), len(params(n2))
    total = p1 + p2
    return _shifted_equation(n1, total, 0), _shifted_equation(n2, total, p1)


def child_equations(expr: NetworkExpr) -> list[ConstitutiveEq]:
    """Each child's equation embedded into the whole network's space."""
    total = len(params(expr))
    out = []
    cursor = 0
    for child in expr.children:
        out.append(_shifted_equation(child, total, cursor))
        cursor += len(params(child))
    return out


def poly_from_roots(roots: list[Fraction], lead: Fraction = Fraction(1)) -> list[Fraction]:
    """Ascending coefficients of lead * prod (x - r)."""
    coeffs = [lead]
    for r in roots:
        nxt = [Fraction(0)] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i] -= c * r
            nxt[i + 1] += c
        coeffs = nxt
    return coeffs


@functools.cache
def bit(nvars: int, index: int) -> int:
    """Parameter ``index``'s bit in a monomial mask over ``nvars``
    parameters, as ``ParamPoly`` lays it out: every mask decoder here
    reads the layout through it."""
    return ParamPoly.var(nvars, index).support


def exponents(nvars: int, mask: int) -> tuple[int, ...]:
    """A monomial's exponent tuple, in parameter order."""
    return tuple(1 if mask & bit(nvars, i) else 0 for i in range(nvars))


def evaluate(poly: ParamPoly, values) -> Fraction:
    """Exact value of a polynomial at a point (one value per parameter)."""
    if len(values) != poly.nvars:
        raise ValueError(f"expected {poly.nvars} values, got {len(values)}")
    vals = [Fraction(v) for v in values]
    total = Fraction(0)
    for mask in poly.terms:
        term = 1
        for e, v in zip(exponents(poly.nvars, mask), vals):
            if e:
                term *= v
        total += term
    return total


def to_string_reference(poly: ParamPoly, names) -> str:
    """``ParamPoly.to_string`` one term at a time, terms by descending
    exponent tuple: the reference for the table printer."""
    if len(names) != poly.nvars:
        raise ValueError("one name per variable required")
    if not poly.terms:
        return "0"
    order = sorted([exponents(poly.nvars, mask) for mask in poly.terms], reverse=True)
    return " + ".join(["*".join([n for e, n in zip(es, names) if e]) or "1" for es in order])


def reference_equation_text(eq: ConstitutiveEq, names) -> str:
    """``sdident derive``'s equation line rendered from the operators, one
    ``to_string`` per coefficient: the former ``cli.equation_text``, kept
    as the reference for the line built from ``equation_to_json``."""

    def side(op, base):
        parts = []
        for order in range(op.high, op.low - 1, -1):
            poly = op.coeffs[order - op.low]
            if not poly:
                continue
            text = poly.to_string(names)
            sym = _symbol(base, order)
            if text == "1":
                parts.append(sym)
            elif "+" in text:
                parts.append(f"({text})·{sym}")
            else:
                parts.append(f"{text}·{sym}")
        return " + ".join(parts)

    return f"{side(eq.eps, 'ε')} = {side(eq.sig, 'σ')}"


def reference_normalized(eq: ConstitutiveEq, names) -> list[dict]:
    """``sdident derive``'s normalized coefficients from the operators,
    rendering each numerator and the pivot anew: the former
    ``cli.normalized_coefficients``, kept as the reference."""
    pivot = eq.sig.coeffs[-1]
    out = []
    for side, op in (("eps", eq.eps), ("sigma", eq.sig)):
        top = op.high - 1 if side == "sigma" else op.high
        for order in range(top, op.low - 1, -1):
            poly = op.coeffs[order - op.low]
            quotient = poly.try_divide(pivot)
            if quotient is not None:
                text = quotient.to_string(names)
            else:
                text = f"({poly.to_string(names)}) / ({pivot.to_string(names)})"
            out.append({"side": side, "order": order, "value": text})
    return out


def derivative(poly: ParamPoly, index: int) -> ParamPoly:
    """Partial derivative in parameter ``index``."""
    b = bit(poly.nvars, index)
    return ParamPoly(poly.nvars, [m ^ b for m in poly.terms if m & b])


def eval_coeffs(op: DiffOperator, theta) -> list[Fraction]:
    """Coefficient values of an operator at theta, orders low..high ascending."""
    return [evaluate(c, theta) for c in op.coeffs]


def coefficient_values(eq: ConstitutiveEq, theta) -> list[Fraction]:
    """Exact values of the normalized coefficient map at theta."""
    return [evaluate(num, theta) / evaluate(den, theta) for num, den in coefficient_map(eq)]


def reference_jacobian_matrix(expr: NetworkExpr, theta) -> list[list[Fraction]]:
    """Row-scaled exact Jacobian from the symbolic equation: quotient-rule
    rows d(num)*den - num*d(den) of ParamPoly derivatives evaluated at
    theta.  The reference for the oracle's forward-mode pass."""
    entries = coefficient_map(constitutive(expr))
    nv = len(theta)
    den = entries[0][1]
    den_value = evaluate(den, theta)
    den_partials = [evaluate(derivative(den, i), theta) for i in range(nv)]
    rows = []
    for num, _ in entries:
        num_value = evaluate(num, theta)
        rows.append(
            [
                evaluate(derivative(num, i), theta) * den_value - num_value * den_partials[i]
                for i in range(nv)
            ]
        )
    return rows


def schoolbook_product(p: DiffOperator, q: DiffOperator) -> DiffOperator:
    """p * q term by term: order k sums a_i * b_(k-i) in ascending i."""
    out: dict[int, object] = {}
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            out[i + j] = out[i + j] + a * b if i + j in out else a * b
    return DiffOperator(p.low + q.low, [out[k] for k in range(len(out))])


def schoolbook_sum(p: DiffOperator, q: DiffOperator) -> DiffOperator:
    """p + q order by order: p's coefficient plus q's where both hold
    one, a zero where neither does."""
    out: dict[int, object] = {}
    for op in (p, q):
        for k, c in enumerate(op.coeffs, op.low):
            out[k] = out[k] + c if k in out else c
    low, zero = min(out), p.coeffs[0] * 0
    return DiffOperator(low, [out.get(k, zero) for k in range(low, max(out) + 1)])


# The fold before the coefficient-list kernel, on operator objects: the
# reference for ``fold_constitutive`` and its two steps.


def operator_product(p: DiffOperator, q: DiffOperator) -> DiffOperator:
    """p * q, order k summing a_i * b_(k-i) in ascending i: row i adds
    into the orders row i - 1 reached and opens one more."""
    first, *rest = p.coeffs
    b = q.coeffs
    out = [first * c for c in b]
    for i, a in enumerate(rest, 1):
        out[i:] = [s + a * c for s, c in zip(out[i:], b)]
        out.append(a * b[-1])
    return DiffOperator(p.low + q.low, out)


def operator_sum(p: DiffOperator, q: DiffOperator) -> DiffOperator:
    """p + q: an order only one operand holds keeps its coefficient; the
    common orders [lo, hi) add p's to q's, and a gap between disjoint
    operands holds zeros."""
    a, b = p.coeffs, q.coeffs
    lo, hi = max(p.low, q.low), min(p.low + len(a), q.low + len(b))
    below = p if p.low < q.low else q
    above = p if p.low + len(a) > q.low + len(b) else q
    out = [
        *below.coeffs[: lo - below.low],
        *[x + y for x, y in zip(a[lo - p.low :], b[lo - q.low :])],
        *[below.coeffs[0] * 0] * (lo - hi),
        *above.coeffs[max(hi - above.low, 0) :],
    ]
    return DiffOperator(min(p.low, q.low), out)


def shift_down(op: DiffOperator, k: int) -> DiffOperator:
    """Exact division by x**k (x = d/dt)."""
    if k == 0:
        return op
    if k < 0 or op.low < k:
        raise InvariantViolation(f"inexact division by x^{k} of operator with shape {op.shape}")
    return DiffOperator(op.low - k, op.coeffs)


def reference_series(eq1: ConstitutiveEq, eq2: ConstitutiveEq) -> ConstitutiveEq:
    l1, l2, l3, l4 = eq1.eps, eq1.sig, eq2.eps, eq2.sig
    k = min(l1.low, l3.low)
    sig = operator_sum(operator_product(l1, l4), operator_product(l2, l3))
    return ConstitutiveEq(shift_down(operator_product(l1, l3), k), shift_down(sig, k))


def reference_parallel(eq1: ConstitutiveEq, eq2: ConstitutiveEq) -> ConstitutiveEq:
    l1, l2, l3, l4 = eq1.eps, eq1.sig, eq2.eps, eq2.sig
    eps = operator_sum(operator_product(l1, l4), operator_product(l2, l3))
    return ConstitutiveEq(eps, operator_product(l2, l4))


def _kernel_step(series: bool, eq1: ConstitutiveEq, eq2: ConstitutiveEq) -> ConstitutiveEq:
    triples = [(eq.eps.low, eq.eps.coeffs, eq.sig.coeffs) for eq in (eq1, eq2)]
    low, eps, sig = _step(series, *triples, None)
    return ConstitutiveEq(DiffOperator(low, eps), DiffOperator(0, sig))


def combine_series(eq1: ConstitutiveEq, eq2: ConstitutiveEq) -> ConstitutiveEq:
    """The package kernel's series step on two sub-equations in their
    joint parameter space with disjoint supports."""
    return _kernel_step(True, eq1, eq2)


def combine_parallel(eq1: ConstitutiveEq, eq2: ConstitutiveEq) -> ConstitutiveEq:
    """The package kernel's parallel step."""
    return _kernel_step(False, eq1, eq2)


def reference_fold(expr: NetworkExpr, values: Sequence, one) -> ConstitutiveEq:
    """``fold_constitutive`` on operator objects: every leaf's stress
    operator is ``one``, multiplied like any other."""
    cursor = iter(values)
    unit = DiffOperator(0, [one])

    def walk(node: NetworkExpr) -> ConstitutiveEq:
        if isinstance(node, Leaf):
            low = 1 if node.element.kind == DASHPOT else 0
            return ConstitutiveEq(DiffOperator(low, [next(cursor)]), unit)
        combine = reference_series if isinstance(node, Series) else reference_parallel
        acc = walk(node.children[0])
        for child in node.children[1:]:
            acc = combine(acc, walk(child))
        return acc

    return walk(expr)


def jacobian_matrix(expr: NetworkExpr, theta) -> list[list[Fraction]]:
    """The oracle's row-scaled Jacobian at a positive theta as Fractions:
    its integer rows, each over ``scale**degree``, the degree of its
    ``coefficient_map`` entry's numerator times the pivot.  Every
    coefficient is homogeneous, so any monomial's size is its degree."""
    point, scale = _integer_point(theta)
    rows = _jacobian_rows(expr, point, scale)
    degrees = [
        max(num.terms).bit_count() + max(den.terms).bit_count()
        for num, den in coefficient_map(constitutive(expr))
    ]
    return [[Fraction(x, scale**d) for x in row] for row, d in zip(rows, degrees, strict=True)]


def _gauss_jordan(mat) -> tuple[int, Fraction]:
    """Plain Gauss-Jordan elimination over Fractions: the rank and the
    signed product of the pivots, which is the determinant of a square
    matrix of full rank."""
    rows = [list(map(Fraction, row)) for row in mat]
    rank, det = 0, Fraction(1)
    n_cols = len(rows[0]) if rows else 0
    for col in range(n_cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        if pivot != rank:
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            det = -det
        det *= rows[rank][col]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                factor = rows[i][col] / rows[rank][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank, det


def fraction_rank(mat) -> int:
    """Rank by plain Gauss-Jordan elimination over Fractions."""
    return _gauss_jordan(mat)[0]


def exact_det(matrix) -> Fraction:
    """Exact determinant: the signed product of the pivots of Gauss-Jordan
    elimination over Fractions, or 0 when a column has no pivot."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("determinant of a non-square matrix")
    rank, det = _gauss_jordan(matrix)
    return det if rank == n else Fraction(0)


def laplace_det(mat) -> Fraction:
    """Determinant by cofactor expansion along the first row."""
    if not mat:
        return Fraction(1)
    return sum(
        (-1) ** j * Fraction(x) * laplace_det([row[:j] + row[j + 1 :] for row in mat[1:]])
        for j, x in enumerate(mat[0])
    )


# the paper's Sylvester layer: why a square factor matrix is invertible

Quadruple = tuple[Shape, Shape, Shape, Shape]
CoeffVec = Sequence[Rat]  # polynomial coefficients, constant term first


def sylvester(p: CoeffVec, q: CoeffVec) -> list[list[Fraction]]:
    """Sylvester matrix of two polynomials (ascending coefficient vectors).

    For deg p = m and deg q = n the matrix is (n+m) square: n shifted
    copies of p's coefficients as columns (unknown L4 of degree n - 1),
    then m of q's (L2 of degree m - 1).  Degenerate degree-0 inputs give
    the smaller diagonal matrix whose determinant matches the convention
    res(p, c) = c**deg(p).
    """
    if not any(p) or not any(q):
        raise ValueError("sylvester matrix of a zero polynomial")
    if p[-1] == 0 or q[-1] == 0:
        raise ValueError("leading coefficient must be nonzero (trim the vector)")
    p, q = list(map(Fraction, p)), list(map(Fraction, q))
    m, n = len(p) - 1, len(q) - 1
    return factor_matrix([(p, Shape(m, 0), Shape(n - 1, 0)), (q, Shape(n, 0), Shape(m - 1, 0))])


def resultant(p: CoeffVec, q: CoeffVec) -> Fraction:
    """Determinant of the Sylvester matrix; zero iff p and q share a root."""
    return exact_det(sylvester(p, q))


def factor_matrix_size(quad: Quadruple) -> tuple[int, int]:
    (n1, m1), (n2, m2), (n3, m3), (n4, m4) = quad
    rows = max(n1 + n4, n2 + n3) - min(m1 + m4, m2 + m3) + 1
    cols = (n2 - m2 + 1) + (n4 - m4 + 1)
    return rows, cols


def block_determinant(
    l1: CoeffVec, shape1: Shape, l3: CoeffVec, shape3: Shape, shape2: Shape, shape4: Shape
) -> Fraction:
    """Predicted |det| of the square factor matrix from its block form.

    Reordering columns turns the matrix into triangular blocks around a
    Sylvester matrix of the shifted L1, L3, so the determinant is, up to
    sign, (leading overhang)**e_top * (trailing overhang)**e_bot * res.
    """
    n1, m1 = shape1
    n2, m2 = shape2
    n3, m3 = shape3
    n4, m4 = shape4
    l1, l3 = list(map(Fraction, l1)), list(map(Fraction, l3))
    det = resultant(l1, l3)
    if n1 + n4 > n2 + n3:
        det *= l1[-1] ** (n1 + n4 - n2 - n3)
    elif n2 + n3 > n1 + n4:
        det *= l3[-1] ** (n2 + n3 - n1 - n4)
    if m1 + m4 < m2 + m3:
        det *= l1[0] ** (m2 + m3 - m1 - m4)
    elif m2 + m3 < m1 + m4:
        det *= l3[0] ** (m1 + m4 - m2 - m3)
    return abs(det)


def good_quadruple(quad: Quadruple, samples: int = 3, seed: int = 0) -> bool:
    """Does the factorization problem for these shapes have finitely many
    solutions?  Non-square systems say no; square ones are probed with
    random exact monic instantiations of L1 and L3."""
    rows, cols = factor_matrix_size(quad)
    if rows != cols:
        return False
    shape1, shape2, shape3, shape4 = quad
    rng = random.Random(seed)

    def monic_vector(shape: Shape) -> list[Fraction]:
        """Random tight monic coefficient vector (ascending orders)."""
        n, m = shape
        vec = [Fraction(rng.randint(1, 10**6), 1000) for _ in range(n - m + 1)]
        vec[-1] = Fraction(1)
        return vec

    for _ in range(max(1, samples)):
        l1 = monic_vector(shape1)
        l3 = monic_vector(shape3)
        mat = factor_matrix([(l1, shape1, shape4), (l3, shape3, shape2)])
        if exact_det(mat) != 0:
            return True
    return False


def check_coprimality(
    eq1: ConstitutiveEq,
    eq2: ConstitutiveEq,
    op: str,
    theta: ParamPoint,
) -> bool:
    """Nonzero resultant of the pair of operators whose product rule the
    given connection uses (strain pair for series, stress pair for
    parallel), after shifting away trailing derivative powers."""
    if op == "series":
        p_op, q_op = eq1.eps, eq2.eps
    elif op == "parallel":
        p_op, q_op = eq1.sig, eq2.sig
    else:
        raise ValueError("op must be 'series' or 'parallel'")
    values = theta.values if isinstance(theta, ParamPoint) else tuple(theta)
    p = _tight_vector(p_op, values)
    q = _tight_vector(q_op, values)
    return resultant(p, q) != 0


def _tight_vector(op: DiffOperator, values) -> list[Fraction]:
    vec = eval_coeffs(op, values)
    while len(vec) > 1 and vec[-1] == 0:
        vec.pop()
    while len(vec) > 1 and vec[0] == 0:
        vec.pop(0)
    return vec
