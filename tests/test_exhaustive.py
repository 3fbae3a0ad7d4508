"""Exhaustive checks over every series-parallel network with up to four
elements (all shapes, all spring/dashpot assignments): the counting,
table, and Jacobian-rank routes must agree everywhere, the rank must
equal the number of non-monic coefficients, every derived
equation must land in a shape class consistent with the tables, and the
point-evaluated passes (shapes at theta = 1, forward-mode Jacobian) must
match the symbolic equation exactly, and every coefficient must be a
multilinear polynomial whose monomials all have coefficient 1.  Up to
five elements, the Jacobian has nonmonic_count rows, every local-only
network's fiber search finds a second preimage by root exchange alone,
and the multistarts find nothing the root exchanges miss."""

import itertools
from collections import Counter
from fractions import Fraction as F

from sdident import (
    DASHPOT,
    SPRING,
    Element,
    GlobalStatus,
    Leaf,
    NetType,
    Parallel,
    Series,
    analyze,
    classify,
    constitutive,
    exact_rank,
    fiber_solutions,
    jacobian_rank,
    nonmonic_count,
    params,
    sample_point,
    type_trace,
)
from sdident.opalg import fold_constitutive
from sdident.oracle import _integer_point, _jacobian_rows

from helpers import fraction_rank, jacobian_matrix, predicted_shapes, reference_jacobian_matrix


def _compositions(n):
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first,) + rest


def _structures(n, banned_root=None):
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
            child_options = [list(_structures(k, root)) for k in comp]
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


def _leaf_total(structure):
    if structure == "leaf":
        return 1
    return sum(_leaf_total(c) for c in structure[1])


def all_networks(max_elements):
    for n in range(1, max_elements + 1):
        for structure in _structures(n):
            for kinds in itertools.product((SPRING, DASHPOT), repeat=n):
                yield _materialize(structure, list(kinds), [0])


def test_every_network_up_to_four_elements():
    seen = 0
    for expr in all_networks(4):
        n = len(params(expr))
        net_type = type_trace(expr)[0]
        table_says = net_type != NetType.U
        eq = constitutive(expr)
        counting_says = n == nonmonic_count(eq)
        point = sample_point(n, seed=seen)
        theta = point.values
        matrix = jacobian_matrix(expr, theta)
        assert matrix == reference_jacobian_matrix(expr, theta), expr
        rank = jacobian_rank(expr, point)
        assert rank == fraction_rank(matrix), expr
        assert table_says == counting_says == (rank == n), expr
        assert rank == nonmonic_count(eq), expr
        # the integer fold at theta = 1 counts each coefficient's terms,
        # so it met no monomial twice: every coefficient is 1
        ones = fold_constitutive(expr, [1] * n, 1)
        assert (ones.eps.shape, ones.sig.shape) == (eq.eps.shape, eq.sig.shape), expr
        for op, counts in ((eq.eps, ones.eps), (eq.sig, ones.sig)):
            assert [len(poly.terms) for poly in op.coeffs] == list(counts.coeffs), expr

        shape_class, index = classify(eq)
        eps, sig = predicted_shapes(shape_class, index)
        assert eq.eps.shape == eps
        assert eq.sig.shape == sig
        verdict = analyze(expr)
        assert verdict.nonmonic_count == nonmonic_count(eq)
        assert verdict.index == index
        assert verdict.locally_identifiable == counting_says
        assert verdict.net_type == net_type
        seen += 1
    assert seen == 410  # 2 + 8 + 48 + 352 networks of sizes 1..4


def test_jacobian_rows_are_the_nonmonic_count_up_to_five_elements():
    # verify_local compares each rank with its Jacobian's row count: one
    # row per coefficient_map entry of the dual fold, which has the shapes
    # of the integer fold at theta = 1 and so nonmonic_count rows.  The
    # rank reaches that count at trial 1's point, which certifies the
    # verdict: verify_local(expr, seed=seen) runs one fold on every network
    seen = 0
    for expr in all_networks(5):
        point, scale = _integer_point(sample_point(len(params(expr)), seed=seen).values)
        rows = _jacobian_rows(expr, point, scale)[0]
        assert len(rows) == analyze(expr).nonmonic_count, expr
        assert exact_rank(rows) == len(rows), expr
        seen += 1
    assert seen == 3290


def test_structure_counts():
    # flattened series-parallel shapes per leaf count: 1, 2, 6, 22
    for n, expected in ((1, 1), (2, 2), (3, 6), (4, 22)):
        shapes = list(_structures(n))
        assert len(shapes) == expected
        assert all(_leaf_total(s) == n for s in shapes)


def test_every_local_only_network_up_to_five_elements_has_a_witness():
    # the paper: local-only exactly when some node has two or more
    # internal children, and a root exchange at that node is a witness
    local_only = 0
    for expr in all_networks(5):
        if analyze(expr).global_status != GlobalStatus.LOCAL_ONLY:
            continue
        local_only += 1
        report = fiber_solutions(expr, multistarts=0)
        assert len(report) >= 2, expr
    assert local_only == 120


def test_fiber_methods_up_to_five_elements():
    # pinned totals: stopping stalled multistarts must not change which
    # preimages the search reports
    methods = Counter()
    for expr in all_networks(5):
        if analyze(expr).locally_identifiable:
            report = fiber_solutions(expr, multistarts=40, seed=3)
            methods.update(s.method for s in report.solutions)
    assert methods == Counter({"base": 422, "root-exchange": 120, "multistart": 0})
