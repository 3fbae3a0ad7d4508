"""Exhaustive checks over every series-parallel network with up to four
elements (all shapes, all spring/dashpot assignments): the counting,
table, and Jacobian-rank routes must agree everywhere, the rank must
equal the number of non-monic coefficients, every derived
equation must land in a shape class consistent with the tables, and the
point-evaluated passes (shapes at theta = 1, forward-mode Jacobian) must
match the symbolic equation exactly, and every coefficient must be a
multilinear polynomial whose monomials all have coefficient 1.  Up to
five elements, the Jacobian has nonmonic_count rows, and the fiber
search lists exactly min(d, 64) positive points of every identifiable
network, each verified by the float fold; the degree d is 1 exactly on
the global networks.  Up to six elements, the composition system at
every root-exchange node is square."""

from collections import Counter
from fractions import Fraction as F

from sdident import (
    GlobalStatus,
    Leaf,
    NetType,
    Series,
    analyze,
    classify,
    coefficient_map,
    constitutive,
    exact_rank,
    fiber_solutions,
    jacobian_rank,
    nonmonic_count,
    params,
    sample_point,
    type_trace,
)
from sdident import fiber
from sdident.opalg import fold_constitutive
from sdident.oracle import _integer_point, _jacobian_rows

from helpers import (
    all_networks,
    fraction_rank,
    jacobian_matrix,
    predicted_shapes,
    reference_jacobian_matrix,
    structures,
)


def _leaf_total(structure):
    if structure == "leaf":
        return 1
    return sum(_leaf_total(c) for c in structure[1])


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
        shapes = list(structures(n))
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
        report = fiber_solutions(expr)
        assert len(report) >= 2, expr
        assert any(s.method == "root-exchange" for s in report.solutions), expr
    assert local_only == 120


def test_fiber_methods_up_to_five_elements():
    # each identifiable network lists min(d, 64) positive points: the base,
    # then root exchanges that the float fold verifies; the paper's
    # local-only networks are those with d > 1, a node with two or more
    # internal children, and the global ones list the base alone
    methods, local_only, seen = Counter(), 0, 0
    for expr in all_networks(5):
        verdict = analyze(expr)
        if not verdict.locally_identifiable:
            continue
        seen += 1
        local_only += verdict.global_status == GlobalStatus.LOCAL_ONLY
        for seed in range(3):
            report = fiber_solutions(expr, seed=seed)
            assert (report.degree > 1) == (verdict.global_status == GlobalStatus.LOCAL_ONLY)
            assert len(report) == min(report.degree, 64), (expr, seed)
            assert report.truncated == (report.degree > 64)
            base = [float(v) for v in report.base.values]
            target = [num / den for num, den in coefficient_map(fold_constitutive(expr, base, 1.0))]
            for sol in report.solutions:
                assert min(sol.values) > 0, (expr, seed)
                eq = fold_constitutive(expr, list(sol.values), 1.0)
                got = [num / den for num, den in coefficient_map(eq)]
                assert len(got) == len(target)
                for g, t in zip(got, target):
                    assert abs(g - t) <= fiber._FIBER_TOL * (1.0 + abs(t)), (expr, seed)
            methods.update(s.method for s in report.solutions)
    # every local-only network of up to five elements has d = 2
    assert (seen, local_only) == (422, 120)
    assert methods == Counter({"base": 3 * 422, "root-exchange": 3 * 120})


def test_root_exchange_systems_are_square_up_to_six_elements():
    # the paper's balance of parameters and non-monic coefficients, at every
    # node where the fiber search exchanges roots: the composition system
    # for the children's other sides is square, so it needs no least squares
    nodes = 0
    for expr in all_networks(6):
        if not analyze(expr).locally_identifiable:
            continue
        stack = [expr]
        while stack:
            node = stack.pop()
            if isinstance(node, Leaf):
                continue
            stack.extend(node.children)
            if sum(not isinstance(child, Leaf) for child in node.children) < 2:
                continue
            factors, powers, other_shapes = [], [], []
            for child in node.children:
                eq = fold_constitutive(child, [1] * len(params(child)), 1)
                p_op, q_op = (eq.eps, eq.sig) if isinstance(node, Series) else (eq.sig, eq.eps)
                factors.append(p_op.coeffs)
                powers.append(p_op.low)
                other_shapes.append(q_op.shape)
            matrix = fiber._exchange_matrix(factors, powers, other_shapes)
            rows, cols = len(matrix), {len(row) for row in matrix}
            assert cols == {rows}, expr
            nodes += 1
    assert nodes == 1000
