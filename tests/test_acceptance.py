"""Acceptance suite: one test per criterion, each printing a PASS line
with its runtime (run with -s to see them all)."""

import random
import time
from fractions import Fraction as F

import pytest

from sdident import (
    GlobalStatus,
    NetType,
    ParamPoly,
    ParamPoint,
    Shape,
    analyze,
    classify,
    coefficient_map,
    combine_parallel,
    combine_series,
    constitutive,
    factor_matrix,
    fiber_solutions,
    jacobian_rank,
    nonmonic_count,
    params,
    parse,
    random_network,
    sample_point,
    table_parallel,
    table_series,
    type_trace,
)
from sdident.opalg import fold_constitutive

from helpers import (
    BRANCHED_10,
    BURGERS,
    GEN_KELVIN_VOIGT,
    LADDER_8,
    MAXWELL,
    PARALLEL_ROWS,
    SERIES_ROWS,
    VOIGT,
    block_determinant,
    embedded_pair,
    eval_coeffs,
    exact_det,
    factor_matrix_size,
    poly_from_roots,
    resultant,
    typed_network,
    valid_indices,
)


def _report(number, name, elapsed, budget):
    print(f"[PASS] criterion {number}: {name} ({elapsed:.2f}s < {budget:.0f}s)")


def _rf_equal(pair, num, den):
    """pair[0]/pair[1] == num/den: pair[1] is an exact polynomial multiple
    g of den and pair[0] the same multiple of num."""
    g = pair[1].try_divide(den)
    return g is not None and pair[0] == num * g


# ---------------------------------------------------------------------------
# criterion 1: golden constitutive equations


def test_criterion_1_golden_equations():
    t0 = time.perf_counter()

    # series spring-dashpot: deps = dsigma/E + sigma/eta
    entries = coefficient_map(constitutive(parse(MAXWELL)))
    E, eta = ParamPoly.var(2, 0), ParamPoly.var(2, 1)
    one2 = ParamPoly.const(2, 1)
    assert len(entries) == 2
    assert _rf_equal(entries[0], E, one2)  # strain first-derivative coefficient
    assert _rf_equal(entries[1], E, eta)  # stress constant coefficient

    # parallel spring-dashpot: E eps + eta deps = sigma
    entries = coefficient_map(constitutive(parse(VOIGT)))
    assert len(entries) == 2
    assert _rf_equal(entries[0], eta, one2)
    assert _rf_equal(entries[1], E, one2)

    # four-element model: the published four-entry map, symbolically exact
    entries = coefficient_map(constitutive(parse(BURGERS)))
    Ev, nv, Em, nm = (ParamPoly.var(4, i) for i in range(4))
    one4 = ParamPoly.const(4, 1)
    expected = [
        (Em, one4),
        (Em * Ev, nv),
        (Em * nv + Em * nm + Ev * nm, nm * nv),
        (Em * Ev, nm * nv),
    ]
    assert len(entries) == 4
    for pair, (num, den) in zip(entries, expected):
        assert _rf_equal(pair, num, den)

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(1, "golden constitutive equations", elapsed, 1)


# ---------------------------------------------------------------------------
# criterion 2: example network verdicts


def test_criterion_2_example_verdicts():
    t0 = time.perf_counter()
    cases = [
        (MAXWELL, NetType.D, GlobalStatus.GLOBAL),
        (VOIGT, NetType.C, GlobalStatus.GLOBAL),
        (BURGERS, NetType.D, GlobalStatus.GLOBAL),
        (LADDER_8, NetType.D, GlobalStatus.GLOBAL),
        (BRANCHED_10, NetType.U, GlobalStatus.UNIDENTIFIABLE),
        (GEN_KELVIN_VOIGT, NetType.A, GlobalStatus.LOCAL_ONLY),
    ]
    for text, expected_type, expected_global in cases:
        verdict = analyze(parse(text))
        assert verdict.net_type == expected_type, text
        assert verdict.global_status == expected_global, text
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(2, "example network verdicts", elapsed, 1)


# ---------------------------------------------------------------------------
# criteria 3 and 5 share one sweep over all 20 class pairings


@pytest.fixture(scope="module")
def composition_sweep():
    rng = random.Random(90210)
    t0 = time.perf_counter()
    instances = 0
    matrix_checks = []
    for rows, series in ((SERIES_ROWS, True), (PARALLEL_ROWS, False)):
        combine = combine_series if series else combine_parallel
        table = table_series if series else table_parallel
        for (t1, t2), row in rows.items():
            for _ in range(10):
                n1 = rng.choice(valid_indices(t1))
                n2 = rng.choice(valid_indices(t2))
                net1 = typed_network(t1, n1, rng)
                net2 = typed_network(t2, n2, rng)
                # self-check the builders against the class algebra
                assert type_trace(net1)[0] == NetType(t1)
                assert type_trace(net2)[0] == NetType(t2)
                eq1, eq2 = embedded_pair(net1, net2)
                combined = combine(eq1, eq2)

                shape_type, _ = classify(combined)
                assert shape_type.value == row["result"]
                assert tuple(combined.eps.shape) == row["eps"](n1, n2)
                assert tuple(combined.sig.shape) == row["sig"](n1, n2)
                assert nonmonic_count(combined) == row["nonmonic"](n1, n2)
                assert combined.nvars == row["params"](n1, n2)
                balanced = row["nonmonic"](n1, n2) == row["params"](n1, n2)
                assert balanced == row["identifiable"]
                table_result = table(NetType(t1), NetType(t2))
                assert (table_result != NetType.U) == row["identifiable"]
                if row["identifiable"]:
                    assert table_result.value == row["result"]

                if series:
                    quad = (eq1.eps.shape, eq1.sig.shape, eq2.eps.shape, eq2.sig.shape)
                    ops = (eq1.eps, eq2.eps)
                else:
                    quad = (eq1.sig.shape, eq1.eps.shape, eq2.sig.shape, eq2.eps.shape)
                    ops = (eq1.sig, eq2.sig)
                r, c = factor_matrix_size(quad)
                assert (r == c) == row["identifiable"]
                if r == c:
                    for attempt in range(2):  # one resample allowed on a zero draw
                        theta = [
                            F(rng.randint(1, 10**6), 1000) for _ in range(combined.nvars)
                        ]
                        vecs = []
                        for op in ops:
                            vec = eval_coeffs(op, theta)
                            vecs.append([v / vec[-1] for v in vec])
                        mat = factor_matrix(
                            [(vecs[0], quad[0], quad[3]), (vecs[1], quad[2], quad[1])]
                        )
                        det = exact_det(mat)
                        if det != 0:
                            break
                    predicted = block_determinant(
                        vecs[0], quad[0], vecs[1], quad[2], quad[1], quad[3]
                    )
                    matrix_checks.append((det, predicted))
                instances += 1
    return {
        "instances": instances,
        "matrix_checks": matrix_checks,
        "elapsed": time.perf_counter() - t0,
    }


def test_criterion_3_composition_tables(composition_sweep):
    assert composition_sweep["instances"] >= 200
    assert composition_sweep["elapsed"] < 30.0
    _report(3, "composition tables over random components", composition_sweep["elapsed"], 30)


def test_criterion_5_shape_factorization(composition_sweep):
    t0 = time.perf_counter()
    # exact published 6x6 pattern
    a0, a1, a2 = F(5), F(3), F(2)
    c0, c1, c2, c3 = F(17), F(13), F(11), F(7)
    mat = factor_matrix(
        [([a0, a1, a2], Shape(2, 0), Shape(2, 0)), ([c0, c1, c2, c3], Shape(3, 0), Shape(2, 0))]
    )
    zero = F(0)
    assert mat == [
        [zero, zero, zero, c3, zero, zero],
        [a2, zero, zero, c2, c3, zero],
        [a1, a2, zero, c1, c2, c3],
        [a0, a1, a2, c0, c1, c2],
        [zero, a0, a1, zero, c0, c1],
        [zero, zero, a0, zero, zero, c0],
    ]
    assert len(mat) == 6 and all(len(row) == 6 for row in mat)

    # every square system from the sweep: nonzero determinant that equals
    # the triangular-blocks-around-a-Sylvester-matrix prediction exactly
    checks = composition_sweep["matrix_checks"]
    assert checks, "no square systems arose"
    for det, predicted in checks:
        assert det != 0
        assert abs(det) == predicted
    elapsed = time.perf_counter() - t0 + composition_sweep["elapsed"]
    _report(5, f"shape factorization linear algebra ({len(checks)} square systems)", elapsed, 30)


# ---------------------------------------------------------------------------
# criterion 4: triple agreement of the three local-identifiability routes


def test_criterion_4_triple_agreement():
    t0 = time.perf_counter()
    rng = random.Random(424242)
    disagreements = []
    for i in range(500):
        n_elements = rng.randint(1, 8)
        expr = random_network(rng.randint(0, 10**9), n_elements)
        n = len(params(expr))
        by_table = type_trace(expr)[0] != NetType.U
        by_counting = n == nonmonic_count(constitutive(expr))
        rank = jacobian_rank(expr, sample_point(n, seed=rng.randint(0, 10**6)))
        by_rank = rank == n
        if not (by_table == by_counting == by_rank):
            disagreements.append((expr, by_table, by_counting, by_rank))
    elapsed = time.perf_counter() - t0
    assert not disagreements
    assert elapsed < 300.0
    _report(4, "triple agreement over 500 random networks", elapsed, 300)


# ---------------------------------------------------------------------------
# criterion 6: fiber evidence for the global criterion


def test_criterion_6_fiber_evidence():
    t0 = time.perf_counter()

    expr = parse(GEN_KELVIN_VOIGT)
    report = fiber_solutions(expr, multistarts=200, seed=7)
    assert len(report.solutions) >= 6

    def normalized(values):
        return [num / den for num, den in coefficient_map(fold_constitutive(expr, values, 1.0))]

    target = normalized([float(v) for v in report.base.values])
    for sol in report.solutions:
        got = normalized(list(sol.values))
        assert len(got) == len(target)
        assert all(abs(g - t) <= 1e-8 * (1.0 + abs(t)) for g, t in zip(got, target))

    for text in (BURGERS, MAXWELL, VOIGT, LADDER_8):
        singleton = fiber_solutions(parse(text), multistarts=200, seed=7)
        assert len(singleton.solutions) == 1, text
        assert singleton.solutions[0].method == "base"

    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(6, "fiber evidence (>= 6 exchanged, 4 singletons)", elapsed, 120)


# ---------------------------------------------------------------------------
# criterion 7: resultant correctness on constructed pairs


def test_criterion_7_resultant_correctness():
    t0 = time.perf_counter()
    rng = random.Random(31337)
    for i in range(100):
        shared = i % 2 == 0
        pool = list(range(-20, 0)) + list(range(1, 21))
        rng.shuffle(pool)
        p_roots = [F(pool[0], rng.randint(1, 3)), F(pool[1], rng.randint(1, 3))]
        if shared:
            q_roots = [p_roots[0], F(pool[2], rng.randint(1, 3))]
        else:
            q_roots = []
            k = 2
            while len(q_roots) < 2:
                candidate = F(pool[k], rng.randint(1, 3))
                if candidate not in p_roots and candidate not in q_roots:
                    q_roots.append(candidate)
                k += 1
        p = poly_from_roots(p_roots, F(rng.randint(1, 9)))
        q = poly_from_roots(q_roots, F(rng.randint(1, 9)))
        res = resultant(p, q)
        if shared:
            assert res == 0
        else:
            assert res != 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(7, "resultant zero iff constructed shared root", elapsed, 5)
