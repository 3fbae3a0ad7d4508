import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sdident import (
    GlobalStatus,
    NetType,
    Shape,
    analyze,
    block_determinant,
    coefficient_map,
    constitutive,
    constructible_one_at_a_time,
    exact_det,
    exact_rank,
    factor_matrix,
    factor_matrix_size,
    nonmonic_count,
    parse,
    resultant,
    sylvester,
)
from sdident.ident import _MODULUS, _eliminate

from helpers import (
    BRANCHED_10,
    BURGERS,
    GEN_KELVIN_VOIGT,
    LADDER_8,
    MAXWELL,
    PARALLEL_ROWS,
    SERIES_ROWS,
    VOIGT,
    embedded_pair,
    eval_coeffs,
    fraction_rank,
    good_quadruple,
    laplace_det,
    poly_from_roots,
    typed_network,
    valid_indices,
)


class TestNonMonicCount:
    @pytest.mark.parametrize(
        "text,expected",
        [(BURGERS, 4), ("E1", 1), (MAXWELL, 2), (VOIGT, 2), (GEN_KELVIN_VOIGT, 7)],
    )
    def test_examples(self, text, expected):
        assert nonmonic_count(constitutive(parse(text))) == expected

    def test_two_maxwells_in_series(self):
        eq = constitutive(parse("(E1 & n1) & (E2 & n2)"))
        assert nonmonic_count(eq) == 2  # against 4 parameters

    def test_equals_map_length(self):
        for text in (BURGERS, LADDER_8, BRANCHED_10):
            eq = constitutive(parse(text))
            assert nonmonic_count(eq) == len(coefficient_map(eq))


class TestLocalVerdicts:
    @pytest.mark.parametrize(
        "text,identifiable",
        [
            (MAXWELL, True),
            (VOIGT, True),
            (BURGERS, True),
            (LADDER_8, True),
            (GEN_KELVIN_VOIGT, True),
            (BRANCHED_10, False),
            ("(E1 & n1) & (E2 & n2)", False),
        ],
    )
    def test_examples(self, text, identifiable):
        verdict = analyze(parse(text))
        assert verdict.locally_identifiable == identifiable
        assert (verdict.net_type != NetType.U) == identifiable
        assert (verdict.param_count == verdict.nonmonic_count) == identifiable

    def test_trace_present(self):
        verdict = analyze(parse(BURGERS))
        assert len(verdict.trace) == 3
        assert hash(verdict) == hash(analyze(parse(BURGERS)))


class TestConstructibility:
    @pytest.mark.parametrize(
        "text,expected",
        [
            (LADDER_8, True),
            (GEN_KELVIN_VOIGT, False),
            (BURGERS, True),
            (MAXWELL, True),
            ("E1", True),
            ("(E1 & n1) | (E2 & n2)", False),
        ],
    )
    def test_examples(self, text, expected):
        assert constructible_one_at_a_time(parse(text)) == expected


class TestGlobalVerdicts:
    @pytest.mark.parametrize(
        "text,expected",
        [
            (LADDER_8, GlobalStatus.GLOBAL),
            (GEN_KELVIN_VOIGT, GlobalStatus.LOCAL_ONLY),
            (MAXWELL, GlobalStatus.GLOBAL),
            (VOIGT, GlobalStatus.GLOBAL),
            (BURGERS, GlobalStatus.GLOBAL),
            (BRANCHED_10, GlobalStatus.UNIDENTIFIABLE),
        ],
    )
    def test_examples(self, text, expected):
        assert analyze(parse(text)).global_status == expected

    def test_global_implies_local(self):
        for seed in range(60):
            from sdident import random_network

            verdict = analyze(random_network(seed, 5))
            if verdict.global_status == GlobalStatus.GLOBAL:
                assert verdict.locally_identifiable


class TestExactLinearAlgebra:
    def test_det_matches_numpy_on_integers(self):
        rng = random.Random(3)
        for _ in range(25):
            n = rng.randint(1, 6)
            mat = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            got = exact_det(mat)
            want = round(np.linalg.det(np.array(mat, dtype=float)))
            assert got == want

    def test_rank_matches_plain_elimination(self):
        rng = random.Random(4)
        for _ in range(40):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 6)
            mat = [
                [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(cols)]
                for _ in range(rows)
            ]
            # exact_rank takes integer rows: scale each row to integers
            ints = [[int(x * math.lcm(*(y.denominator for y in row))) for x in row] for row in mat]
            assert exact_rank(ints) == fraction_rank(mat)

    def test_rank_detects_dependent_rows(self):
        mat = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
        assert exact_rank(mat) == 2

    def test_empty_det(self):
        assert exact_det([]) == 1

    def test_non_square_det_rejected(self):
        for mat in ([[1, 2]], [[1], [2]], [[1, 2], [3]]):
            with pytest.raises(ValueError, match="non-square"):
                exact_det(mat)

    @pytest.mark.parametrize(
        "mat, short, rank",
        [
            ([[_MODULUS]], 0, 1),
            ([[_MODULUS, 0], [0, 1]], 1, 2),
            ([[1, 1], [1, 1 + _MODULUS]], 1, 2),
            ([[_MODULUS, 3], [0, 2 * _MODULUS]], 1, 2),
            ([[_MODULUS, 2 * _MODULUS], [1, 2]], 1, 1),
        ],
    )
    def test_rank_short_mod_p_falls_back(self, mat, short, rank):
        # the rank mod p is below min(rows, columns), so the rank over the
        # rationals decides
        before = [list(row) for row in mat]
        assert _eliminate(mat, _MODULUS)[0] == short
        assert exact_rank(mat) == rank == fraction_rank(mat)
        assert mat == before  # the fallback eliminates a copy


# small integers plus multiples of the modulus, so ranks mod p often fall short
_NEAR_MULTIPLES = st.builds(lambda a, k: a + k * _MODULUS, st.integers(-3, 3), st.integers(-2, 2))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda cols: st.lists(
            st.lists(_NEAR_MULTIPLES, min_size=cols, max_size=cols), min_size=1, max_size=4
        )
    )
)
def test_rank_matches_fraction_rank_near_multiples_of_p(mat):
    assert exact_rank(mat) == fraction_rank(mat)


_FRACTIONS = st.builds(F, st.integers(-6, 6), st.integers(1, 5))


@st.composite
def _square_fraction_matrices(draw):
    """Square Fraction matrices up to 4 x 4; half of them singular by
    construction, one row a multiple (possibly 0) of another."""
    n = draw(st.integers(1, 4))
    mat = draw(st.lists(st.lists(_FRACTIONS, min_size=n, max_size=n), min_size=n, max_size=n))
    if n > 1 and draw(st.booleans()):
        src, dst = draw(st.permutations(range(n)))[:2]
        factor = draw(_FRACTIONS)
        mat[dst] = [factor * x for x in mat[src]]
    return mat


@settings(max_examples=200, deadline=None)
@given(_square_fraction_matrices())
def test_det_matches_cofactor_expansion_on_fractions(mat):
    assert exact_det(mat) == laplace_det(mat)


class TestSylvesterResultant:
    def test_shared_root(self):
        assert resultant([2, 3, 1], [1, 1]) == 0  # (x+1)(x+2) against (x+1)

    def test_two_by_two(self):
        # the textbook layout: deg q shifted copies of p's coefficients,
        # highest first, as columns, then deg p copies of q's
        cases = [
            ([1, 1], [2, 1], [[1, 1], [1, 2]], 1),
            # 3x^2 + 2x + 1 against 5x + 4: 25 * p(-4/5) = 33
            ([1, 2, 3], [4, 5], [[3, 5, 0], [2, 4, 5], [1, 0, 4]], 33),
            ([4, 5], [1, 2, 3], [[5, 0, 3], [4, 5, 2], [0, 4, 1]], 33),
        ]
        for p, q, expected, res in cases:
            mat = sylvester(p, q)
            assert mat == [[F(x) for x in row] for row in expected]
            assert all(type(x) is F for row in mat for x in row)
            assert resultant(p, q) == res

    def test_random_pairs_against_root_product(self):
        rng = random.Random(11)
        for _ in range(30):
            p_roots = [F(rng.randint(-8, 8), rng.randint(1, 3)) for _ in range(3)]
            q_roots = [F(rng.randint(-8, 8), rng.randint(1, 3)) for _ in range(2)]
            lead_p = F(rng.randint(1, 5))
            lead_q = F(rng.randint(1, 5))
            p = poly_from_roots(p_roots, lead_p)
            q = poly_from_roots(q_roots, lead_q)
            # res(p, q) = lc(p)^deg(q) * prod q(root of p)
            expected = lead_p ** (len(q) - 1)
            for r in p_roots:
                expected *= sum(c * r**i for i, c in enumerate(q))
            assert resultant(p, q) == expected

    def test_degree_zero_conventions(self):
        assert resultant([3, 1, 2], [5]) == 25  # c^deg(p)
        assert resultant([5], [3, 1, 2]) == 25
        assert resultant([7], [9]) == 1

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            sylvester([0], [1, 1])

    def test_untrimmed_leading_zero_rejected(self):
        with pytest.raises(ValueError):
            sylvester([1, 1, 0], [1, 1])


class TestFactorMatrix:
    def test_published_six_by_six_pattern(self):
        a0, a1, a2 = F(5), F(3), F(2)
        c0, c1, c2, c3 = F(17), F(13), F(11), F(7)
        mat = factor_matrix(
            [a0, a1, a2], Shape(2, 0), [c0, c1, c2, c3], Shape(3, 0), Shape(2, 0), Shape(2, 0)
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

    def test_constant_first_factor_gives_identity_band(self):
        mat = factor_matrix(
            [F(1)], Shape(0, 0), [F(4), F(9)], Shape(1, 0), Shape(1, 0), Shape(1, 0)
        )
        # the columns multiplying unknowns against L1 = 1 carry a plain
        # shifted-identity band (rows align with the unknown's order)
        band = [[row[0], row[1]] for row in mat]
        assert band == [[F(0), F(0)], [F(1), F(0)], [F(0), F(1)]]

    def test_series_same_class_counts_are_rectangular(self):
        for n1, n3 in ((1, 1), (2, 1), (2, 3)):
            quad = (Shape(n1, 0), Shape(n1, 0), Shape(n3, 0), Shape(n3, 0))
            rows, cols = factor_matrix_size(quad)
            assert (rows, cols) == (n1 + n3 + 1, n1 + n3 + 2)

    def test_vector_length_validated(self):
        with pytest.raises(ValueError, match="L1 vector length"):
            factor_matrix([F(1)], Shape(1, 0), [F(1)], Shape(0, 0), Shape(0, 0), Shape(0, 0))
        with pytest.raises(ValueError, match="L3 vector length"):
            factor_matrix([F(1)], Shape(0, 0), [F(1)], Shape(1, 0), Shape(0, 0), Shape(0, 0))


class TestGoodQuadruple:
    def test_published_square_case(self):
        quad = (Shape(2, 0), Shape(2, 0), Shape(3, 0), Shape(2, 0))
        assert good_quadruple(quad) is True

    def test_non_square_case(self):
        quad = (Shape(1, 0), Shape(1, 0), Shape(1, 0), Shape(1, 0))
        assert good_quadruple(quad) is False

    def test_spring_dashpot_series_case(self):
        quad = (Shape(0, 0), Shape(0, 0), Shape(1, 1), Shape(0, 0))
        assert good_quadruple(quad) is True


class TestBlockDeterminant:
    def test_published_example(self):
        l1 = [F(5), F(3), F(2)]
        l3 = [F(17), F(13), F(11), F(7)]
        mat = factor_matrix(l1, Shape(2, 0), l3, Shape(3, 0), Shape(2, 0), Shape(2, 0))
        got = abs(exact_det(mat))
        assert got == block_determinant(l1, Shape(2, 0), l3, Shape(3, 0), Shape(2, 0), Shape(2, 0))
        # the overhang column contributes its leading coefficient once
        assert got == F(7) * abs(resultant(l1, l3))

    def test_identity_over_composition_rows(self):
        """Every square system arising from the composition rows factors
        through the Sylvester determinant of its strain (or stress) pair."""
        rng = random.Random(31)
        checked = 0
        for rows, series in ((SERIES_ROWS, True), (PARALLEL_ROWS, False)):
            for (t1, t2), row in rows.items():
                if not row["identifiable"]:
                    continue
                n1 = rng.choice(valid_indices(t1, 2))
                n2 = rng.choice(valid_indices(t2, 2))
                net1 = typed_network(t1, n1, rng)
                net2 = typed_network(t2, n2, rng)
                eq1, eq2 = embedded_pair(net1, net2)
                if series:
                    quad = (eq1.eps.shape, eq1.sig.shape, eq2.eps.shape, eq2.sig.shape)
                    ops = (eq1.eps, eq2.eps)
                else:
                    quad = (eq1.sig.shape, eq1.eps.shape, eq2.sig.shape, eq2.eps.shape)
                    ops = (eq1.sig, eq2.sig)
                assert factor_matrix_size(quad)[0] == factor_matrix_size(quad)[1]
                theta = [F(rng.randint(1, 10**6), 1000) for _ in range(eq1.nvars)]
                vecs = []
                for op in ops:
                    vec = eval_coeffs(op, theta)
                    vecs.append([v / vec[-1] for v in vec])
                mat = factor_matrix(vecs[0], quad[0], vecs[1], quad[2], quad[1], quad[3])
                det = exact_det(mat)
                assert det != 0
                assert abs(det) == block_determinant(
                    vecs[0], quad[0], vecs[1], quad[2], quad[1], quad[3]
                )
                checked += 1
        assert checked == 10
