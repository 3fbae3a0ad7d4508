import random
from fractions import Fraction as F
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from sdident import (
    ConstitutiveEq,
    DiffOperator,
    InvariantViolation,
    ParamPoly,
    Parallel,
    Series,
    Shape,
    classify,
    coefficient_map,
    constitutive,
    equation_to_json,
    nonmonic_count,
    params,
    parse,
    random_network,
    render,
)
from sdident.network import DASHPOT, leaves
from sdident.opalg import NameTables, _Terms, fold_constitutive
from sdident.oracle import _grid

from helpers import (
    BURGERS,
    LADDER_8,
    Dual,
    _shifted_equation,
    all_networks,
    bit,
    child_equations,
    combine_parallel,
    combine_series,
    derivative,
    embedded_pair,
    eval_coeffs,
    evaluate,
    maxwell_bank,
    nested_chain,
    operator_product,
    operator_sum,
    reference_fold,
    reference_parallel,
    reference_series,
    schoolbook_product,
    schoolbook_sum,
    shapes_of,
    shift_down,
    to_string_reference,
)


def _rational_functions_equal(pair, expected_num, expected_den):
    """num/den == expected_num/expected_den: den is an exact polynomial
    multiple g of expected_den and num the same multiple of expected_num
    (cross multiplication would square shared parameters)."""
    num, den = pair
    g = den.try_divide(expected_den)
    return g is not None and num == expected_num * g


def _operator_at(op, theta, x0):
    """Value of the operator polynomial at (x0, theta)."""
    return sum(c * x0**k for k, c in enumerate(eval_coeffs(op, theta), start=op.low))


class TestParamPoly:
    def test_arithmetic_is_exact(self):
        x, y, z = (ParamPoly.var(3, i) for i in range(3))
        one = ParamPoly.const(3, 1)
        p = (x + y) * (z + one)
        assert p == x * z + y * z + x + y
        assert evaluate(p, [F(1, 3), F(1, 7), F(1, 5)]) == (F(1, 3) + F(1, 7)) * (F(1, 5) + 1)

    def test_shared_parameter_product_rejected(self):
        x = ParamPoly.var(2, 0)
        y = ParamPoly.var(2, 1)
        with pytest.raises(InvariantViolation):
            x * x
        with pytest.raises(InvariantViolation):
            (x + y) * (y + ParamPoly.const(2, 1))

    def test_repeated_monomial_sum_rejected(self):
        # a coefficient of 2 has no 0/1 form
        x = ParamPoly.var(2, 0)
        with pytest.raises(InvariantViolation):
            x + x
        with pytest.raises(InvariantViolation):
            (x + ParamPoly.var(2, 1)) + x

    def test_no_zero_terms_stored(self):
        x, zero = ParamPoly.var(1, 0), ParamPoly(1)
        assert (x * zero).terms == frozenset()
        assert not x * zero
        assert not ParamPoly.const(1, 0)
        assert x + zero == x

    def test_scalar_mix(self):
        # a polynomial takes no scalar, not even 0: the ring's zero is ParamPoly(n)
        x = ParamPoly.var(1, 0)
        assert x + ParamPoly.const(1, 1) == ParamPoly(1, {0b1, 0b0})
        assert (x == 0) is False
        for scalar in (0, 1):
            with pytest.raises(TypeError):
                x * scalar
            with pytest.raises(TypeError):
                x + scalar
        with pytest.raises(TypeError):
            2 * x

    def test_foreign_operands(self):
        # a string is no polynomial: unequal, and no sum or product
        x = ParamPoly(1)
        assert (x == "x") is False
        with pytest.raises(TypeError):
            x + "x"
        with pytest.raises(TypeError):
            x * "x"

    def test_repr(self):
        assert repr(ParamPoly(2, [1, 2])) == "ParamPoly(2, [1, 2])"

    def test_const_is_zero_or_one(self):
        with pytest.raises(ValueError):
            ParamPoly.const(2, 2)
        with pytest.raises(ValueError):
            ParamPoly.const(2, -1)

    def test_derivative(self):
        x, y, z = (ParamPoly.var(3, i) for i in range(3))
        p = x * y * z + y
        assert derivative(p, 0) == y * z
        assert derivative(p, 1) == x * z + ParamPoly.const(3, 1)
        assert not derivative(derivative(p, 2), 2)

    def test_try_divide(self):
        x, y, z = (ParamPoly.var(3, i) for i in range(3))
        one = ParamPoly.const(3, 1)
        assert (x * y + y * z).try_divide(y) == x + z
        assert (x * y + one).try_divide(y) is None
        # a non-monomial divisor, with a monomial and a binomial quotient
        assert (x * y + x * z).try_divide(y + z) == x
        assert (x * y + x * z + y + z).try_divide(y + z) == x + one
        assert (x * y + x * z + y).try_divide(y + z) is None
        assert ParamPoly(3).try_divide(y) == ParamPoly(3)
        with pytest.raises(ZeroDivisionError):
            x.try_divide(ParamPoly(3))

    def test_try_divide_quotient_shares_no_divisor_parameter(self):
        x, y, z = (ParamPoly.var(3, i) for i in range(3))
        # the x*z term holds no y, so no quotient free of y yields it
        assert (x * y + x * z).try_divide(y) is None

    def test_to_string_graded_lex(self):
        x, y, z = (ParamPoly.var(3, i) for i in range(3))
        p = y + x * z + x + ParamPoly.const(3, 1)
        assert p.to_string(["a", "b", "c"]) == "a*c + a + b + 1"
        assert (y * z + x * y + z).to_string(["a", "b", "c"]) == "a*b + b*c + c"
        assert ParamPoly(3).to_string(["a", "b", "c"]) == "0"

    @pytest.mark.parametrize("nvars", range(1, 41))
    def test_to_string_across_name_table_boundaries(self, nvars):
        # the printer reads each of ceil(nvars / 8) runs of parameters
        # from its own table, the runs' widths differing by at most one
        rng = random.Random(nvars)
        names = [f"{'En'[i % 2]}{i}" for i in range(nvars)]
        top = (1 << nvars) - 1
        masks = {0, top, *(bit(nvars, i) for i in range(nvars))}
        masks |= {rng.randint(0, top) for _ in range(300)}
        tables = NameTables(names)
        widths = [len(table).bit_length() - 1 for _, _, table in tables.chunks]
        assert len(widths) == -(-nvars // 8) and sum(widths) == nvars
        assert max(widths) - min(widths) <= 1
        assert all(len(table) <= 256 for _, _, table in tables.chunks)
        for terms in (masks, masks - {0}, {0}, ()):
            poly = ParamPoly(nvars, terms)
            expected = to_string_reference(poly, names)
            assert poly.to_string(names) == poly.to_string(tables) == expected
        with pytest.raises(ValueError, match="one name per variable"):
            ParamPoly(nvars + 1).to_string(tables)

    def test_to_string_rejects_ambiguous_names(self):
        # with the name " + b", a*b would print as "a + b", and an empty
        # name would print as nothing
        ab = ParamPoly.var(2, 0) * ParamPoly.var(2, 1)
        for names in (["a", " + b"], ["a*", "b"], ["", "b"]):
            with pytest.raises(ValueError):
                ab.to_string(names)

    def test_input_checks(self):
        x = ParamPoly.var(2, 0)
        for index in (-1, 2):
            with pytest.raises(ValueError, match="out of range"):
                ParamPoly.var(2, index)
        for names in (["a"], ["a", "b", "c"]):
            with pytest.raises(ValueError, match="one name per variable"):
                x.to_string(names)
        with pytest.raises(ValueError, match="different parameter lists"):
            x + ParamPoly.var(3, 1)
        with pytest.raises(ValueError, match="different parameter lists"):
            x * ParamPoly.var(3, 1)
        with pytest.raises(ValueError, match="different parameter lists"):
            x == ParamPoly.var(3, 0)

    def test_exponent_length_checked(self):
        # a monomial mask is the 0/1 exponent vector; bits past nvars are rejected
        with pytest.raises(ValueError):
            ParamPoly(2, {0b100})
        with pytest.raises(ValueError):
            ParamPoly(2, {-1})


class TestDiffOperator:
    """The operator record, and the reference fold's operator arithmetic
    (``tests/helpers.py``), which the package no longer holds."""

    def test_zero_end_coefficient_rejected(self):
        # no exact fold makes one; a trim would change a float fold's shape
        zero, one = ParamPoly(1), ParamPoly.const(1, 1)
        for coeffs in ([zero, one, zero], [zero, one], [one, zero], [0.0, 1.0]):
            with pytest.raises(InvariantViolation, match="zero end coefficient"):
                DiffOperator(0, coeffs)
        assert DiffOperator(0, [one, zero, one]).shape == Shape(2, 0)

    def test_all_zero_rejected(self):
        with pytest.raises(InvariantViolation):
            DiffOperator(0, [ParamPoly(1)])

    def test_empty_and_negative_order_rejected(self):
        x = ParamPoly.var(1, 0)
        with pytest.raises(InvariantViolation, match="no coefficients"):
            DiffOperator(0, [])
        with pytest.raises(InvariantViolation, match="negative"):
            DiffOperator(-1, [x])

    def test_foreign_operand_is_unequal(self):
        assert (DiffOperator(0, [ParamPoly.var(1, 0)]) == 1) is False

    def test_multiplication_convolves_orders(self):
        x = ParamPoly.var(2, 0)
        y = ParamPoly.var(2, 1)
        one = ParamPoly.const(2, 1)
        a = DiffOperator(1, [x])  # x * d/dt
        b = DiffOperator(0, [one, y])  # 1 + y d/dt
        prod = operator_product(a, b)
        assert prod.shape == Shape(2, 1)
        assert prod.coeffs == (x, x * y)

    def test_shift_down_requires_exactness(self):
        one = ParamPoly.const(1, 1)
        with pytest.raises(InvariantViolation):
            shift_down(DiffOperator(0, [one]), 1)

    def test_sum_of_disjoint_operators_holds_zeros_between(self):
        x, y = ParamPoly.var(2, 0), ParamPoly.var(2, 1)
        total = operator_sum(DiffOperator(3, [y]), DiffOperator(0, [x]), ParamPoly(2))
        assert total.low == 0
        assert total.coeffs == (x, ParamPoly(2), ParamPoly(2), y)


class TestFoldValueCount:
    """The fold counts values with its cursor: too few or too many raise
    the same ValueError."""

    @pytest.mark.parametrize("count", [0, 2, 4])
    def test_wrong_count_rejected(self, count):
        expr = parse("E1 & n1 | E2")
        with pytest.raises(ValueError, match=f"^expected 3 parameter values, got {count}$"):
            fold_constitutive(expr, [1] * count, 1)

    def test_exact_count_folds(self):
        expr = parse("E1 & n1 | E2")
        ones, eq = fold_constitutive(expr, [1] * 3, 1), constitutive(expr)
        assert (ones.eps.shape, ones.sig.shape) == (eq.eps.shape, eq.sig.shape)


class TestLeafEquations:
    def test_spring(self):
        eq = _shifted_equation(parse("E1"), 1, 0)
        assert eq.eps.shape == Shape(0, 0)
        assert eq.sig.shape == Shape(0, 0)
        assert eq.eps.coeffs == (ParamPoly.var(1, 0),)

    def test_dashpot(self):
        eq = _shifted_equation(parse("n1"), 1, 0)
        assert eq.eps.shape == Shape(1, 1)
        assert eq.sig.shape == Shape(0, 0)


class TestCombineSeries:
    def test_maxwell_from_spring_and_dashpot(self):
        # E eps = sigma joined with eta deps = sigma gives
        # (E eta) deps = eta dsigma + E sigma
        spring = _shifted_equation(parse("E1"), 2, 0)
        dashpot = _shifted_equation(parse("n1"), 2, 1)
        eq = combine_series(spring, dashpot)
        E = ParamPoly.var(2, 0)
        eta = ParamPoly.var(2, 1)
        assert eq.eps == DiffOperator(1, [E * eta])
        assert eq.sig == DiffOperator(0, [E, eta])

    def test_two_maxwells_cancel_one_derivative(self):
        eq1, eq2 = embedded_pair(parse("E1 & n1"), parse("E1 & n1"))
        eq = combine_series(eq1, eq2)
        E1, n1, E2, n2 = (ParamPoly.var(4, i) for i in range(4))
        # hand expansion after dividing the common derivative factor out
        assert eq.eps == DiffOperator(1, [E1 * n1 * E2 * n2])
        assert eq.sig == DiffOperator(0, [E1 * E2 * (n1 + n2), (E1 + E2) * n1 * n2])
        assert eq.eps.shape == Shape(1, 1)
        assert eq.sig.shape == Shape(1, 0)

    def test_voigt_series_maxwell_is_burgers(self):
        voigt, maxwell = embedded_pair(parse("Ev | nv"), parse("Em & nm"))
        direct = combine_series(voigt, maxwell)
        full = constitutive(parse("(Ev | nv) & (Em & nm)"))
        theta = [F(3), F(7), F(2), F(5)]
        for a, b in zip(coefficient_map(direct), coefficient_map(full)):
            assert evaluate(a[0], theta) * evaluate(b[1], theta) == evaluate(
                a[1], theta
            ) * evaluate(b[0], theta)


class TestCombineParallel:
    def test_voigt_from_spring_and_dashpot(self):
        spring = _shifted_equation(parse("E1"), 2, 0)
        dashpot = _shifted_equation(parse("n1"), 2, 1)
        eq = combine_parallel(spring, dashpot)
        E = ParamPoly.var(2, 0)
        eta = ParamPoly.var(2, 1)
        assert eq.eps == DiffOperator(0, [E, eta])
        assert eq.sig == DiffOperator(0, [ParamPoly.const(2, 1)])

    def test_two_springs(self):
        s1 = _shifted_equation(parse("E1"), 2, 0)
        s2 = _shifted_equation(parse("E2"), 2, 1)
        eq = combine_parallel(s1, s2)
        assert eq.eps == DiffOperator(
            0, [ParamPoly.var(2, 0) + ParamPoly.var(2, 1)]
        )
        assert eq.eps.shape == Shape(0, 0)
        assert len(coefficient_map(eq)) == 1

    def test_two_maxwells_parallel_shape(self):
        eq1, eq2 = embedded_pair(parse("E1 & n1"), parse("E2 & n2"))
        eq = combine_parallel(eq1, eq2)
        assert eq.eps.shape == Shape(2, 1)
        assert eq.sig.shape == Shape(2, 0)


class TestConstitutive:
    def test_single_spring(self):
        eq = constitutive(parse("E1"))
        assert eq.eps.shape == Shape(0, 0)
        assert eq.sig.shape == Shape(0, 0)

    def test_burgers_coefficients(self):
        # frozen hand expansion of the cleared-denominator equation:
        #   (Ev Em nm) deps + (Em nv nm) ddeps = (Ev Em) s
        #     + (Ev nm + Em nv + Em nm) ds + (nv nm) dds
        eq = constitutive(parse(BURGERS))
        Ev, nv, Em, nm = (ParamPoly.var(4, i) for i in range(4))
        assert eq.eps == DiffOperator(1, [Ev * Em * nm, Em * nv * nm])
        assert eq.sig == DiffOperator(
            0, [Ev * Em, Ev * nm + Em * nv + Em * nm, nv * nm]
        )

    def test_ladder_shapes_match_class_d(self):
        eq = constitutive(parse(LADDER_8))
        n = eq.sig.high
        assert eq.eps.shape == Shape(n, 1)
        assert eq.sig.shape == Shape(n, 0)

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param(text, id=text)
            for text in (LADDER_8, nested_chain(6), " | ".join(f"(E{i} & n{i})" for i in range(6)))
        ],
    )
    def test_term_budget_is_exact(self, text, monkeypatch):
        # the capped count at theta = 1 is exact up to the cap, so a budget
        # of exactly the term count admits the equation and one fewer
        # refuses it
        from sdident import opalg

        eq = constitutive(parse(text))
        terms = sum(len(c.terms) for op in (eq.eps, eq.sig) for c in op.coeffs)
        monkeypatch.setattr(opalg, "MAX_TERMS", terms)
        assert constitutive(parse(text)) == eq
        monkeypatch.setattr(opalg, "MAX_TERMS", terms - 1)
        with pytest.raises(ValueError, match=f"would have more than {terms - 1} terms"):
            constitutive(parse(text))

    def test_term_budget_on_both_sides_of_the_default(self):
        # nested_chain(13) has 514,229 terms and derives; nested_chain(14)
        # has 1,346,269, past MAX_TERMS = 10**6, and is refused up front
        from sdident.opalg import MAX_TERMS, _term_count

        chain13, chain14 = parse(nested_chain(13)), parse(nested_chain(14))
        assert _term_count(chain13) == 514229 and _term_count(chain14) == MAX_TERMS + 1
        eq = constitutive(chain13)
        assert sum(len(c.terms) for op in (eq.eps, eq.sig) for c in op.coeffs) == 514229
        with pytest.raises(ValueError, match=f"would have more than {MAX_TERMS} terms"):
            constitutive(chain14)

    def test_term_count_is_the_sum_at_theta_one(self):
        # each side's total at theta = 1 and x = 1, capped only past the
        # budget: the integer fold's sum on chains and banks within it,
        # and MAX_TERMS + 1 on a 10**42-term ladder and 20,000 elements
        from sdident.opalg import MAX_TERMS, _term_count

        texts = [nested_chain(d) for d in range(1, 14)] + [maxwell_bank(m) for m in range(1, 17)]
        for expr in map(parse, texts):
            ones = fold_constitutive(expr, [1] * len(params(expr)), 1)
            assert _term_count(expr) == sum(ones.eps.coeffs + ones.sig.coeffs) <= MAX_TERMS
        for expr in (parse(nested_chain(100)), random_network(1, 20000)):
            assert _term_count(expr) == MAX_TERMS + 1


class TestEvalOperator:
    def test_maxwell_sigma_side(self):
        eq = constitutive(parse("E1 & n1"))
        assert eval_coeffs(eq.sig, [F(2), F(3)]) == [F(2), F(3)]

    def test_interior_zero_coefficient(self):
        one = ParamPoly.const(1, 1)
        op = DiffOperator(0, [one, ParamPoly(1), one])
        assert eval_coeffs(op, [F(5)]) == [F(1), F(0), F(1)]

    def test_dimension_mismatch(self):
        eq = constitutive(parse("E1 & n1"))
        with pytest.raises(ValueError):
            eval_coeffs(eq.sig, [F(1)])

    def test_burgers_constant_over_leading_ratio(self):
        eq = constitutive(parse(BURGERS))
        theta = [F(3), F(7), F(2), F(5)]  # Ev, nv, Em, nm
        coeffs = eval_coeffs(eq.sig, theta)
        assert coeffs[0] / coeffs[-1] == F(6, 35)  # Em Ev / (nm nv)


class TestCoefficientMap:
    def test_single_spring(self):
        entries = coefficient_map(constitutive(parse("E1")))
        assert len(entries) == 1
        assert _rational_functions_equal(
            entries[0], ParamPoly.var(1, 0), ParamPoly.const(1, 1)
        )

    def test_maxwell(self):
        entries = coefficient_map(constitutive(parse("E1 & n1")))
        E = ParamPoly.var(2, 0)
        eta = ParamPoly.var(2, 1)
        one = ParamPoly.const(2, 1)
        assert len(entries) == 2
        assert _rational_functions_equal(entries[0], E, one)
        assert _rational_functions_equal(entries[1], E, eta)

    def test_burgers_matches_published_map(self):
        entries = coefficient_map(constitutive(parse(BURGERS)))
        Ev, nv, Em, nm = (ParamPoly.var(4, i) for i in range(4))
        one = ParamPoly.const(4, 1)
        expected = [
            (Em, one),
            (Em * Ev, nv),
            (Em * nv + Em * nm + Ev * nm, nm * nv),
            (Em * Ev, nm * nv),
        ]
        assert len(entries) == 4
        for pair, (num, den) in zip(entries, expected):
            assert _rational_functions_equal(pair, num, den)


class TestTermLists:
    """``constitutive``'s fold ring checks each product's supports as it
    forms, and each final coefficient for a repeated monomial at the
    freeze."""

    @staticmethod
    def _fold(text, masks):
        return fold_constitutive(parse(text), [_Terms([m], m) for m in masks], _Terms([0], 0))

    @pytest.mark.parametrize(
        "text, masks",
        [
            ("E1 | E2", [0b100, 0b100]),
            ("(E1 | E2) & n3", [0b100, 0b100, 0b001]),
            ("((E1 | E2) & n3) | E4", [0b1000, 0b1000, 0b0010, 0b0001]),
        ],
    )
    def test_repeated_monomial_raises_at_the_freeze(self, text, masks):
        # two leaves given one mask in parallel: the sums join the lists
        # unchecked, products carry the repeat on, and freezing the
        # coefficient that holds it raises the sum error
        eq = self._fold(text, masks)
        coeffs = [c for op in (eq.eps, eq.sig) for c in op.coeffs]
        assert any(len(set(c.masks)) < len(c.masks) for c in coeffs)
        with pytest.raises(InvariantViolation, match="sum of polynomials sharing a monomial"):
            [c.freeze(len(masks)) for c in coeffs]

    @pytest.mark.parametrize(
        "text, masks", [("E1 & E2", [0b10, 0b10]), ("(E1 | n2) & (E3 | n4)", [8, 4, 2, 8])]
    )
    def test_shared_parameter_raises_at_the_product(self, text, masks):
        with pytest.raises(InvariantViolation, match="product of monomials sharing a parameter"):
            self._fold(text, masks)


class TestInvariants:
    def test_fold_order_independence(self):
        rng = random.Random(7)
        for seed in range(25):
            expr = random_network(seed, rng.randint(3, 7))
            if not hasattr(expr, "children") or len(expr.children) < 3:
                continue
            combine = (
                combine_series if isinstance(expr, Series) else combine_parallel
            )
            kids = child_equations(expr)
            left = kids[0]
            for eq in kids[1:]:
                left = combine(left, eq)
            right = kids[-1]
            for eq in reversed(kids[:-1]):
                right = combine(eq, right)
            theta = [F(rng.randint(1, 10**6), 1000) for _ in range(len(params(expr)))]
            for a, b in zip(coefficient_map(left), coefficient_map(right)):
                assert evaluate(a[0], theta) * evaluate(b[1], theta) == evaluate(
                    a[1], theta
                ) * evaluate(b[0], theta)

    def test_commutativity(self):
        rng = random.Random(13)
        for node in (Series, Parallel):
            a = parse("E1 & (E2 | n2)")
            b = parse("n9 | Ex")
            pa, pb = len(params(a)), len(params(b))
            eq_ab = constitutive(node((a, b)))
            eq_ba = constitutive(node((b, a)))
            theta = [F(rng.randint(1, 10**6), 1000) for _ in range(pa + pb)]
            swapped = theta[pa:] + theta[:pa]
            for x, y in zip(coefficient_map(eq_ab), coefficient_map(eq_ba)):
                assert evaluate(x[0], theta) * evaluate(y[1], swapped) == evaluate(
                    x[1], theta
                ) * evaluate(y[0], swapped)

    def test_series_cancellation_soundness(self):
        rng = random.Random(23)
        for seed in range(30):
            expr = random_network(seed, rng.randint(2, 6))
            if not isinstance(expr, Series):
                continue
            kids = child_equations(expr)
            left, acc = kids[0], None
            for eq in kids[1:]:
                acc = combine_series(left, eq)
                k = min(left.eps.low, eq.eps.low)
                theta = [F(rng.randint(1, 10**6), 1000) for _ in range(len(params(expr)))]
                x0 = F(rng.randint(1, 100), 7)
                pre = _operator_at(left.eps, theta, x0) * _operator_at(eq.eps, theta, x0)
                post = _operator_at(acc.eps, theta, x0)
                assert pre == post * x0**k
                left = acc

    def test_exactness_all_rational(self):
        # the integer fold at theta = 1 counts each coefficient's terms:
        # it meets no monomial twice
        expr = parse(BURGERS)
        eq = constitutive(expr)
        ones = fold_constitutive(expr, [1] * len(params(expr)), 1)
        for op, counts in ((eq.eps, ones.eps), (eq.sig, ones.sig)):
            assert [len(poly.terms) for poly in op.coeffs] == list(counts.coeffs)


def _exact(op):
    return op.low, list(op.coeffs)


def _dual_slots(op):
    return op.low, [(d.value, d.grad, d.exp) for d in op.coeffs]


def _polys(op):
    return op.low, [(p.terms, p.support) for p in op.coeffs]


def test_kernel_matches_reference_fold_up_to_five_elements():
    # the coefficient-list kernel against the fold on operator objects
    # (tests/helpers.py), in every ring it serves: ints at theta = 1
    # (the term count) and at a grid point, ParamPoly, floats bit for bit
    # (fiber), and the dense rank oracle's duals (tests/helpers.py) slot
    # by slot, each gradient packed at any width, since both folds form
    # the same ints;
    # constitutive's term lists, frozen into ParamPoly, against the
    # reference's ParamPoly operators, terms and support; and the
    # kernel's step on two equations against the reference's, on each
    # root's children.  In every ring, the readers of an equation
    # (coefficient_map, nonmonic_count, classify) need nothing of it but
    # its shapes and a truth value per coefficient, and agree with the
    # fold at theta = 1.
    seen = 0
    for expr in all_networks(5):
        n = len(params(expr))
        grid = _grid(n, seen)
        variables, const = [ParamPoly.var(n, i) for i in range(n)], ParamPoly.const(n, 1)
        zero = ParamPoly(n)
        rings = [
            ([1] * n, 1, 0, _exact),
            (grid, 1, 0, _exact),
            (variables, const, zero, _exact),
            ([k / 1000 for k in grid], 1.0, 0.0, _bits),
            (
                [Dual(k, 1000 << (64 * i), 1) for i, k in enumerate(grid)],
                Dual(1, 0, 0), Dual(0, 0, 0), _dual_slots,
            ),
        ]
        shape_class = classify(*shapes_of(fold_constitutive(expr, [1] * n, 1)))
        for values, one, ring_zero, key in rings:
            got = fold_constitutive(expr, values, one)
            want = reference_fold(expr, values, one, ring_zero)
            assert (key(got.eps), key(got.sig)) == (key(want.eps), key(want.sig)), expr
            assert len(coefficient_map(got)) == nonmonic_count(*shapes_of(got)), expr
            assert classify(*shapes_of(got)) == shape_class, expr
        got, want = constitutive(expr), reference_fold(expr, variables, const, zero)
        assert (_polys(got.eps), _polys(got.sig)) == (_polys(want.eps), _polys(want.sig)), expr
        assert len(coefficient_map(got)) == nonmonic_count(*shapes_of(got)), expr
        assert classify(*shapes_of(got)) == shape_class, expr
        if isinstance(expr, (Series, Parallel)):
            series = isinstance(expr, Series)
            kids = child_equations(expr)
            got = reduce(combine_series if series else combine_parallel, kids)
            reference = reference_series if series else reference_parallel
            assert got == reduce(lambda a, b: reference(a, b, zero), kids), expr
        seen += 1
    assert seen == 3290



def _subtrees(node, start=0):
    """Each node of the tree, the root last, with its first leaf's index."""
    cursor = start
    for child in getattr(node, "children", ()):
        yield from _subtrees(child, cursor)
        cursor += len(leaves(child))
    yield node, start


def _tree_nodes(tree):
    """Each subtree of the fiber's base tree, the root last."""
    for kid in tree.kids:
        yield from _tree_nodes(kid)
    yield tree


def test_fiber_tree_holds_each_subtree_fold_up_to_five_elements():
    # the fiber's base tree against a separate float fold of each subtree
    # at its slice of the values, bit for bit
    from sdident import fiber

    seen = 0
    for expr in all_networks(5):
        values = [k / 1000 for k in _grid(len(params(expr)), seen)]
        tree = fiber._base(expr, values)
        subs, nodes = list(_tree_nodes(tree)), list(_subtrees(expr))
        assert len(subs) == len(nodes), expr
        assert all(sub.node is node for sub, (node, _) in zip(subs, nodes)), expr
        for sub, (node, start) in zip(subs, nodes):
            low, eps, sig = sub.eq
            got = (low, [c.hex() for c in eps]), (0, [c.hex() for c in sig])
            want = fold_constitutive(node, values[start : start + len(leaves(node))], 1.0)
            assert got == (_bits(want.eps), _bits(want.sig)), render(node)
        seen += 1
    assert seen == 3290

class TestSerialization:
    def test_burgers_round_trip_schema(self):
        expr = parse(BURGERS)
        eq = constitutive(expr)
        blob = equation_to_json(eq, params(expr))
        assert set(blob) == {"eps", "sigma"}
        assert [item["order"] for item in blob["eps"]] == [1, 2]
        assert [item["order"] for item in blob["sigma"]] == [0, 1, 2]
        assert blob["sigma"][2]["poly"] == "nv*nm"
        assert blob["eps"][1]["poly"] == "nv*Em*nm"

    def test_deterministic(self):
        expr = parse(LADDER_8)
        eq = constitutive(expr)
        assert equation_to_json(eq, params(expr)) == equation_to_json(
            eq, params(expr)
        )


IDENTIFIERS = st.builds(
    str.__add__,
    st.sampled_from(["E", "k", "n", "eta"]),
    st.text(alphabet="abcxyzEN019_", max_size=4),
)


# names outside the grammar, built from the printer's own separators
ODD_NAMES = st.lists(
    st.sampled_from(["a", " ", "+", " + ", "*", "\u00e9"]), max_size=3
).map("".join)


@st.composite
def polys_and_names(draw, odd=False):
    """A 0/1 polynomial, not always homogeneous, and one grammar name per
    variable; with ``odd``, one name is replaced by an odd one."""
    nvars = draw(st.integers(0, 30))
    masks = set(draw(st.lists(st.integers(0, (1 << nvars) - 1), max_size=40)))
    masks.discard(0)
    if draw(st.booleans()):
        masks.add(0)
    names = draw(st.lists(IDENTIFIERS, min_size=nvars, max_size=nvars))
    if odd and nvars:
        names[draw(st.integers(0, nvars - 1))] = draw(ODD_NAMES)
    return ParamPoly(nvars, masks), names


@settings(max_examples=300, deadline=None)
@given(polys_and_names())
def test_to_string_matches_reference(case):
    poly, names = case
    assert poly.to_string(names) == to_string_reference(poly, names)


@settings(max_examples=300, deadline=None)
@given(polys_and_names(odd=True))
def test_to_string_odd_names_match_reference_or_raise(case):
    # a name outside the grammar prints as the reference does, or raises
    # ValueError when the text could not tell the names apart
    poly, names = case
    if any(not name or "*" in name or " + " in name for name in names):
        with pytest.raises(ValueError):
            poly.to_string(names)
    else:
        assert poly.to_string(names) == to_string_reference(poly, names)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 9))
def test_support_is_or_of_masks(seed, n):
    eq = constitutive(random_network(seed, n))
    for op in (eq.eps, eq.sig):
        for poly in op.coeffs:
            support = 0
            for mask in poly.terms:
                support |= mask
            assert poly.support == support
            assert 0 <= poly.support < 1 << poly.nvars


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 6))
def test_sigma_side_always_has_constant_term(seed, n):
    eq = constitutive(random_network(seed, n))
    assert eq.sig.low == 0
    assert isinstance(eq, ConstitutiveEq)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(4, 20))
def test_every_coefficient_is_graded(seed, n):
    # the theorem behind 0/1 coefficients: strain monomials all have one
    # degree, one above that of the stress monomials, and one offset c
    # makes every order-k monomial hold k + c dashpots
    expr = random_network(seed, n)
    eq = constitutive(expr)
    dashpots = sum(bit(n, i) for i, el in enumerate(leaves(expr)) if el.kind == DASHPOT)

    def grades(op):
        # (degree, dashpots - order) of every monomial
        return {
            (mask.bit_count(), (mask & dashpots).bit_count() - order)
            for order, poly in enumerate(op.coeffs, op.low)
            for mask in poly.terms
        }

    [(strain_degree, c)] = grades(eq.eps)
    assert grades(eq.sig) == {(strain_degree - 1, c)}


# Positive coefficients, as every fold at a positive point has: no sum
# cancels, so each zero is +0.0 in both routes and bitwise comparable.
FLOAT_OPERATORS = st.builds(
    DiffOperator, st.integers(0, 3), st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=5)
)


def _bits(op):
    return op.low, [c.hex() for c in op.coeffs]


@settings(max_examples=300, deadline=None)
@given(FLOAT_OPERATORS, FLOAT_OPERATORS)
def test_float_operator_arithmetic_matches_schoolbook_bitwise(p, q):
    # the reference product adds order k's terms in ascending i, so its
    # float fold rounds exactly as the schoolbook order does
    assert _bits(operator_product(p, q)) == _bits(schoolbook_product(p, q))
    assert _bits(operator_sum(p, q, 0.0)) == _bits(schoolbook_sum(p, q, 0.0))


def _poly_operators(variables):
    masks = st.sets(st.sampled_from([m for m in range(64) if m & ~variables == 0]), min_size=1)
    polys = st.builds(ParamPoly, st.just(6), masks)
    return st.builds(DiffOperator, st.integers(0, 3), st.lists(polys, min_size=1, max_size=4))


def _outcome(op, *operands):
    try:
        return op(*operands)
    except InvariantViolation as err:
        return str(err)


@settings(max_examples=300, deadline=None)
@given(_poly_operators(0b000111), _poly_operators(0b111000), _poly_operators(0b111111))
def test_param_poly_operator_arithmetic_matches_schoolbook(p, q, r):
    # the same operator, or the same InvariantViolation where two terms
    # share a monomial
    assert _outcome(operator_product, p, q) == _outcome(schoolbook_product, p, q)
    zero = ParamPoly(6)
    assert _outcome(operator_sum, p, r, zero) == _outcome(schoolbook_sum, p, r, zero)
