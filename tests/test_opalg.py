import random
from fractions import Fraction as F

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
    analyze,
    coefficient_map,
    combine_parallel,
    combine_series,
    constitutive,
    equation_to_json,
    params,
    parse,
    random_network,
)
from sdident.network import DASHPOT, leaves
from sdident.opalg import fold_constitutive

from helpers import (
    BURGERS,
    LADDER_8,
    _shifted_equation,
    child_equations,
    derivative,
    embedded_pair,
    eval_coeffs,
    evaluate,
    nested_chain,
    schoolbook_product,
    schoolbook_sum,
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
        x = ParamPoly.var(1, 0)
        assert (x * 0).terms == frozenset()
        assert not x * 0
        assert not ParamPoly.const(1, 0)
        assert x + 0 == x

    def test_scalar_mix(self):
        # the int 0 is the only scalar a polynomial takes
        x = ParamPoly.var(1, 0)
        assert x + ParamPoly.const(1, 1) == ParamPoly(1, {0b1, 0b0})
        assert x * 0 == 0
        with pytest.raises(TypeError):
            x + 1
        with pytest.raises(TypeError):
            2 * x

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
        assert ParamPoly(3).try_divide(y) == 0
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
    def test_trims_to_tight_shape(self):
        zero = ParamPoly(1)
        one = ParamPoly.const(1, 1)
        op = DiffOperator(0, [zero, one, zero])
        assert op.shape == Shape(1, 1)

    def test_all_zero_rejected(self):
        with pytest.raises(InvariantViolation):
            DiffOperator(0, [ParamPoly(1)])

    def test_multiplication_convolves_orders(self):
        x = ParamPoly.var(2, 0)
        y = ParamPoly.var(2, 1)
        one = ParamPoly.const(2, 1)
        a = DiffOperator(1, [x])  # x * d/dt
        b = DiffOperator(0, [one, y])  # 1 + y d/dt
        prod = a * b
        assert prod.shape == Shape(2, 1)
        assert prod.coeff(1) == x
        assert prod.coeff(2) == x * y

    def test_coeff_outside_shape_is_zero(self):
        x, y = ParamPoly.var(2, 0), ParamPoly.var(2, 1)
        op = DiffOperator(1, [x, y])  # x d/dt + y d2/dt2
        assert [op.coeff(k) for k in range(1, 3)] == [x, y]
        for order in (0, 3, 7):
            assert op.coeff(order) == ParamPoly(2) and not op.coeff(order)
            assert op.coeff(order).nvars == 2

    def test_shift_down_requires_exactness(self):
        one = ParamPoly.const(1, 1)
        with pytest.raises(InvariantViolation):
            DiffOperator(0, [one]).shift_down(1)

    def test_sum_of_disjoint_operators_holds_zeros_between(self):
        x, y = ParamPoly.var(2, 0), ParamPoly.var(2, 1)
        total = DiffOperator(3, [y]) + DiffOperator(0, [x])
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
        assert eq.eps.coeff(0) == ParamPoly.var(1, 0)

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
        "text,passed",
        [
            pytest.param(text, False, id=text)
            for text in (LADDER_8, nested_chain(6), " | ".join(f"(E{i} & n{i})" for i in range(6)))
        ]
        + [pytest.param(nested_chain(6), True, id="ones-from-the-verdict")],
    )
    def test_term_budget_is_exact(self, text, passed, monkeypatch):
        # the theta = 1 pass counts the terms exactly, so a budget of
        # exactly that many admits the equation and one fewer refuses it,
        # whether constitutive folds it or takes the verdict's
        from sdident import opalg

        eq = constitutive(parse(text))
        ones = analyze(parse(text)).ones if passed else None
        terms = sum(len(c.terms) for op in (eq.eps, eq.sig) for c in op.coeffs)
        monkeypatch.setattr(opalg, "MAX_TERMS", terms)
        assert constitutive(parse(text), ones) == eq
        monkeypatch.setattr(opalg, "MAX_TERMS", terms - 1)
        with pytest.raises(ValueError, match=f"would have {terms} terms"):
            constitutive(parse(text), ones)


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
            theta = [F(rng.randint(1, 10**6), 1000) for _ in range(left.nvars)]
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
                theta = [F(rng.randint(1, 10**6), 1000) for _ in range(left.nvars)]
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
    dashpots = sum(1 << i for i, el in enumerate(leaves(expr)) if el.kind == DASHPOT)

    def grades(op):
        # (degree, dashpots - order) of every monomial
        return {
            (mask.bit_count(), (mask & dashpots).bit_count() - order)
            for order in range(op.low, op.high + 1)
            for mask in op.coeff(order).terms
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
    # the product adds order k's terms in ascending i, so a float fold
    # (root exchange) rounds exactly as the schoolbook order does
    assert _bits(p * q) == _bits(schoolbook_product(p, q))
    assert _bits(p + q) == _bits(schoolbook_sum(p, q))


def _poly_operators(variables):
    masks = st.sets(st.sampled_from([m for m in range(64) if m & ~variables == 0]), min_size=1)
    polys = st.builds(ParamPoly, st.just(6), masks)
    return st.builds(DiffOperator, st.integers(0, 3), st.lists(polys, min_size=1, max_size=4))


def _outcome(op, p, q):
    try:
        return op(p, q)
    except InvariantViolation as err:
        return str(err)


@settings(max_examples=300, deadline=None)
@given(_poly_operators(0b000111), _poly_operators(0b111000), _poly_operators(0b111111))
def test_param_poly_operator_arithmetic_matches_schoolbook(p, q, r):
    # the same operator, or the same InvariantViolation where two terms
    # share a monomial
    assert _outcome(DiffOperator.__mul__, p, q) == _outcome(schoolbook_product, p, q)
    assert _outcome(DiffOperator.__add__, p, r) == _outcome(schoolbook_sum, p, r)
