"""The derived equations against the complex modulus, a formalism that
shares no code with ``opalg``.

A spring's modulus is E and a dashpot's eta*s; parallel branches add
moduli and series branches add compliances (Tschoegl 1989).  The
equation ``P eps = Q sigma`` says sigma/eps = P(s)/Q(s), so at every
point and every s, P(s) = G(s) Q(s): exactly, in ``Fraction``s, for the
derived equation, and to float precision for each listed fiber point,
which must share the base's G(s).
"""

import random
from collections import Counter
from fractions import Fraction as F

from sdident import analyze, constitutive, params, parse
from sdident.fiber import fiber_solutions
from sdident.network import DASHPOT, Leaf, Parallel

from helpers import all_networks, exponents, maxwell_bank, nested_chain

RATIONAL_S = (F(3, 7), F(5, 2))
FLOAT_S = (0.37, 1.0, 2.9, 0.5 + 1.3j)


def modulus(expr, values, s):
    """G(s) at ``values``, one per parameter in canonical order, in the
    values' and s's number type."""
    cursor = iter(values)

    def walk(node):
        if isinstance(node, Leaf):
            value = next(cursor)
            return value * s if node.element.kind == DASHPOT else value
        moduli = [walk(child) for child in node.children]
        if isinstance(node, Parallel):
            return sum(moduli)
        return 1 / sum(1 / g for g in moduli)

    return walk(expr)


def _value(poly, numerators, den):
    """A coefficient at theta_i = numerators[i] / den: each monomial's
    integer product, summed by degree before any division."""
    sums = Counter()
    for mask in poly.terms:
        term = 1
        for e, k in zip(exponents(poly.nvars, mask), numerators):
            if e:
                term *= k
        sums[bin(mask).count("1")] += term
    return sum(F(total, den**degree) for degree, total in sums.items())


def _check_exact(expr, rng):
    eq = constitutive(expr)
    numerators, den = [rng.randint(1, 10**6) for _ in params(expr)], rng.randint(1, 10**3)
    theta = [F(k, den) for k in numerators]
    for s in RATIONAL_S:
        p, q = (
            sum(_value(c, numerators, den) * s ** (op.low + i) for i, c in enumerate(op.coeffs))
            for op in (eq.eps, eq.sig)
        )
        assert p == modulus(expr, theta, s) * q, expr


def test_equations_match_the_modulus_up_to_five_elements():
    rng = random.Random(0)
    seen = 0
    for expr in all_networks(5):
        _check_exact(expr, rng)
        seen += 1
    assert seen == 3290


def test_banks_and_chains_match_the_modulus():
    rng = random.Random(1)
    for modes in range(1, 8):
        _check_exact(parse(maxwell_bank(modes)), rng)
    for levels in range(1, 11):
        _check_exact(parse(nested_chain(levels)), rng)


def test_fiber_points_share_the_base_modulus_up_to_five_elements():
    # the worst relative gap on these 1,626 points was 5.5e-16
    points = 0
    for expr in all_networks(5):
        if not analyze(expr).locally_identifiable:
            continue
        for seed in range(3):
            report = fiber_solutions(expr, seed=seed)
            base = [float(v) for v in report.base.values]
            for s in FLOAT_S:
                want = modulus(expr, base, s)
                for solution in report.solutions:
                    got = modulus(expr, solution.values, s)
                    assert abs(got - want) <= 1e-6 * abs(want), (expr, solution)
            points += len(report)
    assert points == 1626
