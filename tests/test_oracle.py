import cmath
import math
import random
import time
import warnings
from fractions import Fraction as F

import numpy as np
import pytest

from sdident import (
    GlobalStatus,
    InvariantViolation,
    NetType,
    Parallel,
    ParamPoint,
    analyze,
    classify,
    coefficient_map,
    constitutive,
    fiber_solutions,
    jacobian_rank,
    nonmonic_count,
    params,
    parse,
    random_network,
    render,
    sample_point,
    type_trace,
    verify_local,
)
from sdident.opalg import ConstitutiveEq, DiffOperator, ParamPoly, fold_constitutive
from sdident.oracle import _Dual, local_ranks

from helpers import (
    BRANCHED_10,
    BURGERS,
    GEN_KELVIN_VOIGT,
    LADDER_8,
    MAXWELL,
    VOIGT,
    check_coprimality,
    coefficient_values,
    embedded_pair,
    eval_coeffs,
    evaluate,
    jacobian_matrix,
    maxwell_bank,
    nested_chain,
    reference_jacobian_matrix,
)
from newton_reference import CompiledMap, multistart_points, newton_batch


class TestParamPoint:
    def test_positive_required(self):
        with pytest.raises(ValueError):
            ParamPoint((F(1), F(0)))

    def test_sampling_deterministic(self):
        assert sample_point(4, seed=9) == sample_point(4, seed=9)

    def test_sampling_grid(self):
        pt = sample_point(6, seed=1)
        assert all(v.denominator <= 1000 for v in pt.values)
        assert all(0 < v <= 1000 for v in pt.values)


class TestJacobianRank:
    def test_burgers_full_rank(self):
        pt = ParamPoint((F(3), F(7), F(2), F(5)))  # Ev, nv, Em, nm
        assert jacobian_rank(parse(BURGERS), pt) == 4

    def test_two_maxwells_rank_bounded(self):
        expr = parse("(E1 & n1) & (E2 & n2)")
        rank = jacobian_rank(expr, sample_point(4, seed=3))
        assert rank <= 2

    def test_gen_kelvin_voigt_full_rank(self):
        expr = parse(GEN_KELVIN_VOIGT)
        assert jacobian_rank(expr, sample_point(7, seed=21)) == 7

    def test_spring(self):
        assert jacobian_rank(parse("E1"), sample_point(1, seed=2)) == 1

    def test_rank_monotonicity(self):
        rng = random.Random(5)
        for seed in range(30):
            expr = random_network(seed, rng.randint(1, 7))
            eq = constitutive(expr)
            pt = sample_point(len(params(expr)), seed=seed)
            rank = jacobian_rank(expr, pt)
            assert rank == nonmonic_count(eq) <= len(params(expr))

    def test_matrix_dimensions(self):
        expr = parse(BURGERS)
        mat = jacobian_matrix(expr, (F(3), F(7), F(2), F(5)))
        assert len(mat) == 4 and all(len(row) == 4 for row in mat)

    def test_positive_point_required(self):
        with pytest.raises(ValueError):
            jacobian_matrix(parse(BURGERS), (F(3), F(0), F(2), F(5)))


class TestPointPasses:
    """The forward-mode Jacobian and the shape pass at theta = 1 against
    the symbolic equation, exactly, on random networks of up to 11
    elements."""

    def test_random_networks_match_symbolic(self):
        rng = random.Random(2024)
        for k in range(60):
            expr = random_network(rng.randint(0, 10**9), rng.randint(1, 11))
            n = len(params(expr))
            eq = constitutive(expr)
            theta = sample_point(n, seed=k).values
            assert jacobian_matrix(expr, theta) == reference_jacobian_matrix(expr, theta)

            ones = fold_constitutive(expr, [1] * n, 1)
            assert (ones.eps.shape, ones.sig.shape) == (eq.eps.shape, eq.sig.shape)
            verdict = analyze(expr)
            assert verdict.nonmonic_count == nonmonic_count(eq)
            assert verdict.index == classify(eq)[1]

    def test_non_dyadic_point(self):
        # denominators that share no factor with the sampling grid
        expr = parse(LADDER_8)
        theta = [F(i + 2, 3 ** (i % 3) * 7) for i in range(8)]
        assert jacobian_matrix(expr, theta) == reference_jacobian_matrix(expr, theta)

    def test_extreme_points_match_symbolic(self):
        # huge, tiny and coprime-denominator values push the packed
        # gradient slots of the forward-mode pass toward their bound
        extremes = (F(10**6), F(1, 10**6), F(10**6, 7), F(1, 11), F(10**6 + 1, 13), F(3, 7))
        rng = random.Random(61)
        networks = [parse(LADDER_8), parse(GEN_KELVIN_VOIGT)]
        networks += [random_network(rng.randint(0, 10**9), rng.randint(1, 11)) for _ in range(30)]
        for expr in networks:
            theta = [rng.choice(extremes) for _ in params(expr)]
            assert jacobian_matrix(expr, theta) == reference_jacobian_matrix(expr, theta), expr

    def test_dual_sum_of_different_degrees_raises(self):
        with pytest.raises(InvariantViolation, match="different degrees"):
            _Dual(1, 0, 1) + _Dual(1, 0, 2)

    def test_float_pass_matches_symbolic_values(self):
        expr = parse(GEN_KELVIN_VOIGT)
        theta = sample_point(7, seed=8).values
        exact = constitutive(expr)
        floats = fold_constitutive(expr, [float(v) for v in theta], 1.0)
        for sym, num in ((exact.eps, floats.eps), (exact.sig, floats.sig)):
            assert sym.shape == num.shape
            expected = [float(c) for c in eval_coeffs(sym, theta)]
            assert np.allclose(num.coeffs, expected, rtol=1e-12, atol=0)


class TestVerifyLocal:
    @pytest.mark.parametrize(
        "text", [MAXWELL, VOIGT, BURGERS, LADDER_8, GEN_KELVIN_VOIGT, BRANCHED_10]
    )
    def test_examples_agree(self, text):
        assert verify_local(parse(text), trials=3, seed=0) is True

    def test_single_trial_spring(self):
        assert verify_local(parse("E1"), trials=1, seed=0) is True

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            verify_local(parse("E1"), trials=0)

    def test_rank_below_nonmonic_count_disagrees(self, monkeypatch):
        # unidentifiable: 4 parameters, 2 non-monic coefficients.  A rank
        # of 1 is short of full rank, as the verdict says, but it is not
        # the coefficient count the rank always equals
        import sdident.oracle as oracle_mod

        expr = parse("(E1 & n1) & (E2 & n2)")
        verdict = analyze(expr)
        assert (verdict.param_count, verdict.nonmonic_count) == (4, 2)
        # every trial comes up short, so all three are drawn and none
        # certifies, in both local_ranks and verify_local
        for check, expected in ((local_ranks, ([1, 1, 1], False)), (verify_local, False)):
            ranks = iter([1, 1, 1])
            monkeypatch.setattr(oracle_mod, "exact_rank", lambda rows: next(ranks))
            assert check(expr) == expected
            assert next(ranks, None) is None
        # a short rank and then a full one: the second trial certifies
        ranks = iter([1, 2])
        monkeypatch.setattr(oracle_mod, "exact_rank", lambda rows: next(ranks))
        assert local_ranks(expr) == ([1, 2], True)
        assert next(ranks, None) is None

    @pytest.mark.parametrize(
        "expr", [parse(maxwell_bank(20)), random_network(3, 80)], ids=["bank20", "random80"]
    )
    def test_wide_networks_within_budget(self, expr):
        # 41 and 80 parameters: the exact rank stays polynomial in size
        start = time.perf_counter()
        assert verify_local(expr, trials=1) is True
        assert time.perf_counter() - start < 2.0

    @pytest.mark.parametrize(
        "text",
        [BURGERS, GEN_KELVIN_VOIGT, LADDER_8, "E1 & E2", maxwell_bank(10)],
        ids=["burgers", "gen_kelvin_voigt", "ladder_8", "springs", "bank10"],
    )
    def test_exact_fallback_on_real_jacobians(self, text, monkeypatch):
        # every entry of these Jacobians is even, so with p = 2 the rank
        # mod p is 0 at every trial and each rank comes from the rationals;
        # that rank is full, so trial 1 certifies in both calls
        import sdident.ident as ident_mod

        eliminate = ident_mod._eliminate
        fields = []

        def spy(rows, p=0):
            fields.append(p)
            return eliminate(rows, p)

        monkeypatch.setattr(ident_mod, "_MODULUS", 2)
        monkeypatch.setattr(ident_mod, "_eliminate", spy)
        expr = parse(text)
        start = time.perf_counter()
        ranks = local_ranks(expr, trials=3)
        assert time.perf_counter() - start < 2.0
        assert ranks == ([analyze(expr).nonmonic_count], True)
        assert verify_local(expr) is True
        assert fields == [2, 0] * 2

    def test_local_ranks_are_the_sample_point_ranks(self):
        # the trials draw sample_point's grid numerators over 1000, and
        # jacobian_rank clears the reduced Fractions' denominators: the
        # same theta, rows scaled apart, the same ranks.  Every point's
        # rank is full, so trial 1 certifies and is the only one run
        rng = random.Random(15)
        for _ in range(200):
            expr = random_network(rng.randint(0, 10**9), rng.randint(1, 12))
            n, seed = len(params(expr)), rng.randint(0, 10**6)
            nonmonic_count = analyze(expr).nonmonic_count
            ranks = local_ranks(expr, 3, seed)
            points = [sample_point(n, seed + 1000 * t) for t in range(3)]
            point_ranks = [jacobian_rank(expr, point) for point in points]
            assert point_ranks == [nonmonic_count] * 3
            assert ranks == (point_ranks[:1], True)
            assert verify_local(expr, 3, seed) is True

    def test_random_networks_never_disagree(self):
        rng = random.Random(77)
        for _ in range(60):
            expr = random_network(rng.randint(0, 10**9), rng.randint(1, 7))
            assert verify_local(expr, trials=2, seed=rng.randint(0, 10**6))


class TestCoprimality:
    def test_spring_dashpot_series(self):
        eq1, eq2 = embedded_pair(parse("E1"), parse("n1"))
        assert check_coprimality(eq1, eq2, "series", sample_point(2, seed=4))

    def test_distinct_maxwells_series(self):
        eq1, eq2 = embedded_pair(parse("E1 & n1"), parse("E2 & n2"))
        assert check_coprimality(eq1, eq2, "series", sample_point(4, seed=8))

    def test_identical_parallel_maxwells_collide(self):
        eq1, eq2 = embedded_pair(parse("E1 & n1"), parse("E2 & n2"))
        theta = ParamPoint((F(2), F(3), F(2), F(3)))  # same values in both branches
        assert check_coprimality(eq1, eq2, "parallel", theta) is False
        distinct = ParamPoint((F(2), F(3), F(5), F(7)))
        assert check_coprimality(eq1, eq2, "parallel", distinct) is True

    def test_equation_sides_generically_coprime(self):
        # strain and stress sides of a derived equation share no root,
        # so the cleared equation is already fully reduced
        from helpers import resultant

        rng = random.Random(15)
        for text in (MAXWELL, VOIGT, BURGERS, LADDER_8):
            expr = parse(text)
            eq = constitutive(expr)
            theta = sample_point(len(params(expr)), seed=rng.randint(0, 10**6))
            eps = eval_coeffs(eq.eps, theta.values)
            sig = eval_coeffs(eq.sig, theta.values)
            assert resultant(eps, sig) != 0

    def test_bad_op_rejected(self):
        eq1, eq2 = embedded_pair(parse("E1"), parse("n1"))
        with pytest.raises(ValueError):
            check_coprimality(eq1, eq2, "sideways", sample_point(2, seed=1))

    def test_spot_check_over_random_pairs(self):
        # the combination rules assume generic coprimality of the shared
        # pair; spot-check it at random points, one resample allowed
        rng = random.Random(29)
        for trial in range(30):
            lhs = random_network(rng.randint(0, 10**9), rng.randint(1, 4))
            rhs = random_network(rng.randint(0, 10**9), rng.randint(1, 4))
            eq1, eq2 = embedded_pair(lhs, rhs)
            n = len(params(lhs)) + len(params(rhs))
            for op in ("series", "parallel"):
                ok = check_coprimality(eq1, eq2, op, sample_point(n, seed=trial))
                if not ok:
                    ok = check_coprimality(
                        eq1, eq2, op, sample_point(n, seed=10**6 + trial)
                    )
                assert ok


def _identifiable_random_networks(count: int, top: int = 10) -> list:
    rng = random.Random(314)
    out = []
    while len(out) < count:
        expr = random_network(rng.randint(0, 10**9), rng.randint(2, top))
        if analyze(expr).locally_identifiable:
            out.append(expr)
    return out


COMPILED_MAP_CASES = [
    pytest.param(parse(LADDER_8), id="LADDER_8"),
    pytest.param(parse(GEN_KELVIN_VOIGT), id="GEN_KELVIN_VOIGT"),
    pytest.param(parse(BURGERS), id="BURGERS"),
    # runs of tens of terms: 320 terms in 14 runs, and 233 in 12
    pytest.param(parse(maxwell_bank(6)), id="bank6"),
    pytest.param(parse(nested_chain(5)), id="chain5"),
] + [pytest.param(e, id=f"random-{k}") for k, e in enumerate(_identifiable_random_networks(20))]


class TestCompiledMap:
    @pytest.mark.parametrize("expr", COMPILED_MAP_CASES)
    def test_float_matches_exact(self, expr):
        eq = constitutive(expr)
        cmap = CompiledMap(eq)
        pt = sample_point(cmap.nparams, seed=6)
        exact = [float(v) for v in coefficient_values(eq, pt.values)]
        floats = cmap.value(np.array(pt.values, dtype=float))
        assert np.allclose(floats, exact, rtol=1e-12)

    @pytest.mark.parametrize("expr", COMPILED_MAP_CASES)
    def test_jacobian_matches_exact(self, expr):
        cmap = CompiledMap(constitutive(expr))
        pt = sample_point(cmap.nparams, seed=7)
        dense = cmap.jacobian(np.array(pt.values, dtype=float))
        exact_rows = jacobian_matrix(expr, pt.values)
        eq = constitutive(expr)
        den = evaluate(coefficient_map(eq)[0][1], pt.values)
        scaled = np.array([[float(x / den**2) for x in row] for row in exact_rows])
        assert np.allclose(dense, scaled, rtol=1e-9)

    @pytest.mark.parametrize("expr", COMPILED_MAP_CASES)
    def test_accurate_at_spread_points(self, expr):
        # parameters over eight decades, as Newton's iterates can roam:
        # terms then span many magnitudes, and the sums must not cancel
        eq = constitutive(expr)
        cmap = CompiledMap(eq)
        rng = random.Random(cmap.nparams)
        theta = np.array([10 ** rng.uniform(-4, 4) for _ in range(cmap.nparams)])
        point = [F(float(v)) for v in theta]
        exact = np.array([float(v) for v in coefficient_values(eq, point)])
        assert np.allclose(cmap.value(theta), exact, rtol=1e-12, atol=0)
        den = evaluate(coefficient_map(eq)[0][1], point)
        rows = jacobian_matrix(expr, point)
        dense = np.array([[float(x / den**2) for x in row] for row in rows])
        # d/dlog(theta), relative to each coefficient's value
        error = np.abs((cmap.jacobian(theta) - dense) * theta) / np.abs(exact)[:, None]
        assert np.max(error) <= 1e-12

    @pytest.mark.parametrize("expr", COMPILED_MAP_CASES)
    def test_batch_rows_are_lone_points(self, expr):
        cmap = CompiledMap(constitutive(expr))
        rng = random.Random(cmap.nparams)
        batch = np.array([[10 ** rng.uniform(-3, 3) for _ in range(cmap.nparams)] for _ in range(9)])
        values, jacobians = cmap.value(batch), cmap.jacobian(batch)
        assert values.shape == (9, cmap.dim)
        assert jacobians.shape == (9, cmap.dim, cmap.nparams)
        for theta, value, jacobian in zip(batch, values, jacobians):
            assert np.array_equal(cmap.value(theta), value)
            assert np.array_equal(cmap.jacobian(theta), jacobian)

    @pytest.mark.parametrize(
        "text", [GEN_KELVIN_VOIGT, LADDER_8, maxwell_bank(6)], ids=["gkv", "ladder_8", "bank6"]
    )
    def test_sums_do_not_depend_on_set_history(self, text):
        # the same masks inserted in reverse order iterate in another order
        # where they collide in the frozenset's table; the floats must not move
        def reinserted(op):
            return DiffOperator(op.low, [ParamPoly(p.nvars, list(p.terms)[::-1]) for p in op.coeffs])

        eq = constitutive(parse(text))
        twin = ConstitutiveEq(reinserted(eq.eps), reinserted(eq.sig))
        polys = zip(eq.eps.coeffs + eq.sig.coeffs, twin.eps.coeffs + twin.sig.coeffs)
        assert any(list(p.terms) != list(q.terms) for p, q in polys)
        theta = np.array(sample_point(eq.eps.coeffs[0].nvars, seed=3).values, dtype=float)
        cmap, twin_map = CompiledMap(eq), CompiledMap(twin)
        assert cmap.value(theta).tobytes() == twin_map.value(theta).tobytes()
        assert cmap.jacobian(theta).tobytes() == twin_map.jacobian(theta).tobytes()

    def test_empty_coefficient_rejected(self):
        # (E + 0 D + E*n D^2) eps = (1 + n D) sigma: the zero first-order
        # coefficient has no run of terms to sum; no derived equation has one
        e, n = ParamPoly.var(2, 0), ParamPoly.var(2, 1)
        eps = DiffOperator(0, [e, ParamPoly(2), ParamPoly(2, [0b11])])
        eq = ConstitutiveEq(eps, DiffOperator(0, [ParamPoly.const(2, 1), n]))
        with pytest.raises(ValueError, match="no terms"):
            CompiledMap(eq)


class TestNewtonBatch:
    @pytest.mark.parametrize("expr", COMPILED_MAP_CASES)
    def test_rows_match_lone_starts(self, expr):
        # every row follows the iterates of its start run alone, whatever
        # its neighbours do: a start that is not positive, not finite or
        # overflows the map dies quietly, and the base converges at once
        cmap = CompiledMap(constitutive(expr))
        n = cmap.nparams
        base = np.array(sample_point(n, seed=11).values, dtype=float)
        target = cmap.value(base)
        rng = random.Random(n)
        starts = [base * np.array([10 ** rng.uniform(-1, 1) for _ in range(n)]) for _ in range(12)]
        negative, infinite = base.copy(), base.copy()
        negative[0], infinite[-1] = -negative[0], np.inf
        doomed = {2: negative, 6: infinite, 9: base * 1e300}
        for index, start in doomed.items():
            starts.insert(index, start)
        starts.append(base)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = newton_batch(cmap, target, np.array(starts))
            lone = [newton_batch(cmap, target, start[None])[0] for start in starts]
        assert len(batch) == len(starts)
        assert [p is None for p in batch] == [p is None for p in lone]
        assert all(batch[index] is None for index in doomed)
        assert np.array_equal(batch[-1], base)
        for point, alone in zip(batch, lone):
            if alone is not None:
                assert np.allclose(point, alone, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("expr", COMPILED_MAP_CASES)
    def test_stall_window_reads_each_row_alone(self, expr):
        # with the stall window on, a row still stops, converges and is
        # marked stalled exactly as when it runs alone
        cmap = CompiledMap(constitutive(expr))
        n = cmap.nparams
        base = np.array(sample_point(n, seed=5).values, dtype=float)
        target = cmap.value(base)
        rng = random.Random(n)
        starts = np.array([base * [10 ** rng.uniform(-1, 1) for _ in range(n)] for _ in range(16)])
        stalled = np.zeros(len(starts), dtype=bool)
        batch = newton_batch(cmap, target, starts, stalled=stalled)
        for index, start in enumerate(starts):
            alone = np.zeros(1, dtype=bool)
            point = newton_batch(cmap, target, start[None], stalled=alone)[0]
            assert stalled[index] == alone[0]
            assert (point is None) == (batch[index] is None)
            if point is not None:
                assert np.allclose(batch[index], point, rtol=1e-12, atol=0)
                assert not stalled[index]

    @pytest.mark.parametrize("text", [LADDER_8, GEN_KELVIN_VOIGT])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_stopped_starts_spend_few_evaluations(self, text, seed, monkeypatch):
        # starts that creep on tiny steps used to take all 60 iterations
        # and evaluate 15,000-26,000 points per request; the stall window
        # stops them
        import newton_reference

        points = []
        value = newton_reference.CompiledMap.value

        def counted(self, theta):
            points.append(len(np.reshape(theta, (-1, self.nparams))))
            return value(self, theta)

        monkeypatch.setattr(newton_reference.CompiledMap, "value", counted)
        expr = parse(text)
        base = sample_point(len(params(expr)), seed).values
        multistart_points(expr, base, 40, seed)
        assert sum(points) < 8000


def _float_residual(expr, values, base) -> float:
    """Largest |c(values) - c(base)| / (1 + |c(base)|) over the normalized
    coefficients, each from the float fold."""

    def normalized(point):
        eq = fold_constitutive(expr, [float(v) for v in point], 1.0)
        return [num / den for num, den in coefficient_map(eq)]

    got, want = normalized(values), normalized(base)
    assert len(got) == len(want)
    return max(abs(g - w) / (1.0 + abs(w)) for g, w in zip(got, want))


def _dropped(report) -> dict:
    return dict(report.dropped)


NO_DROPS = {"split-pair": 0, "singular": 0, "non-positive": 0, "failed-check": 0}


class TestFiber:
    def test_maxwell_singleton(self):
        report = fiber_solutions(parse(MAXWELL), multistarts=60, seed=2)
        assert len(report) == 1
        assert report.solutions[0].method == "base"

    def test_spring_singleton(self):
        report = fiber_solutions(parse("E1"), multistarts=20, seed=2)
        assert len(report) == 1

    def test_burgers_singleton(self):
        report = fiber_solutions(parse(BURGERS), multistarts=60, seed=2)
        assert len(report) == 1

    def test_gen_kelvin_voigt_root_exchanges(self):
        report = fiber_solutions(parse(GEN_KELVIN_VOIGT), multistarts=40, seed=2)
        assert len(report) >= 6
        methods = {s.method for s in report.solutions}
        assert "root-exchange" in methods

    def test_twin_maxwell_branches_not_global(self):
        expr = parse("(E1 & n1) | (E2 & n2)")
        verdict = analyze(expr)
        assert verdict.locally_identifiable
        assert verdict.global_status == GlobalStatus.LOCAL_ONLY
        report = fiber_solutions(expr, multistarts=40, seed=5)
        assert len(report) >= 2  # swapping the twin branches

    @pytest.mark.parametrize(
        "text,k",
        [
            ("(E1 & n1) | (E2 & n2)", 2),
            ("(E1 | n1) & (E2 | n2)", 2),
            ("(E1 | n1) & (E2 | n2) & (E3 | n3)", 3),
            ("(E1 & n1) | (E2 & n2) | (E3 & n3)", 3),
            ("E1 & (n2 | E3 & n4 | E5 & n6)", 2),
        ],
    )
    def test_identical_branches_give_factorial_fibers(self, text, k):
        # k structurally identical parameter-disjoint siblings make the
        # map at least k!-to-one, so the network cannot be global
        expr = parse(text)
        verdict = analyze(expr)
        assert verdict.locally_identifiable
        assert verdict.global_status != GlobalStatus.GLOBAL
        report = fiber_solutions(expr, multistarts=20, seed=9)
        assert len(report) >= math.factorial(k)

    def test_root_exchange_found_for_two_branch_series(self):
        expr = parse("(E1|n1) & (E2|n2|(E3&n3))")
        report = fiber_solutions(expr, multistarts=120, seed=4)
        assert [s.method for s in report.solutions] == ["base", "root-exchange", "root-exchange"]

    def test_nested_twins_found_without_multistarts(self):
        # twin Maxwells below the root, their children in swapped order
        expr = parse("E1 & (n2 | E3 & n4 | n5 & E6)")
        assert analyze(expr).global_status == GlobalStatus.LOCAL_ONLY
        report = fiber_solutions(expr, multistarts=0)
        assert [s.method for s in report.solutions] == ["base", "root-exchange"]

    def test_solutions_verify_against_base(self):
        # checked by the reference map of the derived equation, which
        # shares no code with the fiber search's float fold
        expr = parse(GEN_KELVIN_VOIGT)
        report = fiber_solutions(expr, multistarts=40, seed=3)
        cmap = CompiledMap(constitutive(expr))
        target = cmap.value(np.array(report.base.values, dtype=float))
        for sol in report.solutions:
            values = np.array(sol.values)
            assert np.all(values > 0)
            resid = np.max(np.abs(cmap.value(values) - target) / (1.0 + np.abs(target)))
            assert resid <= 1e-8

    def test_unidentifiable_rejected(self):
        with pytest.raises(ValueError):
            fiber_solutions(parse(BRANCHED_10), multistarts=5)

    def test_base_dimension_checked(self):
        with pytest.raises(ValueError):
            fiber_solutions(parse(MAXWELL), base=sample_point(3, seed=1))

    def test_max_solutions_must_hold_the_base(self, monkeypatch):
        import sdident.fiber as fiber_mod

        monkeypatch.setattr(fiber_mod, "_MAX_SOLUTIONS", 1)
        report = fiber_solutions(parse(GEN_KELVIN_VOIGT), multistarts=0)
        assert [s.method for s in report.solutions] == ["base"] and report.truncated

    @pytest.mark.parametrize("modes", [5, 6])
    def test_wide_banks_fill_the_cap(self, modes):
        # the bank's fiber has modes! points; one cap bounds the
        # distributions tried and the points listed
        report = fiber_solutions(parse(maxwell_bank(modes)), multistarts=0)
        assert report.degree == math.factorial(modes)
        assert len(report) == 64 and report.truncated
        assert sum(s.method == "root-exchange" for s in report.solutions) == 63
        assert _dropped(report) == NO_DROPS

    @pytest.mark.parametrize("modes", [5, 6])
    def test_rounding_noise_keeps_the_truncated_points(self, modes, monkeypatch):
        # a truncated report lists the distributions in partition order,
        # so noise far below the tolerance on every rebuilt factor moves
        # each listed point by about that noise and never swaps it for
        # another point of the fiber
        import sdident.fiber as fiber_mod

        expr = parse(maxwell_bank(modes))
        plain = fiber_solutions(expr, multistarts=0)
        rebuild = fiber_mod._poly_from_roots
        noise = np.random.default_rng(0)

        def noisy(roots):
            factor = rebuild(roots)
            if factor is None:
                return None
            scale = 1 + 1e-12 * noise.standard_normal()
            return [c * scale for c in factor]

        monkeypatch.setattr(fiber_mod, "_poly_from_roots", noisy)
        report = fiber_solutions(expr, multistarts=0)
        assert plain.truncated and report.truncated and len(report) == len(plain) == 64
        for got, want in zip(report.solutions, plain.solutions):
            assert got.method == want.method
            assert np.allclose(got.values, want.values, rtol=1e-9, atol=0)

    @pytest.mark.parametrize("modes", [8, 12, 14])
    def test_wide_banks_are_not_refused(self, modes, monkeypatch):
        # the Newton search refused the 12- and 14-mode banks (its batch
        # would have held 1.7e8 and 8.8e8 floats); the inversion builds
        # no symbolic equation and no batch, and lists the cap at once
        import sdident.fiber as fiber_mod
        import sdident.opalg as opalg_mod

        def derive(*args):
            raise AssertionError("the fiber search derived the symbolic equation")

        monkeypatch.setattr(opalg_mod, "constitutive", derive)
        assert not hasattr(fiber_mod, "constitutive")
        start = time.perf_counter()
        report = fiber_solutions(parse(maxwell_bank(modes)), multistarts=200)
        assert time.perf_counter() - start < 5.0
        assert report.degree == math.factorial(modes)
        assert len(report) == 64 and report.truncated and _dropped(report) == NO_DROPS

    def test_deterministic(self):
        a = fiber_solutions(parse(MAXWELL), multistarts=30, seed=12)
        b = fiber_solutions(parse(MAXWELL), multistarts=30, seed=12)
        assert a == b

    @pytest.mark.parametrize(
        "text,multistarts,seed,methods",
        [
            (GEN_KELVIN_VOIGT, 40, 1, ["base"] + ["root-exchange"] * 5),
            (BURGERS, 40, 1, ["base"]),
            (LADDER_8, 40, 1, ["base"]),
            (GEN_KELVIN_VOIGT, 200, 3, ["base"] + ["root-exchange"] * 5),
            ("(E1 & n1) | (E2 & n2)", 40, 5, ["base", "root-exchange"]),
            (LADDER_8, 200, 0, ["base"]),
        ],
    )
    def test_reports_at_fixed_seeds(self, text, multistarts, seed, methods):
        report = fiber_solutions(parse(text), multistarts=multistarts, seed=seed)
        assert [s.method for s in report.solutions] == methods

    def test_degree_counts_the_distributions(self):
        # d = the product over nodes of the multinomial of the children's
        # root counts; every distribution of these gives one point
        for text, degree in [
            (MAXWELL, 1),
            (BURGERS, 1),
            (LADDER_8, 1),
            (GEN_KELVIN_VOIGT, 6),
            ("(E1 & n1) | (E2 & n2)", 2),
            ("(E1|n1) & (E2|n2|(E3&n3))", 3),
            (maxwell_bank(4), 24),
        ]:
            report = fiber_solutions(parse(text))
            assert report.degree == degree, text
            assert len(report) == degree and not report.truncated, text

    def test_multistarts_are_ignored(self):
        # no search draws starts: only the report's echo of the keyword moves
        for text in (GEN_KELVIN_VOIGT, maxwell_bank(5), "(E1 | n2) & (n3 | (E4 | n5) & E6)"):
            none, forty = (fiber_solutions(parse(text), multistarts=k, seed=1) for k in (0, 40))
            assert (none.multistarts, forty.multistarts) == (0, 40)
            for field in ("base", "solutions", "truncated", "degree", "dropped"):
                assert getattr(none, field) == getattr(forty, field), (text, field)

    @pytest.mark.parametrize(
        "text,seeds,count",
        [
            # Newton reported 5 points, 2 of them spurious
            ("(E1 | n2) & (n3 | (E4 | n5) & E6)", range(6), 3),
            ("(E1 | n2) & (E3 & n4 | E5 & n6)", [0], 4),
            # Newton missed one: a constructible child's solve failed
            ("(n1 | E2) & (n3 | (n4 | E5 & n6) & E7)", [0, 1], 3),
        ],
    )
    def test_lists_exactly_the_degree(self, text, seeds, count):
        expr = parse(text)
        for seed in seeds:
            report = fiber_solutions(expr, seed=seed)
            assert report.degree == len(report) == count, seed
            assert _dropped(report) == NO_DROPS
            for sol in report.solutions[1:]:
                assert min(sol.values) > 0
                assert _float_residual(expr, sol.values, report.base.values) <= 1e-8

    def test_nested_chain_lists_the_base_alone(self, monkeypatch):
        # nested_chain(14) has 1,346,269 terms, over MAX_TERMS: the
        # inversion needs no derivation, and a constructible network's one
        # distribution is the base
        import sdident.opalg as opalg_mod

        monkeypatch.setattr(opalg_mod, "constitutive", None)
        report = fiber_solutions(parse(nested_chain(14)))
        assert report.degree == 1 and not report.truncated
        assert [s.method for s in report.solutions] == ["base"]
        assert report.solutions[0].values == tuple(map(float, report.base.values))

    @pytest.mark.parametrize(
        "text, values",
        [
            ("E1 & n2", (F(1, 10**400), F(1))),  # a value underflows to 0
            ("E1 & n2", (F(10**400), F(1))),  # a value overflows
            ("E1 & n2", (F(10**200),) * 2),  # a coefficient overflows to inf
            ("(E1 & n2) | (E3 & n4)", (F(10**200),) * 4),
            ("(E1 & n2) | (E3 & n4)", (F(1, 10**200),) * 4),  # an end coefficient underflows
            # mixed scales: the strain side's top, 2e-340 + 1e-340, underflows to 0
            ("(E1 & n2) | (E3 & n4)", (1, F(1, 10**170), 2, F(1, 10**170))),
        ],
    )
    def test_base_outside_the_float_range_is_refused(self, text, values):
        # exact coefficients at a positive point are positive, so a float
        # one that is 0, inf or nan is the float range's fault, not a bug
        with pytest.raises(ValueError, match="float range"):
            fiber_solutions(parse(text), base=ParamPoint(values))

    def test_shared_node_object_is_one_subtree_per_place(self):
        # each place of a node object gets its own subtree of the base: the
        # bank of one arm object twice reports what its parsed twin does
        arm = parse("E1 & n2")
        shared = fiber_solutions(Parallel((arm, arm)))
        parsed = fiber_solutions(parse("(E1 & n2) | (E3 & n4)"))
        assert (shared.degree, len(shared)) == (2, 2)
        for field in ("base", "degree", "truncated", "dropped", "solutions"):
            assert getattr(shared, field) == getattr(parsed, field), field

    def test_degree_one_is_constructible(self, monkeypatch):
        # d = 1 exactly when the network is constructible; a verdict that
        # says otherwise is an internal inconsistency
        import sdident.fiber as fiber_mod
        from sdident import Verdict

        def flipped(expr):
            verdict = analyze(expr)
            fields = {name: getattr(verdict, name) for name in Verdict.__slots__}
            fields["constructible"] = not verdict.constructible
            return Verdict(**fields)

        monkeypatch.setattr(fiber_mod, "analyze", flipped)
        for text in (MAXWELL, GEN_KELVIN_VOIGT):
            with pytest.raises(InvariantViolation, match="fiber degree"):
                fiber_solutions(parse(text))

    def test_dropped_counts_every_reason(self):
        # twin Maxwell arms with equal values share their stress root: the
        # swap's system is singular, so one of the two distributions drops
        twins = fiber_solutions(parse("(E1 & n1) | (E2 & n2)"), base=ParamPoint((2, 1, 2, 1)))
        assert (twins.degree, len(twins), twins.truncated) == (2, 1, False)
        assert _dropped(twins) == dict(NO_DROPS, singular=1)
        # at this base, spread over six decades, the two exchanges give
        # real points with parameters near -1e13 in float64; this pins
        # float64's output, since 80-digit arithmetic gives three
        # positive points
        spread = ParamPoint(tuple(map(F, [
            "4442631/130826765", "433960029/663989177", "678233221553/772619846",
            "6561766/843104537", "23965570009/178821642", "73940049/873871969",
        ])))
        report = fiber_solutions(parse("(E1 | n2) & (E3 | n4 & (n5 | E6))"), base=spread)
        assert (report.degree, len(report), report.truncated) == (3, 1, False)
        assert _dropped(report) == dict(NO_DROPS, **{"non-positive": 2})
        # every distribution tried lists a point or counts a reason
        for text in (GEN_KELVIN_VOIGT, maxwell_bank(6), LADDER_8):
            report = fiber_solutions(parse(text))
            assert [reason for reason, _ in report.dropped] == list(NO_DROPS)
            assert len(report) + sum(_dropped(report).values()) == min(report.degree, 64)

    def test_single_distribution_nodes_take_no_roots(self, monkeypatch):
        # a node where at most one child has roots has one distribution:
        # only the root of GEN_KELVIN_VOIGT, whose three Voigt arms each
        # hold a strain root, calls _roots, once per child; each arm's
        # two leaves hold none
        import sdident.fiber as fiber_mod

        sides = []
        roots = fiber_mod._roots

        def counted(coeffs):
            sides.append(len(coeffs))
            return roots(coeffs)

        monkeypatch.setattr(fiber_mod, "_roots", counted)
        report = fiber_solutions(parse(GEN_KELVIN_VOIGT))
        assert (report.degree, len(report)) == (6, 6)
        assert sides == [1, 2, 2, 2]

    def test_diverging_starts_stay_quiet(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = fiber_solutions(parse(GEN_KELVIN_VOIGT), multistarts=200, seed=3)
        assert len(report) >= 6

    @staticmethod
    def _stream(text, base):
        # every distribution of the network at ``base``, as fiber_solutions
        # lists them from the base's own: a point or a drop reason
        import sdident.fiber as fiber_mod

        tree = fiber_mod._base(parse(text), base)
        found = list(fiber_mod._distributions(tree, *tree.eq[1:], True))
        assert len(found) == tree.degree
        return found

    def test_root_exchange_skips_split_pairs_and_singular_systems(self):
        import sdident.fiber as fiber_mod

        assert fiber_mod._poly_from_roots([1j, -1j]) == [1.0, 0.0, 1.0]
        assert fiber_mod._poly_from_roots([1j, 2.0]) is None

        # at this non-physical base the first child's strain factor has a
        # complex pair, which both exchanges at the root split, each for
        # the 2 distributions of that child's twin arms; the base's own
        # distribution and its arms' swap give points that are not positive
        base = [0.5, -2.0, -2.0, 2.0, 3.0, -1.0, 2.0]
        found = self._stream("(E1 | n2 & E3 | n4 & E5) & (n6 | E7)", base)
        assert found == ["non-positive"] * 2 + ["split-pair"] * 4
        # twin Maxwell arms that share their stress root: the swap's system
        # is singular
        assert self._stream("(E1 & n1) | (E2 & n2)", [2.0, 1.0, 2.0, 1.0])[1:] == ["singular"]

    @pytest.mark.parametrize("text, base", [
        ("(n1 | E2) & (E3 & n4 | n5)", [1.0, -2.0, 6.67880937895254, -3.0, 2.0]),
        ("(n1 | n2 & E3) & (E4 | n5)", [-3.0, 1.0, -3.0, 5.068092658784143, 2.0]),
        ("(E1 & n2 | n3) & (n4 | E5)", [2.0, 2.0, -3.0, 1.0, -2.0]),
    ])
    def test_zero_divisors_end_in_a_drop_reason(self, text, base):
        # the root's swap solves a parallel child's stress side with a top
        # coefficient of exactly 0, so that child has no monic scale: its
        # system is singular, never a ZeroDivisionError
        assert self._stream(text, base) == ["non-positive", "singular"]

    @pytest.mark.parametrize("eps", [1.0, 0.0])
    def test_leaf_over_zero_stress_is_not_positive(self, eps):
        import sdident.fiber as fiber_mod

        stream = fiber_mod._distributions(fiber_mod._base(parse("E1"), [1.0]), [eps], [0.0], False)
        assert list(stream) == ["non-positive"]

    def test_solve_matches_lapack(self):
        import sdident.fiber as fiber_mod

        rng = np.random.default_rng(0)
        for n in range(1, 16):
            for _ in range(5):
                # diagonally dominant, so well conditioned, but the rows in
                # random order so the pivoting has to find them
                a = rng.standard_normal((n, n)) + np.diag(rng.choice([-1, 1], n) * 2.0 * n)
                a = a[rng.permutation(n)]
                b = rng.standard_normal(n)
                got = fiber_mod._solve(a.tolist(), b.tolist())
                assert all(type(v) is float for v in got)
                assert np.allclose(got, np.linalg.solve(a, b), rtol=1e-10, atol=0)
        # over Fractions the solve is exact
        assert fiber_mod._solve([[F(0), F(2)], [F(3), F(1)]], [F(4), F(5)]) == [F(1), F(2)]

    def test_solve_refuses_singular_systems(self):
        import sdident.fiber as fiber_mod

        assert fiber_mod._solve([[1.0, 2.0], [2.0, 4.0]], [1.0, 1.0]) is None
        assert fiber_mod._solve([[0.0]], [1.0]) is None
        assert fiber_mod._solve([[F(1), F(2), F(3)], [F(2), F(4), F(6)], [F(0), F(1), F(1)]],
                                [F(1)] * 3) is None

    def test_overflowing_solve_is_singular(self):
        # the twin Maxwell arms' exchange at a node whose strain side is
        # scaled past the float range: the solution overflows to inf
        import sdident.fiber as fiber_mod

        tree = fiber_mod._base(parse("(E1 & n2) | (E3 & n4)"), [2.0, 1.0, 3.0, 5.0])
        kids = [kid.eq for kid in tree.kids]
        exchanged, others = [(0, sig) for _, _, sig in kids], [(low, eps) for low, eps, _ in kids]
        factors = [[c / side[-1] for c in side] for _, side in exchanged]
        args = exchanged, others, False, factors
        _, eps, sig = tree.eq
        # in range, each arm's strain side comes back in its monic scale
        for (got, _), (_, kid_eps, kid_sig) in zip(fiber_mod._other_sides(*args, eps, sig), kids):
            assert np.allclose(got, [c / kid_sig[-1] for c in kid_eps])
        eps, sig = [c * 1e300 for c in eps], [c * 1e-300 for c in sig]
        assert fiber_mod._other_sides(*args, eps, sig) == "singular"

    def test_roots_match_known_roots(self):
        # random real-rooted polynomials of degree 1-15, the roots (of
        # either sign) and the leading coefficient over six decades
        import sdident.fiber as fiber_mod

        rng = random.Random(0)
        for _ in range(3000):
            degree = rng.randint(1, 15)
            known = [rng.choice((-1, 1)) * 10 ** rng.uniform(-3, 3) for _ in range(degree)]
            coeffs = [10 ** rng.uniform(-3, 3)]
            for root in known:  # times (x - root), ascending
                coeffs = [a - root * b for a, b in zip([0.0] + coeffs, coeffs + [0.0])]
            got = fiber_mod._roots(coeffs)
            assert got == sorted(got, key=lambda r: (r.real, r.imag))
            for root, want in zip(got, sorted(known)):
                assert abs(root - want) <= 1e-6 * abs(want), (coeffs, got)

    def test_roots_of_pairs_zeros_and_constants(self):
        import sdident.fiber as fiber_mod

        pair = fiber_mod._roots([5.0, 2.0, 1.0])  # (x + 1)^2 + 4
        assert len(pair) == 2 and all(abs(r - w) <= 1e-12 for r, w in zip(pair, [-1 - 2j, -1 + 2j]))
        assert fiber_mod._roots([0.0, 3.0, 1.0]) == [-3, 0]
        assert fiber_mod._roots([0.0, 0.0, 2.0]) == [0, 0]
        assert fiber_mod._roots([4.0]) == []

    def test_roots_of_finite_coefficients_never_raise(self):
        # coefficients of either sign over the whole float range: Horner's
        # rule may overflow to inf or nan, and a root may come out
        # non-finite, but no division by zero or complex overflow escapes
        import sdident.fiber as fiber_mod

        rng = random.Random(1)
        for _ in range(2000):
            degree = rng.randint(1, 15)
            coeffs = [rng.choice((-1, 1)) * 10 ** rng.uniform(-300, 300) for _ in range(degree + 1)]
            coeffs[rng.randrange(degree)] = 0.0
            assert len(fiber_mod._roots(coeffs)) == degree
        # abs() of a finite complex past the float range raises OverflowError
        assert cmath.isnan(fiber_mod._laguerre([1.5e308, 1.0], 1.5e308j))

    def test_non_finite_roots_end_in_a_drop_reason(self, monkeypatch):
        import sdident.fiber as fiber_mod

        for bad in (math.nan, math.inf, complex(math.inf, -math.inf)):
            monkeypatch.setattr(fiber_mod, "_roots", lambda coeffs: [bad] * (len(coeffs) - 1))
            for text in (GEN_KELVIN_VOIGT, maxwell_bank(4), "(E1 | n2) & (n3 | (E4 | n5) & E6)"):
                report = fiber_solutions(parse(text))
                assert [s.method for s in report.solutions] == ["base"], (bad, text)
                assert sum(_dropped(report).values()) == min(report.degree, 64) - 1, (bad, text)

    def test_check_fold_with_a_zero_end_coefficient_fails_the_check(self, monkeypatch):
        # each candidate is checked at values scaled by 1e-200, where its
        # float fold's top coefficients underflow to 0: DiffOperator refuses
        # the equation, so there is nothing to compare
        import sdident.fiber as fiber_mod

        fold = fiber_mod.fold_constitutive
        scaled = lambda expr, values, one: fold(expr, [v * 1e-200 for v in values], one)
        monkeypatch.setattr(fiber_mod, "fold_constitutive", scaled)
        with pytest.raises(InvariantViolation, match="zero end coefficient"):
            scaled(parse(GEN_KELVIN_VOIGT), [1.0] * 7, 1.0)
        report = fiber_solutions(parse(GEN_KELVIN_VOIGT))
        assert [s.method for s in report.solutions] == ["base"]
        assert _dropped(report) == dict(NO_DROPS, **{"failed-check": 5})

    def test_root_exchange_builds_each_child_map_once(self, monkeypatch):
        # no map is built and no subtree is folded on its own: the base's
        # one float walk keeps every child's lists, and the whole network
        # is folded once more per checked distribution
        import collections

        import sdident.fiber as fiber_mod

        folds = collections.Counter()
        fold, base = fiber_mod.fold_constitutive, fiber_mod._base

        def counted(expr, values, one):
            folds[type(one).__name__, render(expr)] += 1
            return fold(expr, values, one)

        monkeypatch.setattr(fiber_mod, "fold_constitutive", counted)
        monkeypatch.setattr(fiber_mod, "_base", lambda *a: folds.update(["base"]) or base(*a))
        expr = parse(GEN_KELVIN_VOIGT)
        report = fiber_solutions(expr, multistarts=40, seed=1)
        checked = len(report) - 1 + _dropped(report)["failed-check"]
        assert checked == 5
        assert folds == {"base": 1, ("float", render(expr)): checked}

    def test_deep_chain_folds_the_base_once(self, monkeypatch):
        # the base's one float walk serves all 161 nodes of
        # nested_chain(40), with no fold of the network or a subtree
        import sdident.fiber as fiber_mod

        expr = parse(nested_chain(40))
        calls, base = [], fiber_mod._base
        monkeypatch.setattr(fiber_mod, "fold_constitutive", lambda *a: calls.append("fold"))
        monkeypatch.setattr(fiber_mod, "_base", lambda *a: calls.append(base(*a)) or calls[-1])
        report = fiber_solutions(expr)
        assert (report.degree, len(report)) == (1, 1)
        [tree] = calls

        def size(tree):
            return 1 + sum(map(size, tree.kids))

        assert tree.node is expr and size(tree) == 161

    def test_root_exchange_solves_each_child_in_one_batch(self, monkeypatch):
        # one square system per exchange holds every child of the root, and
        # each of GEN_KELVIN_VOIGT's three Kelvin-Voigt children takes one
        # more; the base's own distribution solves nothing
        import sdident.fiber as fiber_mod

        systems = []
        build = fiber_mod._exchange_matrix
        monkeypatch.setattr(fiber_mod, "_exchange_matrix", lambda *a: systems.append(a) or build(*a))
        expr = parse(GEN_KELVIN_VOIGT)
        report = fiber_solutions(expr, multistarts=0)
        assert sum(s.method == "root-exchange" for s in report.solutions) == 5
        assert len(systems) == 5 * (1 + 3)

    # a child solve from the base values failed for one or both of the two
    # exchanges of each under the Newton search, which retried it from
    # jittered starts; the inversion solves every child linearly
    RETRY_NETWORKS = [
        "E1 & n2 | (E3 | n4 & E5) & n6",
        "E1 & n2 | (n3 | n4 & E5) & E6",
        "n1 & E2 | (E3 | n4 & E5) & n6",
        "n1 & E2 | (n3 | E4 & n5) & E6",
        "E1 & n2 | (E3 & n4 | E5) & n6",
        "E1 & n2 | (n3 & E4 | E5) & n6",
        "n1 & E2 | (E3 & n4 | n5) & E6",
        "n1 & E2 | (n3 & E4 | n5) & E6",
    ]

    @pytest.mark.parametrize("text", RETRY_NETWORKS)
    def test_root_exchange_retries_failed_child_solves(self, text):
        report = fiber_solutions(parse(text), multistarts=40, seed=0)
        assert sum(s.method == "root-exchange" for s in report.solutions) == 2
        assert report.degree == 3 and _dropped(report) == NO_DROPS

    @pytest.mark.parametrize("text", RETRY_NETWORKS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_retries_do_not_move_the_multistarts(self, text, seed):
        # the reference Newton's multistarts, from the report's base, land
        # only on listed points: the inversion misses none Newton finds
        expr = parse(text)
        report = fiber_solutions(expr, seed=seed)
        listed = np.array([s.values for s in report.solutions])
        points = multistart_points(expr, report.base.values, 40, seed)
        assert points
        for point in points:
            gaps = np.linalg.norm(listed - point, axis=1) / (1.0 + np.linalg.norm(point))
            assert gaps.min() <= 1e-6, point


class TestTheoremAgreement:
    def test_triple_agreement_sample(self):
        """Counting, table, and rank verdicts coincide on random networks."""
        rng = random.Random(101)
        for _ in range(40):
            expr = random_network(rng.randint(0, 10**9), rng.randint(1, 7))
            n = len(params(expr))
            table_global = type_trace(expr)[0] != NetType.U
            counting = n == nonmonic_count(constitutive(expr))
            rank = jacobian_rank(expr, sample_point(n, seed=rng.randint(0, 10**6)))
            assert table_global == counting == (rank == n)

    def test_globally_identifiable_structure(self):
        # whatever ends up globally identifiable admits the one-element
        # growth structure: at most one internal child anywhere
        from sdident import Leaf

        def at_most_one_internal(node):
            if isinstance(node, Leaf):
                return True
            internal = [c for c in node.children if not isinstance(c, Leaf)]
            return len(internal) <= 1 and all(map(at_most_one_internal, internal))

        found = 0
        for seed in range(150):
            expr = random_network(seed, 5)
            if analyze(expr).global_status == GlobalStatus.GLOBAL:
                assert at_most_one_internal(expr)
                found += 1
        assert found > 0

    def test_random_global_networks_have_singleton_fibers(self):
        rng = random.Random(55)
        found = 0
        while found < 6:
            expr = random_network(rng.randint(0, 10**9), rng.randint(2, 5))
            if analyze(expr).global_status != GlobalStatus.GLOBAL:
                continue
            report = fiber_solutions(expr, multistarts=60, seed=found)
            assert len(report) == 1, f"extra fiber points for {expr}"
            found += 1
