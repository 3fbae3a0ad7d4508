"""The public surface: ``sdident.__all__`` is exactly the names the CLI,
the verdicts, the rank oracle and the fiber search use, and the
test-only API stays out of the package: its references, the paper's
Sylvester layer among them, live in ``tests/helpers.py``.  The rank oracle's and the fiber search's names
resolve on first use.  The record types compare, hash and print by
their fields."""

from fractions import Fraction as F

import pytest

import sdident
from sdident import (
    ConstitutiveEq,
    DiffOperator,
    Element,
    FiberReport,
    FiberSolution,
    InvariantViolation,
    Leaf,
    ParamPoint,
    Verdict,
    analyze,
    constitutive,
    fiber,
    ident,
    nettypes,
    opalg,
    oracle,
    parse,
    type_trace,
)
from newton_reference import CompiledMap

PUBLIC = {
    # network
    "DASHPOT", "SPRING", "Element", "Leaf", "NetworkExpr", "Parallel", "ParseError",
    "Series", "flatten", "leaves", "params", "parse", "random_network", "render",
    # opalg
    "ConstitutiveEq", "DiffOperator", "InvariantViolation", "ParamPoly", "Shape",
    "coefficient_map", "constitutive", "equation_to_json",
    # nettypes
    "NetType", "TraceStep", "classify", "format_tables", "table_parallel", "table_series",
    "type_trace",
    # ident
    "GlobalStatus", "Verdict", "analyze", "constructible_one_at_a_time", "exact_rank",
    "factor_matrix", "nonmonic_count",
    # oracle
    "ParamPoint", "jacobian_rank", "sample_point", "verify_local",
    # fiber
    "FiberReport", "FiberSolution", "fiber_solutions",
}

REMOVED = [
    "CompiledMap", "Quadruple", "block_determinant", "combine_parallel", "combine_series",
    "exact_det", "factor_matrix_size", "good_quadruple", "jacobian_matrix", "leaf_equation",
    "predicted_shapes", "resultant", "sylvester", "type_of",
]


def test_all_is_the_pipeline_surface():
    assert len(sdident.__all__) == len(set(sdident.__all__))
    assert set(sdident.__all__) == PUBLIC


def test_every_exported_name_resolves():
    for name in sdident.__all__:
        assert getattr(sdident, name) is not None, name


@pytest.mark.parametrize(
    "module, names",
    [
        (oracle, ["ParamPoint", "jacobian_rank", "sample_point", "verify_local"]),
        (fiber, ["FiberReport", "FiberSolution", "fiber_solutions"]),
    ],
)
def test_lazy_names_are_the_modules_own(module, names):
    # the package resolves them on first use, and the oracle forwards
    # the fiber search's names
    for name in names:
        assert getattr(sdident, name) is getattr(module, name), name
        assert getattr(oracle, name) is getattr(module, name), name


@pytest.mark.parametrize("name", REMOVED)
def test_removed_name_is_gone(name):
    assert not hasattr(sdident, name)


@pytest.mark.parametrize(
    "owner, name",
    [
        (opalg.ParamPoly, "zero"),
        (opalg.ParamPoly, "is_zero"),
        (opalg.ParamPoly, "evaluate"),
        (opalg.ParamPoly, "derivative"),
        (opalg.DiffOperator, "eval_coeffs"),
        (opalg.DiffOperator, "__mul__"),  # the operator fold, now the tests' reference
        (opalg.DiffOperator, "__add__"),
        (opalg.DiffOperator, "shift_down"),
        (opalg.DiffOperator, "coeff"),  # readers index coeffs themselves
        (opalg.DiffOperator, "nvars"),  # assumed a ParamPoly ring
        (opalg.ConstitutiveEq, "nvars"),
        (opalg, "leaf_equation"),
        (CompiledMap, "value_exact"),  # the Newton search's map, now the tests' reference
        (fiber, "CompiledMap"),
        (fiber, "MAX_BATCH_CELLS"),
        (fiber, "constitutive"),
        (fiber, "_degree"),  # the base's tree holds each subtree's degree
        (fiber, "random"),
        (oracle, "jacobian_matrix"),
        (ident, "good_quadruple"),
        (ident, "random_operator_vector"),
        (ident, "random_rational"),
        (nettypes, "predicted_shapes"),
        (nettypes, "type_of"),
    ],
)
def test_removed_member_is_gone(owner, name):
    assert not hasattr(owner, name)


def _report(multistarts):
    dropped = (("split-pair", 0), ("singular", 0), ("non-positive", 0), ("failed-check", 0))
    base = ParamPoint((F(1),))
    return FiberReport(base, (FiberSolution((1.0,), "base"),), False, 1, dropped, multistarts)


# (make, a record of the same class with another field, repr): each repr
# is the one the dataclass versions of these classes printed
RECORDS = {
    "Element": (
        lambda: Element("spring", "E1"),
        Element("spring", "E2"),
        "Element(kind='spring', name='E1')",
    ),
    "Leaf": (
        lambda: Leaf(Element("spring", "E1")),
        Leaf(Element("dashpot", "E1")),
        "Leaf(element=Element(kind='spring', name='E1'))",
    ),
    "Series": (
        lambda: parse("E1 & n1"),
        parse("E1 & n2"),
        "Series(children=(Leaf(element=Element(kind='spring', name='E1')),"
        " Leaf(element=Element(kind='dashpot', name='n1'))))",
    ),
    "Parallel": (
        lambda: parse("E1 | n1"),
        parse("E1 | E2"),
        "Parallel(children=(Leaf(element=Element(kind='spring', name='E1')),"
        " Leaf(element=Element(kind='dashpot', name='n1'))))",
    ),
    "ConstitutiveEq": (
        lambda: constitutive(parse("E1 | n1")),
        constitutive(parse("E1 & n1")),
        "ConstitutiveEq(eps=DiffOperator(low=0, orders=0..1),"
        " sig=DiffOperator(low=0, orders=0..0))",
    ),
    "TraceStep": (
        lambda: type_trace(parse("E1 | n1"))[1][0],
        type_trace(parse("E1 & n1"))[1][0],
        "TraceStep(connection='parallel', left=<NetType.A: 'A'>, right=<NetType.B: 'B'>,"
        " result=<NetType.C: 'C'>, node='E1 | n1', depth=0)",
    ),
    "Verdict": (
        lambda: analyze(parse("E1 & n1")),
        analyze(parse("E1 & n2")),
        "Verdict(locally_identifiable=True, global_status=<GlobalStatus.GLOBAL: 'global'>,"
        " param_count=2, nonmonic_count=2, net_type=<NetType.D: 'D'>,"
        " shape_type=<NetType.D: 'D'>, index=1, constructible=True,"
        " trace=(TraceStep(connection='series', left=<NetType.A: 'A'>,"
        " right=<NetType.B: 'B'>, result=<NetType.D: 'D'>, node='E1 & n1', depth=0),),"
        " ones=ConstitutiveEq(eps=DiffOperator(low=1, orders=1..1),"
        " sig=DiffOperator(low=0, orders=0..1)))",
    ),
    "ParamPoint": (
        lambda: ParamPoint((F(1, 2), F(3))),
        ParamPoint((F(1, 2), F(4))),
        "ParamPoint(values=(Fraction(1, 2), Fraction(3, 1)))",
    ),
    "FiberSolution": (
        lambda: FiberSolution((1.0, 2.5), "base"),
        FiberSolution((1.0, 2.5), "root-exchange"),
        "FiberSolution(values=(1.0, 2.5), method='base')",
    ),
    "FiberReport": (
        lambda: _report(0),
        _report(1),
        "FiberReport(base=ParamPoint(values=(Fraction(1, 1),)),"
        " solutions=(FiberSolution(values=(1.0,), method='base'),), truncated=False,"
        " degree=1, dropped=(('split-pair', 0), ('singular', 0), ('non-positive', 0),"
        " ('failed-check', 0)), multistarts=0)",
    ),
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_compare_hash_and_print_by_fields(name):
    make, other, text = RECORDS[name]
    a, b = make(), make()
    assert type(a).__name__ == name
    assert a is not b and a == b and not a != b
    assert a != other and other != a
    # no record equals a tuple of its fields
    assert a != tuple(getattr(a, field) for field in a.__slots__)
    assert repr(a) == text
    if name == "ConstitutiveEq":  # its operators are unhashable
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b, other}) == 2


def test_series_is_not_parallel():
    children = parse("E1 & n1").children
    assert sdident.Series(children) != sdident.Parallel(children)
    assert sdident.Series(children) == sdident.Series(children)


def test_verdict_ignores_ones():
    verdict = analyze(parse("E1 & n1"))
    fields = [getattr(verdict, field) for field in Verdict.__slots__ if field != "ones"]
    twin = Verdict(*fields, ones=analyze(parse("E1 | n1")).ones)
    assert twin.ones != verdict.ones
    assert twin == verdict and hash(twin) == hash(verdict)


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: Element("resistor", "R1"), ValueError),
        (lambda: ConstitutiveEq(DiffOperator(0, [1]), DiffOperator(1, [1])), InvariantViolation),
        (lambda: ParamPoint((F(1), F(0))), ValueError),
    ],
    ids=["element-kind", "stress-low-order", "point-positive"],
)
def test_record_constructor_checks(build, error):
    with pytest.raises(error):
        build()
