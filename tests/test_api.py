"""The public surface: ``sdident.__all__`` is exactly the names the CLI,
the verdicts, the rank oracle and the fiber search use, and the
test-only API stays out of the package (its references live in
``tests/helpers.py``).  The rank oracle's and the fiber search's names
resolve on first use."""

import pytest

import sdident
from sdident import fiber, ident, nettypes, opalg, oracle

PUBLIC = {
    # network
    "DASHPOT", "SPRING", "Element", "Leaf", "NetworkExpr", "Parallel", "ParseError",
    "Series", "flatten", "leaves", "params", "parse", "random_network", "render",
    # opalg
    "ConstitutiveEq", "DiffOperator", "InvariantViolation", "ParamPoly", "Shape",
    "coefficient_map", "combine_parallel", "combine_series", "constitutive",
    "equation_to_json",
    # nettypes
    "NetType", "TraceStep", "classify", "format_tables", "table_parallel", "table_series",
    "type_trace",
    # ident
    "GlobalStatus", "Quadruple", "Verdict", "analyze", "block_determinant",
    "constructible_one_at_a_time", "exact_det", "exact_rank", "factor_matrix",
    "factor_matrix_size", "nonmonic_count", "resultant", "sylvester",
    # oracle
    "ParamPoint", "jacobian_rank", "sample_point", "verify_local",
    # fiber
    "CompiledMap", "FiberReport", "FiberSolution", "fiber_solutions",
}

REMOVED = ["good_quadruple", "jacobian_matrix", "leaf_equation", "predicted_shapes", "type_of"]


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
        (fiber, ["CompiledMap", "FiberReport", "FiberSolution", "fiber_solutions"]),
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
        (opalg, "leaf_equation"),
        (fiber.CompiledMap, "value_exact"),
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
