"""Structural identifiability of spring-dashpot viscoelastic networks.

Parse a series/parallel network of springs and dashpots, derive its
constitutive differential equation exactly, decide local and global
structural identifiability, and cross-check every verdict with an
independent numeric oracle.
"""

import importlib

from .network import (
    DASHPOT,
    SPRING,
    Element,
    Leaf,
    NetworkExpr,
    Parallel,
    ParseError,
    Series,
    flatten,
    leaves,
    params,
    parse,
    random_network,
    render,
)
from .opalg import (
    ConstitutiveEq,
    DiffOperator,
    InvariantViolation,
    ParamPoly,
    Shape,
    coefficient_map,
    constitutive,
    equation_to_json,
)
from .nettypes import (
    NetType,
    TraceStep,
    classify,
    format_tables,
    table_parallel,
    table_series,
    type_trace,
)
from .ident import (
    GlobalStatus,
    Verdict,
    analyze,
    constructible_one_at_a_time,
    exact_rank,
    factor_matrix,
    nonmonic_count,
)

# The rank oracle and the fiber search load on first use, so that a
# command that runs neither does not compile them.
_LAZY = {
    "ParamPoint": "oracle",
    "jacobian_rank": "oracle",
    "sample_point": "oracle",
    "verify_local": "oracle",
    "FiberReport": "fiber",
    "FiberSolution": "fiber",
    "fiber_solutions": "fiber",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value  # later lookups are plain attribute reads
    return value


__version__ = "0.1.0"

__all__ = [
    "DASHPOT",
    "SPRING",
    "Element",
    "Leaf",
    "NetworkExpr",
    "Parallel",
    "ParseError",
    "Series",
    "flatten",
    "leaves",
    "params",
    "parse",
    "random_network",
    "render",
    "ConstitutiveEq",
    "DiffOperator",
    "InvariantViolation",
    "ParamPoly",
    "Shape",
    "coefficient_map",
    "constitutive",
    "equation_to_json",
    "NetType",
    "TraceStep",
    "classify",
    "format_tables",
    "table_parallel",
    "table_series",
    "type_trace",
    "GlobalStatus",
    "Verdict",
    "analyze",
    "constructible_one_at_a_time",
    "exact_rank",
    "factor_matrix",
    "nonmonic_count",
    "FiberReport",
    "FiberSolution",
    "ParamPoint",
    "fiber_solutions",
    "jacobian_rank",
    "sample_point",
    "verify_local",
]
