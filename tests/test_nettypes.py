import itertools

import pytest
from hypothesis import given, settings, strategies as st

from sdident import (
    ConstitutiveEq,
    DiffOperator,
    InvariantViolation,
    Leaf,
    NetType,
    Shape,
    classify,
    constitutive,
    format_tables,
    parse,
    random_network,
    table_parallel,
    table_series,
    type_trace,
)
from sdident import network

from helpers import (
    BRANCHED_10,
    BURGERS,
    GEN_KELVIN_VOIGT,
    LADDER_8,
    MAXWELL,
    VOIGT,
    nested_chain,
    predicted_shapes,
)

A, B, C, D, U = NetType.A, NetType.B, NetType.C, NetType.D, NetType.U


class TestClassify:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("E1", (A, 0)),
            ("n1", (B, 0)),
            (VOIGT, (C, 0)),
            (MAXWELL, (D, 1)),
            (BURGERS, (D, 2)),
        ],
    )
    def test_examples(self, text, expected):
        assert classify(constitutive(parse(text))) == expected

    def test_strain_shape_of_no_class_raises(self):
        # strain shape (2, 0) over stress shape (0, 0) is none of A-D
        eq = ConstitutiveEq(DiffOperator(0, [1, 1, 1]), DiffOperator(0, [1]))
        with pytest.raises(InvariantViolation, match="does not match any class"):
            classify(eq)

    def test_unidentifiable_networks_still_classify(self):
        # counting says unidentifiable, but the equation still has a class
        t, n = classify(constitutive(parse(BRANCHED_10)))
        assert t in (A, B, C, D)
        assert n >= 0


class TestTables:
    @pytest.mark.parametrize(
        "t1,t2,expected",
        [(A, D, A), (A, B, C), (C, C, U), (D, D, D), (B, D, B), (A, A, U)],
    )
    def test_parallel_entries(self, t1, t2, expected):
        assert table_parallel(t1, t2) == expected

    @pytest.mark.parametrize(
        "t1,t2,expected",
        [(A, B, D), (D, D, U), (C, D, D), (A, C, A), (B, C, B), (C, C, C)],
    )
    def test_series_entries(self, t1, t2, expected):
        assert table_series(t1, t2) == expected

    def test_absorbing_marker(self):
        for t in NetType:
            assert table_parallel(U, t) == U
            assert table_series(t, U) == U

    def test_symmetric(self):
        for t1, t2 in itertools.product(NetType, repeat=2):
            assert table_parallel(t1, t2) == table_parallel(t2, t1)
            assert table_series(t1, t2) == table_series(t2, t1)

    def test_associative(self):
        # fold order inside a flattened node must not matter
        for op in (table_parallel, table_series):
            for x, y, z in itertools.product(NetType, repeat=3):
                assert op(op(x, y), z) == op(x, op(y, z))

    def test_format_tables_structure(self):
        text = format_tables()
        assert "Parallel connection" in text and "Series connection" in text
        for row in ("A u  C  u  A  u", "D u  u  D  u  u"):
            assert row in text


class TestTypeOf:
    @pytest.mark.parametrize(
        "text,expected",
        [
            (MAXWELL, D),
            (VOIGT, C),
            (BURGERS, D),
            (LADDER_8, D),
            (BRANCHED_10, U),
            (GEN_KELVIN_VOIGT, A),
            ("E1", A),
            ("n1", B),
        ],
    )
    def test_examples(self, text, expected):
        assert type_trace(parse(text))[0] == expected

    def test_trace_records_collapse(self):
        t, steps = type_trace(parse(BRANCHED_10))
        assert t == U
        assert any(step.result == U for step in steps)
        first_u = next(step for step in steps if step.result == U)
        assert D in (first_u.left, first_u.right)

    def test_trace_burgers_chain(self):
        t, steps = type_trace(parse(BURGERS))
        assert t == D
        results = [(s.connection, s.left.value, s.right.value, s.result.value) for s in steps]
        assert ("parallel", "A", "B", "C") in results

    def test_trace_labels_render_each_node_once(self, monkeypatch):
        expr = parse(nested_chain(100))

        def nodes(node):
            yield node
            for child in getattr(node, "children", ()):
                yield from nodes(child)

        def labels(node):
            # the step labels in evaluation order: render(node) once per
            # table application at that node
            if isinstance(node, Leaf):
                return []
            out = labels(node.children[0])
            for child in node.children[1:]:
                out += labels(child) + [network.render(node)]
            return out

        expected = labels(expr)
        joined = []
        original = network._joined

        def counted(node, parts):
            joined.append(id(node))
            return original(node, parts)

        monkeypatch.setattr(network, "_joined", counted)
        _, steps = type_trace(expr)
        assert sorted(joined) == sorted(id(n) for n in nodes(expr) if not isinstance(n, Leaf))
        assert [step.node for step in steps] == expected

    def test_child_order_invariance(self):
        for seed in range(40):
            expr = random_network(seed, 5)
            if not hasattr(expr, "children"):
                continue
            reversed_expr = type(expr)(tuple(reversed(expr.children)))
            assert type_trace(expr)[0] == type_trace(reversed_expr)[0]


class TestPredictedShapes:
    @pytest.mark.parametrize(
        "t,n,expected",
        [
            (A, 0, (Shape(0, 0), Shape(0, 0))),
            (B, 0, (Shape(1, 1), Shape(0, 0))),
            (C, 0, (Shape(1, 0), Shape(0, 0))),
            (D, 2, (Shape(2, 1), Shape(2, 0))),
        ],
    )
    def test_rows(self, t, n, expected):
        assert predicted_shapes(t, n) == expected

    def test_u_has_no_shape(self):
        with pytest.raises(ValueError):
            predicted_shapes(U, 1)

    def test_d_needs_positive_index(self):
        with pytest.raises(ValueError):
            predicted_shapes(D, 0)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 8))
def test_table_and_shape_consistency(seed, n):
    """The table route and the derived equation agree on class and shapes
    whenever the table says identifiable; the equation still classifies
    when it does not."""
    expr = random_network(seed, n)
    table_type = type_trace(expr)[0]
    eq = constitutive(expr)
    shape_type, index = classify(eq)
    if table_type is not U:
        assert shape_type == table_type
        eps, sig = predicted_shapes(table_type, index)
        assert eq.eps.shape == eps
        assert eq.sig.shape == sig
    else:
        # shape classes still cover unidentifiable networks
        eps, sig = predicted_shapes(shape_type, index)
        assert eq.eps.shape == eps
        assert eq.sig.shape == sig
