import pytest
from hypothesis import given, settings, strategies as st

from sdident import (
    DASHPOT,
    SPRING,
    Element,
    Leaf,
    Parallel,
    ParseError,
    Series,
    analyze,
    flatten,
    leaves,
    params,
    parse,
    random_network,
    render,
)

from sdident.cli import main
from sdident.network import MAX_NESTING

from helpers import BURGERS, GEN_KELVIN_VOIGT, LADDER_8, nested_chain


def E(name):
    return Leaf(Element(SPRING, name))


def N(name):
    return Leaf(Element(DASHPOT, name))


class TestParse:
    def test_two_element_series(self):
        assert parse("E1 & n1") == Series((E("E1"), N("n1")))

    def test_burgers_structure(self):
        expr = parse(BURGERS)
        assert expr == Series(
            (Parallel((E("Ev"), N("nv"))), E("Em"), N("nm"))
        )

    def test_nested_series_flattens(self):
        assert parse("(E1 & n1) & E2") == Series((E("E1"), N("n1"), E("E2")))
        assert parse("E1 & (n1 & E2)") == Series((E("E1"), N("n1"), E("E2")))

    def test_precedence_series_over_parallel(self):
        expr = parse("E1 & n1 | E2")
        assert expr == Parallel((Series((E("E1"), N("n1"))), E("E2")))

    def test_ladder_shape(self):
        expr = parse(LADDER_8)
        assert isinstance(expr, Series)
        assert len(expr.children) == 2
        assert isinstance(expr.children[0], Parallel)
        assert expr.children[1] == E("E4")
        assert len(params(expr)) == 8

    def test_eta_and_k_prefixes(self):
        expr = parse("k1 & eta1")
        assert expr == Series(
            (Leaf(Element(SPRING, "k1")), Leaf(Element(DASHPOT, "eta1")))
        )

    def test_unknown_prefix_rejected(self):
        with pytest.raises(ParseError):
            parse("x1 & n1")

    @pytest.mark.parametrize("text, position", [("x1", 0), ("E1 & x2", 5)])
    def test_unknown_prefix_reports_position(self, text, position, capsys):
        with pytest.raises(ParseError, match=rf"\(at position {position}\)$") as err:
            parse(text)
        assert err.value.position == position
        assert main(["analyze", text]) == 2
        assert capsys.readouterr().err == f"parse error: {err.value}\n"

    def test_duplicate_name_rejected(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse("E1 & E1")

    def test_empty_expression(self):
        with pytest.raises(ParseError, match="empty"):
            parse("   ")

    def test_syntax_error_reports_position(self):
        with pytest.raises(ParseError) as err:
            parse("E1 & $")
        assert err.value.position == 5

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError):
            parse("(E1 & n1")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse("E1 & n1 )")

    def test_nesting_at_limit_parses_renders_and_analyzes(self):
        expr = parse(nested_chain(MAX_NESTING))
        text = render(expr)
        assert render(parse(text)) == text
        assert analyze(expr).param_count == 2 * MAX_NESTING + 1
        bare = parse("(" * MAX_NESTING + "E1" + ")" * MAX_NESTING)
        assert render(bare) == "E1"

    @pytest.mark.parametrize(
        "text",
        [nested_chain(MAX_NESTING + 1), "(" * (MAX_NESTING + 1) + "E1" + ")" * (MAX_NESTING + 1)],
        ids=["ladder", "bare"],
    )
    def test_nesting_past_limit_rejected(self, text):
        with pytest.raises(ParseError) as err:
            parse(text)
        # the first parenthesis past the limit
        assert err.value.position == [i for i, ch in enumerate(text) if ch == "("][MAX_NESTING]


class TestFlatten:
    def test_series_associativity(self):
        raw = Series((Series((E("E1"), N("n1"))), E("E2")))
        assert flatten(raw) == Series((E("E1"), N("n1"), E("E2")))

    def test_parallel_associativity(self):
        raw = Parallel((E("E1"), Parallel((N("n1"), E("E2")))))
        assert flatten(raw) == Parallel((E("E1"), N("n1"), E("E2")))

    def test_leaf_identity(self):
        assert flatten(E("E1")) == E("E1")

    def test_one_child_node_is_its_child(self):
        assert flatten(Series((E("E1"),))) == E("E1")

    def test_idempotent(self):
        raw = Series((Series((E("E1"), N("n1"))), Parallel((E("E2"), N("n2")))))
        once = flatten(raw)
        assert flatten(once) == once


class TestParams:
    def test_burgers_order(self):
        assert params(parse(BURGERS)) == ["Ev", "nv", "Em", "nm"]

    def test_gen_kelvin_voigt_count(self):
        assert len(params(parse(GEN_KELVIN_VOIGT))) == 7

    def test_single_leaf(self):
        assert params(E("E1")) == ["E1"]


class TestRender:
    def test_series(self):
        assert render(Series((E("E1"), N("n1")))) == "E1 & n1"

    def test_parallel(self):
        assert render(Parallel((E("E1"), N("n1")))) == "E1 | n1"

    def test_burgers_canonical(self):
        assert render(parse(BURGERS)) == "(Ev | nv) & Em & nm"

    def test_round_trip_examples(self):
        for text in ("E1", "E1 & n1 & E2", "(E1 | n1) & (E2 | n2)", LADDER_8):
            expr = parse(text)
            assert parse(render(expr)) == expr


class TestRandomNetwork:
    def test_single_leaf(self):
        assert isinstance(random_network(1, 1), Leaf)

    def test_deterministic(self):
        assert random_network(99, 5) == random_network(99, 5)

    def test_leaf_count(self):
        for seed in range(20):
            expr = random_network(seed, 6)
            assert len(leaves(expr)) == 6

    def test_zero_elements_rejected(self):
        with pytest.raises(ValueError):
            random_network(0, 0)

    def test_both_connectives_appear_at_root(self):
        roots = {type(random_network(seed, 4)).__name__ for seed in range(1000)}
        assert "Series" in roots and "Parallel" in roots


# random raw (possibly unflattened) trees for the structural properties
_raw_trees = st.recursive(
    st.sampled_from([SPRING, DASHPOT]),
    lambda inner: st.tuples(
        st.sampled_from(["S", "P"]), st.lists(inner, min_size=2, max_size=3)
    ),
    max_leaves=10,
)


def _materialize(struct, counter=None):
    counter = counter if counter is not None else [0]
    if isinstance(struct, str):
        counter[0] += 1
        name = f"E{counter[0]}" if struct == SPRING else f"n{counter[0]}"
        return Leaf(Element(struct, name))
    kind, kids = struct
    node = Series if kind == "S" else Parallel
    return node(tuple(_materialize(k, counter) for k in kids))


@settings(max_examples=80, deadline=None)
@given(_raw_trees)
def test_flatten_idempotent_and_conserves_leaves(struct):
    tree = _materialize(struct)
    flat = flatten(tree)
    assert flatten(flat) == flat
    assert sorted(el.name for el in leaves(flat)) == sorted(
        el.name for el in leaves(tree)
    )

    def no_nested(node):
        if isinstance(node, Leaf):
            return True
        return all(
            not isinstance(child, type(node)) and no_nested(child)
            for child in node.children
        )

    assert no_nested(flat)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 9))
def test_parse_render_round_trip(seed, n):
    expr = random_network(seed, n)
    assert parse(render(expr)) == expr
    assert params(parse(render(expr))) == params(expr)
