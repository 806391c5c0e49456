"""Unit tests for the logical algebra: translation and rewrites."""

import pytest

from repro.rdf import DBO, DBR, TriplePattern, Variable
from repro.sparql import parse_query
from repro.sparql.algebra import (
    BGP,
    Empty,
    Filter,
    Join,
    LeftJoin,
    Minus,
    Union,
    ValuesTable,
    algebra_text,
    bind_group,
    conjuncts,
    normalize,
    translate_group,
    translate_query,
)

V = Variable
P = TriplePattern


def translate(text):
    return translate_group(parse_query(text).where)


def norm(text):
    return normalize(translate(text))


class TestTranslation:
    def test_basic_group_is_bgp(self):
        node = norm("SELECT * WHERE { ?s a dbo:Person . ?s foaf:name ?n }")
        assert isinstance(node, BGP)
        assert len(node.patterns) == 2

    def test_union_and_minus_shape(self):
        node = norm(
            "SELECT * WHERE { { ?x a dbo:A } UNION { ?x a dbo:B } "
            "MINUS { ?x a dbo:C } }"
        )
        assert isinstance(node, Minus)
        assert isinstance(node.left, Union)
        assert len(node.left.branches) == 2

    def test_optional_becomes_left_join(self):
        query = parse_query("SELECT * WHERE { ?s a dbo:A OPTIONAL { ?s a dbo:B } }")
        node = normalize(translate_group(query.where))
        assert isinstance(node, LeftJoin)
        # The OPTIONAL's own syntax rides along (and survives normalize):
        # the per-solution operator binds it row by row.
        assert node.group is query.where.optionals[0]

    def test_bind_group_pins_every_level_that_reads_the_solution(self):
        group = parse_query(
            "SELECT * WHERE { ?s a dbo:A OPTIONAL { ?s dbo:p ?x "
            "{ ?x dbo:q ?y FILTER (?l = ?y) } UNION { ?z a dbo:B } "
            "OPTIONAL { ?y dbo:r ?l } MINUS { ?m a dbo:C } MINUS { ?l a dbo:C } } }"
        ).where.optionals[0]
        solution = {"s": DBR.S, "l": DBR.L, "unread": DBR.U}
        bound = bind_group(group, solution)
        pins = lambda g: [(c.variables, c.rows) for c in g.values if c.pinned]  # noqa: E731
        # The level itself reads ?s (a pattern) and ?l (a MINUS binds it).
        assert pins(bound) == [(("s", "l"), ((DBR.S, DBR.L),))]
        first, second = bound.unions[0]
        assert pins(first) == [(("l",), ((DBR.L,),))] and pins(second) == []
        assert pins(bound.optionals[0]) == [(("l",), ((DBR.L,),))]
        assert bound.minuses == group.minuses  # uncorrelated: untouched
        assert not group.values and not group.unions[0][0].values  # a copy
        table = normalize(translate_group(bound.optionals[0]))
        assert any(isinstance(part, ValuesTable) and part.pinned for part in conjuncts(table))

    def test_translate_query_wraps_modifiers(self):
        node = translate_query(parse_query(
            "SELECT DISTINCT ?s WHERE { ?s a dbo:A } ORDER BY ?s LIMIT 3"
        ))
        assert node.label().startswith("Slice")
        assert "Project" in algebra_text(node)

    def test_variables_and_certainty(self):
        node = norm(
            "SELECT * WHERE { { ?x a dbo:A . ?y a dbo:B } UNION { ?x a dbo:C } }"
        )
        assert set(node.variables()) == {"x", "y"}
        assert node.maybe_unbound() == frozenset({"y"})
        assert node.certain_variables() == ("x",)


class TestRewrites:
    def test_duplicate_patterns_deduplicated(self):
        node = norm("SELECT * WHERE { ?s a dbo:A . ?s a dbo:A . ?s a dbo:B }")
        assert isinstance(node, BGP)
        assert len(node.patterns) == 2

    def test_empty_values_annihilates_join(self):
        node = normalize(Join(
            BGP([P(V("s"), DBO.award, V("o"))]),
            ValuesTable(("s",), ()),
        ))
        assert isinstance(node, Empty)

    def test_single_branch_union_unwraps(self):
        node = normalize(Union([BGP([P(V("s"), DBO.award, V("o"))])]))
        assert isinstance(node, BGP)

    def test_empty_branches_dropped_from_union(self):
        node = normalize(Union([
            BGP([P(V("s"), DBO.award, V("o"))]),
            ValuesTable(("s",), ()),
        ]))
        assert isinstance(node, BGP)

    def test_unit_bgp_is_join_identity(self):
        node = normalize(Join(BGP([]), BGP([P(V("s"), DBO.award, V("o"))])))
        assert isinstance(node, BGP) and len(node.patterns) == 1

    def test_minus_with_disjoint_domains_dropped(self):
        node = norm("SELECT * WHERE { ?s a dbo:A . MINUS { ?x a dbo:B } }")
        assert isinstance(node, BGP)

    def test_minus_with_empty_right_dropped(self):
        node = normalize(Minus(
            BGP([P(V("s"), DBO.award, V("o"))]), ValuesTable(("s",), ())
        ))
        assert isinstance(node, BGP)

    def test_adjacent_bgps_merge(self):
        node = normalize(Join(
            BGP([P(V("s"), DBO.award, V("o"))]),
            BGP([P(V("s"), DBO.birthPlace, V("c"))]),
        ))
        assert isinstance(node, BGP) and len(node.patterns) == 2

    def test_filter_pushes_into_union_branches(self):
        node = norm(
            "SELECT * WHERE { { ?x dbo:n ?n } UNION { ?y dbo:m ?n } "
            "FILTER (?n > 2) }"
        )
        assert isinstance(node, Union)
        assert all(isinstance(branch, Filter) for branch in node.branches)

    def test_filter_pushes_through_minus_left(self):
        node = norm(
            "SELECT * WHERE { ?x dbo:n ?n . FILTER (?n > 2) "
            "MINUS { ?x a dbo:B } }"
        )
        assert isinstance(node, Minus)
        assert isinstance(node.left, Filter)

    def test_filter_sinks_into_certain_side_only(self):
        """With a maybe-unbound variable on one side, the filter may
        sink into the side that certainly binds it — never the UNDEF
        side."""
        node = norm(
            "SELECT * WHERE { ?p dbo:n ?n . "
            "VALUES (?p ?n) { (dbr:P0 UNDEF) } FILTER (?n > 2) }"
        )
        assert isinstance(node, Join)
        assert isinstance(node.left, Filter)  # the BGP side binds ?n
        assert isinstance(node.right, ValuesTable)

    def test_filter_blocked_when_no_side_is_certain(self):
        expr = parse_query("SELECT * WHERE { FILTER (?n > 2) }").where.filters[0]
        undef_n = ValuesTable(("p", "n"), ((DBR.term("P0"), None),))
        no_n = ValuesTable(("p",), ((DBR.term("P0"),),))
        node = normalize(Filter(expr, Join(undef_n, no_n)))
        assert isinstance(node, Filter)
        assert isinstance(node.child, Join)

    def test_conjuncts_flattens_join_tree(self):
        node = norm(
            "SELECT * WHERE { ?s a dbo:A . VALUES ?s { dbr:P0 } "
            "{ ?s a dbo:B } UNION { ?s a dbo:C } }"
        )
        kinds = {type(part).__name__ for part in conjuncts(node)}
        assert kinds == {"BGP", "ValuesTable", "Union"}

    def test_algebra_text_renders_tree(self):
        text = algebra_text(norm(
            "SELECT * WHERE { { ?x a dbo:A } UNION { ?x a dbo:B } "
            "MINUS { ?x a dbo:C } }"
        ))
        assert "Minus" in text and "Union[2]" in text and "BGP(" in text


class TestNormalizeIdempotence:
    @pytest.mark.parametrize("text", [
        "SELECT * WHERE { ?s a dbo:A . ?s a dbo:A }",
        "SELECT * WHERE { { ?x a dbo:A } UNION { ?x a dbo:B } }",
        "SELECT * WHERE { VALUES ?x { dbr:P0 } ?x a dbo:A "
        "MINUS { ?x a dbo:B } FILTER (ISIRI(?x)) }",
    ])
    def test_normalize_is_idempotent(self, text):
        once = norm(text)
        assert algebra_text(normalize(once)) == algebra_text(once)
