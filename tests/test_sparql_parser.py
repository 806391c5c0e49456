"""Unit tests for the SPARQL tokenizer and parser."""

import pytest

from repro.rdf import IRI, Literal, XSD_INTEGER
from repro.sparql import ParseError, parse_query, tokenize
from repro.sparql.ast_nodes import Aggregate, BinaryExpr


class TestTokenizer:
    def test_iri_token(self):
        tokens = tokenize("<http://x/y>")
        assert tokens[0].kind == "IRI"
        assert tokens[0].value == "http://x/y"

    def test_var_token(self):
        token = tokenize("?name")[0]
        assert (token.kind, token.value) == ("VAR", "name")
        dollar = tokenize("$name")[0]
        assert (dollar.kind, dollar.value) == ("VAR", "name")

    def test_string_token_with_escapes(self):
        tokens = tokenize('"a\\"b"')
        assert tokens[0].value == 'a"b'

    def test_langtag(self):
        kinds = [t.kind for t in tokenize('"x"@en')]
        assert kinds[:2] == ["STRING", "LANGTAG"]

    def test_number(self):
        assert tokenize("42")[0].kind == "NUMBER"
        assert tokenize("3.14")[0].kind == "NUMBER"

    def test_pname(self):
        token = tokenize("dbo:almaMater")[0]
        assert token.kind == "PNAME"
        assert token.value == "dbo:almaMater"

    def test_pname_excludes_trailing_dot(self):
        tokens = tokenize("dbo:spouse.")
        assert tokens[0].value == "dbo:spouse"
        assert tokens[1].kind == "."

    def test_two_char_operators(self):
        kinds = [t.kind for t in tokenize("a && b || c != d <= e >= f")]
        assert "&&" in kinds and "||" in kinds and "!=" in kinds
        assert "<=" in kinds and ">=" in kinds

    def test_less_than_is_not_iri(self):
        kinds = [t.kind for t in tokenize("?a < 5")]
        assert kinds[:3] == ["VAR", "<", "NUMBER"]

    def test_comment_skipped(self):
        tokens = tokenize("?a # comment here\n?b")
        assert [t.kind for t in tokens[:2]] == ["VAR", "VAR"]

    def test_unterminated_string_raises(self):
        with pytest.raises(ParseError):
            tokenize('"open')

    def test_eof_token_last(self):
        assert tokenize("?x")[-1].kind == "EOF"


class TestSelectParsing:
    def test_simple_select(self):
        query = parse_query("SELECT ?s WHERE { ?s ?p ?o }")
        assert query.form == "SELECT"
        assert query.projected_names() == ["s"]
        assert len(query.where.patterns) == 1

    def test_select_star(self):
        query = parse_query("SELECT * WHERE { ?s ?p ?o . ?o ?q ?r }")
        assert query.select_star
        assert set(query.projected_names()) == {"s", "p", "o", "q", "r"}

    def test_where_keyword_optional(self):
        query = parse_query("SELECT ?s { ?s ?p ?o }")
        assert query.projected_names() == ["s"]

    def test_distinct(self):
        assert parse_query("SELECT DISTINCT ?s { ?s ?p ?o }").distinct

    def test_prefix_expansion(self):
        query = parse_query(
            "PREFIX ex: <http://e/> SELECT ?s { ?s ex:p ?o }"
        )
        assert query.where.patterns[0].predicate == IRI("http://e/p")

    def test_default_prefixes_available(self):
        query = parse_query("SELECT ?s { ?s rdf:type dbo:City }")
        assert query.where.patterns[0].predicate.value.endswith("#type")

    def test_a_keyword_is_rdf_type(self):
        query = parse_query("SELECT ?s { ?s a dbo:City }")
        assert query.where.patterns[0].predicate.value.endswith("#type")

    def test_semicolon_shares_subject(self):
        query = parse_query("SELECT * { ?s dbo:a ?x ; dbo:b ?y . }")
        patterns = query.where.patterns
        assert len(patterns) == 2
        assert patterns[0].subject == patterns[1].subject

    def test_comma_shares_predicate(self):
        query = parse_query("SELECT * { ?s dbo:a ?x , ?y . }")
        patterns = query.where.patterns
        assert len(patterns) == 2
        assert patterns[0].predicate == patterns[1].predicate

    def test_literal_with_lang(self):
        query = parse_query('SELECT ?s { ?s rdfs:label "Ganges"@en }')
        assert query.where.patterns[0].object == Literal("Ganges", lang="en")

    def test_literal_with_datatype(self):
        query = parse_query('SELECT ?s { ?s dbo:n "5"^^xsd:integer }')
        assert query.where.patterns[0].object == Literal("5", datatype=XSD_INTEGER)

    def test_numeric_object(self):
        query = parse_query("SELECT ?s { ?s dbo:n 42 }")
        assert query.where.patterns[0].object == Literal("42", datatype=XSD_INTEGER)

    def test_filter_parsed(self):
        query = parse_query("SELECT ?s { ?s dbo:n ?n . FILTER (?n > 5) }")
        assert len(query.where.filters) == 1
        assert isinstance(query.where.filters[0], BinaryExpr)

    def test_optional_parsed(self):
        query = parse_query("SELECT * { ?s dbo:a ?x OPTIONAL { ?s dbo:b ?y } }")
        assert len(query.where.optionals) == 1
        assert len(query.where.optionals[0].patterns) == 1

    def test_limit_offset(self):
        query = parse_query("SELECT ?s { ?s ?p ?o } LIMIT 10 OFFSET 5")
        assert query.limit == 10
        assert query.offset == 5

    def test_offset_before_limit(self):
        query = parse_query("SELECT ?s { ?s ?p ?o } OFFSET 5 LIMIT 10")
        assert query.limit == 10
        assert query.offset == 5

    def test_order_by_variable(self):
        query = parse_query("SELECT ?s { ?s dbo:n ?n } ORDER BY ?n")
        assert len(query.order_by) == 1
        assert query.order_by[0].ascending

    def test_order_by_desc(self):
        query = parse_query("SELECT ?s { ?s dbo:n ?n } ORDER BY DESC(?n)")
        assert not query.order_by[0].ascending

    def test_group_by_with_count(self):
        query = parse_query(
            "SELECT ?p (COUNT(*) AS ?f) { ?s ?p ?o } GROUP BY ?p"
        )
        assert query.group_by == ["p"]
        assert query.has_aggregates()

    def test_count_distinct(self):
        query = parse_query("SELECT (COUNT(DISTINCT ?s) AS ?n) { ?s ?p ?o }")
        aggregate = query.select_items[0].expression
        assert isinstance(aggregate, Aggregate)
        assert aggregate.distinct

    def test_count_without_as_gets_implicit_alias(self):
        # The paper's introduction query uses "count (?uri)" without AS.
        query = parse_query("SELECT DISTINCT count(?uri) WHERE { ?uri ?p ?o }")
        assert query.select_items[0].output_name == "count"

    def test_ask(self):
        query = parse_query("ASK { ?s dbo:spouse ?o }")
        assert query.form == "ASK"

    def test_expression_as_alias(self):
        query = parse_query("SELECT (STRLEN(?s) AS ?n) { ?x rdfs:label ?s }")
        assert query.select_items[0].output_name == "n"


class TestParseErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "SELECT WHERE { ?s ?p ?o }",          # no projection
            "SELECT ?s { ?s ?p ?o ",              # unterminated group
            "FOO ?s { }",                          # bad form
            "SELECT ?s { ?s ?p ?o } GROUP BY",    # empty group by
            "SELECT ?s { ?s ?p ?o } ORDER BY",    # empty order by
            "SELECT ?s { ?s ?p ?o } extra",       # trailing input
            'SELECT ?s { "lit" ?p ?o }',           # literal subject
            "SELECT * (COUNT(*) AS ?c) { ?s ?p ?o }",  # star + aggregate
        ],
    )
    def test_rejects(self, text):
        with pytest.raises(ParseError):
            parse_query(text)

    def test_group_by_validation(self):
        with pytest.raises(ParseError):
            parse_query("SELECT ?s ?o { ?s ?p ?o } GROUP BY ?s")

    def test_unknown_function(self):
        with pytest.raises(ParseError):
            parse_query("SELECT ?s { ?s ?p ?o . FILTER (NOPE(?s)) }")

    #: The 17 built-ins and the argument counts each accepts.
    ARITIES = {
        "ISLITERAL": (1, 1), "ISIRI": (1, 1), "ISURI": (1, 1), "ISBLANK": (1, 1),
        "BOUND": (1, 1), "LANG": (1, 1), "STR": (1, 1), "STRLEN": (1, 1),
        "REGEX": (2, 3), "CONTAINS": (2, 2), "STRSTARTS": (2, 2), "STRENDS": (2, 2),
        "LANGMATCHES": (2, 2), "LCASE": (1, 1), "UCASE": (1, 1), "DATATYPE": (1, 1),
        "ABS": (1, 1),
    }

    def test_the_signature_table_is_the_known_function_set(self):
        from repro.sparql.functions import FUNCTIONS

        assert {name: (signature.min_args, signature.max_args)
                for name, signature in FUNCTIONS.items()} == self.ARITIES

    @pytest.mark.parametrize("name", sorted(ARITIES))
    def test_wrong_arity_names_the_function_and_the_counts(self, name):
        low, high = self.ARITIES[name]
        for n_args in range(low, high + 1):
            parse_query("SELECT ?s { ?s ?p ?o . FILTER (%s(%s)) }"
                        % (name.lower(), ", ".join(["?o"] * n_args)))
        for n_args in (low - 1, high + 1):
            call = "%s(%s)" % (name.lower(), ", ".join(["?o"] * n_args))
            for text in ("SELECT ?s { ?s ?p ?o . FILTER (%s) }" % call,
                         "SELECT (%s AS ?n) { ?s ?p ?o }" % call):
                with pytest.raises(ParseError) as refused:
                    parse_query(text)
                message = str(refused.value)
                assert name in message and f"got {n_args}" in message
                assert (f"takes {low} " if low == high else f"{low} to {high}") in message


class TestPaperQueries:
    """All the queries quoted in the paper must parse."""

    def test_intro_query(self):
        text = """
        PREFIX res: <http://dbpedia.org/resource/>
        PREFIX dbo: <http://dbpedia.org/ontology/>
        SELECT DISTINCT count (?uri) WHERE {
          ?uri rdf:type dbo:Scientist.
          ?uri dbo:almaMater ?university.
          ?university dbo:affiliation res:Ivy_League.
        }
        """
        query = parse_query(text)
        assert len(query.where.patterns) == 3

    def test_q1(self):
        parse_query(
            "SELECT DISTINCT ?p (COUNT(*) AS ?frequency) WHERE { ?s ?p ?o } "
            "GROUP BY ?p ORDER BY DESC(?frequency)"
        )

    def test_q2(self):
        parse_query(
            "PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#> "
            "PREFIX owl: <http://www.w3.org/2002/07/owl#> "
            "SELECT DISTINCT ?class ?subclass WHERE { "
            "?class a owl:Class . ?class rdfs:subClassOf ?subclass }"
        )

    def test_q5_filter(self):
        parse_query(
            "SELECT DISTINCT ?o WHERE { ?s dbo:name ?o . "
            "FILTER (isliteral(?o) && lang(?o) = 'en' && strlen(str(?o)) < 80) } LIMIT 1"
        )

    def test_q8_significance(self):
        parse_query(
            "SELECT DISTINCT ?o (COUNT(?subject) AS ?frequency) WHERE { "
            "?s a dbo:City . ?subject ?p ?s . ?s rdfs:label ?o . "
            "FILTER (lang(?o) = 'en' && strlen(str(?o)) < 80) } "
            "GROUP BY ?o ORDER BY DESC(?frequency) LIMIT 100 OFFSET 0"
        )
