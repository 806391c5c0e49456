"""Property-based tests (hypothesis) on the core data structures.

Invariants covered:

* generalized suffix tree ≡ naive substring scan,
* Algorithm 1 covers every literal exactly once with balanced loads,
* Jaro/Jaro–Winkler bounds, symmetry and identity,
* Levenshtein metric axioms (identity, symmetry, triangle inequality),
* N-Triples round-trip fidelity,
* triple-store index coherence under random insert/delete sequences,
* parser/serializer round-trip for generated queries,
* SPARQL Results JSON: the fragment-memo writer ≡ ``json.dumps`` of the
  document, and the interning reader inverts it, at any memo state,
* compiled expressions ≡ the reference interpreter
  (``reference_expressions``): the same term or both an error.
"""

from __future__ import annotations

import json
import string

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference_expressions import evaluate_expression as reference_expression

from repro.net import formats
from repro.rdf import (
    IRI,
    XSD_BOOLEAN,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_INTEGER,
    XSD_STRING,
    BlankNode,
    Literal,
    Triple,
    TriplePattern,
    Variable,
    parse_ntriples,
    serialize_ntriples,
)
from repro.sparql import ExpressionError, compile_expression, effective_boolean_value
from repro.sparql.ast_nodes import BinaryExpr, FunctionCall, TermExpr, UnaryExpr
from repro.sparql.functions import FUNCTIONS, compile_filter
from repro.store import TripleStore
from repro.text import (
    GeneralizedSuffixTree,
    assign_tasks,
    jaro,
    jaro_winkler,
    levenshtein,
)

# Compact alphabets keep shrunk counterexamples readable and force
# collisions (shared substrings, shared suffixes) to actually occur.
_WORDS = st.text(alphabet="abcd", min_size=1, max_size=8)
_TEXT = st.text(
    alphabet=string.ascii_letters + string.digits + " .,-'\"\\\n",
    min_size=0,
    max_size=30,
)


class TestSuffixTreeProperties:
    @given(st.lists(_WORDS, max_size=12), _WORDS)
    @settings(max_examples=200, deadline=None)
    def test_matches_naive_scan(self, strings, pattern):
        tree = GeneralizedSuffixTree(strings)
        expected = sorted(i for i, s in enumerate(strings) if pattern in s)
        assert sorted(tree.find_ids(pattern)) == expected

    @given(st.lists(_WORDS, min_size=1, max_size=10))
    @settings(max_examples=100, deadline=None)
    def test_every_string_findable_by_itself(self, strings):
        tree = GeneralizedSuffixTree(strings)
        for index, s in enumerate(strings):
            assert index in tree.find_ids(s)

    @given(st.lists(_WORDS, min_size=1, max_size=10), _WORDS)
    @settings(max_examples=100, deadline=None)
    def test_occurrences_match_overlapping_count(self, strings, pattern):
        tree = GeneralizedSuffixTree(strings)
        expected = 0
        for s in strings:
            for i in range(len(s)):
                if s.startswith(pattern, i):
                    expected += 1
        assert tree.count_occurrences(pattern) == expected

    @given(st.lists(_WORDS, max_size=10), _WORDS, st.integers(1, 5))
    @settings(max_examples=100, deadline=None)
    def test_limit_is_prefix_of_full_result_set(self, strings, pattern, limit):
        tree = GeneralizedSuffixTree(strings)
        limited = tree.find_ids(pattern, limit=limit)
        full = set(tree.find_ids(pattern))
        assert len(limited) == min(limit, len(full))
        assert set(limited) <= full


class TestAlgorithm1Properties:
    @given(st.lists(st.integers(0, 40), max_size=10), st.integers(1, 8))
    @settings(max_examples=200, deadline=None)
    def test_exact_cover(self, bin_sizes, processes):
        tasks = assign_tasks(bin_sizes, processes)
        seen = set()
        for task in tasks:
            assert 0 <= task.start <= task.end <= bin_sizes[task.bin_index]
            for index in range(task.start, task.end):
                key = (task.bin_index, index)
                assert key not in seen
                seen.add(key)
        assert len(seen) == sum(bin_sizes)

    @given(st.lists(st.integers(0, 40), max_size=10), st.integers(1, 8))
    @settings(max_examples=200, deadline=None)
    def test_process_ids_in_range(self, bin_sizes, processes):
        for task in assign_tasks(bin_sizes, processes):
            assert 0 <= task.process_id < processes

    @given(st.lists(st.integers(1, 40), min_size=1, max_size=10), st.integers(1, 8))
    @settings(max_examples=200, deadline=None)
    def test_balanced_loads(self, bin_sizes, processes):
        tasks = assign_tasks(bin_sizes, processes)
        loads = {}
        for task in tasks:
            loads[task.process_id] = loads.get(task.process_id, 0) + task.size
        capacity = -(-sum(bin_sizes) // processes)
        # The last process may absorb rounding residue; all others are
        # bounded by the ceiling capacity.
        for pid, load in loads.items():
            if pid != max(loads):
                assert load <= capacity


class TestSimilarityProperties:
    @given(_WORDS, _WORDS)
    @settings(max_examples=300, deadline=None)
    def test_jaro_bounds_and_symmetry(self, a, b):
        score = jaro(a, b)
        assert 0.0 <= score <= 1.0
        assert score == pytest.approx(jaro(b, a))

    @given(_WORDS)
    @settings(max_examples=100, deadline=None)
    def test_jaro_identity(self, a):
        assert jaro(a, a) == 1.0
        assert jaro_winkler(a, a) == 1.0

    @given(_WORDS, _WORDS)
    @settings(max_examples=300, deadline=None)
    def test_jaro_winkler_dominates_jaro(self, a, b):
        assert jaro_winkler(a, b) >= jaro(a, b) - 1e-12
        assert jaro_winkler(a, b) <= 1.0 + 1e-12

    @given(_WORDS, _WORDS)
    @settings(max_examples=300, deadline=None)
    def test_levenshtein_symmetry_and_identity(self, a, b):
        assert levenshtein(a, b) == levenshtein(b, a)
        assert levenshtein(a, a) == 0
        assert levenshtein(a, b) <= max(len(a), len(b))

    @given(_WORDS, _WORDS, _WORDS)
    @settings(max_examples=200, deadline=None)
    def test_levenshtein_triangle_inequality(self, a, b, c):
        assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)


class TestNTriplesProperties:
    @given(
        st.lists(
            st.tuples(
                st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=8),
                st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=8),
                _TEXT,
                st.sampled_from([None, "en", "de", "fr"]),
            ),
            max_size=15,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_roundtrip(self, rows):
        triples = [
            Triple(
                IRI(f"http://x/{s}"),
                IRI(f"http://p/{p}"),
                Literal(text, lang=lang),
            )
            for s, p, text, lang in rows
        ]
        assert list(parse_ntriples(serialize_ntriples(triples))) == triples


class TestStoreProperties:
    @given(
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 3), st.integers(0, 5)),
            max_size=40,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_index_coherence_under_mutation(self, operations):
        """After arbitrary add sequences (duplicates included), every index
        answers every pattern shape consistently with a reference Python set."""
        store = TripleStore()
        reference = set()
        for s, p, o in operations:
            triple = Triple(IRI(f"http://s/{s}"), IRI(f"http://p/{p}"), IRI(f"http://o/{o}"))
            assert store.add(triple) is (triple not in reference)
            reference.add(triple)
        assert len(store) == len(reference)
        assert set(store.triples()) == reference
        # Spot-check the indexed shapes.
        for s in range(6):
            subject = IRI(f"http://s/{s}")
            expected = {t for t in reference if t.subject == subject}
            got = set(store.match(TriplePattern(subject, Variable("p"), Variable("o"))))
            assert got == expected
        for p in range(4):
            predicate = IRI(f"http://p/{p}")
            expected = {t for t in reference if t.predicate == predicate}
            got = set(store.match(TriplePattern(Variable("s"), predicate, Variable("o"))))
            assert got == expected


class TestQueryRoundtripProperties:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["?a", "?b", "<http://x/s>"]),
                st.sampled_from(["<http://x/p>", "<http://x/q>"]),
                st.sampled_from(["?c", '"lit"', '"tagged"@en', "42"]),
            ),
            min_size=1,
            max_size=4,
        ),
        st.booleans(),
        st.one_of(st.none(), st.integers(0, 20)),
    )
    @settings(max_examples=150, deadline=None)
    def test_parse_serialize_parse_fixpoint(self, triples, distinct, limit):
        from repro.sparql import parse_query
        from repro.sparql.serializer import serialize_query

        body = " . ".join(" ".join(t) for t in triples)
        text = f"SELECT {'DISTINCT ' if distinct else ''}* WHERE {{ {body} }}"
        if limit is not None:
            text += f" LIMIT {limit}"
        once = parse_query(text)
        twice = parse_query(serialize_query(once))
        assert serialize_query(once) == serialize_query(twice)


# Full Unicode (hypothesis leaves out lone surrogates, which UTF-8 cannot
# carry): quotes, backslashes, control characters and non-ASCII all need
# JSON escaping, in values and in variable names alike.
_ANY_TEXT = st.text(max_size=12)
_RESULT_TERMS = st.one_of(
    st.builds(IRI, _ANY_TEXT),
    st.builds(BlankNode, _ANY_TEXT),
    st.builds(Literal, _ANY_TEXT),
    st.builds(Literal, _ANY_TEXT, lang=st.sampled_from(["en", "de-CH", "x"])),
    st.builds(Literal, _ANY_TEXT, datatype=st.builds(IRI, st.text(min_size=1, max_size=12))),
)
# A row is a dict in its own key order (the engine's, not ``variables``'),
# with unbound cells either absent or None.
_RESULT_ROWS = st.lists(
    st.dictionaries(_ANY_TEXT, st.one_of(st.none(), _RESULT_TERMS), max_size=4),
    max_size=6,
)


def _reference_document(result):
    """The SPARQL Results JSON document spelled out cell by cell — what
    ``json.dumps`` was handed before the writer joined fragments."""
    bindings = []
    for row in result.rows:
        binding = {}
        for name, term in row.items():
            if isinstance(term, IRI):
                binding[name] = {"type": "uri", "value": term.value}
            elif isinstance(term, BlankNode):
                binding[name] = {"type": "bnode", "value": term.label}
            elif term is not None:
                binding[name] = {"type": "literal", "value": term.lexical}
                if term.lang:
                    binding[name]["xml:lang"] = term.lang
                elif term.datatype is not None:
                    binding[name]["datatype"] = term.datatype.value
        bindings.append(binding)
    return {"head": {"vars": list(result.variables)},
            "results": {"bindings": bindings}}


class TestResultsJsonProperties:
    @given(_RESULT_ROWS, st.sampled_from([1, 2, 1 << 14]))
    @settings(max_examples=300, deadline=None)
    def test_writer_is_json_dumps_and_reader_inverts_it(self, rows, bound):
        from repro.sparql.results import SelectResult

        result = SelectResult(
            variables=sorted({name for row in rows for name in row}), rows=rows)
        expected = json.dumps(_reference_document(result))
        bound_rows = [{name: term for name, term in row.items() if term is not None}
                      for row in rows]
        memos = (formats._FRAGMENTS, formats._TERMS)
        saved = [memo.bound for memo in memos]
        try:
            for memo in memos:
                memo.clear()
                # 1 or 2: every row pushes the tables over their bound.
                memo.bound = bound
            for _ in range(2):  # cold, then warm
                body = formats.write_json(result)
                assert body == expected
                assert formats.result_to_document(result) == json.loads(expected)
                parsed = formats.parse_json(body.encode("utf-8"))
                assert parsed.variables == result.variables
                assert parsed.rows == bound_rows
                assert all(len(memo) <= bound for memo in memos)
        finally:
            for memo, bound in zip(memos, saved):
                memo.clear()
                memo.bound = bound


# ----------------------------------------------------------------------
# Compiled expressions against the reference interpreter
# ----------------------------------------------------------------------

_EXPRESSION_TERMS = st.one_of(
    st.sampled_from([IRI("http://x/a"), IRI("http://x/Abc"), BlankNode("b0")]),
    st.builds(Literal, st.sampled_from(
        ["", "abc", "Abc", "a", "i", "^A", "(", "5", " 7 ", "1e3", "-0.0", "nan", "en"])),
    st.builds(Literal, st.sampled_from(["abc", "", "5"]),
              lang=st.sampled_from(["en", "en-GB", "de"])),
    st.builds(Literal, st.sampled_from(["5", "05", "-3", "0", "abc", ""]),
              datatype=st.just(XSD_INTEGER)),
    st.builds(Literal, st.sampled_from(["1.5", "5.0", "0.0", "bad"]),
              datatype=st.just(XSD_DECIMAL)),
    st.builds(Literal, st.sampled_from(["1e0", "5", "inf", "nan", "x"]),
              datatype=st.just(XSD_DOUBLE)),
    st.builds(Literal, st.sampled_from(["true", "false", "1", " TRUE ", "maybe"]),
              datatype=st.just(XSD_BOOLEAN)),
    st.builds(Literal, st.sampled_from(["abc", "5"]),
              datatype=st.sampled_from([XSD_STRING, IRI("http://x/dt")])),
)
_EXPRESSION_VARIABLES = ["a", "b", "c"]
_EXPRESSION_BINDINGS = st.fixed_dictionaries(
    {}, optional={name: _EXPRESSION_TERMS for name in _EXPRESSION_VARIABLES})
_EXPRESSION_LEAVES = st.builds(TermExpr, st.one_of(
    st.builds(Variable, st.sampled_from(_EXPRESSION_VARIABLES)), _EXPRESSION_TERMS))
_BINARY_OPERATORS = ["&&", "||", "=", "!=", "<", ">", "<=", ">=", "+", "-", "*", "/"]


def _calls(arguments):
    """Calls of all 17 built-ins at every arity their signature allows
    (``BOUND`` mostly of a variable, as the grammar has it)."""
    calls = []
    for name, signature in FUNCTIONS.items():
        for arity in range(signature.min_args, signature.max_args + 1):
            calls.append(st.builds(
                FunctionCall, st.just(name),
                st.tuples(*[_EXPRESSION_LEAVES if name == "BOUND" else arguments] * arity)))
    return st.one_of(calls)


def _expression_trees(depth):
    if depth == 0:
        return _EXPRESSION_LEAVES
    smaller = _expression_trees(depth - 1)
    return st.one_of(
        _EXPRESSION_LEAVES,
        st.builds(UnaryExpr, st.sampled_from(["!", "-"]), smaller),
        st.builds(BinaryExpr, st.sampled_from(_BINARY_OPERATORS), smaller, smaller),
        _calls(smaller),
    )


def _outcome(evaluate, *args):
    """The term ``evaluate`` returns, or ``ExpressionError`` if it raises one."""
    try:
        return evaluate(*args)
    except ExpressionError:
        return ExpressionError


def _constant(lexical, datatype=None):
    return TermExpr(Literal(lexical, datatype=datatype))


class TestExpressionProperties:
    # The edges of the typed shortcuts: NaN equals itself as a term but
    # not as a value; integers compare by value in any lexical form.
    @example(BinaryExpr("=", _constant("nan", XSD_DOUBLE), _constant("nan", XSD_DOUBLE)), {})
    @example(BinaryExpr("=", _constant("05", XSD_INTEGER), _constant("5", XSD_INTEGER)), {})
    @example(BinaryExpr("<", _constant("10", XSD_INTEGER), _constant("9.5", XSD_DECIMAL)), {})
    @example(BinaryExpr("=", _constant("5"), _constant("5.0")), {})
    # An integer too large for the double it meets is an expression error
    # (a 500 on /sparql before), in arithmetic of either division kind.
    @example(BinaryExpr("*", _constant("9" * 400, XSD_INTEGER), _constant("1.5", XSD_DECIMAL)), {})
    @example(BinaryExpr("/", _constant("9" * 400, XSD_INTEGER), _constant("3", XSD_INTEGER)), {})
    @given(_expression_trees(4), _EXPRESSION_BINDINGS)
    @settings(max_examples=400, deadline=None)
    def test_compiled_is_the_reference_interpreter(self, expr, binding):
        expected = _outcome(reference_expression, expr, binding)
        assert _outcome(compile_expression(expr), binding) == expected
        # FILTER position: the effective boolean value, an error drops the row.
        keep = expected is not ExpressionError and _outcome(effective_boolean_value, expected)
        assert compile_filter(expr)(binding) is (keep is True)

    @pytest.mark.parametrize("op, table", [
        ("&&", "TFE FFF EFE"),
        ("||", "TTT TFE TEE"),
    ])
    def test_logical_truth_table(self, op, table):
        """Rows: left true / false / error; columns: right likewise."""
        sides = {
            "T": TermExpr(Literal("true", datatype=XSD_BOOLEAN)),
            "F": TermExpr(Literal("false", datatype=XSD_BOOLEAN)),
            "E": TermExpr(Variable("unbound")),
        }
        outcomes = {"T": Literal("true", datatype=XSD_BOOLEAN),
                    "F": Literal("false", datatype=XSD_BOOLEAN), "E": ExpressionError}
        for left, row in zip("TFE", table.split()):
            for right, cell in zip("TFE", row):
                expr = BinaryExpr(op, sides[left], sides[right])
                assert _outcome(compile_expression(expr), {}) == outcomes[cell], (left, op, right)
                assert _outcome(reference_expression, expr, {}) == outcomes[cell]
