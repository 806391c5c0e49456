"""Unit tests for the Query Suggestion Module (Section 6.2)."""

import pytest

from repro.core import (
    AlternativeTermsFinder,
    QueryBuilder,
    SapphireCache,
    StructureRelaxer,
    load_cache,
    save_cache,
)
from repro.core.qsm_relax import GraphExpander
from repro.core.qsm_terms import _ScanTally
from repro.rdf import DBO, FOAF, IRI, Literal, Variable
from repro.sparql.parser import parse_query
from repro.sparql.serializer import select_query
from repro.sparql.trace import Tracer
from repro.text import ThresholdScorer


@pytest.fixture(scope="module")
def runner(server):
    return server._run_ast


@pytest.fixture(scope="module")
def proof(server):
    return server._proves_no_match


@pytest.fixture(scope="module")
def finder(server, runner, proof):
    return AlternativeTermsFinder(server.cache, runner, proof, server.config)


@pytest.fixture(scope="module")
def relaxer(server, runner):
    return StructureRelaxer(server.cache, runner, server.config)


class TestPredicateAlternatives:
    def test_lexicon_bridges_wife_to_spouse(self, finder):
        alternatives = finder.predicate_alternatives(DBO.term("wife"))
        terms = [entry.term for entry, _ in alternatives]
        assert DBO.spouse in terms

    def test_jw_similarity_finds_close_names(self, finder):
        alternatives = finder.predicate_alternatives(DBO.term("spouses"))
        terms = [entry.term for entry, _ in alternatives]
        assert DBO.spouse in terms

    def test_original_predicate_excluded(self, finder):
        alternatives = finder.predicate_alternatives(DBO.spouse)
        assert all(entry.term != DBO.spouse for entry, _ in alternatives)

    def test_scores_above_theta(self, finder):
        for _, score in finder.predicate_alternatives(DBO.term("wife")):
            assert score >= finder.config.theta

    def test_sorted_by_score(self, finder):
        scores = [s for _, s in finder.predicate_alternatives(DBO.term("birthPlaces"))]
        assert scores == sorted(scores, reverse=True)

    def test_unknown_predicate_no_alternatives(self, finder):
        assert finder.predicate_alternatives(DBO.term("zzzzzz")) == []


class TestLiteralAlternatives:
    def test_kennedys_finds_kennedy(self, finder):
        """Figure 2's example: 'Kennedys' -> 'Kennedy'."""
        alternatives = finder.literal_alternatives(Literal("Kennedys", lang="en"))
        surfaces = [entry.surface for entry, _ in alternatives]
        assert "Kennedy" in surfaces

    def test_alpha_beta_window(self, finder):
        """Only literals within [|l|-α, |l|+β] are considered."""
        alternatives = finder.literal_alternatives(Literal("Kennedys", lang="en"))
        for entry, _ in alternatives:
            assert len("Kennedys") - 2 <= len(entry.surface) <= len("Kennedys") + 3

    def test_self_excluded(self, finder):
        alternatives = finder.literal_alternatives(Literal("Kennedy", lang="en"))
        assert all(entry.surface.lower() != "kennedy" for entry, _ in alternatives)

    def test_scores_above_theta(self, finder):
        for _, score in finder.literal_alternatives(Literal("Sydney", lang="en")):
            assert score >= finder.config.theta


class TestColumnScan:
    """Every scan goes through the bulk kernel over the bins' columns.
    Counts, not timings: a change that routes the scan back through one
    scorer call per candidate fails here."""

    @pytest.fixture(scope="class")
    def tail_cache(self, server):
        """A suffix tree too small for the literals: most of them sit in
        the residual bins, some in the tree-resident bins."""
        cache = server.cache.copy_with_capacity(150)
        assert cache.n_residual_literals > 200 and len(cache.tree_literal_bins) > 0
        return cache

    @pytest.fixture(scope="class", params=["memory", "tiered"])
    def tail_finder(self, request, tail_cache, runner, proof, tmp_path_factory):
        """A finder over that cache, or over a tiered cache of its file
        (the residual bins loaded from disk)."""
        if request.param == "memory":
            yield AlternativeTermsFinder(tail_cache, runner, proof, tail_cache.config)
            return
        path = tmp_path_factory.mktemp("column-scan") / "cache.sqlite"
        save_cache(tail_cache, path)
        tiered = load_cache(path, tail_cache.config)
        assert tiered.n_residual_literals == tail_cache.n_residual_literals
        yield AlternativeTermsFinder(tiered, runner, proof, tiered.config)
        tiered.close()

    @pytest.fixture(scope="class")
    def window(self, tail_cache):
        """``window(surface)``: the literals the α/β window of
        ``surface`` holds, from the in-memory bins."""
        config = tail_cache.config

        def literals(surface):
            low, high = max(1, len(surface) - config.alpha), len(surface) + config.beta
            return [
                literal
                for bins in (tail_cache.bins, tail_cache.tree_literal_bins)
                for column_bin in bins.window(low, high)
                for literal in column_bin.literals
            ]

        return literals

    @pytest.mark.parametrize("surface", ["Kennedys", "Sydny", "Tom Hnks"])
    def test_pairwise_scorer_sees_only_same_first_character(
        self, tail_finder, window, surface, monkeypatch
    ):
        calls = []
        pairwise = ThresholdScorer.__call__
        monkeypatch.setattr(
            ThresholdScorer, "__call__",
            lambda self, candidate: calls.append(candidate) or pairwise(self, candidate),
        )
        found = tail_finder.literal_alternatives(Literal(surface, lang="en"))
        assert found
        literals = window(surface)
        same_first = [literal for literal in literals if literal[0] == surface[0].lower()]
        assert sorted(calls) == sorted(same_first)  # once each, and no one else
        assert len(calls) < len(literals) / 4

    def test_span_counts_come_from_the_bins(self, tail_finder, window):
        """``foaf:surname`` is a cached predicate, answered from the
        vocabulary table: the scorers see the literal window alone, and
        ``kept`` still counts the predicate's candidates that reached θ."""
        query = parse_query('SELECT ?p WHERE { ?p foaf:surname "Kennedys"@en }')
        tracer = Tracer()
        tail_finder.candidate_positions(query, tracer=tracer)
        span = next(s for s in tracer.finish().walk() if s.name == "qsm-alternatives")
        scanned = len(window("Kennedys"))
        assert span.attrs["vocabulary_hits"] == 1
        assert span.attrs["scanned"] == scanned
        assert span.attrs["bounded_out"] + span.attrs["scored"] == scanned
        assert span.attrs["bounded_out"] > span.attrs["scored"] >= 1
        literal = _ScanTally()
        tail_finder.literal_alternatives(Literal("Kennedys", lang="en"), literal)
        _, predicate_kept = request_time_scan(tail_finder, FOAF.surname)
        assert span.attrs["kept"] == literal.kept + predicate_kept > literal.kept


def request_time_scan(finder, term, tally=None):
    """The scan ``predicate_alternatives`` runs for a term the vocabulary
    table does not answer, over the cache as it is now."""
    cache = finder.cache
    return finder._scan_predicate(
        term, cache.dictionary.lookup(term), cache.predicate_class_scan(), tally)


def answer(found):
    return [(entry.term_id, entry.kind, entry.surface, score) for entry, score in found]


class TestVocabularyTable:
    """Every cached predicate and class is scored once, when the finder
    is built; what the table answers must be what the request-time scan
    would, bit for bit, on every kind of cache."""

    @pytest.fixture(scope="class", params=["memory", "tiered", "replica"])
    def vocabulary_finder(self, request, server, runner, proof, tmp_path_factory):
        """A finder over the in-memory cache, over a tiered cache of its
        file, or the one a read-only pre-fork replica boots with."""
        if request.param == "memory":
            yield AlternativeTermsFinder(server.cache, runner, proof, server.config)
            return
        path = tmp_path_factory.mktemp("vocabulary") / "cache.sqlite"
        save_cache(server.cache, path)
        if request.param == "tiered":
            tiered = load_cache(path, server.config)
            yield AlternativeTermsFinder(tiered, runner, proof, server.config)
            tiered.close()
            return
        from repro.net.prefork import build_backend_from_spec

        replica = build_backend_from_spec({
            "scale": "tiny", "sapphire": True, "cache_snapshot": str(path),
            "tree_capacity": server.config.suffix_tree_capacity,
        })
        # Built at boot, not by the first /suggest.
        assert replica._terms_finder is not None
        yield replica.terms_finder
        replica.cache.close()

    def test_every_entry_answers_like_a_fresh_scan(self, vocabulary_finder):
        finder = vocabulary_finder
        entries, _ = finder.cache.predicate_class_scan()
        terms = list(dict.fromkeys(entry.term for entry in entries))
        assert len(terms) > 50
        truncated = 0
        for term in terms:
            tally = _ScanTally()
            found = finder.predicate_alternatives(term, tally)
            assert (tally.vocabulary_hits, tally.scanned, tally.scored) == (1, 0, 0)
            fresh = _ScanTally()
            expected, kept = request_time_scan(finder, term, fresh)
            assert fresh.scanned > 0
            assert answer(found) == answer(expected), term
            assert tally.kept == kept, term
            truncated += kept > len(found)
        # ``kept`` counts before the cut to ``max_alternatives_per_term``.
        assert truncated > 0

    def test_other_terms_are_scanned(self, vocabulary_finder):
        for term in (DBO.term("spuse"), DBO.term("wife"), IRI("http://dbpedia.org/resource/Tom_Hanks")):
            tally = _ScanTally()
            found = vocabulary_finder.predicate_alternatives(term, tally)
            expected, kept = request_time_scan(vocabulary_finder, term)
            assert tally.vocabulary_hits == 0 and tally.scanned > 0
            assert answer(found) == answer(expected) and tally.kept == kept

    def test_a_cache_changed_since_answers_like_a_new_finder(self, server, runner, proof):
        cache = SapphireCache(server.config)
        cache.merge(server.cache)
        cache.build_indexes()
        finder = AlternativeTermsFinder(cache, runner, proof, server.config)
        before = answer(finder.predicate_alternatives(DBO.spouse))
        added = DBO.term("spouseOf")
        cache.add_predicate(added)
        terms = list(dict.fromkeys(entry.term for entry in cache.predicate_class_scan()[0]))
        rebuilt = AlternativeTermsFinder(cache, runner, proof, server.config)
        for term in terms:
            tally = _ScanTally()
            found = finder.predicate_alternatives(term, tally)
            assert tally.vocabulary_hits == 0 and tally.scanned > 0
            assert answer(found) == answer(rebuilt.predicate_alternatives(term)), term
        after = finder.predicate_alternatives(DBO.spouse)
        assert added in [entry.term for entry, _ in after]
        assert answer(after) != before


class TestSuggest:
    def test_kennedys_suggestion_end_to_end(self, server):
        builder = QueryBuilder().triple(
            Variable("person"), FOAF.surname, Literal("Kennedys", lang="en")
        )
        outcome = server.run_query(builder)
        assert not outcome.has_answers
        literal_suggestions = [s for s in outcome.term_suggestions if s.kind == "literal"]
        assert literal_suggestions
        best = literal_suggestions[0]
        assert best.replacement == Literal("Kennedy", lang="en")
        assert best.n_answers > 0
        assert "did you mean" in best.message()

    def test_suggestions_carry_prefetched_answers(self, server):
        builder = QueryBuilder().triple(
            Variable("person"), FOAF.surname, Literal("Kennedys", lang="en")
        )
        outcome = server.run_query(builder)
        for suggestion in outcome.term_suggestions:
            assert suggestion.prefetched is not None
            assert len(suggestion.prefetched.rows) == suggestion.n_answers

    def test_suggestion_changes_one_term_only(self, server):
        builder = (QueryBuilder()
                   .triple(Variable("p"), DBO.term("wifes"), Variable("w"))
                   .triple(Variable("p"), FOAF.name, Literal("Tom Hanks", lang="en")))
        outcome = server.run_query(builder)
        for suggestion in outcome.term_suggestions:
            original_patterns = outcome.query.where.patterns
            new_patterns = suggestion.query.where.patterns
            diffs = sum(
                1 for a, b in zip(original_patterns, new_patterns) if a != b
            )
            assert diffs == 1

    def test_suggestions_for_answering_query_too(self, server):
        """Suggestions are provided even when the query has answers."""
        builder = QueryBuilder().triple(
            Variable("person"), FOAF.surname, Literal("Kennedy", lang="en")
        )
        outcome = server.run_query(builder)
        assert outcome.has_answers
        # QSM ran (it may or may not find better alternatives).
        assert outcome.qsm_seconds > 0


class TestGraphExpander:
    def test_literal_expansion_one_query(self, runner):
        expander = GraphExpander(runner, budget=10)
        edges = expander.expand(Literal("Viking Press", lang="en"))
        assert expander.queries_used == 1
        assert edges
        assert all(isinstance(p, IRI) for _, p, _ in edges)

    def test_uri_expansion_two_queries(self, runner, tiny_dataset):
        expander = GraphExpander(runner, budget=10)
        expander.expand(tiny_dataset.iri("Viking_Press"))
        assert expander.queries_used == 3 - 1  # 2 queries for a URI

    def test_memoization(self, runner):
        expander = GraphExpander(runner, budget=10)
        lit = Literal("Viking Press", lang="en")
        first = expander.expand(lit)
        used = expander.queries_used
        second = expander.expand(lit)
        assert expander.queries_used == used
        assert first == second

    def test_budget_exhaustion_returns_none(self, runner, tiny_dataset):
        expander = GraphExpander(runner, budget=1)
        assert expander.expand(tiny_dataset.iri("Viking_Press")) is None

    def test_schema_edges_excluded(self, runner, tiny_dataset):
        from repro.rdf import RDF_TYPE

        expander = GraphExpander(runner, budget=10)
        edges = expander.expand(tiny_dataset.iri("Jack_Kerouac"))
        assert all(p != RDF_TYPE for _, p, _ in edges)


class TestRelaxerQueriesArePlanned:
    """The two shapes ``StructureRelaxer`` sends that the planner used
    to decline — counts, not timings."""

    @pytest.mark.parametrize("scale", ["tiny", "small"])
    def test_seed_batch_costs_its_rows_not_a_store_scan(self, scale, tiny_dataset):
        """``?s ?p ?v VALUES ?v {…}`` with the user's misspelled literal
        (unknown to the store) among the seeds is one index probe per
        seed: its metered cost is bounded by what it returns, not by
        (|VALUES| + 1) x triples."""
        from repro import EndpointConfig, SparqlEndpoint
        from repro.data import DatasetConfig, build_dataset

        dataset = tiny_dataset if scale == "tiny" else build_dataset(DatasetConfig.small())
        endpoint = SparqlEndpoint(dataset.store, EndpointConfig(timeout_s=1.0), name="budgeted")
        seeds = [
            Literal("Viking Press", lang="en"), Literal("Tom Hanks", lang="en"),
            Literal("Kennedy", lang="en"), Literal("Kennedys", lang="en"),  # never stored
            dataset.iri("Jack_Kerouac"), dataset.iri("New_York_City"),
        ]
        assert dataset.store.term_id(seeds[3]) < 0 <= min(map(dataset.store.term_id, seeds[:3]))
        expander = GraphExpander(endpoint.select, budget=10)
        expander.expand_many(seeds)
        assert expander.queries_used == 2 and len(endpoint.log) == 2
        for entry, n_values in zip(endpoint.log, (6, 2)):
            assert entry.outcome == "ok" and entry.rows > 0
            assert entry.cost < 1_000
            assert entry.cost <= 4 * (entry.rows + n_values)
        # The batch is memoized: every seed expands for free, the unseen one to nothing.
        assert [bool(expander.expand(seed)) for seed in seeds] == [True, True, True, False, True, True]
        assert expander.queries_used == 2

    def test_stars_meeting_only_in_constants_are_keyless_hash_joins(
        self, store, reference_evaluate
    ):
        from repro.sparql.evaluator import QueryEvaluator
        from repro.sparql.plan import HashJoinNode, QueryPlanner

        query = parse_query(
            'SELECT ?a ?g ?b ?t ?w WHERE { ?a foaf:surname "Kennedy"@en . ?a foaf:givenName ?g . '
            '?b rdfs:label "Viking Press"@en . ?b a ?t . '
            '?c foaf:name "Tom Hanks"@en . ?c dbo:spouse ?w }'
        )

        def walk(node):
            yield node
            for child in node.children():
                yield from walk(child)

        plan = QueryPlanner(store).plan(query.where)
        joins = [node for node in walk(plan) if isinstance(node, HashJoinNode) and not node.keys]
        assert len(joins) == 2 and all(join.label() == "HashJoin(on -)" for join in joins)

        def bag(result):
            return sorted(sorted((k, v.n3()) for k, v in row.items()) for row in result.rows)

        result = QueryEvaluator(store).evaluate(query)
        assert len(result.rows) >= 12 and bag(result) == bag(reference_evaluate(store, query))


class TestRelaxation:
    def test_figure6_kerouac_viking(self, server):
        """The paper's flagship example: broken structure repaired by the
        Steiner-tree relaxation, finding the two Viking Press books."""
        builder = (QueryBuilder()
                   .triple(Variable("book"), DBO.term("writer"), Literal("Jack Kerouac", lang="en"))
                   .triple(Variable("book"), DBO.publisher, Literal("Viking Press", lang="en")))
        outcome = server.run_query(builder)
        assert not outcome.has_answers
        assert outcome.relaxations
        best = outcome.relaxations[0]
        answers = set()
        for row in best.prefetched.rows:
            answers.update(str(v) for v in row.values())
        assert any("On_the_Road" in a for a in answers)
        assert any("Door_Wide_Open" in a for a in answers)

    def test_relaxed_query_uses_author_publisher_path(self, server):
        builder = (QueryBuilder()
                   .triple(Variable("book"), DBO.term("writer"), Literal("Jack Kerouac", lang="en"))
                   .triple(Variable("book"), DBO.publisher, Literal("Viking Press", lang="en")))
        outcome = server.run_query(builder)
        steiner = [r for r in outcome.relaxations if r.tree_edges]
        assert steiner
        text = steiner[0].query_text
        assert "author" in text
        assert "publisher" in text

    def test_budget_respected(self, server):
        builder = (QueryBuilder()
                   .triple(Variable("b"), DBO.term("writer"), Literal("Jack Kerouac", lang="en"))
                   .triple(Variable("b"), DBO.publisher, Literal("Viking Press", lang="en")))
        outcome = server.run_query(builder)
        for relaxation in outcome.relaxations:
            assert relaxation.queries_used <= server.config.relaxation_query_budget

    def test_single_literal_grounding(self, server, tiny_dataset):
        """M10-style: one literal on an entity-valued predicate."""
        builder = (QueryBuilder()
                   .triple(Variable("sci"), DBO.almaMater,
                           Literal("Princeton University", lang="en")))
        outcome = server.run_query(builder)
        assert not outcome.has_answers
        grounding = [r for r in outcome.relaxations if not r.tree_edges]
        assert grounding
        answers = grounding[0].prefetched.value_set("sci")
        assert tiny_dataset.iri("John_Nash_Like") in answers

    def test_no_literals_no_relaxation(self, relaxer):
        query = select_query(
            [  # all-variable query: nothing to connect
                __import__("repro.rdf", fromlist=["TriplePattern"]).TriplePattern(
                    Variable("s"), Variable("p"), Variable("o")
                )
            ]
        )
        assert relaxer.relax(query) == []
        assert relaxer.ground_literals(query) == []

    def test_seed_groups_contain_alternatives(self, relaxer):
        from repro.rdf import TriplePattern

        query = select_query([
            TriplePattern(Variable("b"), DBO.publisher, Literal("Viking Press", lang="en")),
            TriplePattern(Variable("b"), DBO.author, Literal("Jack Kerouac", lang="en")),
        ])
        groups = relaxer.seed_groups(
            query,
            {Literal("Viking Press", lang="en"): [Literal("Viking Pres", lang="en")]},
        )
        assert len(groups) == 2
        viking_group = next(g for g in groups if Literal("Viking Press", lang="en") in g)
        assert Literal("Viking Pres", lang="en") in viking_group

    def test_duplicate_literals_form_one_group(self, relaxer):
        from repro.rdf import TriplePattern

        same = Literal("Clint Eastwood", lang="en")
        query = select_query([
            TriplePattern(Variable("f"), DBO.starring, same),
            TriplePattern(Variable("f"), DBO.director, same),
        ])
        assert len(relaxer.seed_groups(query)) == 1
