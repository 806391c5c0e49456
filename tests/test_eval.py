"""Unit tests for the evaluation harness (metrics, study machinery)."""

import random

import pytest

from repro.eval import (
    Participant,
    QuestionOutcome,
    compute_metrics,
    format_grouped_bars,
    format_table,
    grade,
    mean_confidence_interval,
)
from repro.eval.userstudy import answers_satisfy, best_answer_column, camelize
from repro.rdf import IRI, Literal, XSD_INTEGER
from repro.sparql.results import SelectResult

A, B, C = IRI("http://x/a"), IRI("http://x/b"), IRI("http://x/c")


class TestGrade:
    def test_right(self):
        assert grade(True, frozenset({A, B}), frozenset({A, B})) == "right"

    def test_partial(self):
        assert grade(True, frozenset({A, C}), frozenset({A, B})) == "partial"

    def test_wrong(self):
        assert grade(True, frozenset({C}), frozenset({A, B})) == "wrong"

    def test_unprocessed(self):
        assert grade(False, frozenset(), frozenset({A})) == "unprocessed"
        assert grade(True, frozenset(), frozenset({A})) == "unprocessed"

    def test_numeric_tolerance(self):
        answers = frozenset({Literal("64", datatype=XSD_INTEGER)})
        gold = frozenset({Literal("64.0")})
        assert grade(True, answers, gold) == "right"

    def test_numeric_mismatch_wrong(self):
        answers = frozenset({Literal("63", datatype=XSD_INTEGER)})
        gold = frozenset({Literal("64", datatype=XSD_INTEGER)})
        assert grade(True, answers, gold) == "wrong"


class TestMetrics:
    def make_outcomes(self):
        gold = frozenset({A})
        return [
            QuestionOutcome("q1", True, frozenset({A}), gold),          # right
            QuestionOutcome("q2", True, frozenset({A, B}), gold),       # partial
            QuestionOutcome("q3", True, frozenset({B}), gold),          # wrong
            QuestionOutcome("q4", False, frozenset(), gold),            # unprocessed
        ]

    def test_counts(self):
        metrics = compute_metrics("sys", self.make_outcomes())
        assert metrics.n_total == 4
        assert metrics.n_processed == 3
        assert metrics.n_right == 1
        assert metrics.n_partial == 1

    def test_recall_precision(self):
        metrics = compute_metrics("sys", self.make_outcomes())
        assert metrics.recall == pytest.approx(0.25)
        assert metrics.partial_recall == pytest.approx(0.5)
        assert metrics.precision == pytest.approx(1 / 3)
        assert metrics.partial_precision == pytest.approx(2 / 3)

    def test_f1_harmonic(self):
        metrics = compute_metrics("sys", self.make_outcomes())
        p, r = metrics.precision, metrics.recall
        assert metrics.f1 == pytest.approx(2 * p * r / (p + r))

    def test_zero_division_safe(self):
        metrics = compute_metrics("sys", [])
        assert metrics.recall == 0.0
        assert metrics.precision == 0.0
        assert metrics.f1 == 0.0

    def test_as_row_has_table1_columns(self):
        row = compute_metrics("sys", self.make_outcomes()).as_row()
        for column in ("system", "#pro", "%", "#ri", "#par", "R", "R*", "P", "P*", "F1", "F1*"):
            assert column in row


class TestConfidenceInterval:
    def test_empty(self):
        assert mean_confidence_interval([]) == (0.0, 0.0)

    def test_single_value(self):
        assert mean_confidence_interval([5.0]) == (5.0, 0.0)

    def test_constant_values(self):
        mean, half = mean_confidence_interval([3.0, 3.0, 3.0])
        assert mean == 3.0
        assert half == 0.0

    def test_known_case(self):
        mean, half = mean_confidence_interval([0.0, 10.0])
        assert mean == 5.0
        assert half > 0


class TestAnswerSatisfaction:
    def make_result(self, rows, variables):
        return SelectResult(variables=variables, rows=rows)

    def test_best_answer_column_picks_overlap(self):
        result = self.make_result(
            [{"x": A, "y": C}, {"x": B, "y": C}], ["x", "y"]
        )
        name, values = best_answer_column(result, frozenset({A, B}))
        assert name == "x"
        assert values == {A, B}

    def test_satisfy_exact_column(self):
        from repro.data import QUESTIONS

        question = next(q for q in QUESTIONS if not q.modifiers)
        result = self.make_result([{"x": A}], ["x"])
        assert answers_satisfy(result, question, frozenset({A}))
        assert not answers_satisfy(result, question, frozenset({A, B}))

    def test_satisfy_count_numeric(self):
        from repro.data import QUESTIONS

        question = next(q for q in QUESTIONS if "count_var" in q.modifiers)
        result = self.make_result(
            [{"count": Literal("4", datatype=XSD_INTEGER)}], ["count"]
        )
        assert answers_satisfy(result, question, frozenset({Literal("4", datatype=XSD_INTEGER)}))
        assert not answers_satisfy(result, question, frozenset({Literal("5", datatype=XSD_INTEGER)}))

    def test_empty_result_never_satisfies(self):
        from repro.data import QUESTIONS

        result = self.make_result([], ["x"])
        assert not answers_satisfy(result, QUESTIONS[0], frozenset({A}))


class TestCamelize:
    @pytest.mark.parametrize(
        "phrase,expected",
        [
            ("time zone", "timeZone"),
            ("vice president", "vicePresident"),
            ("spouse", "spouse"),
            ("number of pages", "numberOfPages"),
            ("", ""),
        ],
    )
    def test_camelize(self, phrase, expected):
        assert camelize(phrase) == expected


class TestParticipants:
    def test_sampled_in_bounds(self):
        rng = random.Random(1)
        for pid in range(50):
            participant = Participant.sample(pid, rng)
            assert 0.65 <= participant.skill <= 0.95
            assert 3 <= participant.patience <= 5
            assert 3 <= participant.qakis_patience <= 4

    def test_expert_is_deterministic_profile(self):
        expert = Participant.expert()
        assert expert.skill == 1.0
        assert expert.typo_rate == 0.0


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table([{"a": 1, "bb": "xx"}, {"a": 22, "bb": "y"}], "T")
        lines = text.splitlines()
        assert lines[0] == "T"
        data_lines = [lines[1]] + lines[3:]  # header + rows (skip separator)
        assert len({line.index("|") for line in data_lines}) == 1

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([], "T")

    def test_format_grouped_bars(self):
        text = format_grouped_bars(
            {"easy": {"A": (50.0, 5.0), "B": (100.0, 2.0)}}, "G", unit="%"
        )
        assert "easy:" in text
        assert "± 5.0%" in text
