"""Synthetic data: ontology, generator, question workload, NL corpora."""

from .corpus import RELATIONAL_PATTERNS, TEMPLATE_CORPUS, qa_corpus
from .generator import DatasetConfig, SyntheticDataset, build_dataset
from .ontology import (
    ALL_CLASSES,
    CLASS_HIERARCHY,
    LITERAL_PREDICATES,
    PREDICATES,
    ontology_triples,
    root_classes,
    subclasses_of,
)
from .questions import (
    QUESTIONS,
    Question,
    questions_by_difficulty,
    user_study_questions,
)

__all__ = [
    "DatasetConfig",
    "SyntheticDataset",
    "build_dataset",
    "Question",
    "QUESTIONS",
    "questions_by_difficulty",
    "user_study_questions",
    "CLASS_HIERARCHY",
    "ALL_CLASSES",
    "PREDICATES",
    "LITERAL_PREDICATES",
    "ontology_triples",
    "subclasses_of",
    "root_classes",
    "RELATIONAL_PATTERNS",
    "TEMPLATE_CORPUS",
    "qa_corpus",
]
