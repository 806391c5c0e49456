"""Evaluation harness: QALD metrics, Table 1 comparison, user study."""

from .metrics import (
    QaldMetrics,
    QuestionOutcome,
    compute_metrics,
    grade,
    mean_confidence_interval,
)
from .qald import PUBLISHED_ROWS, QaldComparison, run_comparison
from .replay import (
    ReplayConfig,
    ReplayLedger,
    ReplayReport,
    SessionScript,
    generate_scripts,
    reconcile,
    replay_scripts,
    run_replay,
    scripts_from_json,
    scripts_to_json,
)
from .reporting import (
    format_grouped_bars,
    format_route_series,
    format_table,
    format_trace,
)
from .userstudy import (
    InteractionRecord,
    Participant,
    QakisPolicy,
    SapphirePolicy,
    StudyResults,
    UserStudy,
    answers_satisfy,
    best_answer_column,
    camelize,
)

__all__ = [
    "QaldMetrics",
    "QuestionOutcome",
    "compute_metrics",
    "grade",
    "mean_confidence_interval",
    "PUBLISHED_ROWS",
    "QaldComparison",
    "run_comparison",
    "format_table",
    "format_grouped_bars",
    "format_route_series",
    "format_trace",
    "ReplayConfig",
    "ReplayLedger",
    "ReplayReport",
    "SessionScript",
    "generate_scripts",
    "scripts_to_json",
    "scripts_from_json",
    "replay_scripts",
    "run_replay",
    "reconcile",
    "Participant",
    "InteractionRecord",
    "SapphirePolicy",
    "QakisPolicy",
    "UserStudy",
    "StudyResults",
    "answers_satisfy",
    "best_answer_column",
    "camelize",
]
