"""SPARQL engine substrate: parser, algebra, optimizer, evaluator.

The package implements the shared four-stage pipeline — parse
(:mod:`.parser`) → logical algebra (:mod:`.algebra`) → optimize
(:mod:`.algebra` rewrites + :mod:`.plan` operator selection) →
physical execution (:mod:`.plan` operators driven by
:mod:`.evaluator`) — used by local, in-process-federated, and
HTTP-federated execution alike.
"""

from .algebra import (
    AlgebraNode,
    algebra_text,
    normalize,
    translate_group,
    translate_query,
)
from .ast_nodes import (
    Aggregate,
    BinaryExpr,
    Expression,
    FunctionCall,
    GraphPattern,
    OrderCondition,
    Query,
    SelectItem,
    TermExpr,
    UnaryExpr,
    ValuesClause,
)
from .errors import EvaluationError, ExpressionError, ParseError, SparqlError
from .evaluator import QueryEvaluator, evaluate
from .plan import (
    BindJoinNode,
    CompatJoinNode,
    HashJoinNode,
    LeftJoinNode,
    MinusNode,
    PlanNode,
    QueryPlanner,
    ScanNode,
    UnionNode,
    ValuesScanNode,
    explain_plan,
)
from .functions import compile_expression, effective_boolean_value, evaluate_expression
from .parser import parse_query
from .results import AskResult, SelectResult
from .tokens import Token, tokenize
from .trace import QueryTrace, Span, Tracer

__all__ = [
    "parse_query",
    "tokenize",
    "Token",
    "Query",
    "GraphPattern",
    "SelectItem",
    "OrderCondition",
    "ValuesClause",
    "Expression",
    "TermExpr",
    "UnaryExpr",
    "BinaryExpr",
    "FunctionCall",
    "Aggregate",
    "AlgebraNode",
    "translate_group",
    "translate_query",
    "normalize",
    "algebra_text",
    "QueryEvaluator",
    "evaluate",
    "QueryPlanner",
    "PlanNode",
    "ScanNode",
    "HashJoinNode",
    "BindJoinNode",
    "UnionNode",
    "MinusNode",
    "ValuesScanNode",
    "CompatJoinNode",
    "LeftJoinNode",
    "explain_plan",
    "compile_expression",
    "evaluate_expression",
    "effective_boolean_value",
    "Span",
    "QueryTrace",
    "Tracer",
    "SelectResult",
    "AskResult",
    "SparqlError",
    "ParseError",
    "EvaluationError",
    "ExpressionError",
]
