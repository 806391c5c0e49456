"""The tree-walking expression interpreter, kept as the specification:
``repro.sparql.functions.evaluate_expression`` as it was before the
closure compiler, verbatim — one recursive call per node, every value a
boxed term — except that a call reads the shared signature table (coerce
each argument, box the native result).  It pins how the general handlers
*compose*: evaluation order, ``&&`` / ``||`` recovery, no typed shortcut."""

from typing import Optional

from repro.rdf import Binding, Term, Variable
from repro.sparql import Aggregate, BinaryExpr, Expression, ExpressionError, FunctionCall, TermExpr, UnaryExpr
from repro.sparql.functions import (
    BOXES, COERCIONS, FALSE, FUNCTIONS, TRUE, _boolean, _compare, _equals, _make_numeric, _numeric_value,
    effective_boolean_value,
)


def evaluate_expression(expr: Expression, binding: Binding) -> Term:
    """Evaluate ``expr`` under ``binding``; returns a ground term."""
    if isinstance(expr, TermExpr):
        term = expr.term
        if isinstance(term, Variable):
            try:
                return binding[term.name]
            except KeyError:
                raise ExpressionError(f"unbound variable ?{term.name}") from None
        return term
    if isinstance(expr, UnaryExpr):
        return _evaluate_unary(expr, binding)
    if isinstance(expr, BinaryExpr):
        return _evaluate_binary(expr, binding)
    if isinstance(expr, FunctionCall):
        return _evaluate_function(expr, binding)
    if isinstance(expr, Aggregate):
        raise ExpressionError("aggregate used outside of aggregation context")
    raise ExpressionError(f"unknown expression node {expr!r}")


def _evaluate_unary(expr: UnaryExpr, binding: Binding) -> Term:
    if expr.op == "!":
        value = effective_boolean_value(evaluate_expression(expr.operand, binding))
        return _boolean(not value)
    if expr.op == "-":
        value = _numeric_value(evaluate_expression(expr.operand, binding))
        return _make_numeric(-value)
    raise ExpressionError(f"unknown unary operator {expr.op}")


def _evaluate_binary(expr: BinaryExpr, binding: Binding) -> Term:
    op = expr.op
    if op == "||":
        # SPARQL logical-or: true if either side is true, error only if
        # neither side can establish the result.
        left_err: Optional[ExpressionError] = None
        try:
            if effective_boolean_value(evaluate_expression(expr.left, binding)):
                return TRUE
            left_ok = True
        except ExpressionError as exc:
            left_err, left_ok = exc, False
        try:
            if effective_boolean_value(evaluate_expression(expr.right, binding)):
                return TRUE
            if left_ok:
                return FALSE
        except ExpressionError:
            raise
        raise left_err  # left errored, right was false
    if op == "&&":
        left_err = None
        try:
            if not effective_boolean_value(evaluate_expression(expr.left, binding)):
                return FALSE
            left_ok = True
        except ExpressionError as exc:
            left_err, left_ok = exc, False
        try:
            if not effective_boolean_value(evaluate_expression(expr.right, binding)):
                return FALSE
            if left_ok:
                return TRUE
        except ExpressionError:
            raise
        raise left_err
    left = evaluate_expression(expr.left, binding)
    right = evaluate_expression(expr.right, binding)
    if op == "=":
        return _boolean(_equals(left, right))
    if op == "!=":
        return _boolean(not _equals(left, right))
    if op in ("<", ">", "<=", ">="):
        return _boolean(_compare(op, left, right))
    if op in ("+", "-", "*", "/"):
        lv, rv = _numeric_value(left), _numeric_value(right)
        try:
            if op == "+":
                return _make_numeric(lv + rv)
            if op == "-":
                return _make_numeric(lv - rv)
            if op == "*":
                return _make_numeric(lv * rv)
            if rv == 0:
                raise ExpressionError("division by zero")
            return _make_numeric(lv / rv)
        except OverflowError:  # an integer too large for the double it meets
            raise ExpressionError("numeric overflow") from None
    raise ExpressionError(f"unknown binary operator {op}")


def _evaluate_function(expr: FunctionCall, binding: Binding) -> Term:
    if expr.name == "BOUND":
        if len(expr.args) != 1 or not isinstance(expr.args[0], TermExpr) or not isinstance(
            expr.args[0].term, Variable
        ):
            raise ExpressionError("BOUND requires a single variable argument")
        return _boolean(expr.args[0].term.name in binding)
    signature = FUNCTIONS.get(expr.name)
    if signature is None:
        raise ExpressionError(f"unknown function {expr.name}")
    args = [evaluate_expression(arg, binding) for arg in expr.args]
    coerce = COERCIONS[signature.params][0] or (lambda term: term)
    box = BOXES.get(signature.result, lambda term: term)
    return box(signature.handler(*[coerce(arg) for arg in args]))
