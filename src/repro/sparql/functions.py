"""SPARQL expression compilation.

Implements the function library and operator semantics needed by the
paper's queries (Appendix A) and the PUM: type-checking predicates
(``isLiteral``/``isIRI``), accessors (``lang``, ``str``, ``strlen``,
``datatype``), string tests (``regex``, ``contains``, ``strStarts``,
``strEnds``, ``langMatches``), case mapping, numeric comparison and
arithmetic, and the SPARQL effective boolean value rules.

An expression is compiled once, in one pass over its AST, into nested
closures (:func:`compile_expression`, :func:`compile_filter`): node
type, operator and handler are resolved at compile time, and each node
computes in the unboxed Python type its *kind* allows — ``bool`` for
logic, comparisons and type tests, a number for ``STRLEN`` / ``ABS`` /
arithmetic / numeric constants, ``str`` for ``STR`` / ``LANG`` / plain
constants — boxed into a :class:`Literal` only where a consumer needs a
term.  A typed shortcut is taken only where it is the general rule
(:func:`_equals`, :func:`_compare`) specialised to operand kinds known
at compile time; everything else calls the general handlers, stated
once, here.  ``tests/reference_expressions.py`` is the interpreter the
closures replaced, the specification they are property-tested against.

Errors follow the SPARQL model: an evaluation error raises
:class:`ExpressionError`; FILTER treats an error as "drop the row", and
``||``/``&&`` recover when one side suffices to decide the result.
Compiling never raises: a node that cannot be evaluated (an unknown
operator, a constant ``REGEX`` that is no pattern) raises per row.
"""

from __future__ import annotations

import operator
import re
from typing import Callable, Dict, NamedTuple, Optional, Tuple, Union

from ..rdf.terms import (
    IRI,
    XSD_BOOLEAN,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_INTEGER,
    XSD_STRING,
    BlankNode,
    Literal,
    Term,
    Variable,
)
from ..rdf.triples import Binding
from .ast_nodes import (
    Aggregate,
    BinaryExpr,
    Expression,
    FunctionCall,
    TermExpr,
    UnaryExpr,
)
from .errors import ExpressionError

__all__ = [
    "compile_expression",
    "compile_filter",
    "evaluate_expression",
    "arity_error",
    "effective_boolean_value",
    "TRUE",
    "FALSE",
]

TRUE = Literal("true", datatype=XSD_BOOLEAN)
FALSE = Literal("false", datatype=XSD_BOOLEAN)


def _boolean(value: bool) -> Literal:
    return TRUE if value else FALSE


def effective_boolean_value(term: Term) -> bool:
    """SPARQL EBV: booleans by value, numbers by non-zero, strings by non-empty."""
    if isinstance(term, Literal):
        if term.datatype == XSD_BOOLEAN:
            return term.lexical.strip().lower() in ("true", "1")
        if term.is_numeric():
            try:
                return float(term.lexical) != 0.0
            except ValueError:
                raise ExpressionError(f"ill-formed numeric literal {term.lexical!r}")
        return len(term.lexical) > 0
    raise ExpressionError(f"no effective boolean value for {term!r}")


def _numeric_value(term: Term) -> Union[int, float]:
    if isinstance(term, Literal):
        try:
            if term.datatype == XSD_INTEGER:
                return int(term.lexical)
            if term.datatype in (XSD_DECIMAL, XSD_DOUBLE):
                return float(term.lexical)
            # Untyped literals that look numeric participate in arithmetic;
            # this mirrors the forgiving behaviour of public endpoints.
            return int(term.lexical) if term.lexical.lstrip("+-").isdigit() else float(term.lexical)
        except ValueError:
            raise ExpressionError(f"not a number: {term.lexical!r}") from None
    raise ExpressionError(f"not a numeric literal: {term!r}")


def _string_value(term: Term) -> str:
    """The STR() coercion: IRIs to their text, literals to lexical form."""
    if isinstance(term, Literal):
        return term.lexical
    if isinstance(term, IRI):
        return term.value
    raise ExpressionError(f"STR not defined for {term!r}")


_ORDERS = {"<": operator.lt, ">": operator.gt, "<=": operator.le, ">=": operator.ge}


def _compare(op: str, left: Term, right: Term) -> bool:
    """Order comparison with numeric promotion, else string comparison."""
    if isinstance(left, Literal) and isinstance(right, Literal):
        if (left.is_numeric() or right.is_numeric()) or (
            _looks_numeric(left) and _looks_numeric(right)
        ):
            try:
                return _ORDERS[op](_numeric_value(left), _numeric_value(right))
            except ExpressionError:
                pass
        return _ORDERS[op](left.lexical, right.lexical)
    raise ExpressionError(f"cannot order {left!r} and {right!r}")


def _looks_numeric(literal: Literal) -> bool:
    text = literal.lexical.strip()
    if not text:
        return False
    try:
        float(text)
    except ValueError:
        return False
    return True


def _equals(left: Term, right: Term) -> bool:
    if left == right:
        return True
    if isinstance(left, Literal) and isinstance(right, Literal):
        # numeric value equality across types (1 = 1.0)
        if _looks_numeric(left) and _looks_numeric(right) and (
            left.is_numeric() or right.is_numeric()
        ):
            try:
                return _numeric_value(left) == _numeric_value(right)
            except ExpressionError:
                return False
        # simple literal vs xsd:string equivalence
        if left.lexical == right.lexical and left.lang is None and right.lang is None:
            ldt = left.datatype or XSD_STRING
            rdt = right.datatype or XSD_STRING
            return ldt == rdt
    return False


def _make_numeric(value: Union[int, float]) -> Literal:
    if isinstance(value, int):
        return Literal(str(value), datatype=XSD_INTEGER)
    return Literal(repr(value), datatype=XSD_DOUBLE)


def _lexical_form(term: Term) -> str:
    if not isinstance(term, Literal):
        raise ExpressionError(f"not a literal: {term!r}")
    return term.lexical


def _divide(lv, rv):
    if rv == 0:
        raise ExpressionError("division by zero")
    return lv / rv


_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": _divide}


# ----------------------------------------------------------------------
# The function library: native arguments in, native result out
# ----------------------------------------------------------------------


def _is_a(cls: type) -> Callable[[Term], bool]:
    return lambda term: isinstance(term, cls)


def _fn_lang(term: Term) -> str:
    if not isinstance(term, Literal):
        raise ExpressionError("LANG requires a literal")
    return term.lang or ""


def _regex(pattern: str, flags: str = "") -> "re.Pattern[str]":
    try:
        return re.compile(pattern, re.IGNORECASE if "i" in flags else 0)
    except re.error as exc:
        raise ExpressionError(f"bad regex {pattern!r}: {exc}") from None


def _fn_regex(text: str, pattern: str, flags: str = "") -> bool:
    return _regex(pattern, flags).search(text) is not None


def _fn_contains(text: str, needle: str) -> bool:
    return needle in text


def _fn_langmatches(tag: str, rng: str) -> bool:
    tag, rng = tag.lower(), rng.lower()
    if rng == "*":
        return bool(tag)
    return tag == rng or tag.startswith(rng + "-")


def _fn_lcase(term: Term) -> Term:
    return Literal(_lexical_form(term).lower(), lang=term.lang, datatype=term.datatype)


def _fn_ucase(term: Term) -> Term:
    return Literal(_lexical_form(term).upper(), lang=term.lang, datatype=term.datatype)


def _fn_datatype(term: Term) -> Term:
    if not isinstance(term, Literal):
        raise ExpressionError("DATATYPE requires a literal")
    if term.lang is not None:
        return IRI("http://www.w3.org/1999/02/22-rdf-syntax-ns#langString")
    return term.datatype or XSD_STRING


#: The kinds of value a compiled node can compute unboxed (``None``: a
#: term), each with the constructor that boxes it.  ``integer`` is the
#: ``number`` that is always an ``xsd:integer``.
_BOOL, _INTEGER, _NUMBER, _PLAIN = "bool", "integer", "number", "plain"
BOXES: Dict[Optional[str], Callable] = {
    _BOOL: _boolean, _INTEGER: _make_numeric, _NUMBER: _make_numeric, _PLAIN: Literal,
}
#: What a handler's parameters are passed as, with the coercion that
#: makes it of a term and the kinds whose native value it already is.
COERCIONS: Dict[str, Tuple[Optional[Callable], Tuple[str, ...]]] = {
    "term": (None, ()),
    "string": (_string_value, (_PLAIN,)),
    "lexical": (_lexical_form, (_PLAIN,)),
    "number": (_numeric_value, (_INTEGER, _NUMBER)),
}


class Signature(NamedTuple):
    """One built-in: its arity, what its handler takes and returns."""

    min_args: int
    max_args: int
    handler: Optional[Callable]  #: None: compiled specially (BOUND)
    result: Optional[str]  #: the kind of the handler's result
    params: str  #: the COERCIONS view every argument is passed in


#: The one table of built-ins: the parser's known-function and arity
#: check, the compiler and the reference interpreter all read it.
FUNCTIONS: Dict[str, Signature] = {
    "ISLITERAL": Signature(1, 1, _is_a(Literal), _BOOL, "term"),
    "ISIRI": Signature(1, 1, _is_a(IRI), _BOOL, "term"),
    "ISURI": Signature(1, 1, _is_a(IRI), _BOOL, "term"),
    "ISBLANK": Signature(1, 1, _is_a(BlankNode), _BOOL, "term"),
    "BOUND": Signature(1, 1, None, _BOOL, "term"),
    "LANG": Signature(1, 1, _fn_lang, _PLAIN, "term"),
    "STR": Signature(1, 1, _string_value, _PLAIN, "term"),
    "STRLEN": Signature(1, 1, len, _INTEGER, "lexical"),
    "REGEX": Signature(2, 3, _fn_regex, _BOOL, "string"),
    "CONTAINS": Signature(2, 2, _fn_contains, _BOOL, "string"),
    "STRSTARTS": Signature(2, 2, str.startswith, _BOOL, "string"),
    "STRENDS": Signature(2, 2, str.endswith, _BOOL, "string"),
    "LANGMATCHES": Signature(2, 2, _fn_langmatches, _BOOL, "string"),
    "LCASE": Signature(1, 1, _fn_lcase, None, "term"),
    "UCASE": Signature(1, 1, _fn_ucase, None, "term"),
    "DATATYPE": Signature(1, 1, _fn_datatype, None, "term"),
    "ABS": Signature(1, 1, abs, _NUMBER, "number"),
}


def arity_error(name: str, n_args: int) -> Optional[str]:
    """Why ``name`` cannot be called with ``n_args`` arguments, or None."""
    low, high = FUNCTIONS[name][:2]
    if low <= n_args <= high:
        return None
    expected = f"{low} to {high} arguments" if low != high else f"{low} argument" + "s" * (low != 1)
    return f"{name} takes {expected}, got {n_args}"


# ----------------------------------------------------------------------
# The compiler
# ----------------------------------------------------------------------

Evaluator = Callable[[Binding], object]


class _Compiled(NamedTuple):
    """One compiled node: ``native(binding)`` is its value in the unboxed
    type ``kind`` names; ``term`` is set where boxing ``native`` would
    not give the node's term back (a constant keeps its own datatype)."""

    kind: Optional[str]
    native: Evaluator
    term: Optional[Evaluator] = None

    def view(self, param: str) -> Evaluator:
        """This node as a handler parameter of COERCIONS view ``param``."""
        coerce, native_kinds = COERCIONS[param]
        if self.kind in native_kinds:
            return self.native
        term = self.term
        if term is None:
            box, native = BOXES.get(self.kind), self.native
            term = native if box is None else (lambda binding: box(native(binding)))
        if coerce is None:
            return term
        return lambda binding: coerce(term(binding))

    def truth(self) -> Evaluator:
        """This node's effective boolean value."""
        if self.kind == _BOOL:
            return self.native
        term = self.view("term")
        return lambda binding: effective_boolean_value(term(binding))


def _failing(message: str) -> _Compiled:
    def fail(binding: Binding):
        raise ExpressionError(message)

    return _Compiled(None, fail)


def _constant(term: Term) -> _Compiled:
    """A ground term; a plain or well-formed numeric literal has its value ready."""
    kind, value = None, term
    if isinstance(term, Literal):
        if term.datatype is None and term.lang is None:
            kind, value = _PLAIN, term.lexical
        elif term.is_numeric():
            try:
                value = _numeric_value(term)
                kind = _INTEGER if term.datatype == XSD_INTEGER else _NUMBER
            except ExpressionError:
                pass
    return _Compiled(kind, lambda binding: value, lambda binding: term)


def _variable(name: str) -> _Compiled:
    def lookup(binding: Binding) -> Term:
        try:
            return binding[name]
        except KeyError:
            raise ExpressionError(f"unbound variable ?{name}") from None

    return _Compiled(None, lookup)


def _compile(expr: Expression) -> _Compiled:
    if isinstance(expr, TermExpr):
        term = expr.term
        return _variable(term.name) if isinstance(term, Variable) else _constant(term)
    if isinstance(expr, UnaryExpr):
        return _compile_unary(expr)
    if isinstance(expr, BinaryExpr):
        return _compile_binary(expr)
    if isinstance(expr, FunctionCall):
        return _compile_function(expr)
    if isinstance(expr, Aggregate):
        return _failing("aggregate used outside of aggregation context")
    return _failing(f"unknown expression node {expr!r}")


def _compile_unary(expr: UnaryExpr) -> _Compiled:
    operand = _compile(expr.operand)
    if expr.op == "!":
        truth = operand.truth()
        return _Compiled(_BOOL, lambda binding: not truth(binding))
    if expr.op == "-":
        number = operand.view("number")
        kind = _INTEGER if operand.kind == _INTEGER else _NUMBER
        return _Compiled(kind, lambda binding: -number(binding))
    return _failing(f"unknown unary operator {expr.op}")


def _compile_binary(expr: BinaryExpr) -> _Compiled:
    op = expr.op
    left, right = _compile(expr.left), _compile(expr.right)
    kinds = (left.kind, right.kind)
    if op in ("||", "&&"):
        return _compile_logical(op == "||", left.truth(), right.truth())
    if op in ("=", "!="):
        # Two well-formed integers, or two plain literals: _equals is
        # the equality of their values (a double is not — NaN equals
        # itself as a term).
        if kinds in ((_INTEGER, _INTEGER), (_PLAIN, _PLAIN)):
            same, lv, rv = (operator.eq if op == "=" else operator.ne), left.native, right.native
            return _Compiled(_BOOL, lambda binding: same(lv(binding), rv(binding)))
        lt, rt = left.view("term"), right.view("term")
        if op == "=":
            return _Compiled(_BOOL, lambda binding: _equals(lt(binding), rt(binding)))
        return _Compiled(_BOOL, lambda binding: not _equals(lt(binding), rt(binding)))
    if op in _ORDERS:
        if all(kind in (_INTEGER, _NUMBER) for kind in kinds):
            # Both sides are well-formed typed numerics: _compare is the
            # comparison of their values.
            order, lv, rv = _ORDERS[op], left.native, right.native
            return _Compiled(_BOOL, lambda binding: order(lv(binding), rv(binding)))
        lt, rt = left.view("term"), right.view("term")
        return _Compiled(_BOOL, lambda binding: _compare(op, lt(binding), rt(binding)))
    if op in _ARITHMETIC:
        apply, lv, rv = _ARITHMETIC[op], left.view("number"), right.view("number")
        kind = _INTEGER if op != "/" and kinds == (_INTEGER, _INTEGER) else _NUMBER

        def arithmetic(binding: Binding):
            try:
                return apply(lv(binding), rv(binding))
            except OverflowError:  # an integer too large for the double it meets
                raise ExpressionError("numeric overflow") from None

        return _Compiled(kind, arithmetic)
    return _failing(f"unknown binary operator {op}")


def _compile_logical(is_or: bool, left: Evaluator, right: Evaluator) -> _Compiled:
    """``||`` (``&&``) over two truth views: a true (false) side decides
    whatever the other does; when the left errs and the right does not
    decide, the left's error stands (a right that errs raises its own)."""

    def logical(binding: Binding) -> bool:
        try:
            if left(binding) == is_or:
                return is_or
        except ExpressionError:
            if right(binding) == is_or:
                return is_or
            raise
        return right(binding)

    return _Compiled(_BOOL, logical)


def _compile_function(expr: FunctionCall) -> _Compiled:
    name, args = expr.name, expr.args
    signature = FUNCTIONS.get(name)
    if signature is None:
        return _failing(f"unknown function {name}")
    problem = arity_error(name, len(args))
    if problem is not None:
        return _failing(problem)
    if name == "BOUND":
        operand = args[0]
        if not (isinstance(operand, TermExpr) and isinstance(operand.term, Variable)):
            return _failing("BOUND requires a single variable argument")
        variable = operand.term.name
        return _Compiled(_BOOL, lambda binding: variable in binding)
    handler = signature.handler
    views = [_compile(arg).view(signature.params) for arg in args]
    if name == "REGEX" and not any(arg.variables() for arg in args[1:]):
        # A constant pattern compiles once; a bad one still fails per row.
        try:
            search = _regex(*[view({}) for view in views[1:]]).search
        except ExpressionError as exc:
            return _failing(str(exc))
        text = views[0]
        return _Compiled(_BOOL, lambda binding: search(text(binding)) is not None)
    if len(views) == 1:
        (first,) = views
        return _Compiled(signature.result, lambda binding: handler(first(binding)))
    return _Compiled(signature.result, lambda binding: handler(*[view(binding) for view in views]))


def compile_expression(expr: Expression) -> Callable[[Binding], Term]:
    """Compile ``expr`` into ``binding -> ground term``.

    The closure raises :class:`ExpressionError` for unbound variables,
    type errors and ill-formed values — and for aggregates, which the
    tail computes over groups and never routes through an expression.
    """
    return _compile(expr).view("term")


def compile_filter(expr: Expression) -> Callable[[Binding], bool]:
    """Compile ``expr`` for FILTER position: ``binding -> keep the row``
    (its effective boolean value; an erroring row is dropped)."""
    truth = _compile(expr).truth()

    def passes(binding: Binding) -> bool:
        try:
            return truth(binding)
        except ExpressionError:
            return False

    return passes


def evaluate_expression(expr: Expression, binding: Binding) -> Term:
    """Evaluate ``expr`` under ``binding`` (compile, then call once)."""
    return compile_expression(expr)(binding)
