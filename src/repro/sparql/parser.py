"""Recursive-descent parser for the supported SPARQL subset.

Grammar (informal)::

    Query        := Prologue (SelectQuery | AskQuery)
    Prologue     := ("PREFIX" PNAME_NS IRIREF)*
    SelectQuery  := "SELECT" "DISTINCT"? (Star | SelectItem+) WhereClause
                    Modifiers
    AskQuery     := "ASK" WhereClause
    SelectItem   := Var | "(" Expression "AS" Var ")"
                  | ("COUNT" "(" ("*" | "DISTINCT"? Expression) ")") ("AS" Var)?
    WhereClause  := "WHERE"? "{" GroupElement* "}"
    GroupElement := TriplesBlock | Filter | Optional | Minus | Values
                  | Group ("UNION" Group)*
    Group        := "{" GroupElement* "}"
    Optional     := "OPTIONAL" "{" GroupElement* "}"
    Minus        := "MINUS" "{" GroupElement* "}"
    Values       := "VALUES" (Var | "(" Var* ")") "{" DataRow* "}"
    DataRow      := DataValue | "(" DataValue* ")"
    DataValue    := IRI | Literal | "UNDEF"
    Modifiers    := ("GROUP" "BY" Var+)? ("ORDER" "BY" OrderCond+)?
                    ("LIMIT" INT)? ("OFFSET" INT)?  (in any order for
                    LIMIT/OFFSET, GROUP before ORDER as in SPARQL)

The expression grammar implements ``||``, ``&&``, comparisons, additive
and multiplicative arithmetic, unary ``!``/``-``, function calls, and
parenthesised sub-expressions.
"""

from __future__ import annotations

from typing import List, Optional

from ..rdf.namespaces import RDF_TYPE, PrefixRegistry, default_registry
from ..rdf.terms import (
    IRI,
    XSD_BOOLEAN,
    XSD_DECIMAL,
    XSD_INTEGER,
    Literal,
    Term,
    Variable,
)
from ..rdf.triples import TriplePattern
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
from .errors import ParseError
from .functions import FUNCTIONS, arity_error
from .tokens import STRUCTURAL_KEYWORDS, Token, tokenize

__all__ = ["parse_query", "SparqlParser"]

_AGGREGATES = {"COUNT", "SUM", "MIN", "MAX", "AVG"}


class SparqlParser:
    """Parses one query string into a :class:`Query` AST."""

    def __init__(self, text: str, prefixes: Optional[PrefixRegistry] = None) -> None:
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0
        self.prefixes = (prefixes or default_registry()).copy()

    # ------------------------------------------------------------------
    # Token helpers
    # ------------------------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        index = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def advance(self) -> Token:
        token = self.peek()
        if token.kind != "EOF":
            self.pos += 1
        return token

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.peek().position)

    def expect(self, kind: str) -> Token:
        token = self.peek()
        if token.kind != kind:
            raise self.error(f"expected {kind}, found {token.kind} {token.value!r}")
        return self.advance()

    def at_keyword(self, *words: str) -> bool:
        token = self.peek()
        return token.kind == "KEYWORD" and token.value.upper() in words

    def expect_keyword(self, word: str) -> None:
        if not self.at_keyword(word):
            raise self.error(f"expected keyword {word}")
        self.advance()

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def parse(self) -> Query:
        self._parse_prologue()
        if self.at_keyword("SELECT"):
            query = self._parse_select()
        elif self.at_keyword("ASK"):
            query = self._parse_ask()
        else:
            raise self.error("query must start with SELECT or ASK (after prefixes)")
        if self.peek().kind != "EOF":
            raise self.error(f"trailing input: {self.peek().value!r}")
        self._validate(query)
        return query

    def _parse_prologue(self) -> None:
        while self.at_keyword("PREFIX"):
            self.advance()
            token = self.peek()
            if token.kind != "PNAME" or not token.value.endswith(":"):
                # tokenizer folds "dbo:" into PNAME "dbo:" (empty local part)
                if token.kind == "PNAME" and ":" in token.value:
                    pass
                else:
                    raise self.error("expected prefix name ending in ':'")
            pname = self.advance().value
            prefix = pname.split(":", 1)[0]
            iri = self.expect("IRI").value
            self.prefixes.bind(prefix, iri)

    # ------------------------------------------------------------------
    # Query forms
    # ------------------------------------------------------------------

    def _parse_select(self) -> Query:
        self.expect_keyword("SELECT")
        query = Query(form="SELECT")
        if self.at_keyword("DISTINCT"):
            self.advance()
            query.distinct = True
        if self.peek().kind == "*":
            self.advance()
            query.select_star = True
        else:
            while True:
                item = self._try_parse_select_item()
                if item is None:
                    break
                query.select_items.append(item)
            if not query.select_items:
                raise self.error("SELECT requires at least one projection item")
        query.where = self._parse_where()
        self._parse_modifiers(query)
        return query

    def _parse_ask(self) -> Query:
        self.expect_keyword("ASK")
        query = Query(form="ASK")
        query.where = self._parse_where()
        return query

    def _try_parse_select_item(self) -> Optional[SelectItem]:
        token = self.peek()
        if token.kind == "VAR":
            self.advance()
            return SelectItem(TermExpr(Variable(token.value)))
        if token.kind == "KEYWORD" and token.value.upper() in _AGGREGATES:
            aggregate = self._parse_aggregate()
            alias = None
            if self.at_keyword("AS"):
                self.advance()
                alias = self.expect("VAR").value
            return SelectItem(aggregate, alias=alias or self._implicit_agg_alias(aggregate))
        if token.kind == "(":
            self.advance()
            expr = self._parse_expression()
            self.expect_keyword("AS")
            alias = self.expect("VAR").value
            self.expect(")")
            return SelectItem(expr, alias=alias)
        return None

    @staticmethod
    def _implicit_agg_alias(aggregate: Aggregate) -> str:
        """Name used when ``count(?x)`` appears without AS (paper's Q1 style)."""
        return f"{aggregate.name.lower()}"

    def _parse_aggregate(self) -> Aggregate:
        name = self.advance().value.upper()
        self.expect("(")
        distinct = False
        if self.at_keyword("DISTINCT"):
            self.advance()
            distinct = True
        if self.peek().kind == "*":
            self.advance()
            argument: Optional[Expression] = None
        else:
            argument = self._parse_expression()
        self.expect(")")
        return Aggregate(name, argument, distinct)

    # ------------------------------------------------------------------
    # WHERE clause
    # ------------------------------------------------------------------

    def _parse_where(self) -> GraphPattern:
        if self.at_keyword("WHERE"):
            self.advance()
        self.expect("{")
        pattern = self._parse_group_body()
        self.expect("}")
        return pattern

    def _parse_group_body(self) -> GraphPattern:
        group = GraphPattern()
        while True:
            token = self.peek()
            if token.kind == "}":
                return group
            if token.kind == "EOF":
                raise self.error("unterminated group pattern")
            if self.at_keyword("FILTER"):
                self.advance()
                self.expect("(")
                group.filters.append(self._parse_expression())
                self.expect(")")
                self._skip_dot()
                continue
            if self.at_keyword("OPTIONAL"):
                self.advance()
                self.expect("{")
                group.optionals.append(self._parse_group_body())
                self.expect("}")
                self._skip_dot()
                continue
            if self.at_keyword("MINUS"):
                self.advance()
                if self.peek().kind != "{":
                    raise self.error(
                        "MINUS requires a braced group pattern: MINUS { ... }"
                    )
                self.advance()
                group.minuses.append(self._parse_group_body())
                self.expect("}")
                self._skip_dot()
                continue
            if self.at_keyword("VALUES"):
                self.advance()
                group.values.append(self._parse_values())
                self._skip_dot()
                continue
            if self.at_keyword("UNION"):
                raise self.error("UNION must follow a braced group pattern")
            if token.kind == "{":
                self._parse_group_or_union(group)
                continue
            self._parse_triples_same_subject(group)

    def _parse_group_or_union(self, group: GraphPattern) -> None:
        """A braced sub-group, possibly chained with UNION branches.

        A lone ``{ ... }`` is absorbed into the enclosing group; two or
        more UNION-joined branches are recorded as one alternation
        chain.  Absorption widens FILTER scope to the enclosing group —
        a deliberate subset deviation from strict SPARQL group scoping
        (where a filter referencing only outer variables would evaluate
        against the inner group's bindings alone).  It matches the
        correlated evaluation this engine uses for every other nested
        group and keeps all execution surfaces consistent; patterns,
        VALUES, UNION and MINUS members are scope-neutral either way.
        """
        self.expect("{")
        branches = [self._parse_group_body()]
        self.expect("}")
        while self.at_keyword("UNION"):
            self.advance()
            if self.peek().kind != "{":
                raise self.error(
                    "UNION requires a braced group pattern: ... UNION { ... }"
                )
            self.advance()
            branches.append(self._parse_group_body())
            self.expect("}")
        if len(branches) == 1:
            _absorb(group, branches[0])
        else:
            group.unions.append(branches)
        self._skip_dot()

    def _parse_values(self) -> ValuesClause:
        """Parse an inline data block (the ``VALUES`` keyword is consumed)."""
        token = self.peek()
        if token.kind == "VAR":
            names = [self.advance().value]
            single = True
        elif token.kind == "(":
            self.advance()
            names = []
            while self.peek().kind == "VAR":
                names.append(self.advance().value)
            self.expect(")")
            single = False
        else:
            raise self.error("VALUES requires a variable or a parenthesised variable list")
        if not names:
            raise self.error("VALUES requires at least one variable")
        if len(set(names)) != len(names):
            raise self.error("duplicate variable in VALUES variable list")
        self.expect("{")
        rows: List[tuple] = []
        while True:
            token = self.peek()
            if token.kind == "}":
                self.advance()
                return ValuesClause(tuple(names), tuple(rows))
            if token.kind == "EOF":
                raise self.error("unterminated VALUES block")
            if single:
                rows.append((self._parse_data_value(),))
                continue
            self.expect("(")
            row: List[Optional[Term]] = []
            while self.peek().kind not in (")", "EOF"):
                row.append(self._parse_data_value())
            if self.peek().kind == "EOF":
                raise self.error("unterminated VALUES block")
            self.expect(")")
            if len(row) != len(names):
                raise self.error(
                    f"VALUES row has {len(row)} values for {len(names)} variables"
                )
            rows.append(tuple(row))

    def _parse_data_value(self) -> Optional[Term]:
        """One cell of a VALUES row: a ground term or ``UNDEF`` (None)."""
        token = self.peek()
        if token.kind == "KEYWORD":
            word = token.value.upper()
            if word == "UNDEF":
                self.advance()
                return None
            if word in ("TRUE", "FALSE"):
                self.advance()
                return Literal(word.lower(), datatype=XSD_BOOLEAN)
            raise self.error(f"expected a data value in VALUES block, found {token.value!r}")
        if token.kind == "STRING":
            return self._finish_literal(self.advance().value)
        if token.kind in ("IRI", "PNAME", "NUMBER"):
            return self._parse_term(allow_literal=True)
        raise self.error(
            f"expected a data value in VALUES block, found {token.kind} {token.value!r}"
        )

    def _skip_dot(self) -> None:
        if self.peek().kind == ".":
            self.advance()

    def _parse_triples_same_subject(self, group: GraphPattern) -> None:
        subject = self._parse_term(allow_literal=False)
        while True:
            predicate = self._parse_verb()
            obj = self._parse_term(allow_literal=True)
            group.patterns.append(TriplePattern(subject, predicate, obj))
            token = self.peek()
            if token.kind == ";":
                self.advance()
                if self.peek().kind in ("}", "."):
                    self._skip_dot()
                    return
                continue
            if token.kind == ",":
                # object list: same subject & predicate
                self.advance()
                obj = self._parse_term(allow_literal=True)
                group.patterns.append(TriplePattern(subject, predicate, obj))
            self._skip_dot()
            return

    def _parse_verb(self) -> Term:
        token = self.peek()
        if token.kind == "KEYWORD" and token.value == "a":
            self.advance()
            return RDF_TYPE
        return self._parse_term(allow_literal=False)

    def _parse_term(self, allow_literal: bool) -> Term:
        token = self.peek()
        if token.kind == "KEYWORD" and token.value.upper() in STRUCTURAL_KEYWORDS:
            raise self.error(
                f"keyword {token.value!r} cannot appear in term position"
            )
        if token.kind == "VAR":
            self.advance()
            return Variable(token.value)
        if token.kind == "IRI":
            self.advance()
            return IRI(token.value)
        if token.kind == "PNAME":
            self.advance()
            return self.prefixes.expand(token.value)
        if token.kind == "STRING":
            if not allow_literal:
                raise self.error("literal not allowed here")
            return self._finish_literal(self.advance().value)
        if token.kind == "NUMBER":
            if not allow_literal:
                raise self.error("number not allowed here")
            self.advance()
            return _number_literal(token.value)
        raise self.error(f"expected term, found {token.kind} {token.value!r}")

    def _finish_literal(self, lexical: str) -> Literal:
        token = self.peek()
        if token.kind == "LANGTAG":
            self.advance()
            return Literal(lexical, lang=token.value)
        if token.kind == "^^":
            self.advance()
            dtype_token = self.peek()
            if dtype_token.kind == "IRI":
                self.advance()
                return Literal(lexical, datatype=IRI(dtype_token.value))
            if dtype_token.kind == "PNAME":
                self.advance()
                return Literal(lexical, datatype=self.prefixes.expand(dtype_token.value))
            raise self.error("expected datatype IRI after ^^")
        return Literal(lexical)

    # ------------------------------------------------------------------
    # Solution modifiers
    # ------------------------------------------------------------------

    def _parse_modifiers(self, query: Query) -> None:
        if self.at_keyword("GROUP"):
            self.advance()
            self.expect_keyword("BY")
            while self.peek().kind == "VAR":
                query.group_by.append(self.advance().value)
            if not query.group_by:
                raise self.error("GROUP BY requires at least one variable")
        if self.at_keyword("ORDER"):
            self.advance()
            self.expect_keyword("BY")
            while True:
                condition = self._try_parse_order_condition()
                if condition is None:
                    break
                query.order_by.append(condition)
            if not query.order_by:
                raise self.error("ORDER BY requires at least one condition")
        # LIMIT and OFFSET may appear in either order.
        for _ in range(2):
            if self.at_keyword("LIMIT"):
                self.advance()
                query.limit = int(self.expect("NUMBER").value)
            elif self.at_keyword("OFFSET"):
                self.advance()
                query.offset = int(self.expect("NUMBER").value)

    def _try_parse_order_condition(self) -> Optional[OrderCondition]:
        token = self.peek()
        if token.kind == "VAR":
            self.advance()
            return OrderCondition(TermExpr(Variable(token.value)), ascending=True)
        if self.at_keyword("ASC", "DESC"):
            ascending = self.advance().value.upper() == "ASC"
            self.expect("(")
            expr = self._parse_expression()
            self.expect(")")
            return OrderCondition(expr, ascending=ascending)
        return None

    # ------------------------------------------------------------------
    # Expressions (precedence climbing)
    # ------------------------------------------------------------------

    def _parse_expression(self) -> Expression:
        return self._parse_or()

    def _parse_or(self) -> Expression:
        left = self._parse_and()
        while self.peek().kind == "||":
            self.advance()
            left = BinaryExpr("||", left, self._parse_and())
        return left

    def _parse_and(self) -> Expression:
        left = self._parse_relational()
        while self.peek().kind == "&&":
            self.advance()
            left = BinaryExpr("&&", left, self._parse_relational())
        return left

    def _parse_relational(self) -> Expression:
        left = self._parse_additive()
        kind = self.peek().kind
        if kind in ("=", "!=", "<", ">", "<=", ">="):
            op = self.advance().kind
            return BinaryExpr(op, left, self._parse_additive())
        return left

    def _parse_additive(self) -> Expression:
        left = self._parse_multiplicative()
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            left = BinaryExpr(op, left, self._parse_multiplicative())
        return left

    def _parse_multiplicative(self) -> Expression:
        left = self._parse_unary()
        while self.peek().kind in ("*", "/"):
            op = self.advance().kind
            left = BinaryExpr(op, left, self._parse_unary())
        return left

    def _parse_unary(self) -> Expression:
        token = self.peek()
        if token.kind == "!":
            self.advance()
            return UnaryExpr("!", self._parse_unary())
        if token.kind == "-":
            self.advance()
            return UnaryExpr("-", self._parse_unary())
        return self._parse_primary()

    def _parse_primary(self) -> Expression:
        token = self.peek()
        if token.kind == "(":
            self.advance()
            expr = self._parse_expression()
            self.expect(")")
            return expr
        if token.kind == "VAR":
            self.advance()
            return TermExpr(Variable(token.value))
        if token.kind == "STRING":
            self.advance()
            return TermExpr(self._finish_literal(token.value))
        if token.kind == "NUMBER":
            self.advance()
            return TermExpr(_number_literal(token.value))
        if token.kind == "IRI":
            self.advance()
            return TermExpr(IRI(token.value))
        if token.kind == "PNAME":
            self.advance()
            return TermExpr(self.prefixes.expand(token.value))
        if token.kind == "KEYWORD":
            name = token.value.upper()
            if name in _AGGREGATES:
                return self._parse_aggregate()
            if name in FUNCTIONS:
                position = token.position
                self.advance()
                self.expect("(")
                args: List[Expression] = []
                if self.peek().kind != ")":
                    args.append(self._parse_expression())
                    while self.peek().kind == ",":
                        self.advance()
                        args.append(self._parse_expression())
                self.expect(")")
                problem = arity_error(name, len(args))
                if problem is not None:
                    raise ParseError(problem, position)
                return FunctionCall(name, tuple(args))
            if name in ("TRUE", "FALSE"):
                self.advance()
                from ..rdf.terms import XSD_BOOLEAN

                return TermExpr(Literal(name.lower(), datatype=XSD_BOOLEAN))
            raise self.error(f"unknown function or keyword {token.value!r}")
        raise self.error(f"unexpected token in expression: {token.kind}")

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def _validate(self, query: Query) -> None:
        if query.form != "SELECT":
            return
        if query.group_by:
            allowed = set(query.group_by)
            for item in query.select_items:
                if item.is_aggregate():
                    continue
                for name in item.expression.variables():
                    if name not in allowed:
                        raise ParseError(
                            f"variable ?{name} must appear in GROUP BY or inside an aggregate"
                        )
        if query.has_aggregates() and query.select_star:
            raise ParseError("SELECT * cannot be combined with aggregates")


def _absorb(group: GraphPattern, sub: GraphPattern) -> None:
    """Merge a lone braced sub-group into its enclosing group."""
    group.patterns.extend(sub.patterns)
    group.filters.extend(sub.filters)
    group.optionals.extend(sub.optionals)
    group.unions.extend(sub.unions)
    group.minuses.extend(sub.minuses)
    group.values.extend(sub.values)


def _number_literal(text: str) -> Literal:
    if "." in text:
        return Literal(text, datatype=XSD_DECIMAL)
    return Literal(text, datatype=XSD_INTEGER)


def parse_query(text: str, prefixes: Optional[PrefixRegistry] = None) -> Query:
    """Parse ``text`` into a :class:`Query`.

    ``prefixes`` seeds the prefix table; PREFIX declarations in the query
    extend (and may shadow) it.  The default registry already contains the
    common rdf/rdfs/owl/xsd/dbo/dbr prefixes, matching how the paper's
    example queries rely on ambient ``rdf:`` bindings.
    """
    return SparqlParser(text, prefixes).parse()
