"""Query result containers.

A :class:`SelectResult` is an ordered list of solution rows with the
projected variable names; an :class:`AskResult` wraps a boolean.  Both
carry the evaluation cost so callers (the endpoint simulator, benchmarks)
can account for work done.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional

from ..rdf.terms import Term
from ..rdf.triples import Binding

__all__ = ["SelectResult", "AskResult"]


@dataclass
class SelectResult:
    """Result of a SELECT query."""

    variables: List[str]
    rows: List[Binding] = field(default_factory=list)
    cost: int = 0
    truncated: bool = False

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Binding]:
        return iter(self.rows)

    def __bool__(self) -> bool:
        return bool(self.rows)

    def first_value(self, name: Optional[str] = None) -> Optional[Term]:
        """The first row's value for ``name`` (or the single variable)."""
        if not self.rows:
            return None
        key = name if name is not None else self.variables[0]
        return self.rows[0].get(key)

    def value_set(self, name: Optional[str] = None) -> set:
        """Distinct values of one column — handy for answer comparison."""
        key = name if name is not None else self.variables[0]
        return {row.get(key) for row in self.rows if row.get(key) is not None}


@dataclass
class AskResult:
    """Result of an ASK query."""

    value: bool
    cost: int = 0

    def __bool__(self) -> bool:
        return self.value
