"""Expression AST and evaluation for WHERE clauses and projections.

Expressions are immutable trees evaluated against a row context (a mapping
from lower-cased column name to value). SQL three-valued logic is honoured:
comparisons against NULL yield NULL, and a WHERE clause only admits rows
whose predicate evaluates to exactly TRUE.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import ExecutionError
from .types import SQLValue

#: Row context type: lower-cased column name -> value.
RowContext = Dict[str, SQLValue]


class Expression:
    """Base class for all expression nodes."""

    def evaluate(self, row: RowContext) -> SQLValue:
        """Evaluate against a row context; subclasses must override."""
        raise NotImplementedError

    def columns(self) -> List[str]:
        """Return all column names referenced by this expression."""
        return []


@dataclass(frozen=True)
class Literal(Expression):
    """A constant value."""

    value: SQLValue

    def evaluate(self, row: RowContext) -> SQLValue:
        return self.value

    def __str__(self) -> str:
        if isinstance(self.value, str):
            escaped = self.value.replace("'", "''")
            return f"'{escaped}'"
        if self.value is None:
            return "NULL"
        return str(self.value)


@dataclass(frozen=True)
class ColumnRef(Expression):
    """A reference to a column by name."""

    name: str

    def evaluate(self, row: RowContext) -> SQLValue:
        key = self.name.lower()
        try:
            return row[key]
        except KeyError:
            raise ExecutionError(
                f"unknown or ambiguous column {self.name!r} "
                "(qualify shared column names as table.column)"
            ) from None

    def columns(self) -> List[str]:
        return [self.name]

    def __str__(self) -> str:
        return self.name


def _is_null(value: SQLValue) -> bool:
    return value is None


def _numeric_pair(
    left: SQLValue, right: SQLValue, op: str
) -> Tuple[SQLValue, SQLValue]:
    """Require two non-bool numbers and return them *unconverted*.

    Ints stay ints: Python compares and combines int/float operands
    exactly, while a float64 round trip would silently collapse
    integers beyond 2**53 — corrupting equality on large keys and
    therefore ``touched`` sets and delay pricing.
    """
    for side in (left, right):
        if isinstance(side, bool) or not isinstance(side, (int, float)):
            raise ExecutionError(f"operator {op!r} expects numbers, got {side!r}")
    return left, right


def _compare(op: str, left: SQLValue, right: SQLValue) -> Optional[bool]:
    """Three-valued comparison: returns None if either side is NULL."""
    if _is_null(left) or _is_null(right):
        return None
    # Allow int/float cross-comparison; otherwise require same category.
    numeric = lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)
    if numeric(left) != numeric(right) or (
        isinstance(left, str) != isinstance(right, str)
    ):
        if type(left) is not type(right):
            raise ExecutionError(
                f"cannot compare {left!r} with {right!r} using {op!r}"
            )
    if op == "=":
        return left == right
    if op in ("!=", "<>"):
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    raise ExecutionError(f"unknown comparison operator {op!r}")


@dataclass(frozen=True)
class Comparison(Expression):
    """A binary comparison such as ``a < 5``."""

    op: str
    left: Expression
    right: Expression

    def evaluate(self, row: RowContext) -> SQLValue:
        return _compare(self.op, self.left.evaluate(row), self.right.evaluate(row))

    def columns(self) -> List[str]:
        return self.left.columns() + self.right.columns()

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class Arithmetic(Expression):
    """Binary arithmetic: ``+ - * / %``. NULL-propagating."""

    op: str
    left: Expression
    right: Expression

    def evaluate(self, row: RowContext) -> SQLValue:
        left = self.left.evaluate(row)
        right = self.right.evaluate(row)
        if _is_null(left) or _is_null(right):
            return None
        if self.op == "+" and isinstance(left, str) and isinstance(right, str):
            return left + right
        lnum, rnum = _numeric_pair(left, right, self.op)
        if self.op == "+":
            return lnum + rnum
        if self.op == "-":
            return lnum - rnum
        if self.op == "*":
            return lnum * rnum
        if self.op == "/":
            if rnum == 0:
                raise ExecutionError("division by zero")
            if (
                isinstance(lnum, int)
                and isinstance(rnum, int)
                and lnum % rnum == 0
            ):
                # Evenly-divisible ints divide exactly: true division
                # would produce a float and collapse quotients beyond
                # 2**53 (e.g. ``WHERE id / 1 = <huge key>`` matching
                # the wrong rows and mispricing them).
                return lnum // rnum
            return lnum / rnum
        if self.op == "%":
            if rnum == 0:
                raise ExecutionError("modulo by zero")
            return lnum % rnum
        raise ExecutionError(f"unknown arithmetic operator {self.op!r}")

    def columns(self) -> List[str]:
        return self.left.columns() + self.right.columns()

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class Negate(Expression):
    """Unary numeric negation."""

    operand: Expression

    def evaluate(self, row: RowContext) -> SQLValue:
        value = self.operand.evaluate(row)
        if _is_null(value):
            return None
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ExecutionError(f"cannot negate {value!r}")
        return -value

    def columns(self) -> List[str]:
        return self.operand.columns()

    def __str__(self) -> str:
        return f"(-{self.operand})"


@dataclass(frozen=True)
class Logical(Expression):
    """AND / OR with SQL three-valued semantics."""

    op: str  # "AND" | "OR"
    left: Expression
    right: Expression

    def evaluate(self, row: RowContext) -> SQLValue:
        left = _as_bool(self.left.evaluate(row))
        right = _as_bool(self.right.evaluate(row))
        if self.op == "AND":
            if left is False or right is False:
                return False
            if left is None or right is None:
                return None
            return True
        if self.op == "OR":
            if left is True or right is True:
                return True
            if left is None or right is None:
                return None
            return False
        raise ExecutionError(f"unknown logical operator {self.op!r}")

    def columns(self) -> List[str]:
        return self.left.columns() + self.right.columns()

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class Not(Expression):
    """Logical NOT, NULL-propagating."""

    operand: Expression

    def evaluate(self, row: RowContext) -> SQLValue:
        value = _as_bool(self.operand.evaluate(row))
        if value is None:
            return None
        return not value

    def columns(self) -> List[str]:
        return self.operand.columns()

    def __str__(self) -> str:
        return f"(NOT {self.operand})"


@dataclass(frozen=True)
class IsNull(Expression):
    """``expr IS [NOT] NULL``."""

    operand: Expression
    negated: bool = False

    def evaluate(self, row: RowContext) -> SQLValue:
        result = self.operand.evaluate(row) is None
        return not result if self.negated else result

    def columns(self) -> List[str]:
        return self.operand.columns()

    def __str__(self) -> str:
        suffix = "IS NOT NULL" if self.negated else "IS NULL"
        return f"({self.operand} {suffix})"


@dataclass(frozen=True)
class InList(Expression):
    """``expr [NOT] IN (v1, v2, ...)`` with literal list members."""

    operand: Expression
    items: Tuple[Expression, ...]
    negated: bool = False

    def evaluate(self, row: RowContext) -> SQLValue:
        value = self.operand.evaluate(row)
        if value is None:
            return None
        saw_null = False
        for item in self.items:
            candidate = item.evaluate(row)
            if candidate is None:
                saw_null = True
                continue
            matched = _compare("=", value, candidate)
            if matched:
                return not self.negated
        if saw_null:
            return None
        return self.negated

    def columns(self) -> List[str]:
        cols = self.operand.columns()
        for item in self.items:
            cols.extend(item.columns())
        return cols

    def __str__(self) -> str:
        items = ", ".join(str(item) for item in self.items)
        keyword = "NOT IN" if self.negated else "IN"
        return f"({self.operand} {keyword} ({items}))"


@dataclass(frozen=True)
class Between(Expression):
    """``expr [NOT] BETWEEN low AND high`` (inclusive on both ends)."""

    operand: Expression
    low: Expression
    high: Expression
    negated: bool = False

    def evaluate(self, row: RowContext) -> SQLValue:
        value = self.operand.evaluate(row)
        low = self.low.evaluate(row)
        high = self.high.evaluate(row)
        ge = _compare(">=", value, low) if value is not None and low is not None else None
        le = _compare("<=", value, high) if value is not None and high is not None else None
        if ge is None or le is None:
            if ge is False or le is False:
                return self.negated
            return None
        result = ge and le
        return not result if self.negated else result

    def columns(self) -> List[str]:
        return self.operand.columns() + self.low.columns() + self.high.columns()

    def __str__(self) -> str:
        keyword = "NOT BETWEEN" if self.negated else "BETWEEN"
        return f"({self.operand} {keyword} {self.low} AND {self.high})"


@dataclass(frozen=True)
class Like(Expression):
    """``expr [NOT] LIKE pattern`` with ``%`` and ``_`` wildcards."""

    operand: Expression
    pattern: Expression
    negated: bool = False

    def evaluate(self, row: RowContext) -> SQLValue:
        value = self.operand.evaluate(row)
        pattern = self.pattern.evaluate(row)
        if value is None or pattern is None:
            return None
        if not isinstance(value, str) or not isinstance(pattern, str):
            raise ExecutionError("LIKE expects string operands")
        regex = _like_to_regex(pattern)
        result = regex.fullmatch(value) is not None
        return not result if self.negated else result

    def columns(self) -> List[str]:
        return self.operand.columns() + self.pattern.columns()

    def __str__(self) -> str:
        keyword = "NOT LIKE" if self.negated else "LIKE"
        return f"({self.operand} {keyword} {self.pattern})"


@dataclass(frozen=True)
class InSet(Expression):
    """``expr [NOT] IN <precomputed set>`` (internal, executor-bound).

    Produced by the executor when it binds an ``IN (SELECT ...)``
    subquery: the subquery runs once and its column becomes ``values``.
    NULL semantics match :class:`InList` (a NULL member makes a
    non-match UNKNOWN rather than FALSE).
    """

    operand: Expression
    values: Tuple[SQLValue, ...]
    negated: bool = False
    contains_null: bool = False

    def evaluate(self, row: RowContext) -> SQLValue:
        value = self.operand.evaluate(row)
        if value is None:
            return None
        matched = any(
            candidate is not None and _compare("=", value, candidate)
            for candidate in self.values
        )
        if matched:
            return not self.negated
        if self.contains_null:
            return None
        return self.negated

    def columns(self) -> List[str]:
        return self.operand.columns()

    def __str__(self) -> str:
        keyword = "NOT IN" if self.negated else "IN"
        return f"({self.operand} {keyword} <{len(self.values)} values>)"


@dataclass(frozen=True)
class ScalarSubquery(Expression):
    """A parenthesised ``(SELECT ...)`` used as a scalar value.

    Holds the parsed statement; the executor *binds* it (runs it once
    and substitutes the resulting literal) before evaluation — only
    uncorrelated subqueries are supported. Evaluating an unbound
    subquery is an error.
    """

    select: object  # parser.ast.SelectStatement (kept opaque here)

    def evaluate(self, row: RowContext) -> SQLValue:
        raise ExecutionError(
            "unbound scalar subquery (subqueries are only supported in "
            "WHERE and HAVING clauses)"
        )

    def columns(self) -> List[str]:
        return []

    def __str__(self) -> str:
        return "(SELECT ...)"


@dataclass(frozen=True)
class InSubquery(Expression):
    """``expr [NOT] IN (SELECT ...)``; bound by the executor."""

    operand: Expression
    select: object
    negated: bool = False

    def evaluate(self, row: RowContext) -> SQLValue:
        raise ExecutionError(
            "unbound IN-subquery (subqueries are only supported in "
            "WHERE and HAVING clauses)"
        )

    def columns(self) -> List[str]:
        return self.operand.columns()

    def __str__(self) -> str:
        keyword = "NOT IN" if self.negated else "IN"
        return f"({self.operand} {keyword} (SELECT ...))"


_LIKE_CACHE: Dict[str, "re.Pattern[str]"] = {}


def _like_to_regex(pattern: str) -> "re.Pattern[str]":
    cached = _LIKE_CACHE.get(pattern)
    if cached is not None:
        return cached
    parts = []
    for char in pattern:
        if char == "%":
            parts.append(".*")
        elif char == "_":
            parts.append(".")
        else:
            parts.append(re.escape(char))
    compiled = re.compile("".join(parts), re.DOTALL)
    if len(_LIKE_CACHE) < 1024:
        _LIKE_CACHE[pattern] = compiled
    return compiled


def _as_bool(value: SQLValue) -> Optional[bool]:
    """Coerce an evaluated value to three-valued boolean."""
    if value is None:
        return None
    if isinstance(value, bool):
        return value
    raise ExecutionError(f"expected boolean expression, got {value!r}")


def predicate_holds(expression: Optional[Expression], row: RowContext) -> bool:
    """Return True iff ``expression`` is absent or evaluates to exactly TRUE."""
    if expression is None:
        return True
    return _as_bool(expression.evaluate(row)) is True


def conjuncts(expression: Optional[Expression]) -> List[Expression]:
    """Flatten an AND-tree into its conjunct list (empty for None)."""
    if expression is None:
        return []
    if isinstance(expression, Logical) and expression.op == "AND":
        return conjuncts(expression.left) + conjuncts(expression.right)
    return [expression]


def contains_subquery(expression: Optional[Expression]) -> bool:
    """Whether any subquery node appears anywhere in the tree."""
    if expression is None:
        return False
    if isinstance(expression, (ScalarSubquery, InSubquery)):
        return True
    for attribute in ("left", "right", "operand", "low", "high", "pattern"):
        child = getattr(expression, attribute, None)
        if isinstance(child, Expression) and contains_subquery(child):
            return True
    items = getattr(expression, "items", None)
    if items:
        for item in items:
            if contains_subquery(item):
                return True
    return False
