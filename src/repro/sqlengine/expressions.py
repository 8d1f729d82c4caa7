"""Expression compilation over row layouts.

A :class:`RowContext` binds ``(table_binding, column_name)`` pairs to
tuple positions; contexts chain to their outer query's context so
correlated subqueries resolve free column references.
:meth:`Evaluator.compile` walks an expression once per statement and
returns a closure over the raw row tuple, so the executor's per-row
loops pay for no name lookup, node dispatch or context clone.
"""

from __future__ import annotations

import datetime as _dt
import operator
import re
from typing import Any, Callable, Optional, Sequence

from repro.sqlengine import nodes
from repro.sqlengine.errors import ExecutionError, SqlEngineError
from repro.sqlengine.functions import (
    call_scalar,
    is_aggregate_function,
    is_scalar_function,
)
from repro.sqlengine.types import DataType, coerce


class RowContext:
    """Column bindings for one row, chained to an optional outer context."""

    read = False  # whether :meth:`lookup` ran: a subquery read its outer row

    def __init__(
        self,
        columns: Sequence[tuple[Optional[str], str]],
        values: Sequence[Any],
        outer: Optional["RowContext"] = None,
    ) -> None:
        self.columns = list(columns)
        self.values = list(values)
        self.outer = outer
        self._by_qualified: dict[tuple[str, str], int] = {}
        self._by_name: dict[str, list[int]] = {}
        for index, (binding, name) in enumerate(self.columns):
            lowered = name.lower()
            if binding is not None:
                self._by_qualified[(binding.lower(), lowered)] = index
            self._by_name.setdefault(lowered, []).append(index)

    def with_values(self, values: Sequence[Any]) -> "RowContext":
        """Cheap clone sharing the column layout: the outer scope a
        subquery sees for one row."""
        clone = RowContext.__new__(RowContext)
        clone.columns = self.columns
        clone.values = list(values)
        clone.outer = self.outer
        clone._by_qualified = self._by_qualified
        clone._by_name = self._by_name
        return clone

    def lookup(self, name: str, table: Optional[str] = None) -> Any:
        self.read = True
        index = self.find(name, table)
        if index is not None:
            return self.values[index]
        if self.outer is not None:
            return self.outer.lookup(name, table)
        qualified = f"{table}.{name}" if table else name
        raise ExecutionError(f"unknown column: {qualified}")

    def find(self, name: str, table: Optional[str] = None) -> Optional[int]:
        lowered = name.lower()
        if table is not None:
            return self._by_qualified.get((table.lower(), lowered))
        positions = self._by_name.get(lowered)
        if not positions:
            return None
        if len(positions) > 1:
            raise ExecutionError(f"ambiguous column reference: {name}")
        return positions[0]


SubqueryRunner = Callable[[nodes.Select, Optional[RowContext]], "object"]

#: A compiled expression: called with the raw row tuple of its layout.
Compiled = Callable[[Sequence[Any]], Any]

_NUMERIC = (int, float)
_UNBOUND = object()


def _constant(value: Any) -> Compiled:
    return lambda row: value


def _deferred(error: Exception) -> Compiled:
    """A closure raising ``error`` on its first call: compiling never
    fails, so a bad expression over zero input rows stays silent."""

    def run(row: Sequence[Any]) -> Any:
        raise error

    return run


_ALWAYS_TRUE = _constant(True)


def _slot(expr: nodes.Expression, layout: RowContext) -> Optional[int]:
    """The tuple position of a column reference local to ``layout``."""
    if isinstance(expr, nodes.ColumnRef):
        return layout.find(expr.name, expr.table)
    return None


#: Comparison over two non-NULL values of one type group (or, in the
#: executor's numeric mask, over a number column vector and a number).
COMPARISONS = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    ">": operator.gt,
    "<=": operator.le,
    ">=": operator.ge,
}


def _comparator(op: str) -> Callable[[Any, Any], bool]:
    """``left <op> right`` over two non-NULL values."""
    apply = COMPARISONS[op]
    # SQL engines vary here; equality across type groups is false.
    across_groups = {"=": False, "<>": True}.get(op)

    def compare(left: Any, right: Any) -> bool:
        if type(left) is not type(right):
            numeric = isinstance(left, _NUMERIC)
            if numeric != isinstance(right, _NUMERIC):
                if across_groups is not None:
                    return across_groups
            elif not numeric:
                # Allow DATE-vs-ISO-string comparisons, common in
                # generated SQL.
                if isinstance(left, _dt.date) and isinstance(right, str):
                    right = coerce(right, DataType.DATE)
                elif isinstance(right, _dt.date) and isinstance(left, str):
                    left = coerce(left, DataType.DATE)
        try:
            return apply(left, right)
        except TypeError:
            raise ExecutionError(
                f"cannot compare {left!r} with {right!r}"
            ) from None

    return compare


def _divide(left: Any, right: Any) -> Any:
    if right == 0:
        raise ExecutionError("division by zero")
    result = left / right
    if (
        isinstance(left, int)
        and isinstance(right, int)
        and result == int(result)
    ):
        return int(result)
    return result


def _modulo(left: Any, right: Any) -> Any:
    if right == 0:
        raise ExecutionError("modulo by zero")
    return left % right


def _arithmetic(op: str, apply: Callable[[Any, Any], Any]):
    def compute(left: Any, right: Any) -> Any:
        try:
            return apply(left, right)
        except TypeError:
            raise ExecutionError(
                f"type error: {left!r} {op} {right!r}"
            ) from None

    return compute


#: NULL-propagating binary operators over two non-NULL values.
_BINARY: dict[str, Callable[[Any, Any], Any]] = {
    "||": lambda left, right: str(left) + str(right),
    "+": _arithmetic("+", operator.add),
    "-": _arithmetic("-", operator.sub),
    "*": _arithmetic("*", operator.mul),
    "/": _arithmetic("/", _divide),
    "%": _arithmetic("%", _modulo),
}
_BINARY.update((op, _comparator(op)) for op in COMPARISONS)
_EQUALS = _BINARY["="]
_AT_MOST = _BINARY["<="]


class Evaluator:
    """Compile expression nodes into closures over a row layout.

    ``run_subquery`` is injected by the executor so that subqueries can
    be evaluated (with the current row as the outer scope).
    """

    def __init__(
        self,
        run_subquery: Optional[SubqueryRunner] = None,
        parameters: Sequence[Any] = (),
    ) -> None:
        self._run_subquery = run_subquery
        self._parameters = list(parameters)

    def compile(self, expr: nodes.Expression, layout: RowContext) -> Compiled:
        """Resolve ``expr`` against ``layout`` once; the result maps a
        row tuple of that layout to the expression's value.

        Column references become tuple positions (free references are
        bound to the outer row, fixed for the statement), literals and
        bind parameters are bound, operators are picked and literal
        LIKE patterns pre-compiled. Errors stay lazy: whatever is wrong
        with ``expr`` raises from the closure's first call.
        """
        compiler = self._COMPILERS.get(type(expr))
        if compiler is None:
            return _deferred(
                ExecutionError(f"cannot evaluate expression: {expr!r}")
            )
        try:
            return compiler(self, expr, layout)
        except SqlEngineError as error:
            return _deferred(error)

    def compile_truth(
        self, expr: Optional[nodes.Expression], layout: RowContext
    ) -> Compiled:
        """Compile a WHERE/ON/HAVING predicate. The closure's Python
        truthiness is SQL's three-valued truth (NULL counts as
        not-true); an absent clause accepts every row."""
        return _ALWAYS_TRUE if expr is None else self.compile(expr, layout)

    def evaluate(self, expr: nodes.Expression, ctx: RowContext) -> Any:
        """One-shot evaluation against the values ``ctx`` carries."""
        return self.compile(expr, ctx)(ctx.values)

    # -- node compilers -------------------------------------------------

    def _static(self, expr: nodes.Expression) -> Any:
        """The value of a literal or supplied bind parameter, else
        ``_UNBOUND``."""
        if isinstance(expr, nodes.Literal):
            return expr.value
        if isinstance(expr, nodes.Parameter) and expr.index < len(
            self._parameters
        ):
            return self._parameters[expr.index]
        return _UNBOUND

    def _bound(self, expr: nodes.Expression, layout: RowContext) -> Compiled:
        value = self._static(expr)
        if value is _UNBOUND:
            raise ExecutionError(
                f"missing bind parameter at index {expr.index}"
            )
        return _constant(value)

    def _column(self, expr: nodes.ColumnRef, layout: RowContext) -> Compiled:
        index = layout.find(expr.name, expr.table)
        if index is not None:
            return operator.itemgetter(index)
        # Free in this scope: the outer row's value, or unknown.
        return _constant(layout.lookup(expr.name, expr.table))

    def _unary(self, expr: nodes.UnaryOp, layout: RowContext) -> Compiled:
        operand = self.compile(expr.operand, layout)
        op = expr.op

        def negate(row: Sequence[Any]) -> Any:
            value = operand(row)
            return None if value is None else not value

        if op == "NOT":
            return negate

        def sign(row: Sequence[Any]) -> Any:
            value = operand(row)
            if value is None:
                return None
            if not isinstance(value, _NUMERIC) or isinstance(value, bool):
                raise ExecutionError(f"unary {op} over {value!r}")
            return -value if op == "-" else value

        return sign

    def _binary(self, expr: nodes.BinaryOp, layout: RowContext) -> Compiled:
        op = expr.op
        if op in ("AND", "OR"):
            return self._connective(expr, layout, decisive=(op == "OR"))
        apply = _BINARY.get(op)
        if apply is None:
            raise ExecutionError(f"unknown operator: {op}")
        left = self.compile(expr.left, layout)
        right = self.compile(expr.right, layout)

        def run(row: Sequence[Any]) -> Any:
            left_value = left(row)
            right_value = right(row)
            if left_value is None or right_value is None:
                return None
            return apply(left_value, right_value)

        # The two shapes filters and join conditions are made of skip
        # the operand calls: column <op> constant, column <op> column.
        slot = _slot(expr.left, layout)
        if slot is None:
            return run
        bound = self._static(expr.right)
        if bound is None:
            return _constant(None)

        def column_constant(row: Sequence[Any]) -> Any:
            value = row[slot]
            return None if value is None else apply(value, bound)

        if bound is not _UNBOUND:
            return column_constant
        other = _slot(expr.right, layout)

        def column_column(row: Sequence[Any]) -> Any:
            left_value = row[slot]
            right_value = row[other]
            if left_value is None or right_value is None:
                return None
            return apply(left_value, right_value)

        return run if other is None else column_column

    def _connective(
        self, expr: nodes.BinaryOp, layout: RowContext, decisive: bool
    ) -> Compiled:
        """Three-valued AND (``decisive=False``) / OR (``True``): a
        decisive operand settles the result, left first; otherwise any
        NULL makes it NULL."""
        left = self.compile(expr.left, layout)
        right = self.compile(expr.right, layout)

        def run(row: Sequence[Any]) -> Any:
            left_value = left(row)
            if left_value is not None and bool(left_value) is decisive:
                return decisive
            right_value = right(row)
            if right_value is not None and bool(right_value) is decisive:
                return decisive
            if left_value is None or right_value is None:
                return None
            return not decisive

        return run

    def _is_null(self, expr: nodes.IsNull, layout: RowContext) -> Compiled:
        operand = self.compile(expr.operand, layout)
        if expr.negated:
            return lambda row: operand(row) is not None
        return lambda row: operand(row) is None

    def _like(self, expr: nodes.Like, layout: RowContext) -> Compiled:
        operand = self.compile(expr.operand, layout)
        pattern = self.compile(expr.pattern, layout)
        negated = expr.negated
        literal = self._static(expr.pattern)
        fixed = (
            None
            if literal is None or literal is _UNBOUND
            else _like_regex(str(literal))
        )

        def run(row: Sequence[Any]) -> Any:
            value = operand(row)
            like = pattern(row)
            if value is None or like is None:
                return None
            regex = fixed or _like_regex(str(like))
            return (regex.fullmatch(str(value)) is not None) != negated

        return run

    def _between(self, expr: nodes.Between, layout: RowContext) -> Compiled:
        operand = self.compile(expr.operand, layout)
        low = self.compile(expr.low, layout)
        high = self.compile(expr.high, layout)
        negated = expr.negated

        def run(row: Sequence[Any]) -> Any:
            value = operand(row)
            low_value = low(row)
            high_value = high(row)
            if value is None:
                return None
            # ``low <= value AND value <= high``, three-valued: a bound
            # that fails decides even when the other bound is NULL.
            if low_value is not None and not _AT_MOST(low_value, value):
                return negated
            if high_value is not None and not _AT_MOST(value, high_value):
                return negated
            if low_value is None or high_value is None:
                return None
            return not negated

        slot = _slot(expr.operand, layout)
        bounds = self._static(expr.low), self._static(expr.high)
        if slot is None or None in bounds or _UNBOUND in bounds:
            return run
        low_bound, high_bound = bounds

        def column_constants(row: Sequence[Any]) -> Any:
            # The filter shape: both bounds bound once, neither NULL.
            value = row[slot]
            if value is None:
                return None
            inside = _AT_MOST(low_bound, value) and _AT_MOST(value, high_bound)
            return inside != negated

        return column_constants

    def _membership(
        self,
        operand: Compiled,
        candidates: Callable[[Sequence[Any]], Any],
        negated: bool,
    ) -> Compiled:
        """``operand [NOT] IN candidates(row)``, three-valued."""

        def run(row: Sequence[Any]) -> Any:
            value = operand(row)
            if value is None:
                return None
            saw_null = False
            for candidate in candidates(row):
                if candidate is None:
                    saw_null = True
                elif _EQUALS(value, candidate):
                    return not negated
            return None if saw_null else negated

        return run

    def _in_list(self, expr: nodes.InList, layout: RowContext) -> Compiled:
        values = [self._static(item) for item in expr.items]
        if all(value is not _UNBOUND for value in values):
            candidates = _constant(values)
        else:
            items = [self.compile(item, layout) for item in expr.items]
            candidates = lambda row: (item(row) for item in items)  # noqa: E731
        operand = self.compile(expr.operand, layout)
        negated = expr.negated
        walk = self._membership(operand, candidates, negated)
        # A literal list of one type group is a set probe for operands
        # of that group — where ``_EQUALS`` is plain ``==`` — and the
        # walk for any other operand (NULL, a DATE against strings).
        for group in (_NUMERIC, str):
            if all(isinstance(v, group) and v == v for v in values):
                break
        else:
            return walk
        probe = frozenset(values)

        def run(row: Sequence[Any]) -> Any:
            value = operand(row)
            if isinstance(value, group):
                return (value in probe) != negated
            return walk(row)

        return run

    def _in_subquery(
        self, expr: nodes.InSubquery, layout: RowContext
    ) -> Compiled:
        rows = self._subquery(expr.subquery, layout)
        return self._membership(
            self.compile(expr.operand, layout),
            lambda row: (result[0] for result in rows(row)),
            expr.negated,
        )

    def _exists(self, expr: nodes.Exists, layout: RowContext) -> Compiled:
        rows = self._subquery(expr.subquery, layout)
        negated = expr.negated
        return lambda row: (len(rows(row)) > 0) != negated

    def _scalar_subquery(
        self, expr: nodes.ScalarSubquery, layout: RowContext
    ) -> Compiled:
        rows = self._subquery(expr.subquery, layout)

        def run(row: Sequence[Any]) -> Any:
            result = rows(row)
            if not result:
                return None
            if len(result) > 1:
                raise ExecutionError("scalar subquery returned multiple rows")
            return result[0][0]

        return run

    def _subquery(
        self, select: nodes.Select, layout: RowContext
    ) -> Callable[[Sequence[Any]], list]:
        """The subquery's result rows with ``row`` as its outer scope; a run
        that read nothing of it (uncorrelated) serves every later row."""
        run_subquery = self._run_subquery
        if run_subquery is None:
            raise ExecutionError("subqueries are not available here")
        kept: list = []

        def rows(row: Sequence[Any]) -> list:
            if kept:
                return kept[0]
            scope = layout.with_values(row)
            result = run_subquery(select, scope).rows
            if not scope.read:
                kept.append(result)
            return result

        return rows

    def _function(
        self, expr: nodes.FunctionCall, layout: RowContext
    ) -> Compiled:
        name = expr.name
        if is_aggregate_function(name):
            raise ExecutionError(
                f"aggregate {name} used outside GROUP BY context"
            )
        if not is_scalar_function(name):
            raise ExecutionError(f"unknown function: {name}")
        args = [self.compile(arg, layout) for arg in expr.args]
        return lambda row: call_scalar(name, [arg(row) for arg in args])

    def _case(self, expr: nodes.Case, layout: RowContext) -> Compiled:
        branches = [
            (self.compile(condition, layout), self.compile(result, layout))
            for condition, result in expr.branches
        ]
        default = (
            _constant(None)
            if expr.default is None
            else self.compile(expr.default, layout)
        )

        def run(row: Sequence[Any]) -> Any:
            for condition, result in branches:
                if condition(row):
                    return result(row)
            return default(row)

        return run

    def _cast(self, expr: nodes.Cast, layout: RowContext) -> Compiled:
        operand = self.compile(expr.operand, layout)
        data_type = DataType.from_name(expr.type_name)
        return lambda row: coerce(operand(row), data_type)

    def _star(self, expr: nodes.Star, layout: RowContext) -> Compiled:
        raise ExecutionError("'*' is only valid in a select list or COUNT(*)")

    _COMPILERS: dict[type, Callable[..., Compiled]] = {
        nodes.Literal: _bound,
        nodes.Parameter: _bound,
        nodes.ColumnRef: _column,
        nodes.UnaryOp: _unary,
        nodes.BinaryOp: _binary,
        nodes.IsNull: _is_null,
        nodes.Like: _like,
        nodes.Between: _between,
        nodes.InList: _in_list,
        nodes.InSubquery: _in_subquery,
        nodes.Exists: _exists,
        nodes.ScalarSubquery: _scalar_subquery,
        nodes.FunctionCall: _function,
        nodes.Case: _case,
        nodes.Cast: _cast,
        nodes.Star: _star,
    }


def _like_regex(pattern: str) -> "re.Pattern[str]":
    """SQL LIKE with % and _ wildcards, case-insensitive."""
    parts = {"%": ".*", "_": "."}
    return re.compile(
        "".join(parts.get(ch) or re.escape(ch) for ch in pattern),
        flags=re.IGNORECASE | re.DOTALL,
    )
