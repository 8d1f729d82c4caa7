"""Semantic SQL analyzer: schema-aware static checks over parsed ASTs.

The analyzer finds mistakes *before* execution so the Text-to-SQL gate
can repair or reject a model draft without running it. Names are the
engine's to resolve: each statement is bound by
:func:`repro.sqlengine.binder.bind`, against a live
:class:`~repro.sqlengine.Database` (sharing the prepared statement's
binding with execution) or a bare :class:`~repro.sqlengine.Catalog`,
and a :class:`~repro.sqlengine.binder.BindError` is reported under its
own code (unknown table or column, ambiguous column, duplicate CTE,
ordinal out of range). The analyzer then walks the statement for the
rules the engine does not state, reading column types through the
binding:

- type policy: comparisons, arithmetic and function arguments, via
  :mod:`repro.sqlengine.types`,
- grouping policy: aggregates in WHERE, nested aggregates, ungrouped
  columns in grouped queries,
- arity: function arguments, INSERT rows, set operands, IN and scalar
  subqueries, CTE column lists,
- lint-grade smells: ``SELECT *``, cartesian joins, duplicate aliases,
  non-boolean predicates.

The type and grouping policies are stricter than the engine, which
runs ``s = 5`` and an ungrouped column (docs/diagnostics.md § Who owns
each code). The analyzer never raises on a statement :func:`parse_sql`
accepts — it reports :class:`~repro.analysis.diagnostics.Diagnostic`
objects instead (property-tested in ``tests/analysis/test_analyzer_fuzz.py``).
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.diagnostics import Diagnostic, diagnostic
from repro.sqlengine import nodes
from repro.sqlengine.binder import (
    BindError,
    Binding,
    NameResolver,
    bind,
    is_ordinal,
)
from repro.sqlengine.database import Database
from repro.sqlengine.errors import SqlSyntaxError, TypeCheckError
from repro.sqlengine.functions import is_aggregate_function, is_scalar_function
from repro.sqlengine.parser import parse_sql
from repro.sqlengine.types import DataType, infer_type

_NUMERIC = {DataType.INTEGER, DataType.REAL, DataType.BOOLEAN}

#: scalar function -> (min arity, max arity or None for variadic).
_SCALAR_ARITY: dict[str, tuple[int, Optional[int]]] = {
    "ABS": (1, 1), "ROUND": (1, 2), "FLOOR": (1, 1), "CEIL": (1, 1),
    "CEILING": (1, 1), "SQRT": (1, 1), "POWER": (2, 2), "MOD": (2, 2),
    "SIGN": (1, 1), "LENGTH": (1, 1), "LOWER": (1, 1), "UPPER": (1, 1),
    "TRIM": (1, 1), "LTRIM": (1, 1), "RTRIM": (1, 1), "SUBSTR": (2, 3),
    "SUBSTRING": (2, 3), "REPLACE": (3, 3), "CONCAT": (1, None),
    "INSTR": (2, 2), "YEAR": (1, 1), "MONTH": (1, 1), "DAY": (1, 1),
    "STRFTIME": (2, 2), "DATE": (1, 1), "COALESCE": (1, None),
    "NULLIF": (2, 2), "IFNULL": (2, 2), "MIN2": (2, 2), "MAX2": (2, 2),
}

#: functions whose arguments must be numeric.
_NUMERIC_ARG_FUNCTIONS = frozenset(
    {"ABS", "ROUND", "FLOOR", "CEIL", "CEILING", "SQRT", "POWER", "MOD",
     "SIGN", "SUM", "AVG"}
)

_TEXT_RESULT = frozenset(
    {"LOWER", "UPPER", "TRIM", "LTRIM", "RTRIM", "SUBSTR", "SUBSTRING",
     "REPLACE", "CONCAT", "STRFTIME", "GROUP_CONCAT"}
)
_INTEGER_RESULT = frozenset(
    {"LENGTH", "INSTR", "YEAR", "MONTH", "DAY", "FLOOR", "CEIL", "CEILING",
     "SIGN", "MOD", "COUNT"}
)
_REAL_RESULT = frozenset({"ROUND", "SQRT", "POWER", "AVG"})
#: scalar functions typed by their first argument.
_FIRST_ARG_RESULT = frozenset(
    {"COALESCE", "NULLIF", "IFNULL", "MIN2", "MAX2", "ABS"}
)

#: Per select item, its type; None for a select whose ``*`` hides them.
Types = Optional[list[Optional[DataType]]]


def _contains_aggregate(expr: nodes.Expression) -> bool:
    if isinstance(expr, nodes.FunctionCall) and is_aggregate_function(
        expr.name
    ):
        return True
    return any(_contains_aggregate(child) for child in nodes.children(expr))


def _comparable(left: Optional[DataType], right: Optional[DataType]) -> bool:
    """Whether the engine can compare values of these two types."""
    if left is None or right is None or left is right:
        return True
    if left in _NUMERIC and right in _NUMERIC:
        return True
    # DATE columns compare against ISO-8601 TEXT literals.
    return {left, right} == {DataType.DATE, DataType.TEXT}


class SqlAnalyzer:
    """Analyze parsed statements against a schema: a
    :class:`~repro.sqlengine.Catalog`, a live
    :class:`~repro.sqlengine.Database` (whose views resolve too), or
    ``None`` to run only the schema-independent checks (linting SQL
    files with no database at hand).
    """

    def __init__(self, schema: Optional[NameResolver] = None) -> None:
        self._schema = schema
        self._binding: Optional[Binding] = None
        #: ``id(select)`` -> the item types of a select analyzed so far,
        #: which type the columns of a CTE or derived table reading it.
        self._outputs: dict[int, Types] = {}

    # -- public API --------------------------------------------------------

    def analyze_sql(self, sql: str) -> list[Diagnostic]:
        """Parse (through a database's prepared-statement memo, if the
        schema is one) and analyze; syntax errors become ``SQL000``."""
        parse = getattr(self._schema, "parse", parse_sql)
        try:
            statement = parse(sql)
        except SqlSyntaxError as exc:
            return [
                diagnostic(
                    "SQL000",
                    str(exc),
                    subject=sql.strip()[:80],
                    hint="the SQL could not be parsed at all",
                )
            ]
        return self.analyze(statement, sql)

    def analyze(
        self, statement: nodes.Statement, sql: Optional[str] = None
    ) -> list[Diagnostic]:
        """Analyze one parsed statement (``sql`` its text, which finds a
        database's prepared binding), returning all findings."""
        diags: list[Diagnostic] = []
        self._binding, self._outputs = None, {}
        if self._schema is not None:
            try:
                self._binding = self._bind(statement, sql)
            except BindError as error:
                diags.append(self._name_diagnostic(error))
        if isinstance(statement, nodes.Select):
            self._select(statement, diags)
        elif isinstance(statement, (nodes.CreateView, nodes.Explain)):
            self._select(statement.query, diags)
        elif isinstance(statement, nodes.Insert):
            self._insert(statement, diags)
        elif isinstance(statement, (nodes.Update, nodes.Delete)):
            self._update_or_delete(statement, diags)
        elif isinstance(statement, nodes.CreateTable):
            self._create_table(statement, diags)
        return diags

    def _bind(self, statement: nodes.Statement, sql: Optional[str]) -> Binding:
        if (
            isinstance(self._schema, Database)
            and sql is not None
            and isinstance(statement, nodes.Select)
        ):
            prepared, binding = self._schema.bind(sql)
            if prepared is statement:  # not evicted from the memo since
                return binding
        return bind(statement, self._schema)

    def _name_diagnostic(self, error: BindError) -> Diagnostic:
        hint = ""
        if error.code == "SQL001":
            catalog = getattr(self._schema, "catalog", self._schema)
            hint = "known tables: " + ", ".join(sorted(catalog.table_names()))
        elif error.code == "SQL003":
            hint = "qualify the column with its table or alias"
        return diagnostic(error.code, str(error), subject=error.name, hint=hint)

    def _column_type(self, ref: nodes.ColumnRef) -> Optional[DataType]:
        bound = self._binding and self._binding.refs.get(id(ref))
        if not bound:
            return None  # unbound, or an alias / output column name
        source = bound.source
        if source.schema is not None:
            return source.schema.columns[bound.index].data_type
        types = self._outputs.get(id(source.query))
        return types[bound.index] if types and bound.index < len(types) else None

    # -- expression analysis -----------------------------------------------

    def _expr(
        self,
        expr: nodes.Expression,
        diags: list[Diagnostic],
        clause: str = "select",
        in_aggregate: bool = False,
    ) -> Optional[DataType]:
        """Type-check one expression tree, emitting findings as it goes."""

        def recurse(e: nodes.Expression) -> Optional[DataType]:
            return self._expr(e, diags, clause, in_aggregate)

        if isinstance(expr, nodes.Literal):
            return None if expr.value is None else infer_type(expr.value)
        if isinstance(expr, nodes.ColumnRef):
            return self._column_type(expr)
        if isinstance(expr, nodes.UnaryOp):
            operand = recurse(expr.operand)
            if expr.op in ("-", "+"):
                if operand in (DataType.TEXT, DataType.DATE):
                    diags.append(
                        diagnostic(
                            "SQL004",
                            f"unary {expr.op!r} applied to "
                            f"{operand.value} operand",
                            subject=expr.to_sql()[:80],
                        )
                    )
                return operand
            return DataType.BOOLEAN  # NOT
        if isinstance(expr, nodes.BinaryOp):
            return self._binary(expr, diags, clause, in_aggregate)
        if isinstance(expr, nodes.IsNull):
            recurse(expr.operand)
            return DataType.BOOLEAN
        if isinstance(expr, nodes.Like):
            operand = recurse(expr.operand)
            pattern = recurse(expr.pattern)
            for side, label in ((operand, "operand"), (pattern, "pattern")):
                if side in (DataType.INTEGER, DataType.REAL, DataType.DATE):
                    diags.append(
                        diagnostic(
                            "SQL004",
                            f"LIKE {label} has type {side.value}, "
                            "expected TEXT",
                            subject=expr.to_sql()[:80],
                        )
                    )
            return DataType.BOOLEAN
        if isinstance(expr, nodes.Between):
            operand = recurse(expr.operand)
            for bound in (expr.low, expr.high):
                bound_type = recurse(bound)
                if not _comparable(operand, bound_type):
                    diags.append(
                        diagnostic(
                            "SQL004",
                            f"BETWEEN bound of type {bound_type.value} is "
                            f"not comparable to {operand.value} operand",
                            subject=expr.to_sql()[:80],
                        )
                    )
            return DataType.BOOLEAN
        if isinstance(expr, nodes.InList):
            operand = recurse(expr.operand)
            for item in expr.items:
                item_type = recurse(item)
                if not _comparable(operand, item_type):
                    diags.append(
                        diagnostic(
                            "SQL004",
                            f"IN list item of type {item_type.value} is "
                            f"not comparable to {operand.value} operand",
                            subject=item.to_sql()[:80],
                        )
                    )
            return DataType.BOOLEAN
        if isinstance(expr, (nodes.InSubquery, nodes.ScalarSubquery)):
            scalar = isinstance(expr, nodes.ScalarSubquery)
            if not scalar:
                recurse(expr.operand)
            types = self._select(expr.subquery, diags)
            if types is not None and len(types) != 1:
                diags.append(
                    diagnostic(
                        "SQL015",
                        f"{'scalar' if scalar else 'IN'} subquery returns "
                        f"{len(types)} columns, expected exactly 1",
                        subject=expr.subquery.to_sql()[:80],
                    )
                )
            if not scalar:
                return DataType.BOOLEAN
            return types[0] if types is not None and len(types) == 1 else None
        if isinstance(expr, nodes.Exists):
            self._select(expr.subquery, diags)
            return DataType.BOOLEAN
        if isinstance(expr, nodes.FunctionCall):
            return self._function(expr, diags, clause, in_aggregate)
        if isinstance(expr, nodes.Case):
            result_type: Optional[DataType] = None
            for condition, result in expr.branches:
                recurse(condition)
                branch_type = recurse(result)
                if result_type is None:
                    result_type = branch_type
            if expr.default is not None:
                default_type = recurse(expr.default)
                if result_type is None:
                    result_type = default_type
            return result_type
        if isinstance(expr, nodes.Cast):
            recurse(expr.operand)
            try:
                return DataType.from_name(expr.type_name)
            except TypeCheckError:
                diags.append(
                    diagnostic(
                        "SQL004",
                        f"CAST to unknown type {expr.type_name!r}",
                        subject=expr.to_sql()[:80],
                    )
                )
                return None
        return None  # Parameter, Star

    def _binary(
        self,
        expr: nodes.BinaryOp,
        diags: list[Diagnostic],
        clause: str,
        in_aggregate: bool,
    ) -> Optional[DataType]:
        left = self._expr(expr.left, diags, clause, in_aggregate)
        right = self._expr(expr.right, diags, clause, in_aggregate)
        op = expr.op.upper()
        if op in ("AND", "OR"):
            for side in (left, right):
                if side is not None and side is not DataType.BOOLEAN:
                    diags.append(
                        diagnostic(
                            "SQL014",
                            f"{op} operand has type {side.value}, "
                            "expected a boolean condition",
                            subject=expr.to_sql()[:80],
                        )
                    )
            return DataType.BOOLEAN
        if op in ("=", "<>", "!=", "<", ">", "<=", ">="):
            if not _comparable(left, right):
                diags.append(
                    diagnostic(
                        "SQL004",
                        f"cannot compare {left.value} with {right.value}",
                        subject=expr.to_sql()[:80],
                        hint="cast one side or fix the column reference",
                    )
                )
            return DataType.BOOLEAN
        if op == "||":
            return DataType.TEXT
        if op in ("+", "-", "*", "/", "%"):
            for side in (left, right):
                if side in (DataType.TEXT, DataType.DATE):
                    diags.append(
                        diagnostic(
                            "SQL004",
                            f"arithmetic {expr.op!r} on {side.value} "
                            "operand",
                            subject=expr.to_sql()[:80],
                        )
                    )
            if DataType.REAL in (left, right) or op == "/":
                return DataType.REAL
            if left is None and right is None:
                return None
            return DataType.INTEGER
        return None

    def _function(
        self,
        expr: nodes.FunctionCall,
        diags: list[Diagnostic],
        clause: str,
        in_aggregate: bool,
    ) -> Optional[DataType]:
        name = expr.name.upper()
        is_aggregate = is_aggregate_function(name)
        if is_aggregate:
            if in_aggregate:
                diags.append(
                    diagnostic(
                        "SQL008",
                        f"aggregate {name} nested inside another aggregate",
                        subject=expr.to_sql()[:80],
                        hint="compute the inner aggregate in a subquery",
                    )
                )
            if clause == "where":
                diags.append(
                    diagnostic(
                        "SQL007",
                        f"aggregate {name} is not allowed in WHERE",
                        subject=expr.to_sql()[:80],
                        hint="move the condition to a HAVING clause",
                    )
                )
            star_count = isinstance(expr.args[0], nodes.Star) if expr.args else False
            max_args = 2 if name == "GROUP_CONCAT" else 1
            if not (name == "COUNT" and star_count) and not (
                1 <= len(expr.args) <= max_args
            ):
                diags.append(
                    diagnostic(
                        "SQL006",
                        f"{name} takes 1 argument, got {len(expr.args)}",
                        subject=expr.to_sql()[:80],
                    )
                )
        elif not is_scalar_function(name):
            diags.append(
                diagnostic(
                    "SQL005",
                    f"unknown function {name}",
                    subject=expr.to_sql()[:80],
                )
            )
            for arg in expr.args:
                self._expr(arg, diags, clause, in_aggregate)
            return None
        else:
            low, high = _SCALAR_ARITY.get(name, (0, None))
            if len(expr.args) < low or (
                high is not None and len(expr.args) > high
            ):
                expected = (
                    str(low) if high == low
                    else f"{low}..{high if high is not None else 'n'}"
                )
                diags.append(
                    diagnostic(
                        "SQL006",
                        f"{name} takes {expected} arguments, "
                        f"got {len(expr.args)}",
                        subject=expr.to_sql()[:80],
                    )
                )
        arg_types = [
            self._expr(arg, diags, clause, in_aggregate or is_aggregate)
            for arg in expr.args
        ]
        if name in _NUMERIC_ARG_FUNCTIONS:
            for arg, arg_type in zip(expr.args, arg_types):
                if arg_type in (DataType.TEXT, DataType.DATE):
                    diags.append(
                        diagnostic(
                            "SQL004",
                            f"{name} argument has type {arg_type.value}, "
                            "expected a number",
                            subject=arg.to_sql()[:80],
                        )
                    )
        if name in _INTEGER_RESULT:
            return DataType.INTEGER
        if name in _REAL_RESULT:
            return DataType.REAL
        if name in _TEXT_RESULT:
            return DataType.TEXT
        if name == "DATE":
            return DataType.DATE
        if is_aggregate or name in _FIRST_ARG_RESULT:  # SUM/MIN/MAX too
            return arg_types[0] if arg_types else None
        return None

    # -- SELECT ------------------------------------------------------------

    def _select(self, select: nodes.Select, diags: list[Diagnostic]) -> Types:
        """Analyze a query with its WITH clause and compound operands;
        the item types of its output."""
        for cte in select.ctes:
            types = self._select(cte.query, diags)
            if cte.columns and types is not None and len(cte.columns) != len(types):
                diags.append(
                    diagnostic(
                        "SQL017",
                        f"CTE {cte.name!r} declares "
                        f"{len(cte.columns)} columns but its query "
                        f"returns {len(types)}",
                        subject=cte.name,
                    )
                )
        types = self._core(select, diags)
        for op, query in select.compound:
            other = self._select(query, diags)
            if types is not None and other is not None and len(types) != len(other):
                diags.append(
                    diagnostic(
                        "SQL015",
                        f"{op} operands have different widths: "
                        f"{len(types)} vs {len(other)} columns",
                        subject=query.to_sql()[:80],
                    )
                )
        self._outputs[id(select)] = types
        return types

    def _core(self, select: nodes.Select, diags: list[Diagnostic]) -> Types:
        if select.source is not None:
            self._from(select.source, set(), diags)
        types: Types = []
        for item in select.items:
            if isinstance(item.expression, nodes.Star):
                diags.append(
                    diagnostic(
                        "SQL010",
                        "SELECT * hides schema changes and widens results",
                        subject=item.expression.to_sql(),
                        hint="name the columns you need",
                    )
                )
                types = None
                continue
            item_type = self._expr(item.expression, diags)
            if types is not None:
                types.append(item_type)
        self._predicate(select.where, "WHERE", diags)
        # Aliases and ordinals type as nothing: their items are analyzed.
        for expr in select.group_by:
            self._expr(expr, diags, clause="group")
        self._predicate(select.having, "HAVING", diags)
        for order in select.order_by:
            self._expr(order.expression, diags, clause="order")
        for bound in (select.limit, select.offset):
            if bound is not None:
                self._expr(bound, diags, clause="limit")
        self._check_grouping(select, diags)
        return types

    def _from(
        self, source: nodes.TableRef, seen: set[str], diags: list[Diagnostic]
    ) -> None:
        if isinstance(source, nodes.SubqueryTable):
            self._select(source.subquery, diags)
        if not isinstance(source, nodes.Join):
            if source.binding.lower() in seen:
                diags.append(
                    diagnostic(
                        "SQL013",
                        f"duplicate table alias {source.binding!r} in FROM "
                        "clause",
                        subject=source.binding,
                        hint="give each table a distinct alias",
                    )
                )
            seen.add(source.binding.lower())
            return
        self._from(source.left, seen, diags)
        self._from(source.right, seen, diags)
        if source.join_type == "CROSS" or source.condition is None:
            diags.append(
                diagnostic(
                    "SQL011",
                    "join without a join condition multiplies every row pair",
                    subject=source.to_sql()[:80],
                    hint="add an ON clause relating the two sides",
                )
            )
        elif isinstance(source.condition, nodes.Literal):
            diags.append(
                diagnostic(
                    "SQL011",
                    "constant join condition is effectively a cartesian "
                    "product",
                    subject=source.condition.to_sql(),
                )
            )
        self._predicate(source.condition, "ON", diags)

    def _predicate(
        self,
        expr: Optional[nodes.Expression],
        clause: str,
        diags: list[Diagnostic],
    ) -> None:
        """Type-check a WHERE / ON / HAVING condition, which must be
        boolean."""
        if expr is None:
            return
        predicate_type = self._expr(expr, diags, clause=clause.lower())
        if predicate_type is not None and predicate_type is not DataType.BOOLEAN:
            diags.append(
                diagnostic(
                    "SQL014",
                    f"{clause} condition has type {predicate_type.value}, "
                    "expected a boolean",
                    subject=expr.to_sql()[:80],
                )
            )

    # -- aggregation rules -------------------------------------------------

    def _check_grouping(
        self, select: nodes.Select, diags: list[Diagnostic]
    ) -> None:
        has_aggregates = any(
            _contains_aggregate(item.expression)
            for item in select.items
            if not isinstance(item.expression, nodes.Star)
        ) or (select.having is not None and _contains_aggregate(select.having))
        if not select.group_by and not has_aggregates:
            return
        keys: set[str] = set()
        for expr in select.group_by:
            resolved = expr
            # Alias/ordinal group keys cover the matching select item.
            if is_ordinal(expr) and 1 <= expr.value <= len(select.items):
                item = select.items[expr.value - 1]
                resolved = item.expression
                if item.alias:
                    keys.add(item.alias.lower())
            if isinstance(expr, nodes.ColumnRef) and expr.table is None:
                for item in select.items:
                    if item.alias and item.alias.lower() == expr.name.lower():
                        resolved = item.expression
                        keys.add(item.alias.lower())
            keys.add(resolved.to_sql().lower())
            if isinstance(resolved, nodes.ColumnRef):
                keys.add(resolved.name.lower())
        for item in select.items:
            subject = item.to_sql()
            if item.alias and item.alias.lower() in keys:
                continue
            self._check_grouped(item.expression, keys, subject, diags)
        if select.having is not None:
            self._check_grouped(
                select.having, keys, select.having.to_sql()[:80], diags
            )

    def _check_grouped(
        self,
        expr: nodes.Expression,
        keys: set[str],
        subject: str,
        diags: list[Diagnostic],
    ) -> None:
        if expr.to_sql().lower() in keys:
            return
        if isinstance(expr, nodes.ColumnRef):
            if expr.name.lower() in keys:
                return
            diags.append(
                diagnostic(
                    "SQL009",
                    f"column {expr.to_sql()!r} is neither grouped nor "
                    "aggregated",
                    subject=subject[:80],
                    hint="add it to GROUP BY or wrap it in an aggregate",
                )
            )
            return
        if isinstance(expr, nodes.Star):
            diags.append(
                diagnostic(
                    "SQL009",
                    "* selects ungrouped columns in a grouped query",
                    subject=subject[:80],
                )
            )
            return
        if isinstance(expr, nodes.FunctionCall) and is_aggregate_function(
            expr.name
        ):
            return  # everything inside an aggregate is fine
        for child in nodes.children(expr):
            self._check_grouped(child, keys, subject, diags)

    # -- DML / DDL ---------------------------------------------------------

    def _target_type(self, stmt: nodes.Statement, column: str) -> Optional[DataType]:
        """The declared type of an INSERT / UPDATE target column."""
        target = self._binding and self._binding.sources.get(id(stmt))
        return target.schema.column(column).data_type if target else None

    def _insert(self, stmt: nodes.Insert, diags: list[Diagnostic]) -> None:
        target = self._binding and self._binding.sources.get(id(stmt))
        width: Optional[int] = None
        column_types: list[Optional[DataType]] = []
        if stmt.columns:
            width = len(stmt.columns)
            column_types = [self._target_type(stmt, c) for c in stmt.columns]
            if len({c.lower() for c in stmt.columns}) != len(stmt.columns):
                diags.append(
                    diagnostic(
                        "SQL013",
                        "duplicate column in INSERT column list",
                        subject=", ".join(stmt.columns),
                    )
                )
        elif target:
            width = len(target.columns)
            column_types = [c.data_type for c in target.schema.columns]
        for row in stmt.rows:
            if width is not None and len(row) != width:
                diags.append(
                    diagnostic(
                        "SQL012",
                        f"INSERT row has {len(row)} values, expected "
                        f"{width}",
                        subject="(" + ", ".join(v.to_sql() for v in row)[:70]
                        + ")",
                    )
                )
                continue
            for value, expected in zip(row, column_types):
                value_type = self._expr(value, diags)
                if not _comparable(value_type, expected):
                    diags.append(
                        diagnostic(
                            "SQL004",
                            f"INSERT value of type {value_type.value} "
                            f"into {expected.value} column",
                            subject=value.to_sql()[:80],
                        )
                    )
        if stmt.query is not None:
            types = self._select(stmt.query, diags)
            if width is not None and types is not None and len(types) != width:
                diags.append(
                    diagnostic(
                        "SQL012",
                        f"INSERT ... SELECT provides {len(types)} columns, "
                        f"expected {width}",
                        subject=stmt.query.to_sql()[:80],
                    )
                )

    def _update_or_delete(
        self, stmt: nodes.Update | nodes.Delete, diags: list[Diagnostic]
    ) -> None:
        for column, value in getattr(stmt, "assignments", ()):
            expected = self._target_type(stmt, column)
            value_type = self._expr(value, diags)
            if not _comparable(value_type, expected):
                diags.append(
                    diagnostic(
                        "SQL004",
                        f"assignment of {value_type.value} value to "
                        f"{expected.value} column {column!r}",
                        subject=value.to_sql()[:80],
                    )
                )
        self._predicate(stmt.where, "WHERE", diags)

    def _create_table(
        self, stmt: nodes.CreateTable, diags: list[Diagnostic]
    ) -> None:
        seen: set[str] = set()
        for column in stmt.columns:
            if column.name.lower() in seen:
                diags.append(
                    diagnostic(
                        "SQL013",
                        f"duplicate column {column.name!r} in CREATE TABLE",
                        subject=column.name,
                    )
                )
            seen.add(column.name.lower())
            try:
                DataType.from_name(column.type_name)
            except TypeCheckError:
                diags.append(
                    diagnostic(
                        "SQL004",
                        f"unknown column type {column.type_name!r}",
                        subject=f"{column.name} {column.type_name}",
                    )
                )


def analyze_sql(
    sql: str, schema: Optional[NameResolver] = None
) -> list[Diagnostic]:
    """Convenience wrapper: parse + analyze one statement."""
    return SqlAnalyzer(schema).analyze_sql(sql)


def analyze_statement(
    statement: nodes.Statement, schema: Optional[NameResolver] = None
) -> list[Diagnostic]:
    """Convenience wrapper: analyze an already-parsed statement."""
    return SqlAnalyzer(schema).analyze(statement)
