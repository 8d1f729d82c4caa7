"""Semantic SQL analyzer: schema-aware static checks over parsed ASTs.

The executor finds these mistakes at run time; the analyzer finds them
*before* execution so the Text-to-SQL gate can repair or reject a model
draft without touching the database. Checks:

- name resolution against the :class:`~repro.sqlengine.catalog.Catalog`
  (unknown tables/columns, ambiguous references, duplicate aliases),
- type checking of comparisons, arithmetic and function arguments via
  :mod:`repro.sqlengine.types`,
- aggregation rules (aggregates in WHERE, nested aggregates, ungrouped
  columns in grouped queries),
- lint-grade smells (``SELECT *``, cartesian joins, non-boolean
  predicates).

The analyzer never raises on a statement :func:`parse_sql` accepts — it
reports :class:`~repro.analysis.diagnostics.Diagnostic` objects instead
(property-tested in ``tests/analysis/test_analyzer_fuzz.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.analysis.diagnostics import Diagnostic, diagnostic
from repro.sqlengine import nodes
from repro.sqlengine.catalog import Catalog
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


def _children(expr: nodes.Expression) -> tuple[nodes.Expression, ...]:
    """Direct sub-expressions, excluding subqueries (handled separately)."""
    if isinstance(expr, nodes.UnaryOp):
        return (expr.operand,)
    if isinstance(expr, nodes.BinaryOp):
        return (expr.left, expr.right)
    if isinstance(expr, nodes.IsNull):
        return (expr.operand,)
    if isinstance(expr, nodes.Like):
        return (expr.operand, expr.pattern)
    if isinstance(expr, nodes.Between):
        return (expr.operand, expr.low, expr.high)
    if isinstance(expr, nodes.InList):
        return (expr.operand, *expr.items)
    if isinstance(expr, nodes.InSubquery):
        return (expr.operand,)
    if isinstance(expr, nodes.FunctionCall):
        return expr.args
    if isinstance(expr, nodes.Case):
        flat: list[nodes.Expression] = []
        for condition, result in expr.branches:
            flat.extend((condition, result))
        if expr.default is not None:
            flat.append(expr.default)
        return tuple(flat)
    if isinstance(expr, nodes.Cast):
        return (expr.operand,)
    return ()


def _contains_aggregate(expr: nodes.Expression) -> bool:
    if isinstance(expr, nodes.FunctionCall) and is_aggregate_function(
        expr.name
    ):
        return True
    return any(_contains_aggregate(child) for child in _children(expr))


def _comparable(left: Optional[DataType], right: Optional[DataType]) -> bool:
    """Whether the engine can compare values of these two types."""
    if left is None or right is None or left is right:
        return True
    if left in _NUMERIC and right in _NUMERIC:
        return True
    # DATE columns compare against ISO-8601 TEXT literals.
    pair = {left, right}
    if pair == {DataType.DATE, DataType.TEXT}:
        return True
    return False


@dataclass
class _Binding:
    """One FROM-clause source visible to column references."""

    name: str
    #: lowered column name -> type; ``None`` when the source is unknown
    #: (missing table, ``SELECT *`` subquery) and resolution must not
    #: cascade further errors.
    columns: Optional[dict[str, Optional[DataType]]]


@dataclass
class _Scope:
    """Name-resolution scope; ``parent`` enables correlated subqueries."""

    bindings: dict[str, _Binding] = field(default_factory=dict)
    parent: Optional["_Scope"] = None
    #: output aliases of the SELECT list, visible to GROUP BY / HAVING /
    #: ORDER BY (the executor resolves them the same way).
    aliases: dict[str, Optional[DataType]] = field(default_factory=dict)

    @property
    def has_unknown(self) -> bool:
        return any(b.columns is None for b in self.bindings.values())


@dataclass
class _SelectInfo:
    """What a subquery exposes to its consumer."""

    #: (output name, type) per item; ``None`` when a ``*`` item makes the
    #: output width unknowable without execution.
    columns: Optional[list[tuple[str, Optional[DataType]]]]

    @property
    def width(self) -> Optional[int]:
        return None if self.columns is None else len(self.columns)


class SqlAnalyzer:
    """Analyze parsed statements against a schema catalog.

    ``catalog=None`` runs only schema-independent checks (useful for
    linting SQL files with no database at hand).
    """

    def __init__(self, catalog: Optional[Catalog] = None) -> None:
        self._catalog = catalog
        #: WITH-clause scope frames (innermost last): lower-cased CTE
        #: name -> output columns, or None when unknowable (SELECT *).
        self._cte_frames: list[
            dict[str, Optional[dict[str, Optional[DataType]]]]
        ] = []

    # -- public API --------------------------------------------------------

    def analyze_sql(
        self, sql: str, parse: Callable[[str], nodes.Statement] = parse_sql
    ) -> list[Diagnostic]:
        """Parse (with ``parse``, e.g. a database's prepared-statement
        memo) and analyze; syntax errors become ``SQL000`` findings."""
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
        return self.analyze(statement)

    def analyze(self, statement: nodes.Statement) -> list[Diagnostic]:
        """Analyze one parsed statement, returning all findings."""
        diags: list[Diagnostic] = []
        if isinstance(statement, nodes.Select):
            self._select(statement, None, diags)
        elif isinstance(statement, nodes.Insert):
            self._insert(statement, diags)
        elif isinstance(statement, nodes.Update):
            self._update(statement, diags)
        elif isinstance(statement, nodes.Delete):
            self._delete(statement, diags)
        elif isinstance(statement, nodes.CreateTable):
            self._create_table(statement, diags)
        elif isinstance(statement, nodes.CreateIndex):
            self._create_index(statement, diags)
        elif isinstance(statement, nodes.CreateView):
            self._select(statement.query, None, diags)
        elif isinstance(statement, nodes.Explain):
            self._select(statement.query, None, diags)
        elif isinstance(statement, (nodes.DropTable, nodes.DropView)):
            self._drop(statement, diags)
        # DropIndex / TransactionStatement: nothing to check statically.
        return diags

    # -- table resolution --------------------------------------------------

    def _table_columns(
        self, name: str
    ) -> Optional[dict[str, Optional[DataType]]]:
        if self._catalog is None:
            return None
        if not self._catalog.has_table(name):
            return None
        schema = self._catalog.table(name)
        return {c.name.lower(): c.data_type for c in schema.columns}

    def _lookup_cte(
        self, name: str
    ) -> tuple[bool, Optional[dict[str, Optional[DataType]]]]:
        """(is a CTE in scope, its columns or None when unknowable)."""
        key = name.lower()
        for frame in reversed(self._cte_frames):
            if key in frame:
                return True, frame[key]
        return False, None

    def _collect_bindings(
        self,
        source: nodes.TableRef,
        scope: _Scope,
        conditions: list[nodes.Expression],
        diags: list[Diagnostic],
    ) -> None:
        if isinstance(source, nodes.NamedTable):
            is_cte, columns = self._lookup_cte(source.name)
            if not is_cte:
                columns = self._table_columns(source.name)
                if columns is None and self._catalog is not None:
                    diags.append(
                        diagnostic(
                            "SQL001",
                            f"unknown table {source.name!r}",
                            subject=source.name,
                            hint="known tables: "
                            + ", ".join(sorted(self._catalog.table_names())),
                        )
                    )
            self._bind(source.binding, columns, scope, diags)
        elif isinstance(source, nodes.SubqueryTable):
            info = self._select(source.subquery, scope.parent, diags)
            columns: Optional[dict[str, Optional[DataType]]]
            if info.columns is None:
                columns = None
            else:
                columns = {name.lower(): dtype for name, dtype in info.columns}
            self._bind(source.alias, columns, scope, diags)
        elif isinstance(source, nodes.Join):
            self._collect_bindings(source.left, scope, conditions, diags)
            self._collect_bindings(source.right, scope, conditions, diags)
            if source.join_type == "CROSS" or (
                source.condition is None and source.join_type != "CROSS"
            ):
                diags.append(
                    diagnostic(
                        "SQL011",
                        "join without a join condition multiplies every "
                        "row pair",
                        subject=source.to_sql()[:80],
                        hint="add an ON clause relating the two sides",
                    )
                )
            elif isinstance(source.condition, nodes.Literal):
                diags.append(
                    diagnostic(
                        "SQL011",
                        "constant join condition is effectively a "
                        "cartesian product",
                        subject=source.condition.to_sql(),
                    )
                )
            if source.condition is not None:
                conditions.append(source.condition)

    def _bind(
        self,
        binding: str,
        columns: Optional[dict[str, Optional[DataType]]],
        scope: _Scope,
        diags: list[Diagnostic],
    ) -> None:
        key = binding.lower()
        if key in scope.bindings:
            diags.append(
                diagnostic(
                    "SQL013",
                    f"duplicate table alias {binding!r} in FROM clause",
                    subject=binding,
                    hint="give each table a distinct alias",
                )
            )
            return
        scope.bindings[key] = _Binding(binding, columns)

    # -- column resolution -------------------------------------------------

    def _resolve_column(
        self,
        ref: nodes.ColumnRef,
        scope: Optional[_Scope],
        diags: list[Diagnostic],
        allow_aliases: bool = False,
    ) -> Optional[DataType]:
        if scope is None:
            return None
        if allow_aliases and ref.table is None:
            if ref.name.lower() in scope.aliases:
                return scope.aliases[ref.name.lower()]
        if ref.table is not None:
            level: Optional[_Scope] = scope
            while level is not None:
                binding = level.bindings.get(ref.table.lower())
                if binding is not None:
                    if binding.columns is None:
                        return None
                    if ref.name.lower() in binding.columns:
                        return binding.columns[ref.name.lower()]
                    diags.append(
                        diagnostic(
                            "SQL002",
                            f"table {binding.name!r} has no column "
                            f"{ref.name!r}",
                            subject=ref.to_sql(),
                            hint="columns: "
                            + ", ".join(sorted(binding.columns)),
                        )
                    )
                    return None
                level = level.parent
            if self._catalog is not None:
                diags.append(
                    diagnostic(
                        "SQL001",
                        f"{ref.table!r} is not a table or alias in scope",
                        subject=ref.to_sql(),
                    )
                )
            return None
        # Unqualified reference: search each scope level outwards.
        level = scope
        while level is not None:
            matches = [
                binding
                for binding in level.bindings.values()
                if binding.columns is not None
                and ref.name.lower() in binding.columns
            ]
            if len(matches) > 1:
                diags.append(
                    diagnostic(
                        "SQL003",
                        f"column {ref.name!r} is ambiguous: it exists in "
                        + " and ".join(
                            sorted(m.name for m in matches)
                        ),
                        subject=ref.name,
                        hint="qualify the column with its table or alias",
                    )
                )
                return None
            if len(matches) == 1:
                return matches[0].columns[ref.name.lower()]
            if level.has_unknown:
                # An unresolvable source could define this column; stay
                # silent rather than cascade a false positive.
                return None
            level = level.parent
        if self._catalog is not None:
            diags.append(
                diagnostic(
                    "SQL002",
                    f"column {ref.name!r} does not exist in any table "
                    "in scope",
                    subject=ref.name,
                )
            )
        return None

    # -- expression analysis -----------------------------------------------

    def _expr(
        self,
        expr: nodes.Expression,
        scope: Optional[_Scope],
        diags: list[Diagnostic],
        clause: str = "select",
        in_aggregate: bool = False,
        allow_aliases: bool = False,
    ) -> Optional[DataType]:
        """Type-check one expression tree, emitting findings as it goes."""
        recurse = lambda e, **kw: self._expr(  # noqa: E731
            e,
            scope,
            diags,
            clause=kw.get("clause", clause),
            in_aggregate=kw.get("in_aggregate", in_aggregate),
            allow_aliases=allow_aliases,
        )
        if isinstance(expr, nodes.Literal):
            return None if expr.value is None else infer_type(expr.value)
        if isinstance(expr, nodes.Parameter):
            return None
        if isinstance(expr, nodes.ColumnRef):
            return self._resolve_column(expr, scope, diags, allow_aliases)
        if isinstance(expr, nodes.Star):
            if (
                expr.table is not None
                and scope is not None
                and self._catalog is not None
            ):
                level: Optional[_Scope] = scope
                found = False
                while level is not None:
                    if expr.table.lower() in level.bindings:
                        found = True
                        break
                    level = level.parent
                if not found:
                    diags.append(
                        diagnostic(
                            "SQL001",
                            f"{expr.table!r} is not a table or alias in "
                            "scope",
                            subject=expr.to_sql(),
                        )
                    )
            return None
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
            return self._binary(expr, scope, diags, clause, in_aggregate,
                                allow_aliases)
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
        if isinstance(expr, nodes.InSubquery):
            recurse(expr.operand)
            info = self._select(expr.subquery, scope, diags)
            if info.width is not None and info.width != 1:
                diags.append(
                    diagnostic(
                        "SQL015",
                        f"IN subquery returns {info.width} columns, "
                        "expected exactly 1",
                        subject=expr.subquery.to_sql()[:80],
                    )
                )
            return DataType.BOOLEAN
        if isinstance(expr, nodes.Exists):
            self._select(expr.subquery, scope, diags)
            return DataType.BOOLEAN
        if isinstance(expr, nodes.ScalarSubquery):
            info = self._select(expr.subquery, scope, diags)
            if info.width is not None and info.width != 1:
                diags.append(
                    diagnostic(
                        "SQL015",
                        f"scalar subquery returns {info.width} columns, "
                        "expected exactly 1",
                        subject=expr.subquery.to_sql()[:80],
                    )
                )
                return None
            if info.columns:
                return info.columns[0][1]
            return None
        if isinstance(expr, nodes.FunctionCall):
            return self._function(expr, scope, diags, clause, in_aggregate,
                                  allow_aliases)
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
        return None

    def _binary(
        self,
        expr: nodes.BinaryOp,
        scope: Optional[_Scope],
        diags: list[Diagnostic],
        clause: str,
        in_aggregate: bool,
        allow_aliases: bool,
    ) -> Optional[DataType]:
        left = self._expr(expr.left, scope, diags, clause, in_aggregate,
                          allow_aliases)
        right = self._expr(expr.right, scope, diags, clause, in_aggregate,
                           allow_aliases)
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
        scope: Optional[_Scope],
        diags: list[Diagnostic],
        clause: str,
        in_aggregate: bool,
        allow_aliases: bool,
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
            arg_types = [
                self._expr(arg, scope, diags, clause, True, allow_aliases)
                for arg in expr.args
            ]
            if name in _NUMERIC_ARG_FUNCTIONS:
                for arg, arg_type in zip(expr.args, arg_types):
                    if arg_type in (DataType.TEXT, DataType.DATE):
                        diags.append(
                            diagnostic(
                                "SQL004",
                                f"{name} argument has type "
                                f"{arg_type.value}, expected a number",
                                subject=arg.to_sql()[:80],
                            )
                        )
            if name in _INTEGER_RESULT:
                return DataType.INTEGER
            if name in _REAL_RESULT:
                return DataType.REAL
            if name in _TEXT_RESULT:
                return DataType.TEXT
            return arg_types[0] if arg_types else None  # SUM/MIN/MAX
        if not is_scalar_function(name):
            diags.append(
                diagnostic(
                    "SQL005",
                    f"unknown function {name}",
                    subject=expr.to_sql()[:80],
                )
            )
            for arg in expr.args:
                self._expr(arg, scope, diags, clause, in_aggregate,
                           allow_aliases)
            return None
        low, high = _SCALAR_ARITY.get(name, (0, None))
        if len(expr.args) < low or (high is not None and len(expr.args) > high):
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
            self._expr(arg, scope, diags, clause, in_aggregate, allow_aliases)
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
        if name in _TEXT_RESULT:
            return DataType.TEXT
        if name in _INTEGER_RESULT:
            return DataType.INTEGER
        if name in _REAL_RESULT:
            return DataType.REAL
        if name == "DATE":
            return DataType.DATE
        if name in ("COALESCE", "NULLIF", "IFNULL", "MIN2", "MAX2", "ABS"):
            return arg_types[0] if arg_types else None
        return None

    # -- SELECT ------------------------------------------------------------

    def _select(
        self,
        select: nodes.Select,
        parent: Optional[_Scope],
        diags: list[Diagnostic],
    ) -> _SelectInfo:
        if select.ctes:
            self._cte_frames.append({})
            try:
                self._analyze_ctes(select, parent, diags)
                return self._select_body(select, parent, diags)
            finally:
                self._cte_frames.pop()
        return self._select_body(select, parent, diags)

    def _analyze_ctes(
        self,
        select: nodes.Select,
        parent: Optional[_Scope],
        diags: list[Diagnostic],
    ) -> None:
        frame = self._cte_frames[-1]
        for cte in select.ctes:
            key = cte.name.lower()
            if key in frame:
                diags.append(
                    diagnostic(
                        "SQL016",
                        f"duplicate CTE name {cte.name!r} in WITH clause",
                        subject=cte.name,
                        hint="give each CTE a distinct name",
                    )
                )
            info = self._select(cte.query, parent, diags)
            columns: Optional[dict[str, Optional[DataType]]]
            if info.columns is None:
                columns = None
            else:
                columns = {name.lower(): dtype for name, dtype in info.columns}
            if cte.columns:
                if info.width is not None and len(cte.columns) != info.width:
                    diags.append(
                        diagnostic(
                            "SQL017",
                            f"CTE {cte.name!r} declares "
                            f"{len(cte.columns)} columns but its query "
                            f"returns {info.width}",
                            subject=cte.name,
                        )
                    )
                types = (
                    [dtype for _name, dtype in info.columns]
                    if info.columns is not None
                    and len(info.columns) == len(cte.columns)
                    else [None] * len(cte.columns)
                )
                columns = {
                    name.lower(): dtype
                    for name, dtype in zip(cte.columns, types)
                }
            frame[key] = columns

    def _select_body(
        self,
        select: nodes.Select,
        parent: Optional[_Scope],
        diags: list[Diagnostic],
    ) -> _SelectInfo:
        scope = _Scope(parent=parent)
        conditions: list[nodes.Expression] = []
        if select.source is not None:
            self._collect_bindings(select.source, scope, conditions, diags)
        for condition in conditions:
            cond_type = self._expr(condition, scope, diags, clause="on")
            self._check_predicate(cond_type, condition, "ON", diags)

        # Select list: types, output names, SELECT * smell.
        output: Optional[list[tuple[str, Optional[DataType]]]] = []
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
                self._expr(item.expression, scope, diags)
                output = None
                continue
            item_type = self._expr(item.expression, scope, diags)
            if output is not None:
                output.append((item.output_name, item_type))
            if item.alias:
                scope.aliases[item.alias.lower()] = item_type

        if select.where is not None:
            where_type = self._expr(select.where, scope, diags,
                                    clause="where")
            self._check_predicate(where_type, select.where, "WHERE", diags)
        for expr in select.group_by:
            resolved = self._output_reference(expr, select.items)
            if resolved is not None:
                self._expr(resolved, scope, diags, clause="group",
                           allow_aliases=True)
        if select.having is not None:
            having_type = self._expr(select.having, scope, diags,
                                     clause="having", allow_aliases=True)
            self._check_predicate(having_type, select.having, "HAVING", diags)
        for order in select.order_by:
            resolved = self._output_reference(order.expression, select.items)
            if resolved is not None:
                self._expr(resolved, scope, diags, clause="order",
                           allow_aliases=True)
        for bound in (select.limit, select.offset):
            if bound is not None:
                self._expr(bound, scope, diags, clause="limit")

        self._check_grouping(select, diags)

        info = _SelectInfo(columns=output)
        for op, query in select.compound:
            other = self._select(query, parent, diags)
            if (
                info.width is not None
                and other.width is not None
                and info.width != other.width
            ):
                diags.append(
                    diagnostic(
                        "SQL015",
                        f"{op} operands have different widths: "
                        f"{info.width} vs {other.width} columns",
                        subject=query.to_sql()[:80],
                    )
                )
        return info

    def _check_predicate(
        self,
        predicate_type: Optional[DataType],
        expr: nodes.Expression,
        clause: str,
        diags: list[Diagnostic],
    ) -> None:
        if predicate_type is not None and predicate_type is not DataType.BOOLEAN:
            diags.append(
                diagnostic(
                    "SQL014",
                    f"{clause} condition has type {predicate_type.value}, "
                    "expected a boolean",
                    subject=expr.to_sql()[:80],
                )
            )

    @staticmethod
    def _output_reference(
        expr: nodes.Expression, items: tuple[nodes.SelectItem, ...]
    ) -> Optional[nodes.Expression]:
        """Mirror the executor: aliases/ordinals refer to select items.

        Returns ``None`` when the reference maps to a select item (that
        item is analyzed in its own right), else the expression itself.
        """
        if isinstance(expr, nodes.Literal) and isinstance(expr.value, int):
            if 1 <= expr.value <= len(items):
                return None
        if isinstance(expr, nodes.ColumnRef) and expr.table is None:
            for item in items:
                if item.alias and item.alias.lower() == expr.name.lower():
                    return None
        return expr

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
            if isinstance(expr, nodes.Literal) and isinstance(expr.value, int):
                if 1 <= expr.value <= len(select.items):
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
        for child in _children(expr):
            self._check_grouped(child, keys, subject, diags)

    # -- DML / DDL ---------------------------------------------------------

    def _require_table(
        self, name: str, diags: list[Diagnostic]
    ) -> Optional[dict[str, Optional[DataType]]]:
        columns = self._table_columns(name)
        if columns is None and self._catalog is not None:
            diags.append(
                diagnostic(
                    "SQL001",
                    f"unknown table {name!r}",
                    subject=name,
                    hint="known tables: "
                    + ", ".join(sorted(self._catalog.table_names())),
                )
            )
        return columns

    def _table_scope(
        self, name: str, columns: Optional[dict[str, Optional[DataType]]]
    ) -> _Scope:
        scope = _Scope()
        scope.bindings[name.lower()] = _Binding(name, columns)
        return scope

    def _insert(self, stmt: nodes.Insert, diags: list[Diagnostic]) -> None:
        columns = self._require_table(stmt.table, diags)
        width: Optional[int] = None
        column_types: list[Optional[DataType]] = []
        if stmt.columns:
            width = len(stmt.columns)
            for column in stmt.columns:
                if columns is not None and column.lower() not in columns:
                    diags.append(
                        diagnostic(
                            "SQL002",
                            f"table {stmt.table!r} has no column "
                            f"{column!r}",
                            subject=column,
                        )
                    )
                    column_types.append(None)
                else:
                    column_types.append(
                        columns.get(column.lower()) if columns else None
                    )
            if len({c.lower() for c in stmt.columns}) != len(stmt.columns):
                diags.append(
                    diagnostic(
                        "SQL013",
                        "duplicate column in INSERT column list",
                        subject=", ".join(stmt.columns),
                    )
                )
        elif columns is not None:
            width = len(columns)
            column_types = list(columns.values())
        scope = _Scope()
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
                value_type = self._expr(value, scope, diags)
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
            info = self._select(stmt.query, None, diags)
            if (
                width is not None
                and info.width is not None
                and info.width != width
            ):
                diags.append(
                    diagnostic(
                        "SQL012",
                        f"INSERT ... SELECT provides {info.width} columns, "
                        f"expected {width}",
                        subject=stmt.query.to_sql()[:80],
                    )
                )

    def _update(self, stmt: nodes.Update, diags: list[Diagnostic]) -> None:
        columns = self._require_table(stmt.table, diags)
        scope = self._table_scope(stmt.table, columns)
        for column, value in stmt.assignments:
            expected: Optional[DataType] = None
            if columns is not None:
                if column.lower() not in columns:
                    diags.append(
                        diagnostic(
                            "SQL002",
                            f"table {stmt.table!r} has no column "
                            f"{column!r}",
                            subject=column,
                        )
                    )
                else:
                    expected = columns[column.lower()]
            value_type = self._expr(value, scope, diags)
            if not _comparable(value_type, expected):
                diags.append(
                    diagnostic(
                        "SQL004",
                        f"assignment of {value_type.value} value to "
                        f"{expected.value} column {column!r}",
                        subject=value.to_sql()[:80],
                    )
                )
        if stmt.where is not None:
            where_type = self._expr(stmt.where, scope, diags, clause="where")
            self._check_predicate(where_type, stmt.where, "WHERE", diags)

    def _delete(self, stmt: nodes.Delete, diags: list[Diagnostic]) -> None:
        columns = self._require_table(stmt.table, diags)
        if stmt.where is not None:
            scope = self._table_scope(stmt.table, columns)
            where_type = self._expr(stmt.where, scope, diags, clause="where")
            self._check_predicate(where_type, stmt.where, "WHERE", diags)

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

    def _create_index(
        self, stmt: nodes.CreateIndex, diags: list[Diagnostic]
    ) -> None:
        columns = self._require_table(stmt.table, diags)
        if columns is None:
            return
        for column in stmt.columns:
            if column.lower() not in columns:
                diags.append(
                    diagnostic(
                        "SQL002",
                        f"table {stmt.table!r} has no column {column!r}",
                        subject=column,
                    )
                )

    def _drop(self, stmt, diags: list[Diagnostic]) -> None:
        if getattr(stmt, "if_exists", False):
            return
        if self._catalog is not None and not self._catalog.has_table(
            stmt.name
        ):
            diags.append(
                diagnostic(
                    "SQL001",
                    f"unknown table or view {stmt.name!r}",
                    subject=stmt.name,
                    hint="add IF EXISTS to make the drop idempotent",
                )
            )


def analyze_sql(sql: str, catalog: Optional[Catalog] = None) -> list[Diagnostic]:
    """Convenience wrapper: parse + analyze one statement."""
    return SqlAnalyzer(catalog).analyze_sql(sql)


def analyze_statement(
    statement: nodes.Statement, catalog: Optional[Catalog] = None
) -> list[Diagnostic]:
    """Convenience wrapper: analyze an already-parsed statement."""
    return SqlAnalyzer(catalog).analyze(statement)
