"""AST node definitions for parsed SQL statements.

Every node is a frozen dataclass; ``to_sql()`` round-trips the node back
to canonical SQL text, which the SQL-to-Text application and the
Text-to-SQL evaluator (canonical exact-match) both rely on.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Optional, Union

# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Expression:
    """Base class for expression nodes."""

    def to_sql(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class Literal(Expression):
    value: Any  # int | float | str | bool | None

    def to_sql(self) -> str:
        if self.value is None:
            return "NULL"
        if isinstance(self.value, bool):
            return "TRUE" if self.value else "FALSE"
        if isinstance(self.value, str):
            escaped = self.value.replace("'", "''")
            return f"'{escaped}'"
        return str(self.value)


@dataclass(frozen=True)
class ColumnRef(Expression):
    name: str
    table: Optional[str] = None

    def to_sql(self) -> str:
        if self.table:
            return f"{self.table}.{self.name}"
        return self.name


@dataclass(frozen=True)
class Star(Expression):
    """``*`` or ``table.*`` in a select list or COUNT(*)."""

    table: Optional[str] = None

    def to_sql(self) -> str:
        return f"{self.table}.*" if self.table else "*"


@dataclass(frozen=True)
class Parameter(Expression):
    """A ``?`` placeholder bound at execution time."""

    index: int

    def to_sql(self) -> str:
        return "?"


@dataclass(frozen=True)
class UnaryOp(Expression):
    op: str  # '-', '+', 'NOT'
    operand: Expression

    def to_sql(self) -> str:
        if self.op == "NOT":
            # Parenthesized so NOT can nest inside tighter operators.
            return f"(NOT {self.operand.to_sql()})"
        return f"{self.op}{self.operand.to_sql()}"


@dataclass(frozen=True)
class BinaryOp(Expression):
    op: str  # arithmetic, comparison, AND/OR, ||
    left: Expression
    right: Expression

    def to_sql(self) -> str:
        return f"({self.left.to_sql()} {self.op} {self.right.to_sql()})"


@dataclass(frozen=True)
class IsNull(Expression):
    operand: Expression
    negated: bool = False

    def to_sql(self) -> str:
        suffix = "IS NOT NULL" if self.negated else "IS NULL"
        return f"({self.operand.to_sql()} {suffix})"


@dataclass(frozen=True)
class Like(Expression):
    operand: Expression
    pattern: Expression
    negated: bool = False

    def to_sql(self) -> str:
        verb = "NOT LIKE" if self.negated else "LIKE"
        return f"({self.operand.to_sql()} {verb} {self.pattern.to_sql()})"


@dataclass(frozen=True)
class Between(Expression):
    operand: Expression
    low: Expression
    high: Expression
    negated: bool = False

    def to_sql(self) -> str:
        verb = "NOT BETWEEN" if self.negated else "BETWEEN"
        return (
            f"({self.operand.to_sql()} {verb} "
            f"{self.low.to_sql()} AND {self.high.to_sql()})"
        )


@dataclass(frozen=True)
class InList(Expression):
    operand: Expression
    items: tuple[Expression, ...]
    negated: bool = False

    def to_sql(self) -> str:
        verb = "NOT IN" if self.negated else "IN"
        inner = ", ".join(item.to_sql() for item in self.items)
        return f"({self.operand.to_sql()} {verb} ({inner}))"


@dataclass(frozen=True)
class InSubquery(Expression):
    operand: Expression
    subquery: "Select"
    negated: bool = False

    def to_sql(self) -> str:
        verb = "NOT IN" if self.negated else "IN"
        return f"({self.operand.to_sql()} {verb} ({self.subquery.to_sql()}))"


@dataclass(frozen=True)
class Exists(Expression):
    subquery: "Select"
    negated: bool = False

    def to_sql(self) -> str:
        verb = "NOT EXISTS" if self.negated else "EXISTS"
        return f"({verb} ({self.subquery.to_sql()}))"


@dataclass(frozen=True)
class ScalarSubquery(Expression):
    subquery: "Select"

    def to_sql(self) -> str:
        return f"({self.subquery.to_sql()})"


@dataclass(frozen=True)
class FunctionCall(Expression):
    name: str  # upper-cased
    args: tuple[Expression, ...]
    distinct: bool = False

    def to_sql(self) -> str:
        inner = ", ".join(arg.to_sql() for arg in self.args)
        if self.distinct:
            inner = f"DISTINCT {inner}"
        return f"{self.name}({inner})"


@dataclass(frozen=True)
class Case(Expression):
    branches: tuple[tuple[Expression, Expression], ...]
    default: Optional[Expression] = None

    def to_sql(self) -> str:
        parts = ["CASE"]
        for condition, result in self.branches:
            parts.append(f"WHEN {condition.to_sql()} THEN {result.to_sql()}")
        if self.default is not None:
            parts.append(f"ELSE {self.default.to_sql()}")
        parts.append("END")
        return " ".join(parts)


@dataclass(frozen=True)
class Cast(Expression):
    operand: Expression
    type_name: str

    def to_sql(self) -> str:
        return f"CAST({self.operand.to_sql()} AS {self.type_name})"


# ---------------------------------------------------------------------------
# Query structure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SelectItem:
    expression: Expression
    alias: Optional[str] = None

    def to_sql(self) -> str:
        if self.alias:
            return f"{self.expression.to_sql()} AS {self.alias}"
        return self.expression.to_sql()

    @property
    def output_name(self) -> str:
        if self.alias:
            return self.alias
        if isinstance(self.expression, ColumnRef):
            return self.expression.name
        return self.expression.to_sql()


@dataclass(frozen=True)
class TableRef:
    """Base class for FROM-clause sources."""

    def to_sql(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class NamedTable(TableRef):
    name: str
    alias: Optional[str] = None

    def to_sql(self) -> str:
        return f"{self.name} AS {self.alias}" if self.alias else self.name

    @property
    def binding(self) -> str:
        return self.alias or self.name


@dataclass(frozen=True)
class SubqueryTable(TableRef):
    subquery: "Select"
    alias: str

    def to_sql(self) -> str:
        return f"({self.subquery.to_sql()}) AS {self.alias}"

    @property
    def binding(self) -> str:
        return self.alias


@dataclass(frozen=True)
class Join(TableRef):
    left: TableRef
    right: TableRef
    join_type: str  # 'INNER', 'LEFT', 'RIGHT', 'FULL', 'CROSS'
    condition: Optional[Expression] = None

    def to_sql(self) -> str:
        if self.join_type == "CROSS":
            return f"{self.left.to_sql()} CROSS JOIN {self.right.to_sql()}"
        on = f" ON {self.condition.to_sql()}" if self.condition else ""
        return f"{self.left.to_sql()} {self.join_type} JOIN {self.right.to_sql()}{on}"


@dataclass(frozen=True)
class OrderItem:
    expression: Expression
    descending: bool = False

    def to_sql(self) -> str:
        direction = "DESC" if self.descending else "ASC"
        return f"{self.expression.to_sql()} {direction}"


@dataclass(frozen=True)
class Statement:
    """Base class for top-level statements."""

    def to_sql(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class CommonTableExpr:
    """One ``name [(cols)] AS (select)`` member of a WITH clause."""

    name: str
    query: "Select"
    columns: tuple[str, ...] = ()  # optional output-column renames

    def to_sql(self) -> str:
        cols = f" ({', '.join(self.columns)})" if self.columns else ""
        return f"{self.name}{cols} AS ({self.query.to_sql()})"


@dataclass(frozen=True)
class Select(Statement):
    items: tuple[SelectItem, ...]
    source: Optional[TableRef] = None
    where: Optional[Expression] = None
    group_by: tuple[Expression, ...] = ()
    having: Optional[Expression] = None
    order_by: tuple[OrderItem, ...] = ()
    limit: Optional[Expression] = None
    offset: Optional[Expression] = None
    distinct: bool = False
    compound: tuple[tuple[str, "Select"], ...] = ()  # UNION [ALL]/INTERSECT/EXCEPT
    ctes: tuple[CommonTableExpr, ...] = ()  # WITH clause, in declaration order

    def to_sql(self) -> str:
        parts = []
        if self.ctes:
            parts.append("WITH " + ", ".join(cte.to_sql() for cte in self.ctes))
        parts.append("SELECT")
        if self.distinct:
            parts.append("DISTINCT")
        parts.append(", ".join(item.to_sql() for item in self.items))
        if self.source is not None:
            parts.append("FROM")
            parts.append(self.source.to_sql())
        if self.where is not None:
            parts.append(f"WHERE {self.where.to_sql()}")
        if self.group_by:
            parts.append(
                "GROUP BY " + ", ".join(e.to_sql() for e in self.group_by)
            )
        if self.having is not None:
            parts.append(f"HAVING {self.having.to_sql()}")
        if self.order_by:
            parts.append(
                "ORDER BY " + ", ".join(o.to_sql() for o in self.order_by)
            )
        if self.limit is not None:
            parts.append(f"LIMIT {self.limit.to_sql()}")
        if self.offset is not None:
            parts.append(f"OFFSET {self.offset.to_sql()}")
        text = " ".join(parts)
        for op, query in self.compound:
            text = f"{text} {op} {query.to_sql()}"
        return text


@dataclass(frozen=True)
class ColumnDef:
    name: str
    type_name: str
    not_null: bool = False
    primary_key: bool = False
    unique: bool = False
    default: Optional[Expression] = None

    def to_sql(self) -> str:
        parts = [self.name, self.type_name]
        if self.primary_key:
            parts.append("PRIMARY KEY")
        if self.not_null:
            parts.append("NOT NULL")
        if self.unique:
            parts.append("UNIQUE")
        if self.default is not None:
            parts.append(f"DEFAULT {self.default.to_sql()}")
        return " ".join(parts)


@dataclass(frozen=True)
class CreateTable(Statement):
    name: str
    columns: tuple[ColumnDef, ...]
    if_not_exists: bool = False

    def to_sql(self) -> str:
        guard = "IF NOT EXISTS " if self.if_not_exists else ""
        cols = ", ".join(col.to_sql() for col in self.columns)
        return f"CREATE TABLE {guard}{self.name} ({cols})"


@dataclass(frozen=True)
class DropTable(Statement):
    name: str
    if_exists: bool = False

    def to_sql(self) -> str:
        guard = "IF EXISTS " if self.if_exists else ""
        return f"DROP TABLE {guard}{self.name}"


@dataclass(frozen=True)
class Insert(Statement):
    table: str
    columns: tuple[str, ...]  # empty tuple means positional
    rows: tuple[tuple[Expression, ...], ...] = ()
    query: Optional[Select] = None  # INSERT ... SELECT

    def to_sql(self) -> str:
        cols = f" ({', '.join(self.columns)})" if self.columns else ""
        if self.query is not None:
            return f"INSERT INTO {self.table}{cols} {self.query.to_sql()}"
        rows = ", ".join(
            "(" + ", ".join(v.to_sql() for v in row) + ")" for row in self.rows
        )
        return f"INSERT INTO {self.table}{cols} VALUES {rows}"


@dataclass(frozen=True)
class Update(Statement):
    table: str
    assignments: tuple[tuple[str, Expression], ...]
    where: Optional[Expression] = None

    def to_sql(self) -> str:
        sets = ", ".join(f"{c} = {e.to_sql()}" for c, e in self.assignments)
        where = f" WHERE {self.where.to_sql()}" if self.where else ""
        return f"UPDATE {self.table} SET {sets}{where}"


@dataclass(frozen=True)
class Delete(Statement):
    table: str
    where: Optional[Expression] = None

    def to_sql(self) -> str:
        where = f" WHERE {self.where.to_sql()}" if self.where else ""
        return f"DELETE FROM {self.table}{where}"


@dataclass(frozen=True)
class CreateIndex(Statement):
    name: str
    table: str
    columns: tuple[str, ...]
    kind: str = "hash"  # 'hash' | 'sorted'

    def to_sql(self) -> str:
        cols = ", ".join(self.columns)
        using = "" if self.kind == "hash" else f" USING {self.kind.upper()}"
        return f"CREATE INDEX {self.name} ON {self.table} ({cols}){using}"


@dataclass(frozen=True)
class DropIndex(Statement):
    name: str

    def to_sql(self) -> str:
        return f"DROP INDEX {self.name}"


@dataclass(frozen=True)
class CreateView(Statement):
    name: str
    query: "Select"

    def to_sql(self) -> str:
        return f"CREATE VIEW {self.name} AS {self.query.to_sql()}"


@dataclass(frozen=True)
class DropView(Statement):
    name: str
    if_exists: bool = False

    def to_sql(self) -> str:
        guard = "IF EXISTS " if self.if_exists else ""
        return f"DROP VIEW {guard}{self.name}"


@dataclass(frozen=True)
class TransactionStatement(Statement):
    """BEGIN / COMMIT / ROLLBACK."""

    action: str  # 'BEGIN' | 'COMMIT' | 'ROLLBACK'

    def to_sql(self) -> str:
        return self.action


@dataclass(frozen=True)
class Explain(Statement):
    """EXPLAIN <select>: describe the execution plan."""

    query: "Select"

    def to_sql(self) -> str:
        return f"EXPLAIN {self.query.to_sql()}"


AnyStatement = Union[Select, CreateTable, DropTable, Insert, Update, Delete]


def _case_children(expr: "Case") -> tuple[Expression, ...]:
    flat: list[Expression] = []
    for condition, result in expr.branches:
        flat.extend((condition, result))
    if expr.default is not None:
        flat.append(expr.default)
    return tuple(flat)


#: Node type -> its direct sub-expressions; leaves are absent.
_CHILDREN: dict[type, Any] = {
    UnaryOp: lambda e: (e.operand,),
    IsNull: lambda e: (e.operand,),
    InSubquery: lambda e: (e.operand,),
    Cast: lambda e: (e.operand,),
    BinaryOp: lambda e: (e.left, e.right),
    Like: lambda e: (e.operand, e.pattern),
    Between: lambda e: (e.operand, e.low, e.high),
    InList: lambda e: (e.operand, *e.items),
    FunctionCall: lambda e: e.args,
    Case: _case_children,
}


def children(expr: Expression) -> tuple[Expression, ...]:
    """The direct sub-expressions of ``expr``; a subquery's body is a
    statement of its own, not a child."""
    split = _CHILDREN.get(type(expr))
    return () if split is None else split(expr)


def walk_expressions(expr: Expression):
    """Yield ``expr`` and every nested sub-expression, depth-first."""
    yield expr
    for child in children(expr):
        yield from walk_expressions(child)


def table_names(node: Any):
    """Yield the name of every :class:`NamedTable` anywhere in ``node``
    (subqueries, CTE bodies and compound arms too), CTE names included."""
    if isinstance(node, NamedTable):
        yield node.name
    elif isinstance(node, tuple) or dataclasses.is_dataclass(node):
        items = node if isinstance(node, tuple) else vars(node).values()
        for item in items:
            yield from table_names(item)
