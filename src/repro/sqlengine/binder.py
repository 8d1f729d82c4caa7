"""Name binding: every name in a statement resolved once, up front.

:func:`bind` walks a parsed statement under the scoping rules the
executor runs it with and resolves every FROM-clause name (CTE, then
view, then table), every column reference and every ``GROUP BY`` /
``ORDER BY`` ordinal. It is the only place the engine decides whether a
name exists and is unique, so the verdict never depends on the data: a
bad name raises :class:`BindError` when the statement is prepared, over
an empty table as over a full one. It binds against anything with
``resolve(name)``: a live :class:`~repro.sqlengine.Database` (views and
tables) or a bare :class:`~repro.sqlengine.Catalog` (tables only), as
the analysis gate does for a connector that is not the engine. The
scoping rules are listed in docs/sqlengine.md § Binding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, NamedTuple, Optional, Protocol

from repro.sqlengine import nodes
from repro.sqlengine.catalog import TableSchema
from repro.sqlengine.errors import CatalogError, ExecutionError


class BindError(CatalogError, ExecutionError):
    """A name that resolves to nothing, or to more than one thing.

    ``code`` is the diagnostic code the analysis gate reports it under
    (``SQL001`` unknown table, ``SQL002`` unknown column, ``SQL003``
    ambiguous column, ``SQL016`` duplicate CTE, ``SQL018`` ordinal out
    of range) and ``name`` the offending name as written.
    """

    def __init__(self, message: str, code: str, name: str) -> None:
        super().__init__(message)
        self.code = code
        self.name = name


class NameResolver(Protocol):
    """What a statement binds against."""

    def resolve(self, name: str) -> tuple[Optional[str], Any]:
        """('view', Select) | ('table', TableSchema) | (None, None)."""


@dataclass(eq=False)
class Source:
    """One FROM-clause entry (or a DML target table) as bound."""

    #: The name column references qualify with: the alias, else the name.
    binding: str
    kind: str  # 'table' | 'view' | 'cte' | 'subquery'
    name: str
    #: Lower-cased output column names, in order (``*`` expanded).
    columns: tuple[str, ...]
    schema: Optional[TableSchema] = None  # tables
    #: The body a view, CTE or derived table runs.
    query: Optional[nodes.Select] = None
    #: ``binding`` lower-cased, which qualifiers are matched against.
    key: str = field(init=False)

    def __post_init__(self) -> None:
        self.key = self.binding.lower()


class Ref(NamedTuple):
    """Where one column reference reads: ``source.columns[index]``."""

    source: Source
    index: int


class Binding:
    """A statement's resolved names, keyed by node identity, so it is
    only meaningful next to the statement it was made from (which it
    keeps alive). Select-list aliases, ``ORDER BY`` output names and
    ordinals are checked but not recorded: the executor maps them to
    select items itself."""

    __slots__ = ("statement", "refs", "sources")

    def __init__(self, statement: nodes.Statement) -> None:
        self.statement = statement
        #: ``id(ColumnRef)`` -> :class:`Ref`.
        self.refs: dict[int, Ref] = {}
        #: ``id(NamedTable | SubqueryTable)``, and ``id(statement)`` of an
        #: INSERT / UPDATE / DELETE for its target -> :class:`Source`.
        self.sources: dict[int, Source] = {}


def bind(statement: nodes.Statement, resolver: NameResolver) -> Binding:
    """Resolve every name in ``statement``; raises :class:`BindError`
    at the first one that does not resolve uniquely."""
    binder = _Binder(resolver, Binding(statement))
    binder.statement(statement)
    return binder.binding


def is_ordinal(expr: nodes.Expression) -> bool:
    """``GROUP BY 2`` / ``ORDER BY 2``: an integer literal names an
    output column by position."""
    return isinstance(expr, nodes.Literal) and isinstance(expr.value, int)


_SUBQUERIES = (nodes.InSubquery, nodes.Exists, nodes.ScalarSubquery)


class _Scope:
    """The FROM entries visible at one query level, and the level the
    executor's row context falls back to (the enclosing query's)."""

    __slots__ = ("sources", "parent")

    def __init__(
        self, sources: list[Source], parent: Optional["_Scope"]
    ) -> None:
        self.sources = sources
        self.parent = parent

    def find(self, ref: nodes.ColumnRef) -> Optional[Ref]:
        """The reference resolved at this level, None when the name is
        not here. Two matches raise: a qualifier naming two entries (as
        in sqlite), or an unqualified name in two columns; a qualified
        name repeated inside one entry reads its last column, as the
        executor's row layout does."""
        name = ref.name.lower()
        qualifier = ref.table.lower() if ref.table is not None else None
        hit: Optional[Ref] = None
        for source in self.sources:
            if qualifier is not None and source.key != qualifier:
                continue
            count = source.columns.count(name)
            if not count:
                continue
            if hit is not None or (count > 1 and qualifier is None):
                raise _ambiguous(ref)
            last = len(source.columns) - source.columns[::-1].index(name)
            hit = Ref(source, last - 1)
        return hit

    def has_binding(self, qualifier: str) -> bool:
        level: Optional[_Scope] = self
        while level is not None:
            if any(source.key == qualifier for source in level.sources):
                return True
            level = level.parent
        return False


_EMPTY = _Scope([], None)


def _qualified(ref: nodes.ColumnRef) -> str:
    return f"{ref.table}.{ref.name}" if ref.table else ref.name


def _ambiguous(ref: nodes.ColumnRef) -> BindError:
    name = _qualified(ref)
    return BindError(f"ambiguous column reference: {name}", "SQL003", name)


def _no_table(name: str, kind: str = "table") -> BindError:
    return BindError(f"no {kind} named {name!r}", "SQL001", name)


def _no_column(table: TableSchema, name: str) -> BindError:
    return BindError(
        f"no column {name!r} in table {table.name!r}", "SQL002", name
    )


def _out_of_range(clause: str, expr: nodes.Literal) -> BindError:
    return BindError(
        f"{clause} position {expr.value} out of range", "SQL018", str(expr.value)
    )


class _Binder:
    def __init__(self, resolver: NameResolver, binding: Binding) -> None:
        self._resolver = resolver
        self.binding = binding
        #: WITH-clause frames, innermost last: lower-cased CTE name ->
        #: (its body, its output column names).
        self._ctes: list[dict[str, tuple[nodes.Select, tuple[str, ...]]]] = []
        self._open_views: set[str] = set()

    # -- statements --------------------------------------------------------

    def statement(self, stmt: nodes.Statement) -> None:
        if isinstance(stmt, nodes.Select):
            self.select(stmt, None)
        elif isinstance(stmt, (nodes.Explain, nodes.CreateView)):
            self.select(stmt.query, None)
        elif isinstance(stmt, nodes.Insert):
            target = self._target(stmt)
            for column in stmt.columns or ():
                self._column_of(target.schema, column)
            for row in stmt.rows:
                for value in row:
                    self._expr(value, _EMPTY)
            if stmt.query is not None:
                self.select(stmt.query, None)
        elif isinstance(stmt, (nodes.Update, nodes.Delete)):
            target = self._target(stmt)
            scope = _Scope([target], None)
            for column, value in getattr(stmt, "assignments", ()):
                self._column_of(target.schema, column)
                self._expr(value, scope)
            if stmt.where is not None:
                self._expr(stmt.where, scope)
        elif isinstance(stmt, nodes.CreateIndex):
            schema = self._table(stmt.table)
            for column in stmt.columns:
                self._column_of(schema, column)
        elif isinstance(stmt, (nodes.DropTable, nodes.DropView)):
            kind = "table" if isinstance(stmt, nodes.DropTable) else "view"
            if not stmt.if_exists and self._resolver.resolve(stmt.name)[0] != kind:
                raise _no_table(stmt.name, kind)

    def _table(self, name: str) -> TableSchema:
        kind, payload = self._resolver.resolve(name)
        if kind != "table":
            raise _no_table(name)
        return payload

    def _target(self, stmt: Any) -> Source:
        schema = self._table(stmt.table)
        target = Source(
            stmt.table, "table", stmt.table, schema.column_keys, schema=schema
        )
        self.binding.sources[id(stmt)] = target
        return target

    @staticmethod
    def _column_of(schema: TableSchema, column: str) -> None:
        if column.lower() not in schema.column_keys:
            raise _no_column(schema, column)

    # -- queries -----------------------------------------------------------

    def select(
        self, select: nodes.Select, parent: Optional[_Scope]
    ) -> tuple[str, ...]:
        """Bind a (possibly compound) query with its WITH clause; its
        output column names."""
        if not select.ctes:
            return self._query(select, parent)
        frame: dict[str, tuple[nodes.Select, tuple[str, ...]]] = {}
        self._ctes.append(frame)
        try:
            for cte in select.ctes:
                key = cte.name.lower()
                if key in frame:
                    raise BindError(
                        f"duplicate CTE name {cte.name!r} in WITH clause",
                        "SQL016",
                        cte.name,
                    )
                # Registered after its body: a CTE cannot see itself.
                names = self.select(cte.query, parent)
                if cte.columns:
                    names = tuple(column.lower() for column in cte.columns)
                frame[key] = cte.query, names
            return self._query(select, parent)
        finally:
            self._ctes.pop()

    def _query(
        self, select: nodes.Select, parent: Optional[_Scope]
    ) -> tuple[str, ...]:
        if not select.compound:
            return self._core(select, parent, tail=True)
        names = self._core(select, parent, tail=False)
        for _op, operand in select.compound:
            self._core(operand, parent, tail=True)
        # The compound's ORDER BY sorts its output rows.
        output = Source("", "subquery", "", names)
        self._order_and_window(select, names, _Scope([output], None))
        return names

    def _core(
        self, select: nodes.Select, parent: Optional[_Scope], tail: bool
    ) -> tuple[str, ...]:
        sources: list[Source] = []
        if select.source is not None:
            self._from(select.source, parent, sources)
        scope = _Scope(sources, parent)
        names: list[str] = []
        for item in select.items:
            expr = item.expression
            if not isinstance(expr, nodes.Star):
                self._expr(expr, scope)
                names.append(item.output_name.lower())
                continue
            matched = [
                source
                for source in sources
                if expr.table is None or source.key == expr.table.lower()
            ]
            if not matched and expr.table is not None:
                raise _no_table(expr.table)
            names.extend(column for source in matched for column in source.columns)
        if select.where is not None:
            self._expr(select.where, scope)
        aliases = {item.alias.lower() for item in select.items if item.alias}
        for expr in select.group_by:
            if is_ordinal(expr):
                if not 1 <= expr.value <= len(names):
                    raise _out_of_range("GROUP BY", expr)
            elif not (
                type(expr) is nodes.ColumnRef
                and expr.table is None
                and expr.name.lower() in aliases
            ):
                self._expr(expr, scope)
        if select.having is not None:
            self._expr(select.having, scope)
        if tail:
            self._order_and_window(select, names, scope)
        return tuple(names)

    def _order_and_window(
        self, select: nodes.Select, names: list[str] | tuple[str, ...], scope: _Scope
    ) -> None:
        for order in select.order_by:
            expr = order.expression
            if is_ordinal(expr):
                if not 1 <= expr.value <= len(names):
                    raise _out_of_range("ORDER BY", expr)
                continue
            if type(expr) is nodes.ColumnRef and expr.table is None:
                # A bare output column name sorts by that column.
                matches = names.count(expr.name.lower())
                if matches > 1:
                    raise _ambiguous(expr)
                if matches:
                    continue
            self._expr(expr, scope)
        for bound in (select.limit, select.offset):
            if bound is not None:
                self._expr(bound, _EMPTY)

    # -- FROM --------------------------------------------------------------

    def _from(
        self,
        ref: nodes.TableRef,
        parent: Optional[_Scope],
        sources: list[Source],
    ) -> None:
        if isinstance(ref, nodes.Join):
            mark = len(sources)
            self._from(ref.left, parent, sources)
            self._from(ref.right, parent, sources)
            if ref.condition is not None:
                self._expr(ref.condition, _Scope(sources[mark:], parent))
            return
        if isinstance(ref, nodes.SubqueryTable):
            names = self.select(ref.subquery, parent)
            source = Source(
                ref.alias, "subquery", ref.alias, names, query=ref.subquery
            )
        else:
            source = self._named(ref)
        self.binding.sources[id(ref)] = source
        sources.append(source)

    def _named(self, ref: nodes.NamedTable) -> Source:
        key = ref.name.lower()
        for frame in reversed(self._ctes):
            if key in frame:
                query, names = frame[key]
                return Source(ref.binding, "cte", ref.name, names, query=query)
        kind, payload = self._resolver.resolve(ref.name)
        if kind == "table":
            return Source(
                ref.binding, "table", ref.name, payload.column_keys, schema=payload
            )
        if kind != "view" or key in self._open_views:
            raise _no_table(ref.name)
        # A view body sees the schema only: no CTE, no outer row.
        ctes, self._ctes = self._ctes, []
        self._open_views.add(key)
        try:
            names = self.select(payload, None)
        finally:
            self._ctes = ctes
            self._open_views.discard(key)
        return Source(ref.binding, "view", ref.name, names, query=payload)

    # -- expressions -------------------------------------------------------

    def _expr(self, expr: nodes.Expression, scope: _Scope) -> None:
        kind = type(expr)
        if kind is nodes.ColumnRef:
            self._column(expr, scope)
            return
        if kind is nodes.Literal:
            return
        if isinstance(expr, _SUBQUERIES):
            self.select(expr.subquery, scope)
        for child in nodes.children(expr):
            self._expr(child, scope)

    def _column(self, ref: nodes.ColumnRef, scope: _Scope) -> None:
        level: Optional[_Scope] = scope
        while level is not None:
            hit = level.find(ref)
            if hit is not None:
                self.binding.refs[id(ref)] = hit
                return
            level = level.parent
        name = _qualified(ref)
        if ref.table is not None and not scope.has_binding(ref.table.lower()):
            raise BindError(f"unknown column: {name}", "SQL001", ref.table)
        raise BindError(f"unknown column: {name}", "SQL002", name)

