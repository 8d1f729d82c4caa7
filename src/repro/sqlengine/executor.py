"""Statement execution: planned SELECT pipeline, DML and DDL.

Every SELECT core goes through :func:`repro.sqlengine.planner.build_plan`
first; the executor then runs the plan tree (scans with index access
paths and pushed filters, hash/nested-loop joins) and the textbook
pipeline on top::

    FROM/JOIN -> WHERE residual -> GROUP BY -> HAVING -> SELECT
    -> DISTINCT -> ORDER BY -> LIMIT/OFFSET -> compound set operators

Rows flow through as plain tuples alongside a column layout
``[(binding, name), ...]`` held by :class:`RowContext` — except in the
plans the planner marks columnar, whose scans, joins and aggregates run
over column vectors (:mod:`repro.sqlengine.columnar`) up to GROUP BY.
WITH clauses materialize each CTE once, eagerly, into a scope frame
that shadows views and tables for the duration of the owning select.
Every name was resolved when the statement was bound
(:mod:`repro.sqlengine.binder`): the plans read that binding, and a
compiled expression only maps each reference to its row position.
"""

from __future__ import annotations

import operator
import sys
import weakref
from dataclasses import dataclass
from typing import Any, NamedTuple, Optional, Sequence

import numpy as np

from repro.sqlengine import columnar, nodes
from repro.sqlengine.binder import Binding, is_ordinal
from repro.sqlengine.catalog import Catalog, ColumnSchema, TableSchema
from repro.sqlengine.errors import CatalogError, ExecutionError
from repro.sqlengine.expressions import COMPARISONS, Evaluator, RowContext
from repro.sqlengine.functions import is_aggregate_function, make_aggregate
from repro.sqlengine.indexes import IndexInfo, SortedIndex
from repro.sqlengine.planner import (
    ColumnarPlan,
    CteScanPlan,
    DictionaryPlan,
    IndexEqAccess,
    IndexRangeAccess,
    JoinPlan,
    NUMBER_TYPES,
    ScanPlan,
    SelectPlan,
    SourcePlan,
    SubqueryScanPlan,
    ViewScanPlan,
    agg_key,
    build_plan,
    collect_aggregates,
    is_grouped,
    render_plan,
    resolve_output_reference,
)
from repro.sqlengine.table import Table
from repro.sqlengine.types import DataType, coerce, sort_key


@dataclass
class Relation:
    """An intermediate result: column layout plus rows."""

    columns: list[tuple[Optional[str], str]]
    rows: list[tuple[Any, ...]]

    @property
    def column_names(self) -> list[str]:
        return [name for _binding, name in self.columns]


class Executor:
    """Execute parsed statements against a catalog + table storage;
    ``binding`` is the statement's (:func:`repro.sqlengine.binder.bind`)."""

    def __init__(
        self,
        catalog: Catalog,
        tables: dict[str, Table],
        binding: Binding,
        parameters: Sequence[Any] = (),
        enable_hash_join: bool = True,
        views: Optional[dict[str, nodes.Select]] = None,
        optimize: bool = True,
        plans: Optional[dict] = None,
    ) -> None:
        self._catalog = catalog
        self._tables = tables
        self._binding = binding
        self._views = views if views is not None else {}
        self.enable_hash_join = enable_hash_join
        self.optimize = optimize
        #: WITH-clause scope frames, innermost last; each maps a
        #: lower-cased CTE name to its materialized rows.
        self._cte_stack: list[dict[str, Relation]] = []
        #: Plans by core node: a prepared statement's, which outlive
        #: this execution, or this execution's own.
        self._plans = {} if plans is None else plans
        self._evaluator = Evaluator(
            run_subquery=self._run_subquery, parameters=parameters
        )

    # -- public entry points -------------------------------------------

    def execute(self, statement: nodes.Statement) -> Relation:
        if isinstance(statement, nodes.Select):
            return self.execute_select(statement)
        if isinstance(statement, nodes.Explain):
            return self.explain(statement.query)
        if isinstance(statement, nodes.CreateIndex):
            return self._execute_create_index(statement)
        if isinstance(statement, nodes.DropIndex):
            return self._execute_drop_index(statement)
        if isinstance(statement, nodes.CreateView):
            key = statement.name.lower()
            if key in self._views or self._catalog.has_table(statement.name):
                raise CatalogError(
                    f"name {statement.name!r} is already in use"
                )
            self._views[key] = statement.query
            return _rowcount_relation(0)
        if isinstance(statement, nodes.DropView):
            key = statement.name.lower()
            if key not in self._views:
                if statement.if_exists:
                    return _rowcount_relation(0)
                raise CatalogError(f"no view named {statement.name!r}")
            del self._views[key]
            return _rowcount_relation(0)
        if isinstance(statement, nodes.Insert):
            return self._execute_insert(statement)
        if isinstance(statement, nodes.Update):
            return self._execute_update(statement)
        if isinstance(statement, nodes.Delete):
            return self._execute_delete(statement)
        if isinstance(statement, nodes.CreateTable):
            return self._execute_create(statement)
        if isinstance(statement, nodes.DropTable):
            return self._execute_drop(statement)
        raise ExecutionError(f"cannot execute statement: {statement!r}")

    def execute_select(
        self,
        select: nodes.Select,
        outer: Optional[RowContext] = None,
    ) -> Relation:
        if not select.ctes:
            return self._execute_query(select, outer)
        frame: dict[str, Relation] = {}
        self._cte_stack.append(frame)
        try:
            for cte in select.ctes:
                frame[cte.name.lower()] = _apply_cte_columns(
                    cte, self.execute_select(cte.query, outer)
                )
            return self._execute_query(select, outer)
        finally:
            self._cte_stack.pop()

    def _execute_query(
        self,
        select: nodes.Select,
        outer: Optional[RowContext] = None,
    ) -> Relation:
        if not select.compound:
            return self._execute_select_core(select, outer)
        import dataclasses

        first = dataclasses.replace(
            select, order_by=(), limit=None, offset=None, compound=()
        )
        # ``first`` is a new node per run: planned, never memoised.
        result = self._execute_select_core(first, outer, memo=False)
        for op, query in select.compound:
            other = self._execute_select_core(query, outer)
            if len(other.columns) != len(result.columns):
                raise ExecutionError(
                    f"{op}: operand column counts differ "
                    f"({len(result.columns)} vs {len(other.columns)})"
                )
            result = _apply_set_operator(op, result, other)
        return self._sort_and_limit_compound(select, result)

    def _sort_and_limit_compound(
        self, select: nodes.Select, relation: Relation
    ) -> Relation:
        """Apply compound-level ORDER BY / LIMIT over the merged rows."""
        rows = relation.rows
        if select.order_by:
            out_ctx = RowContext(
                relation.columns, [None] * len(relation.columns)
            )
            rows = _sorted_rows(
                rows,
                [
                    (
                        _ordinal_getter(item.expression)
                        or self._evaluator.compile(item.expression, out_ctx),
                        item.descending,
                    )
                    for item in select.order_by
                ],
            )
        return Relation(relation.columns, rows[self._window(select)])

    def _window(self, select: nodes.Select) -> slice:
        """The statement's LIMIT/OFFSET as a slice: a negative LIMIT is
        no limit and a negative OFFSET is 0, as in sqlite."""
        if select.limit is None:
            return slice(None)
        base_ctx = RowContext([], [])
        limit = self._evaluator.evaluate(select.limit, base_ctx)
        offset = 0
        if select.offset is not None:
            offset = self._evaluator.evaluate(select.offset, base_ctx)
        if not isinstance(limit, int) or not isinstance(offset, int):
            raise ExecutionError("LIMIT/OFFSET must be integers")
        offset = max(offset, 0)
        return slice(offset, offset + limit if limit >= 0 else None)

    # -- SELECT pipeline -------------------------------------------------

    def _execute_select_core(
        self,
        select: nodes.Select,
        outer: Optional[RowContext],
        memo: bool = True,
    ) -> Relation:
        plan = self._build_plan(select, memo)
        groups = None
        # Batch operators answer the distinct values or accumulate the
        # groups; None (a Decline) reruns the statement below, row by row.
        if isinstance(plan.columnar, DictionaryPlan):
            relation = self._dictionary_rows(plan)
            if relation is not None:
                return relation
        elif plan.columnar is not None:
            groups = self._columnar_groups(plan.columnar, plan.source)
        if groups is not None:
            columns = _source_layout(plan.source)
        else:
            source = (
                Relation(columns=[], rows=[()])
                if plan.source is None
                else self._run_source_plan(plan.source, outer)
            )
            columns = source.columns
        ctx = RowContext(columns, [None] * len(columns), outer)

        if plan.residual is not None:
            keep = self._evaluator.compile_truth(plan.residual, ctx)
            source = Relation(
                columns, [row for row in source.rows if keep(row)]
            )

        items = self._expand_stars(select.items, columns)
        if groups is None and is_grouped(select):
            groups = self._row_groups(select, items, source, ctx)
        if groups is not None:
            relation = self._finish_groups(select, items, groups, ctx)
        else:
            relation = self._project(items, source, ctx, select.order_by)

        if select.distinct:
            relation = _distinct(relation)
        relation = self._order_and_slice(select, relation, outer)
        return relation

    def _project(
        self,
        items: list[nodes.SelectItem],
        source: Relation,
        ctx: RowContext,
        order_by: tuple[nodes.OrderItem, ...],
    ) -> Relation:
        out_columns: list[tuple[Optional[str], str]] = [
            (None, item.output_name) for item in items
        ]
        # ORDER BY may reference source columns not in the select list;
        # carry their values as hidden extras used only for sorting.
        extra_exprs = _order_extras(order_by, items)
        outputs = [
            self._evaluator.compile(expr, ctx)
            for expr in [item.expression for item in items] + extra_exprs
        ]
        rows = [
            tuple([output(row) for output in outputs]) for row in source.rows
        ]
        hidden = [(None, f"__order_{i}") for i in range(len(extra_exprs))]
        return Relation(out_columns + hidden, rows)

    def _row_groups(
        self,
        select: nodes.Select,
        items: list[nodes.SelectItem],
        source: Relation,
        ctx: RowContext,
    ) -> list[tuple[Any, ...]]:
        """Accumulate row by row: per group, in first-appearance order,
        its first row followed by one result per aggregate call."""
        # Allow GROUP BY to reference select-list aliases or ordinals.
        group_exprs = [
            resolve_output_reference(expr, items) for expr in select.group_by
        ]
        aggregate_calls = collect_aggregates(
            items, select.having, select.order_by
        )
        compile_row = self._evaluator.compile
        group_keys = [compile_row(expr, ctx) for expr in group_exprs]
        #: One feed per aggregate: the argument's value, or presence
        #: only (TRUE) for COUNT(*).
        feeds = [
            compile_row(
                call.args[0]
                if call.args and not isinstance(call.args[0], nodes.Star)
                else nodes.Literal(True),
                ctx,
            )
            for call in aggregate_calls
        ]

        def new_group(first_row: tuple) -> tuple:
            return first_row, [
                make_aggregate(
                    call.name,
                    star=bool(call.args)
                    and isinstance(call.args[0], nodes.Star),
                    distinct=call.distinct,
                )
                for call in aggregate_calls
            ]

        groups: dict[tuple, tuple] = {}
        for row in source.rows:
            key = tuple([_hashable(group_key(row)) for group_key in group_keys])
            state = groups.get(key)
            if state is None:
                state = groups[key] = new_group(row)
            for feed, accumulator in zip(feeds, state[1]):
                accumulator.add(feed(row))

        if not groups and not select.group_by:
            # Aggregate query over an empty input yields one row.
            groups[()] = new_group(tuple([None] * len(source.columns)))
        return [
            first_row
            + tuple([accumulator.result() for accumulator in accumulators])
            for first_row, accumulators in groups.values()
        ]

    def _finish_groups(
        self,
        select: nodes.Select,
        items: list[nodes.SelectItem],
        groups: list[tuple[Any, ...]],
        ctx: RowContext,
    ) -> Relation:
        """The per-group pass over ``first_row + aggregate results``
        (HAVING, select list, ORDER BY extras), whichever accumulator
        produced ``groups``."""
        out_columns: list[tuple[Optional[str], str]] = [
            (None, item.output_name) for item in items
        ]
        extra_exprs = _order_extras(select.order_by, items)
        calls = collect_aggregates(items, select.having, select.order_by)
        group_evaluator = _GroupEvaluator(
            self._evaluator,
            {
                agg_key(call): len(ctx.columns) + position
                for position, call in enumerate(calls)
            },
        )
        having = group_evaluator.compile_truth(select.having, ctx)
        outputs = [
            group_evaluator.compile(expr, ctx)
            for expr in [item.expression for item in items] + extra_exprs
        ]
        rows = [
            tuple([output(group_row) for output in outputs])
            for group_row in groups
            if having(group_row)
        ]
        hidden = [(None, f"__order_{i}") for i in range(len(extra_exprs))]
        return Relation(out_columns + hidden, rows)

    def _order_and_slice(
        self,
        select: nodes.Select,
        relation: Relation,
        outer: Optional[RowContext],
    ) -> Relation:
        if select.order_by:
            out_ctx = RowContext(
                relation.columns, [None] * len(relation.columns)
            )
            extra_positions = _order_extra_positions(
                select.order_by, list(select.items)
            )

            def order_value(item: nodes.OrderItem):
                getter = _ordinal_getter(item.expression)
                if getter is not None:
                    return getter
                hidden_index = _find_column(
                    relation.columns,
                    f"__order_{extra_positions.get(id(item), -1)}",
                )
                if hidden_index is not None:
                    return operator.itemgetter(hidden_index)
                return self._evaluator.compile(item.expression, out_ctx)

            relation = Relation(
                relation.columns,
                _sorted_rows(
                    relation.rows,
                    [
                        (order_value(item), item.descending)
                        for item in select.order_by
                    ],
                ),
            )

        rows = relation.rows[self._window(select)]

        # Strip hidden ORDER BY helper columns.
        keep = [
            index
            for index, (_binding, name) in enumerate(relation.columns)
            if not name.startswith("__order_")
        ]
        if len(keep) != len(relation.columns):
            columns = [relation.columns[i] for i in keep]
            rows = [tuple(row[i] for i in keep) for row in rows]
            return Relation(columns, rows)
        return Relation(relation.columns, rows)

    # -- plan construction and runtime -------------------------------------

    def _build_plan(self, select: nodes.Select, memo: bool = True) -> SelectPlan:
        """The core's plan, built once; a stored plan keeps its node's id."""
        plan = self._plans.get(id(select))
        if plan is None:
            plan = build_plan(
                select,
                self._binding,
                self._catalog.indexes_for,
                optimize=self.optimize,
                enable_hash_join=self.enable_hash_join,
            )
            if memo:
                self._plans[id(select)] = plan
        return plan

    def _run_source_plan(
        self, plan: SourcePlan, outer: Optional[RowContext]
    ) -> Relation:
        if isinstance(plan, ScanPlan):
            return self._run_scan(plan, outer)
        if isinstance(plan, SubqueryScanPlan):
            inner = self.execute_select(plan.query, outer)
            return self._rebind_and_filter(plan, inner, outer)
        if isinstance(plan, ViewScanPlan):
            # A view body sees the schema only: no CTE, no outer row.
            stack, self._cte_stack = self._cte_stack, []
            try:
                inner = self.execute_select(plan.query)
            finally:
                self._cte_stack = stack
            return self._rebind_and_filter(plan, inner, outer)
        if isinstance(plan, CteScanPlan):
            return self._rebind_and_filter(
                plan, self._cte_relation(plan.name), outer
            )
        if isinstance(plan, JoinPlan):
            return self._run_join_plan(plan, outer)
        raise ExecutionError(f"unsupported plan node: {plan!r}")

    def _cte_relation(self, name: str) -> Relation:
        key = name.lower()
        for frame in reversed(self._cte_stack):
            if key in frame:
                return frame[key]
        raise ExecutionError(f"CTE {name!r} is not materialized")

    def _rebind_and_filter(
        self,
        plan: SourcePlan,
        inner: Relation,
        outer: Optional[RowContext],
    ) -> Relation:
        relation = Relation(
            [(plan.binding, name) for _b, name in inner.columns],
            inner.rows,
        )
        return self._apply_plan_filter(plan, relation, outer)

    def _apply_plan_filter(
        self,
        plan: SourcePlan,
        relation: Relation,
        outer: Optional[RowContext],
    ) -> Relation:
        """Run a scan's pushed-down conjuncts over its rows."""
        if plan.filter is None:
            return relation
        ctx = RowContext(
            relation.columns, [None] * len(relation.columns), outer
        )
        keep = self._evaluator.compile_truth(plan.filter, ctx)
        return Relation(
            relation.columns, [row for row in relation.rows if keep(row)]
        )

    def _run_scan(
        self, plan: ScanPlan, outer: Optional[RowContext]
    ) -> Relation:
        table = self._storage(plan.table)
        rows = self._access_rows(table, plan.access, outer)
        columns = [
            (plan.binding, column.name) for column in table.schema.columns
        ]
        relation = self._apply_plan_filter(
            plan, Relation(columns, rows), outer
        )
        if plan.columns is not None:
            keep = [
                table.schema.column_index(name) for name in plan.columns
            ]
            relation = Relation(
                [columns[i] for i in keep],
                [tuple(row[i] for i in keep) for row in relation.rows],
            )
        return relation

    # -- batch operators (docs/sqlengine.md § Columnar execution) -----------

    def _selection(self, plan: ScanPlan, table: Table, start=0) -> np.ndarray:
        """Heap positions from ``start`` on passing the scan's pushed
        conjuncts, applied in order. A conjunct is evaluated wherever no
        earlier one was false — where three-valued AND evaluates it row
        by row — so it can only fail where the closure would."""
        alive = np.ones(len(table) - start, bool)
        maybe = alive.copy()
        for column, conjunct in plan.predicates or ():
            index = table.schema.column_index(column)
            tests = self._number_tests(conjunct, table.schema.columns[index])
            if tests is not None:
                data, null = (v[start:] for v in table.vector(index, "num"))
                true = ~null
                for compare, bound in tests:
                    true &= compare(data, bound)
            else:
                codes, values = table.vector(index, "dict")
                state = columnar.distinct_map(
                    codes[start:],
                    values,
                    self._column_fn(conjunct, plan, column),
                    lambda result: 2 if result is None else bool(result),
                    maybe,
                )
                true, null = state == 1, state == 2
            alive &= true
            maybe &= true | null
        return np.flatnonzero(alive) + start

    def _number_tests(
        self, conjunct: nodes.Expression, column: ColumnSchema
    ) -> Optional[list]:
        """A number column's ``column <op> number`` or ``column BETWEEN
        number AND number`` as (comparison, bound) pairs to apply to
        its vector — the one place comparison is restated, for exactly
        convertible numbers only; None for any other conjunct."""
        between = isinstance(conjunct, nodes.Between) and not conjunct.negated
        if between:
            parts = [(">=", conjunct.low), ("<=", conjunct.high)]
        elif isinstance(conjunct, nodes.BinaryOp) and conjunct.op in COMPARISONS:
            parts = [(conjunct.op, conjunct.right)]
        else:
            return None
        operand = conjunct.operand if between else conjunct.left
        bounds = [self._evaluator._static(bound) for _op, bound in parts]
        if (
            isinstance(operand, nodes.ColumnRef)
            and column.data_type in NUMBER_TYPES
            and all(
                type(b) is float or type(b) is int and abs(b) < columnar.EXACT
                for b in bounds
            )
        ):
            return [(COMPARISONS[op], b) for (op, _), b in zip(parts, bounds)]
        return None

    def _column_fn(self, expr: nodes.Expression, scan: ScanPlan, column: str):
        """``expr``, which reads ``column`` and nothing else (no outer
        row either), compiled over the one-column row ``(value,)``."""
        layout = RowContext([(scan.binding, column)], [None])
        return self._evaluator.compile(expr, layout)

    def _batch(self, plan: SourcePlan, builds: dict, start=0) -> dict[int, tuple]:
        """Run a columnar source: per scan, keyed by ``id`` in layout
        order, the heap positions of its side of every joined entry; the
        leftmost scan (every join's probe side) from row ``start`` on.
        A join's build side is taken from ``builds``, else made there."""
        if isinstance(plan, ScanPlan):
            table = self._storage(plan.table)
            return {id(plan): (table, self._selection(plan, table, start))}
        assert isinstance(plan, JoinPlan) and plan.keys is not None
        left = self._batch(plan.left, builds, start)
        right, side = builds.get(id(plan), (None, None))
        if right is None:  # the first fold of a state
            right = self._batch(plan.right, builds)
            side = columnar.build(*_gather(right, *plan.keys[1], "dict"))
        side, picks = columnar.join(*_gather(left, *plan.keys[0], "dict"), side)
        builds[id(plan)] = right, side
        return {
            key: (table, positions[pick])
            for batch, pick in zip((left, right), picks)
            for key, (table, positions) in batch.items()
        }

    def _dictionary_rows(self, plan: SelectPlan) -> Optional[Relation]:
        """The dictionary shape's rows: the column's distinct values cut
        to LIMIT/OFFSET, or None when it has no faithful dictionary."""
        table = self._storage(plan.source.table)
        try:
            codes, values = table.vector(
                table.schema.column_index(plan.columnar.column), "dict"
            )
        except columnar.Decline:
            return None
        if plan.source.filter is None and (codes < 0).any():
            # NULL counts, and codes number values in first-seen order:
            # those before the first NULL are 0 to the largest code seen.
            at = int(codes[: np.argmax(codes < 0)].max(initial=-1)) + 1
            values = [*values[:at], None, *values[at:]]
        rows = [(value,) for value in values[self._window(plan.select)]]
        return Relation([(None, plan.select.items[0].output_name)], rows)

    def _columnar_groups(
        self, spec: ColumnarPlan, source: SourcePlan
    ) -> Optional[list[tuple[Any, ...]]]:
        """What :meth:`_row_groups` returns, folded by the batch operators
        into the plan's grouped state — only the new rows when just the
        leftmost scan's table grew (docs/sqlengine.md § Grouped state);
        None when the data makes them decline."""
        tables = [self._storage(scan.table) for scan in _scans(source)]
        params = tuple((type(p), p) for p in self._evaluator._parameters)
        # Live weak references compare as their tables do: by identity.
        tag = params, *(
            (weakref.ref(t), t.rewrites, len(t) if at else 0)
            for at, t in enumerate(tables)
        )
        state, rows = spec.state, len(tables[0])
        if state is None or state.tag != tag or state.folded > rows:
            state = _empty_groups(spec, tag)
        elif state.folded == rows:
            return _group_rows(spec, state, tables)
        try:
            state = self._fold_groups(spec, source, state, rows)
        except columnar.Decline:
            return None
        spec.state = state  # replaced, never mutated: readers share it
        return _group_rows(spec, state, tables)

    def _fold_groups(self, spec: ColumnarPlan, source: SourcePlan, state, rows):
        """The :class:`_GroupState` with leftmost heap rows to ``rows`` in."""
        builds = dict(state.builds)  # the state is replaced, never mutated
        batch = self._batch(source, builds, state.folded)
        keys, ids = [], []
        for (scan, column, expr), known in zip(spec.keys, state.ids):
            codes, values = _gather(batch, scan, column, "dict")
            if known is None:  # dictionary codes survive appends
                keys.append((codes + 1, len(values) + 1))
            else:
                # Any other key runs once per distinct column value;
                # equal results share a group as dict keys would.
                known = dict(known)
                codes = columnar.distinct_map(
                    codes,
                    values,
                    self._column_fn(expr, scan, column),
                    lambda result: known.setdefault(_hashable(result), len(known)),
                )
                keys.append((codes, len(known)))
            ids.append(known)
        size = len(next(iter(batch.values()))[1])
        index, group_of, fresh = columnar.group(keys, size, state.index)
        groups = max(len(index), 0 if spec.keys else 1)
        partials = []
        for (name, target), partial in zip(spec.aggregates, state.partials):
            data = nulls = None
            if target is not None:
                column = target[0].schema.column(target[1])
                if column.data_type in NUMBER_TYPES:
                    data, nulls = _gather(batch, *target, "num")
                else:  # COUNT over any other type: NULL is code -1
                    data = _gather(batch, *target, "dict")[0]
                    nulls = data < 0
            partials.append(
                columnar.fold(name, partial, group_of, groups, data, nulls)
            )
        # Groups carry whole heap rows: nothing is kept per input row.
        parts = [
            table.rows_at(positions[fresh].tolist())
            for table, positions in batch.values()
        ]
        firsts = state.firsts + [sum(entry, ()) for entry in zip(*parts)]
        partials = tuple(partials)
        return _GroupState(
            state.tag, rows, index, tuple(ids), firsts, partials, builds
        )

    def _access_rows(
        self,
        plan_table: Table,
        access: Any,
        outer: Optional[RowContext],
    ) -> list[tuple[Any, ...]]:
        """Fetch candidate rows through the plan's access path.

        Index paths only *pre-filter*: the scan filter re-checks every
        row, so falling back to a full snapshot is always safe.
        """
        base_ctx = RowContext([], [], outer)
        if isinstance(access, IndexEqAccess):
            values = []
            for column_name, expr in zip(
                access.index.columns, access.values
            ):
                value = self._evaluator.evaluate(expr, base_ctx)
                if value is None:
                    return []  # col = NULL matches nothing
                column = plan_table.schema.column(column_name)
                try:
                    values.append(coerce(value, column.data_type))
                except Exception:
                    return plan_table.snapshot()  # type mismatch
            index = plan_table.get_index(access.index.name)
            return plan_table.rows_at(index.lookup(tuple(values)))
        if isinstance(access, IndexRangeAccess):
            index = plan_table.get_index(access.index.name)
            if not isinstance(index, SortedIndex):
                return plan_table.snapshot()
            column = plan_table.schema.column(access.column)
            bounds: dict[str, Any] = {"low": None, "high": None}
            for side, expr in (("low", access.low), ("high", access.high)):
                if expr is None:
                    continue
                value = self._evaluator.evaluate(expr, base_ctx)
                if value is None:
                    return []  # range against NULL matches nothing
                try:
                    bounds[side] = coerce(value, column.data_type)
                except Exception:
                    return plan_table.snapshot()
            positions = index.range_lookup(
                bounds["low"],
                bounds["high"],
                low_inclusive=access.low_inclusive,
                high_inclusive=access.high_inclusive,
            )
            return plan_table.rows_at(positions)
        return plan_table.snapshot()

    def _run_join_plan(
        self, plan: JoinPlan, outer: Optional[RowContext]
    ) -> Relation:
        assert plan.left is not None and plan.right is not None
        left = self._run_source_plan(plan.left, outer)
        right = self._run_source_plan(plan.right, outer)
        columns = left.columns + right.columns
        ctx = RowContext(columns, [None] * len(columns), outer)
        rows: list[tuple[Any, ...]] = []
        if plan.join_type == "CROSS":
            for lrow in left.rows:
                for rrow in right.rows:
                    rows.append(lrow + rrow)
            return Relation(columns, rows)

        condition = self._evaluator.compile_truth(plan.condition, ctx)
        matched_right: set[int] = set()
        null_right = tuple([None] * len(right.columns))
        null_left = tuple([None] * len(left.columns))

        equi: Optional[tuple[int, int]] = None
        if plan.strategy == "hash" and plan.equi is not None:
            # Re-resolve the planner's equi-conjunct refs against the
            # runtime layouts; fall back to a nested loop when either
            # side fails to resolve uniquely.
            left_ref, right_ref = plan.equi
            left_pos = _resolve_position(left_ref, left.columns)
            right_pos = _resolve_position(right_ref, right.columns)
            if left_pos is not None and right_pos is not None:
                equi = (left_pos, right_pos)
        if equi is not None:
            # Hash join: build on the right input, probe with the left.
            # The full ON condition is still evaluated per candidate
            # pair, so extra conjuncts remain correct.
            left_pos, right_pos = equi
            buckets: dict[Any, list[int]] = {}
            for rindex, rrow in enumerate(right.rows):
                key = rrow[right_pos]
                if key is not None:
                    buckets.setdefault(key, []).append(rindex)
            for lrow in left.rows:
                matched = False
                key = lrow[left_pos]
                for rindex in buckets.get(key, ()) if key is not None else ():
                    rrow = right.rows[rindex]
                    combined = lrow + rrow
                    if condition(combined):
                        matched = True
                        matched_right.add(rindex)
                        rows.append(combined)
                if not matched and plan.join_type in ("LEFT", "FULL"):
                    rows.append(lrow + null_right)
        else:
            for lrow in left.rows:
                matched = False
                for rindex, rrow in enumerate(right.rows):
                    combined = lrow + rrow
                    if condition(combined):
                        matched = True
                        matched_right.add(rindex)
                        rows.append(combined)
                if not matched and plan.join_type in ("LEFT", "FULL"):
                    rows.append(lrow + null_right)
        if plan.join_type in ("RIGHT", "FULL"):
            for rindex, rrow in enumerate(right.rows):
                if rindex not in matched_right:
                    rows.append(null_left + rrow)
        return Relation(columns, rows)

    # -- DML / DDL -----------------------------------------------------------

    def _execute_insert(self, statement: nodes.Insert) -> Relation:
        table = self._storage(statement.table)
        schema = table.schema
        if statement.columns:
            indices = [
                schema.column_index(name) for name in statement.columns
            ]
        else:
            indices = list(range(len(schema.columns)))

        def build_row(values: Sequence[Any]) -> list[Any]:
            if len(values) != len(indices):
                raise ExecutionError(
                    f"INSERT expects {len(indices)} values, got {len(values)}"
                )
            full: list[Any] = []
            provided = dict(zip(indices, values))
            for position, column in enumerate(schema.columns):
                if position in provided:
                    full.append(provided[position])
                else:
                    full.append(column.default)
            return full

        count = 0
        empty_ctx = RowContext([], [])
        if statement.query is not None:
            result = self.execute_select(statement.query)
            for row in result.rows:
                table.insert(build_row(row))
                count += 1
        else:
            for value_exprs in statement.rows:
                values = [
                    self._evaluator.evaluate(expr, empty_ctx)
                    for expr in value_exprs
                ]
                table.insert(build_row(values))
                count += 1
        return _rowcount_relation(count)

    def _execute_update(self, statement: nodes.Update) -> Relation:
        table = self._storage(statement.table)
        schema = table.schema
        columns = [
            (statement.table, column.name) for column in schema.columns
        ]
        ctx = RowContext(columns, [None] * len(columns))
        assignments = [
            (schema.column_index(name), self._evaluator.compile(expr, ctx))
            for name, expr in statement.assignments
        ]
        matches = self._evaluator.compile_truth(statement.where, ctx)
        new_rows: list[tuple[Any, ...]] = []
        count = 0
        for row in table.rows():
            if matches(row):
                updated = list(row)
                for index, value in assignments:
                    updated[index] = value(row)
                new_rows.append(tuple(updated))
                count += 1
            else:
                new_rows.append(row)
        table.replace_rows(new_rows)
        return _rowcount_relation(count)

    def _execute_delete(self, statement: nodes.Delete) -> Relation:
        table = self._storage(statement.table)
        columns = [
            (statement.table, column.name)
            for column in table.schema.columns
        ]
        ctx = RowContext(columns, [None] * len(columns))
        matches = self._evaluator.compile_truth(statement.where, ctx)
        before = table.snapshot()
        kept = [row for row in before if not matches(row)]
        table.replace_rows(kept)
        return _rowcount_relation(len(before) - len(kept))

    def _execute_create(self, statement: nodes.CreateTable) -> Relation:
        if self._catalog.has_table(statement.name):
            if statement.if_not_exists:
                return _rowcount_relation(0)
            raise CatalogError(f"table {statement.name!r} already exists")
        empty_ctx = RowContext([], [])
        columns = []
        for definition in statement.columns:
            default = None
            if definition.default is not None:
                default = self._evaluator.evaluate(
                    definition.default, empty_ctx
                )
            columns.append(
                ColumnSchema(
                    name=definition.name,
                    data_type=DataType.from_name(definition.type_name),
                    not_null=definition.not_null,
                    primary_key=definition.primary_key,
                    unique=definition.unique,
                    default=default,
                )
            )
        schema = TableSchema(statement.name, columns)
        self._catalog.create_table(schema)
        self._tables[statement.name.lower()] = Table(schema)
        return _rowcount_relation(0)

    def _execute_drop(self, statement: nodes.DropTable) -> Relation:
        if not self._catalog.has_table(statement.name):
            if statement.if_exists:
                return _rowcount_relation(0)
            raise CatalogError(f"no table named {statement.name!r}")
        self._catalog.drop_table(statement.name)
        del self._tables[statement.name.lower()]
        return _rowcount_relation(0)

    def _execute_create_index(self, statement: nodes.CreateIndex) -> Relation:
        if self._catalog.index(statement.name) is not None:
            raise ExecutionError(
                f"index {statement.name!r} already exists"
            )
        table = self._storage(statement.table)
        table.create_secondary_index(
            statement.name, statement.columns, statement.kind
        )
        self._catalog.register_index(
            IndexInfo(
                name=statement.name,
                table=statement.table,
                columns=tuple(statement.columns),
                kind=statement.kind,
            )
        )
        return _rowcount_relation(0)

    def _execute_drop_index(self, statement: nodes.DropIndex) -> Relation:
        info = self._catalog.index(statement.name)
        if info is not None:
            self._catalog.drop_index(statement.name)
            self._storage(info.table).drop_secondary_index(info.name)
            return _rowcount_relation(0)
        # Indexes created through the storage API may lack catalog
        # metadata; fall back to a table-level search.
        for table in self._tables.values():
            if statement.name in table.index_names():
                table.drop_secondary_index(statement.name)
                return _rowcount_relation(0)
        raise ExecutionError(f"no index named {statement.name!r}")

    # -- EXPLAIN -----------------------------------------------------------

    def explain(self, select: nodes.Select) -> Relation:
        """Describe the plan the executor would use (no execution)."""
        lines = self._explain_lines(select, 0)
        return Relation([(None, "plan")], [(line,) for line in lines])

    def _explain_lines(self, select: nodes.Select, depth: int) -> list[str]:
        """Render one select (and its WITH clause) as plan lines; CTE
        bodies are planned, never run."""
        lines: list[str] = []
        for cte in select.ctes:
            lines.append(f"{'  ' * depth}Cte {cte.name}:")
            lines.extend(self._explain_lines(cte.query, depth + 1))
        plan = self._build_plan(select)
        return lines + render_plan(
            plan, depth, render_subselect=self._explain_lines
        )

    # -- helpers -----------------------------------------------------------

    def _storage(self, name: str) -> Table:
        table = self._tables.get(name.lower())
        if table is None:
            raise CatalogError(f"no table named {name!r}")
        return table

    def _run_subquery(
        self, select: nodes.Select, outer: Optional[RowContext]
    ) -> Relation:
        return self.execute_select(select, outer)

    def _expand_stars(
        self,
        items: tuple[nodes.SelectItem, ...],
        columns: list[tuple[Optional[str], str]],
    ) -> list[nodes.SelectItem]:
        expanded: list[nodes.SelectItem] = []
        for item in items:
            expr = item.expression
            if isinstance(expr, nodes.Star):
                for binding, name in columns:
                    if expr.table is not None and (
                        binding is None
                        or binding.lower() != expr.table.lower()
                    ):
                        continue
                    expanded.append(
                        nodes.SelectItem(nodes.ColumnRef(name, binding))
                    )
                continue
            expanded.append(item)
        return expanded


class _GroupEvaluator(Evaluator):
    """Compiles the per-group pass: an aggregate call reads its result
    from the slot its call shape was accumulated into."""

    def __init__(self, base: Evaluator, slots: dict[str, int]) -> None:
        super().__init__(base._run_subquery, base._parameters)
        self._slots = slots

    def compile(self, expr: nodes.Expression, layout: RowContext):
        if isinstance(expr, nodes.FunctionCall) and is_aggregate_function(
            expr.name
        ):
            return operator.itemgetter(self._slots[agg_key(expr)])
        return super().compile(expr, layout)


def _gather(batch: dict, scan: ScanPlan, column: str, kind: str) -> tuple:
    """A scan column's vector taken at the batch's positions: gathered
    ``(data, nulls)`` or ``(codes, distinct values)``."""
    table, positions = batch[id(scan)]
    first, second = table.vector(table.schema.column_index(column), kind)
    return first[positions], second[positions] if kind == "num" else second


def _scans(plan: SourcePlan) -> list[ScanPlan]:
    """A columnar source's scans in layout order, leftmost first."""
    if isinstance(plan, ScanPlan):
        return [plan]
    return _scans(plan.left) + _scans(plan.right)


def _source_layout(plan: SourcePlan) -> list[tuple[Optional[str], str]]:
    """The layout of a columnar source: its scans' whole heap rows."""
    return [(s.binding, n) for s in _scans(plan) for n in s.schema.column_names]


class _GroupState(NamedTuple):
    """A columnar grouped core's groups so far (docs/sqlengine.md
    § Grouped state), sized by the groups, never by the input rows."""

    tag: tuple  # bind parameters; per scan (weak table, rewrites, rows)
    folded: int  # leftmost scan's heap rows folded in
    index: dict  # key ids (column code + 1, or expression id) -> group
    ids: tuple  # per key: None for a column, else its result -> id
    firsts: list  # per group: its first entry's heap rows
    partials: tuple  # per aggregate: its :func:`columnar.fold` partial
    #: Per join ``id``: its right side's batch and :func:`columnar.build`
    #: side, sized by the right tables, which the tag pins.
    builds: dict

    def nbytes(self) -> int:
        held = [self.index, self.firsts, *filter(None, self.ids)]
        held += [a for p in self.partials for a in p[:2] if a is not None]
        for right, side in self.builds.values():
            held += [positions for _table, positions in right.values()]
            held += side
        return sum(sys.getsizeof(item) for item in held)


def _empty_groups(spec: ColumnarPlan, tag: tuple) -> _GroupState:
    """A state with nothing folded in: the core is built from row 0."""
    ids = tuple(None if type(k[2]) is nodes.ColumnRef else {} for k in spec.keys)
    empty = ((np.zeros(0, np.int64), None, 0, 0),) * len(spec.aggregates)
    return _GroupState(tag, 0, {}, ids, [], empty, {})


def _group_rows(spec: ColumnarPlan, state: _GroupState, tables: list) -> list:
    """The groups as ``first rows + aggregate results``; without GROUP
    BY, aggregates over no rows have one all-NULL row."""
    results = [
        columnar.results(name, partial)
        for (name, _target), partial in zip(spec.aggregates, state.partials)
    ]
    width = sum(len(table.schema.columns) for table in tables)
    firsts = state.firsts or ([] if spec.keys else [(None,) * width])
    return [entry[0] + entry[1:] for entry in zip(firsts, *results)]


def _rowcount_relation(count: int) -> Relation:
    """DML statements report their affected-row count as a relation."""
    return Relation(columns=[(None, "rowcount")], rows=[(count,)])


def _apply_cte_columns(
    cte: nodes.CommonTableExpr, relation: Relation
) -> Relation:
    """Apply a CTE's declared column list, checking arity."""
    if not cte.columns:
        return relation
    if len(cte.columns) != len(relation.columns):
        raise ExecutionError(
            f"CTE {cte.name!r} declares {len(cte.columns)} columns but "
            f"its query returns {len(relation.columns)}"
        )
    return Relation([(None, name) for name in cte.columns], relation.rows)


def _resolve_position(
    ref: nodes.ColumnRef,
    columns: list[tuple[Optional[str], str]],
) -> Optional[int]:
    matches = [
        index
        for index, (binding, name) in enumerate(columns)
        if name.lower() == ref.name.lower()
        and (
            ref.table is None
            or (binding is not None and binding.lower() == ref.table.lower())
        )
    ]
    if len(matches) == 1:
        return matches[0]
    return None


def _order_extras(
    order_by: tuple[nodes.OrderItem, ...],
    items: list[nodes.SelectItem],
) -> list[nodes.Expression]:
    """ORDER BY expressions that are not plain output references."""
    extras = []
    for item in order_by:
        if _order_extra_needed(item, items):
            extras.append(item.expression)
    return extras


def _order_extra_positions(
    order_by: tuple[nodes.OrderItem, ...],
    items: list[nodes.SelectItem],
) -> dict[int, int]:
    positions: dict[int, int] = {}
    counter = 0
    for item in order_by:
        if _order_extra_needed(item, items):
            positions[id(item)] = counter
            counter += 1
    return positions


def _order_extra_needed(
    item: nodes.OrderItem, items: list[nodes.SelectItem]
) -> bool:
    expr = item.expression
    if is_ordinal(expr):
        return False
    if isinstance(expr, nodes.ColumnRef) and expr.table is None:
        for select_item in items:
            if select_item.output_name.lower() == expr.name.lower():
                return False
    # Star select lists keep all source columns, so a plain column ref
    # resolves against the output either way; still carry an extra to be
    # safe for computed expressions.
    return True


def _hashable(value: Any) -> Any:
    if isinstance(value, (list, dict, set)):
        return repr(value)
    return value


def _distinct(relation: Relation) -> Relation:
    seen: set = set()
    rows: list[tuple[Any, ...]] = []
    for row in relation.rows:
        key = tuple(_hashable(v) for v in row)
        if key in seen:
            continue
        seen.add(key)
        rows.append(row)
    return Relation(relation.columns, rows)


def _apply_set_operator(op: str, left: Relation, right: Relation) -> Relation:
    if op == "UNION ALL":
        return Relation(left.columns, left.rows + right.rows)
    left_keys = [tuple(_hashable(v) for v in row) for row in left.rows]
    right_keys = {tuple(_hashable(v) for v in row) for row in right.rows}
    if op == "UNION":
        merged = _distinct(Relation(left.columns, left.rows + right.rows))
        return merged
    if op == "INTERSECT":
        rows = []
        seen: set = set()
        for key, row in zip(left_keys, left.rows):
            if key in right_keys and key not in seen:
                seen.add(key)
                rows.append(row)
        return Relation(left.columns, rows)
    if op == "EXCEPT":
        rows = []
        seen = set()
        for key, row in zip(left_keys, left.rows):
            if key not in right_keys and key not in seen:
                seen.add(key)
                rows.append(row)
        return Relation(left.columns, rows)
    raise ExecutionError(f"unknown set operator: {op}")


def _ordinal_getter(expr: nodes.Expression):
    """``ORDER BY <n>``: a getter for output column ``n`` (the binder
    checked the range), or None when ``expr`` is not an ordinal."""
    return operator.itemgetter(expr.value - 1) if is_ordinal(expr) else None


def _sorted_rows(
    rows: list[tuple[Any, ...]], terms: list[tuple[Any, bool]]
) -> list[tuple[Any, ...]]:
    """Stable sort by ``(compiled getter, descending)`` ORDER BY terms."""

    def key(row: tuple) -> list:
        parts = []
        for getter, descending in terms:
            part = sort_key(getter(row))
            parts.append(_invert(part) if descending else part)
        return parts

    return sorted(rows, key=key)


def _find_column(
    columns: list[tuple[Optional[str], str]], name: str
) -> Optional[int]:
    for index, (_binding, column_name) in enumerate(columns):
        if column_name == name:
            return index
    return None


def _invert(part: tuple) -> tuple:
    """Invert a sort_key part for descending order.

    NULLs are the smallest value (group 0), so inverting the group makes
    them sort last under DESC — matching SQLite semantics.
    """
    group, type_rank, value = part
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return (-group, -type_rank, -value)
    if isinstance(value, str):
        return (-group, -type_rank, _InvertedString(value))
    return (-group, -type_rank, value)


class _InvertedString(str):
    """A string that sorts in reverse order."""

    def __lt__(self, other: str) -> bool:  # type: ignore[override]
        return str.__gt__(self, other)

    def __gt__(self, other: str) -> bool:  # type: ignore[override]
        return str.__lt__(self, other)

    def __le__(self, other: str) -> bool:  # type: ignore[override]
        return str.__ge__(self, other)

    def __ge__(self, other: str) -> bool:  # type: ignore[override]
        return str.__le__(self, other)
