"""Rule-based query planner producing an inspectable plan tree.

``build_plan`` turns a parsed :class:`~repro.sqlengine.nodes.Select`
into a :class:`SelectPlan` — the structure the executor runs and
``EXPLAIN`` renders. The planner applies a fixed rule set, in order:

1. **Predicate pushdown** — the WHERE clause is split into AND
   conjuncts; each conjunct whose column references all resolve to a
   single FROM leaf moves to that leaf's scan filter. Conjuncts are
   *not* pushed to the null-supplying side of an outer join (that
   would change which rows get null-extended), and conjuncts that
   contain subqueries stay put.
2. **Index selection** — per base-table scan, pushed conjuncts of the
   shape ``column = <constant>`` select a hash or sorted index whose
   columns are fully covered (point lookup); range conjuncts
   (``>``, ``>=``, ``<``, ``<=``, ``BETWEEN``) over the first column
   of a sorted index select a binary-searched range scan. All pushed
   conjuncts are still re-applied as the scan's residual filter, so
   correctness never depends on index semantics.
3. **Join strategy** — an ``ON`` conjunct of the shape
   ``left_col = right_col`` whose sides resolve to opposite join
   inputs turns a nested-loop join into a hash join (build right,
   probe left). The full ON condition still runs per candidate pair.
4. **Projection pruning** — when the statement has no ``*`` and no
   subqueries, each base-table scan emits only the columns some
   clause actually references.
5. **CTE / view / subquery scans** — names are resolved through the
   executor's scope (CTE first, then view, then table); their bodies
   execute as sub-selects and pushed conjuncts apply to their output.

6. **Columnar shape** — a grouped select over table scans whose
   pushed conjuncts each read one column, under inner hash joins on
   the equi conjunct alone, with one-column group keys and
   COUNT/SUM/AVG/MIN/MAX over columns, is marked ``columnar``: the
   executor runs it as batch operators and EXPLAIN tags its nodes.
   Decided before rules 2 and 4, which then apply to row-based cores
   only: batch operators read whole column vectors. So is the
   dictionary shape, ``SELECT DISTINCT c FROM t [WHERE c IS NOT NULL]``
   over one table scan, whose answer is the column's dictionary values.

The planner is deliberately *rule*-based, not cost-based: given the
same statement and schema it always produces the same plan, which is
what the golden-plan tests pin down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Protocol

from repro.sqlengine import nodes
from repro.sqlengine.catalog import TableSchema
from repro.sqlengine.errors import CatalogError
from repro.sqlengine.functions import is_aggregate_function
from repro.sqlengine.indexes import IndexInfo
from repro.sqlengine.types import DataType

# ---------------------------------------------------------------------------
# Plan nodes
# ---------------------------------------------------------------------------


@dataclass
class SeqAccess:
    """Full heap scan."""


@dataclass
class IndexEqAccess:
    """Point lookup: every index column has an equality constant."""

    index: IndexInfo
    values: tuple[nodes.Expression, ...]  # one constant per index column


@dataclass
class IndexRangeAccess:
    """Range scan over the first column of a sorted index."""

    index: IndexInfo
    column: str
    low: Optional[nodes.Expression] = None
    high: Optional[nodes.Expression] = None
    low_inclusive: bool = True
    high_inclusive: bool = True


AccessPath = Any  # SeqAccess | IndexEqAccess | IndexRangeAccess


@dataclass
class SourcePlan:
    """Base class for FROM-clause plan nodes."""

    binding: str
    #: Pushed-down conjuncts, AND-combined; re-checked on every row.
    filter: Optional[nodes.Expression] = None


@dataclass
class ScanPlan(SourcePlan):
    table: str = ""
    access: AccessPath = field(default_factory=SeqAccess)
    #: Projection pruning: emit only these columns (None = all).
    columns: Optional[tuple[str, ...]] = None
    schema: Optional[TableSchema] = None
    #: The pushed conjuncts as ``(column, conjunct)`` when each reads
    #: exactly one column — the form the mask operator runs.
    predicates: Optional[list[tuple[str, nodes.Expression]]] = None


@dataclass
class ViewScanPlan(SourcePlan):
    name: str = ""
    query: Optional[nodes.Select] = None


@dataclass
class CteScanPlan(SourcePlan):
    name: str = ""


@dataclass
class SubqueryScanPlan(SourcePlan):
    query: Optional[nodes.Select] = None


@dataclass
class JoinPlan(SourcePlan):
    left: Optional[SourcePlan] = None
    right: Optional[SourcePlan] = None
    join_type: str = "INNER"
    condition: Optional[nodes.Expression] = None
    strategy: str = "loop"  # 'hash' | 'loop' | 'cross'
    #: For hash joins: the equi-conjunct refs (left side, right side).
    equi: Optional[tuple[nodes.ColumnRef, nodes.ColumnRef]] = None
    #: ``equi`` as (scan, column) per side, when the join can probe
    #: key vectors: INNER, ``ON`` nothing but the equi conjunct.
    keys: Optional[tuple[tuple[ScanPlan, str], tuple[ScanPlan, str]]] = None


@dataclass
class ColumnarPlan:
    """How a grouped SELECT runs as batch operators end to end
    (docs/sqlengine.md § Columnar execution)."""

    #: (scan, column, key expression over that column) per group key.
    keys: list[tuple[ScanPlan, str, nodes.Expression]]
    #: (name, its argument's (scan, column); None for ``COUNT(*)``) per
    #: aggregate call, in :func:`collect_aggregates` order.
    aggregates: list[tuple[str, Optional[tuple[ScanPlan, str]]]]
    #: The executor's grouped state, which lives as long as the plan.
    state: Any = field(default=None, compare=False, repr=False)


@dataclass
class DictionaryPlan:
    """How ``SELECT DISTINCT c FROM t [WHERE c IS NOT NULL]`` runs: its
    rows are ``c``'s dictionary values, the column's distinct values in
    first-seen order, and NULL where first seen if the scan has no
    filter (docs/sqlengine.md § Columnar execution)."""

    column: str


@dataclass
class SelectPlan:
    """A planned single SELECT core (no compound operands)."""

    select: nodes.Select
    source: Optional[SourcePlan]
    #: WHERE conjuncts that could not be pushed down, AND-combined.
    residual: Optional[nodes.Expression]
    #: Set when the whole core runs columnar; the one decision both
    #: the executor and ``EXPLAIN`` read.
    columnar: Optional[ColumnarPlan | DictionaryPlan] = None


class PlannerContext(Protocol):
    """Name resolution + index metadata, implemented by the executor."""

    def resolve(self, name: str) -> tuple[Optional[str], Any]:
        """(kind, payload): ('cte', columns-or-None) | ('view', Select)
        | ('table', TableSchema) | (None, None)."""

    def indexes(self, table: str) -> list[IndexInfo]:
        """Secondary-index metadata for a base table, in name order."""


# ---------------------------------------------------------------------------
# Planning
# ---------------------------------------------------------------------------


@dataclass
class _Leaf:
    plan: SourcePlan
    binding: str
    #: Lower-cased output column names; None when unknown (SELECT *).
    columns: Optional[list[str]]
    null_supplying: bool
    schema: Optional[TableSchema] = None  # base-table scans only
    pushed: list[nodes.Expression] = field(default_factory=list)


def build_plan(
    select: nodes.Select,
    context: PlannerContext,
    *,
    optimize: bool = True,
    enable_hash_join: bool = True,
) -> SelectPlan:
    """Plan one SELECT core against the given name/index context."""
    if select.source is None:
        return SelectPlan(select=select, source=None, residual=select.where)

    leaves: list[_Leaf] = []
    conditions: list[nodes.Expression] = []
    source = _convert_source(
        select.source,
        context,
        leaves,
        conditions,
        False,
        enable_hash_join,
    )

    residual: list[nodes.Expression] = []
    if select.where is not None:
        if optimize:
            for conjunct in _conjuncts(select.where):
                target = _pushdown_target(conjunct, leaves)
                if target is not None:
                    target.pushed.append(conjunct)
                else:
                    residual.append(conjunct)
        else:
            residual.append(select.where)

    for leaf in leaves:
        if leaf.pushed:
            leaf.plan.filter = _combine(leaf.pushed)
            columns = [_single_column(c, leaves) for c in leaf.pushed]
            if None not in columns:  # then ``leaf.plan`` is a ScanPlan
                leaf.plan.predicates = [
                    (column[1], conjunct)
                    for column, conjunct in zip(columns, leaf.pushed)
                ]

    plan = SelectPlan(
        select=select, source=source, residual=_combine(residual)
    )
    if not optimize:
        return plan
    if plan.residual is None and _columnar_source(source):
        plan.columnar = _columnar_plan(select, leaves) or _dictionary_plan(
            select, leaves
        )
    if plan.columnar is None:
        # Row-based scans only: batch operators read whole column
        # vectors, which an index path or a pruned projection cannot
        # feed (and a mask over 100k rows costs what an index does).
        for leaf in leaves:
            if isinstance(leaf.plan, ScanPlan) and leaf.schema:
                leaf.plan.access = _choose_access(
                    leaf, context.indexes(leaf.plan.table)
                )
        _prune_projections(select, leaves, conditions)
    return plan


def _convert_source(
    source: nodes.TableRef,
    context: PlannerContext,
    leaves: list[_Leaf],
    conditions: list[nodes.Expression],
    null_supplying: bool,
    hash_joins: bool,
) -> SourcePlan:
    if isinstance(source, nodes.NamedTable):
        kind, payload = context.resolve(source.name)
        binding = source.binding
        if kind == "cte":
            plan: SourcePlan = CteScanPlan(binding=binding, name=source.name)
            columns = payload  # output columns, or None if unknown
        elif kind == "view":
            plan = ViewScanPlan(
                binding=binding, name=source.name, query=payload
            )
            columns = output_columns(payload)
        elif kind == "table":
            plan = ScanPlan(
                binding=binding, table=source.name, schema=payload
            )
            columns = [c.name.lower() for c in payload.columns]
            leaves.append(
                _Leaf(plan, binding, columns, null_supplying, payload)
            )
            return plan
        else:
            raise CatalogError(f"no table named {source.name!r}")
        leaves.append(_Leaf(plan, binding, columns, null_supplying))
        return plan
    if isinstance(source, nodes.SubqueryTable):
        plan = SubqueryScanPlan(binding=source.alias, query=source.subquery)
        leaves.append(
            _Leaf(
                plan,
                source.alias,
                output_columns(source.subquery),
                null_supplying,
            )
        )
        return plan
    if isinstance(source, nodes.Join):
        left_ns = null_supplying or source.join_type in ("RIGHT", "FULL")
        right_ns = null_supplying or source.join_type in ("LEFT", "FULL")
        if source.condition is not None:
            conditions.append(source.condition)
        mark = len(leaves)
        left = _convert_source(
            source.left, context, leaves, conditions, left_ns, hash_joins
        )
        split = len(leaves)
        right = _convert_source(
            source.right, context, leaves, conditions, right_ns, hash_joins
        )
        left_leaves = leaves[mark:split]
        right_leaves = leaves[split:]
        strategy = "loop"
        equi: Optional[tuple[nodes.ColumnRef, nodes.ColumnRef]] = None
        keys = None
        if source.join_type == "CROSS":
            strategy = "cross"
        elif hash_joins:
            equi = _find_equi_pair(
                source.condition, left_leaves, right_leaves
            )
            if equi is not None:
                strategy = "hash"
                alone = len(list(_conjuncts(source.condition))) == 1
                if source.join_type == "INNER" and alone:
                    keys = (
                        _single_column(equi[0], left_leaves),
                        _single_column(equi[1], right_leaves),
                    )
                    keys = None if None in keys else keys
        return JoinPlan(
            binding="",
            left=left,
            right=right,
            join_type=source.join_type,
            condition=source.condition,
            strategy=strategy,
            equi=equi,
            keys=keys,
        )
    raise CatalogError(f"unsupported FROM source: {source!r}")


def output_columns(select: nodes.Select) -> Optional[list[str]]:
    """Lower-cased output column names of a select, or None if a ``*``
    makes them unknowable without execution."""
    names: list[str] = []
    for item in select.items:
        if isinstance(item.expression, nodes.Star):
            return None
        names.append(item.output_name.lower())
    return names


# -- predicate pushdown ----------------------------------------------------


def _conjuncts(expression: nodes.Expression):
    """Yield the top-level AND conjuncts of an expression."""
    if isinstance(expression, nodes.BinaryOp) and expression.op == "AND":
        yield from _conjuncts(expression.left)
        yield from _conjuncts(expression.right)
    else:
        yield expression


_SUBQUERY_NODES = (nodes.InSubquery, nodes.ScalarSubquery, nodes.Exists)


def _pushdown_target(
    conjunct: nodes.Expression, leaves: list[_Leaf]
) -> Optional[_Leaf]:
    """The single leaf this conjunct can be evaluated at, if any."""
    refs: list[nodes.ColumnRef] = []
    for sub in nodes.walk_expressions(conjunct):
        if isinstance(sub, (_SUBQUERY_NODES, nodes.Star)):
            return None  # subqueries and stars never move
        if isinstance(sub, nodes.ColumnRef):
            refs.append(sub)
    if not refs:
        return None  # constant predicate: leave at the top, it is cheap
    target: Optional[_Leaf] = None
    for ref in refs:
        leaf = _resolve_leaf(ref, leaves)
        if leaf is None:
            return None
        if target is None:
            target = leaf
        elif leaf is not target:
            return None  # spans two leaves (e.g. a join predicate)
    if target is not None and target.null_supplying:
        return None  # pushing would change outer-join null extension
    return target


def _resolve_leaf(
    ref: nodes.ColumnRef, leaves: list[_Leaf]
) -> Optional[_Leaf]:
    if ref.table is not None:
        wanted = ref.table.lower()
        matches = [l for l in leaves if l.binding.lower() == wanted]
        if len(matches) != 1:
            return None
        leaf = matches[0]
        if leaf.columns is not None and ref.name.lower() not in leaf.columns:
            return None
        return leaf
    # Unqualified: only safe when every leaf's columns are known, so
    # uniqueness (and the engine's ambiguity errors) are preserved.
    if any(leaf.columns is None for leaf in leaves):
        return None
    matches = [l for l in leaves if ref.name.lower() in (l.columns or [])]
    if len(matches) != 1:
        return None
    return matches[0]


def _combine(
    conjuncts: list[nodes.Expression],
) -> Optional[nodes.Expression]:
    if not conjuncts:
        return None
    combined = conjuncts[0]
    for conjunct in conjuncts[1:]:
        combined = nodes.BinaryOp("AND", combined, conjunct)
    return combined


# -- index selection -------------------------------------------------------


def _is_constant(expr: nodes.Expression) -> bool:
    """No column references or subqueries: literals, parameters,
    arithmetic over them."""
    for sub in nodes.walk_expressions(expr):
        if isinstance(sub, (nodes.ColumnRef, nodes.Star, *_SUBQUERY_NODES)):
            return False
    return True


_RANGE_OPS = {">": "low_open", ">=": "low", "<": "high_open", "<=": "high"}
_FLIP = {">": "<", ">=": "<=", "<": ">", "<=": ">="}


@dataclass
class _Bounds:
    eq: Optional[nodes.Expression] = None
    low: Optional[nodes.Expression] = None
    low_inclusive: bool = True
    high: Optional[nodes.Expression] = None
    high_inclusive: bool = True


def _column_bounds(leaf: _Leaf) -> dict[str, _Bounds]:
    """Per-column equality/range constants among the pushed conjuncts."""
    bounds: dict[str, _Bounds] = {}

    def slot(name: str) -> _Bounds:
        return bounds.setdefault(name.lower(), _Bounds())

    def record_range(name: str, op: str, expr: nodes.Expression) -> None:
        entry = slot(name)
        if op in (">", ">=") and entry.low is None:
            entry.low = expr
            entry.low_inclusive = op == ">="
        elif op in ("<", "<=") and entry.high is None:
            entry.high = expr
            entry.high_inclusive = op == "<="

    for conjunct in leaf.pushed:
        if isinstance(conjunct, nodes.BinaryOp):
            sides = (
                (conjunct.left, conjunct.right, conjunct.op),
                (conjunct.right, conjunct.left, _FLIP.get(conjunct.op, "=")),
            )
            for column_side, const_side, op in sides:
                if not isinstance(column_side, nodes.ColumnRef):
                    continue
                if not _is_constant(const_side):
                    continue
                if conjunct.op == "=":
                    entry = slot(column_side.name)
                    if entry.eq is None:
                        entry.eq = const_side
                elif conjunct.op in _RANGE_OPS:
                    record_range(column_side.name, op, const_side)
                break
        elif (
            isinstance(conjunct, nodes.Between)
            and not conjunct.negated
            and isinstance(conjunct.operand, nodes.ColumnRef)
            and _is_constant(conjunct.low)
            and _is_constant(conjunct.high)
        ):
            record_range(conjunct.operand.name, ">=", conjunct.low)
            record_range(conjunct.operand.name, "<=", conjunct.high)
    return bounds


def _choose_access(leaf: _Leaf, infos: list[IndexInfo]) -> AccessPath:
    if not infos or not leaf.pushed:
        return SeqAccess()
    bounds = _column_bounds(leaf)
    if not bounds:
        return SeqAccess()

    # Rule: point lookup through an index whose columns all have an
    # equality constant. Prefer wider indexes, then hash over sorted,
    # then lexicographic name — a deterministic total order.
    covered = [
        info
        for info in infos
        if all(
            bounds.get(col.lower()) is not None
            and bounds[col.lower()].eq is not None
            for col in info.columns
        )
    ]
    if covered:
        best = sorted(
            covered,
            key=lambda info: (
                -len(info.columns),
                0 if info.kind == "hash" else 1,
                info.name.lower(),
            ),
        )[0]
        values = tuple(bounds[col.lower()].eq for col in best.columns)
        return IndexEqAccess(best, values)  # type: ignore[arg-type]

    # Rule: range scan over a sorted index whose first column has a
    # bound (an equality counts as both bounds).
    ranked: list[tuple[int, str, IndexInfo, _Bounds]] = []
    for info in infos:
        if info.kind != "sorted":
            continue
        entry = bounds.get(info.columns[0].lower())
        if entry is None:
            continue
        if entry.eq is not None:
            entry = _Bounds(low=entry.eq, high=entry.eq)
        if entry.low is None and entry.high is None:
            continue
        score = (entry.low is not None) + (entry.high is not None)
        ranked.append((-score, info.name.lower(), info, entry))
    if ranked:
        _score, _name, info, entry = sorted(ranked, key=lambda r: r[:2])[0]
        return IndexRangeAccess(
            index=info,
            column=info.columns[0],
            low=entry.low,
            high=entry.high,
            low_inclusive=entry.low_inclusive,
            high_inclusive=entry.high_inclusive,
        )
    return SeqAccess()


# -- join strategy ---------------------------------------------------------


def _find_equi_pair(
    condition: Optional[nodes.Expression],
    left_leaves: list[_Leaf],
    right_leaves: list[_Leaf],
) -> Optional[tuple[nodes.ColumnRef, nodes.ColumnRef]]:
    """A ``left_col = right_col`` conjunct usable as a hash-join key."""
    if condition is None:
        return None
    for conjunct in _conjuncts(condition):
        if not (
            isinstance(conjunct, nodes.BinaryOp) and conjunct.op == "="
        ):
            continue
        if not (
            isinstance(conjunct.left, nodes.ColumnRef)
            and isinstance(conjunct.right, nodes.ColumnRef)
        ):
            continue
        for first, second in (
            (conjunct.left, conjunct.right),
            (conjunct.right, conjunct.left),
        ):
            if (
                _resolve_leaf(first, left_leaves) is not None
                and _resolve_leaf(second, right_leaves) is not None
            ):
                return first, second
    return None


# -- projection pruning ----------------------------------------------------


def _prune_projections(
    select: nodes.Select,
    leaves: list[_Leaf],
    conditions: list[nodes.Expression],
) -> None:
    """Restrict base-table scans to the columns the statement uses.

    Disabled whenever a ``*`` or a subquery appears anywhere — those
    can reference columns invisibly — or when any leaf's output
    columns are unknown (attribution would be guesswork).
    """
    if any(leaf.columns is None for leaf in leaves):
        return
    scans = [l for l in leaves if isinstance(l.plan, ScanPlan) and l.schema]
    if not scans:
        return

    needed: dict[int, set[str]] = {id(leaf.plan): set() for leaf in scans}
    for expr in _statement_expressions(select, conditions):
        for sub in nodes.walk_expressions(expr):
            if isinstance(sub, (nodes.Star, *_SUBQUERY_NODES)):
                return  # pruning is unsafe; keep every column
            if not isinstance(sub, nodes.ColumnRef):
                continue
            name = sub.name.lower()
            for leaf in scans:
                if sub.table is not None:
                    if leaf.binding.lower() != sub.table.lower():
                        continue
                if name in (leaf.columns or []):
                    needed[id(leaf.plan)].add(name)

    for leaf in scans:
        assert leaf.schema is not None and isinstance(leaf.plan, ScanPlan)
        keep = needed[id(leaf.plan)]
        columns = tuple(
            column.name
            for column in leaf.schema.columns
            if column.name.lower() in keep
        )
        if len(columns) < len(leaf.schema.columns):
            leaf.plan.columns = columns


def _statement_expressions(
    select: nodes.Select, conditions: list[nodes.Expression]
):
    """Every expression that may reference a scan column: select list,
    WHERE (covers pushed leaf filters too), GROUP BY, HAVING, ORDER BY
    and all join ON conditions."""
    for item in select.items:
        yield item.expression
    if select.where is not None:
        yield select.where
    for expr in select.group_by:
        yield expr
    if select.having is not None:
        yield select.having
    for order in select.order_by:
        yield order.expression
    yield from conditions


def agg_key(call: nodes.FunctionCall) -> str:
    return call.to_sql().upper()


def collect_aggregates(
    items: list[nodes.SelectItem],
    having: Optional[nodes.Expression],
    order_by: tuple[nodes.OrderItem, ...],
) -> list[nodes.FunctionCall]:
    """The distinct aggregate calls of a select list / HAVING / ORDER
    BY, in first-appearance order; non-empty triggers the grouped
    pipeline."""
    exprs = [item.expression for item in items]
    if having is not None:
        exprs.append(having)
    exprs.extend(order.expression for order in order_by)
    calls: dict[str, nodes.FunctionCall] = {}
    for expr in exprs:
        for sub in nodes.walk_expressions(expr):
            if isinstance(sub, nodes.FunctionCall) and is_aggregate_function(
                sub.name
            ):
                calls.setdefault(agg_key(sub), sub)
    return list(calls.values())


def is_grouped(select: nodes.Select) -> bool:
    return bool(select.group_by) or bool(
        collect_aggregates(list(select.items), select.having, select.order_by)
    )


def resolve_output_reference(
    expr: nodes.Expression, items: list[nodes.SelectItem]
) -> nodes.Expression:
    """Map GROUP BY aliases/ordinals back to their select expressions."""
    if isinstance(expr, nodes.Literal) and isinstance(expr.value, int):
        ordinal = expr.value - 1
        if 0 <= ordinal < len(items):
            return items[ordinal].expression
    if isinstance(expr, nodes.ColumnRef) and expr.table is None:
        for item in items:
            if item.alias and item.alias.lower() == expr.name.lower():
                return item.expression
    return expr


def _single_column(
    expr: nodes.Expression, leaves: list[_Leaf]
) -> Optional[tuple[ScanPlan, str]]:
    """The one base-table column ``expr`` reads, which lets it run once
    per distinct value; None for no column, several, or a subquery."""
    found: Optional[tuple[ScanPlan, str]] = None
    for sub in nodes.walk_expressions(expr):
        if isinstance(sub, _SUBQUERY_NODES):
            return None
        if isinstance(sub, nodes.ColumnRef):
            leaf = _resolve_leaf(sub, leaves)
            if leaf is None or not isinstance(leaf.plan, ScanPlan):
                return None
            column = (leaf.plan, sub.name.lower())
            if found not in (None, column):
                return None
            found = column
    return found


def _columnar_source(plan: Optional[SourcePlan]) -> bool:
    """Sequential scans with mask-able filters under vector-probing
    inner joins: the sources that yield position vectors."""
    if isinstance(plan, ScanPlan):
        return plan.filter is None or plan.predicates is not None
    return (
        isinstance(plan, JoinPlan)
        and plan.keys is not None
        and _columnar_source(plan.left)
        and _columnar_source(plan.right)
    )


_VECTOR_AGGREGATES = ("COUNT", "SUM", "AVG", "MIN", "MAX")
NUMBER_TYPES = (DataType.INTEGER, DataType.REAL)  # have numeric vectors


def _columnar_plan(
    select: nodes.Select, leaves: list[_Leaf]
) -> Optional[ColumnarPlan]:
    """The batch form of a grouped select over a columnar source, or
    None when any key or aggregate falls outside the covered shapes."""
    items = list(select.items)
    calls = collect_aggregates(items, select.having, select.order_by)
    if not (select.group_by or calls) or any(
        isinstance(item.expression, nodes.Star) for item in items
    ):
        return None
    plan = ColumnarPlan([], [])
    for expr in select.group_by:
        expr = resolve_output_reference(expr, items)
        column = _single_column(expr, leaves)
        if column is None:
            return None
        plan.keys.append((*column, expr))
    for call in calls:
        counting = call.name == "COUNT"
        if (
            call.name not in _VECTOR_AGGREGATES
            or call.distinct
            or len(call.args) != 1
        ):
            return None
        column = None
        if not (counting and isinstance(call.args[0], nodes.Star)):
            if isinstance(call.args[0], nodes.ColumnRef):
                column = _single_column(call.args[0], leaves)
            if column is None or not (
                counting
                or column[0].schema.column(column[1]).data_type in NUMBER_TYPES
            ):
                return None
        plan.aggregates.append((call.name, column))
    return plan


def _dictionary_plan(
    select: nodes.Select, leaves: list[_Leaf]
) -> Optional[DictionaryPlan]:
    """The dictionary shape of a select over one columnar scan, or None.
    A compound's ORDER BY sorts the whole compound, not this core."""
    item = select.items[0].expression
    column = _single_column(item, leaves)
    if not (
        select.distinct
        and len(select.items) == len(leaves) == 1
        and isinstance(item, nodes.ColumnRef)
        and column is not None
        and not (select.group_by or select.having)
        and (select.compound or not select.order_by)
        and leaves[0].pushed in ([], [nodes.IsNull(item, negated=True)])
    ):
        return None
    return DictionaryPlan(column[1])


# ---------------------------------------------------------------------------
# EXPLAIN rendering
# ---------------------------------------------------------------------------

_STRATEGY_LABEL = {
    "hash": "HashJoin",
    "loop": "NestedLoopJoin",
    "cross": "CrossJoin",
}

RenderSubselect = Callable[[nodes.Select, int], list[str]]


def render_plan(
    plan: SelectPlan,
    depth: int = 0,
    render_subselect: Optional[RenderSubselect] = None,
) -> list[str]:
    """Render a plan as the indented text EXPLAIN returns.

    The scan/join tree comes first, then the pipeline steps in
    execution order (Filter, Aggregate, Having, Distinct, Sort, Limit,
    SetOp) — one line each, at the query's own depth.
    """
    pad = "  " * depth
    select = plan.select
    lines: list[str] = []
    mark = "" if plan.columnar is None else " [columnar]"
    if plan.source is None:
        lines.append(f"{pad}Result (no table)")
    else:
        _render_source(plan.source, lines, depth, render_subselect, mark)
    if plan.residual is not None:
        lines.append(f"{pad}Filter: {plan.residual.to_sql()}")
    if is_grouped(select):
        grouped = ", ".join(e.to_sql() for e in select.group_by)
        by = f" by {grouped}" if grouped else ""
        lines.append(f"{pad}Aggregate{by}{mark}")
    if select.having is not None:
        lines.append(f"{pad}Having: {select.having.to_sql()}")
    if select.distinct:
        dictionary = isinstance(plan.columnar, DictionaryPlan)
        lines.append(f"{pad}Distinct{mark if dictionary else ''}")
    if select.order_by:
        keys = ", ".join(o.to_sql() for o in select.order_by)
        lines.append(f"{pad}Sort: {keys}")
    if select.limit is not None:
        lines.append(f"{pad}Limit: {select.limit.to_sql()}")
    for op, query in select.compound:
        lines.append(f"{pad}SetOp: {op}")
        if render_subselect is not None:
            lines.extend(render_subselect(query, depth + 1))
    return lines


def _render_source(
    plan: SourcePlan,
    lines: list[str],
    depth: int,
    render_subselect: Optional[RenderSubselect],
    mark: str = "",
) -> None:
    pad = "  " * depth
    if isinstance(plan, ScanPlan):
        lines.append(f"{pad}{_scan_label(plan)}{mark}")
        if plan.filter is not None:
            lines.append(f"{pad}  Filter: {plan.filter.to_sql()}")
        if plan.columns is not None:
            lines.append(f"{pad}  Columns: {', '.join(plan.columns)}")
        return
    if isinstance(plan, ViewScanPlan):
        lines.append(f"{pad}ViewScan({_binding_label(plan.name, plan)})")
        if plan.filter is not None:
            lines.append(f"{pad}  Filter: {plan.filter.to_sql()}")
        if render_subselect is not None and plan.query is not None:
            lines.extend(render_subselect(plan.query, depth + 1))
        return
    if isinstance(plan, CteScanPlan):
        lines.append(f"{pad}CteScan({_binding_label(plan.name, plan)})")
        if plan.filter is not None:
            lines.append(f"{pad}  Filter: {plan.filter.to_sql()}")
        return
    if isinstance(plan, SubqueryScanPlan):
        lines.append(f"{pad}Subquery({plan.binding})")
        if plan.filter is not None:
            lines.append(f"{pad}  Filter: {plan.filter.to_sql()}")
        if render_subselect is not None and plan.query is not None:
            lines.extend(render_subselect(plan.query, depth + 1))
        return
    if isinstance(plan, JoinPlan):
        label = _STRATEGY_LABEL.get(plan.strategy, "NestedLoopJoin")
        lines.append(f"{pad}{label}({plan.join_type}){mark}")
        if plan.left is not None:
            _render_source(
                plan.left, lines, depth + 1, render_subselect, mark
            )
        if plan.right is not None:
            _render_source(
                plan.right, lines, depth + 1, render_subselect, mark
            )
        return
    lines.append(f"{pad}{type(plan).__name__}")


def _binding_label(name: str, plan: SourcePlan) -> str:
    if plan.binding and plan.binding.lower() != name.lower():
        return f"{name} AS {plan.binding}"
    return name


def _scan_label(plan: ScanPlan) -> str:
    name = _binding_label(plan.table, plan)
    access = plan.access
    if isinstance(access, IndexEqAccess):
        terms = ", ".join(
            f"{plan.table}.{column} = {value.to_sql()}"
            for column, value in zip(access.index.columns, access.values)
        )
        return f"IndexScan({terms} via {access.index.name})"
    if isinstance(access, IndexRangeAccess):
        parts = []
        if access.low is not None:
            op = ">=" if access.low_inclusive else ">"
            parts.append(
                f"{plan.table}.{access.column} {op} {access.low.to_sql()}"
            )
        if access.high is not None:
            op = "<=" if access.high_inclusive else "<"
            parts.append(
                f"{plan.table}.{access.column} {op} {access.high.to_sql()}"
            )
        terms = " AND ".join(parts)
        return f"IndexRangeScan({terms} via {access.index.name})"
    return f"SeqScan({name})"
