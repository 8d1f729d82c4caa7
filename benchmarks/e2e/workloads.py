"""Seeded workload generator: the four named workloads as op lists.

The program under test sees only what this module emits. Everything is
a pure function of ``(workload, seed, scale)`` and the :class:`Inputs`
describing the seeded data, so the same seed gives a byte-identical op
list (:func:`serialize`).

Every question template below was checked against the shipped
``sql-coder`` model: the question parses, the SQL it yields executes and
equals ``gold_sql`` by execution. Thresholds are drawn only where the
seeded data has matching rows (:meth:`Inputs.matching`), so no question
yields an empty result and ``chat2viz`` only ever gets grouped
questions that return ``(label, value)`` rows.
"""

from __future__ import annotations

import bisect
import dataclasses
import json
import random
from dataclasses import dataclass
from typing import Iterator, Sequence

TENANTS = ("acme", "globex", "initech", "umbrella")
SQL_APPS = ("text2sql", "chat2db", "chat2data", "chat2viz")
#: Chat ops are dealt round-robin onto this many lanes; a client thread
#: owns whole lanes, so a lane's op order is the same on any core count.
LANES = 2
#: Coroutine clients of ``gen_concurrent``.
GEN_CLIENTS = 32
#: Length of the round the op counts in :data:`WORKLOADS` are sized for.
SIZING_SECONDS = 8.0


@dataclass(frozen=True)
class Op:
    """One benchmark operation and what a correct answer looks like."""

    #: ``chat`` | ``ingest`` | ``gen`` | ``gen_stream``
    kind: str
    tenant: str = ""
    app: str = ""
    #: The user's message (chat) or the question inside the prompt (gen).
    text: str = ""
    #: SQL turns: the reference query, compared by execution.
    gold_sql: str = ""
    #: knowledge_qa: the topic the cited documents must belong to.
    topic: str = ""
    #: data_analysis: charts the dashboard must hold.
    charts: int = 0
    #: ingest: the ``INSERT`` statements of the transaction.
    statements: tuple[str, ...] = ()


@dataclass(frozen=True)
class Inputs:
    """What the generator knows about the seeded data."""

    #: Sorted column values, for choosing thresholds that match rows.
    amounts: tuple[float, ...]
    prices: tuple[float, ...]
    ages: tuple[float, ...]
    n_users: int
    n_products: int
    #: First ``order_id`` free for ingest transactions.
    next_order_id: int
    #: ``(topic, terms, entities)`` the document corpus is written in.
    kb_topics: tuple[tuple[str, tuple[str, ...], tuple[str, ...]], ...]

    def values(self, column: str) -> tuple[float, ...]:
        return {"amount": self.amounts, "price": self.prices, "age": self.ages}[
            column
        ]

    def matching(self, column: str, low: float, high: float) -> int:
        """Rows with ``low <= column <= high``."""
        values = self.values(column)
        return bisect.bisect_right(values, high) - bisect.bisect_left(values, low)


@dataclass(frozen=True)
class Workload:
    name: str
    #: Orders in the sales database.
    n_orders: int
    #: Timed operations in an 8-second round on the sizing box.
    base_ops: int
    #: Apps that get the single-threaded warm turn.
    apps: tuple[str, ...]


#: Why each workload exists is recorded once, in ``BENCHMARK.json``.
WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "chat_repeat",
            n_orders=600,
            base_ops=10_000,
            apps=(*SQL_APPS, "knowledge_qa"),
        ),
        Workload(
            "chat_unique",
            n_orders=600,
            base_ops=1_200,
            apps=(*SQL_APPS, "knowledge_qa", "data_analysis"),
        ),
        Workload(
            "dash_write_mix",
            n_orders=5_000,
            base_ops=320,
            apps=("chat2data", "chat2viz"),
        ),
        Workload(
            "gen_concurrent",
            n_orders=600,
            base_ops=5_000,
            apps=(),
        ),
    )
}


@dataclass(frozen=True)
class Plan:
    """The ops of one round: warm-up first, then the timed list."""

    workload: str
    warmup: tuple[Op, ...]
    ops: tuple[Op, ...]


# -- question templates ----------------------------------------------------
#
# The *mix* of a workload is fixed: which apps, which templates, which
# tenants and in what proportion is the same for every seed (dealt from
# reshuffled decks, see ``_deck``). The seed decides the thresholds, the
# wording and the order. A run's cost therefore moves with the program,
# not with the luck of the draw.

_MORE = ("greater than", "over", "more than", "above")
_LESS = ("less than", "under", "below")
_SHAPES = ("more", "less", "between")


def _deck(rng: random.Random, cards: Sequence) -> Iterator:
    """Deal ``cards`` forever, one reshuffled pass after another: any
    run of ``len(cards)`` consecutive draws holds each card once."""
    while True:
        batch = list(cards)
        rng.shuffle(batch)
        yield from batch


@dataclass(frozen=True)
class _Filter:
    """A numeric condition in words and in SQL."""

    words: str
    sql: str


def _filter(column: str, shape: str, rng: random.Random, *bounds: int) -> _Filter:
    if shape == "more":
        return _Filter(
            f"{column} {rng.choice(_MORE)} {bounds[0]}", f"{column} > {bounds[0]}"
        )
    if shape == "less":
        return _Filter(
            f"{column} {rng.choice(_LESS)} {bounds[0]}", f"{column} < {bounds[0]}"
        )
    return _Filter(
        f"{column} between {bounds[0]} and {bounds[1]}",
        f"{column} BETWEEN {bounds[0]} AND {bounds[1]}",
    )


def _draw_filter(rng: random.Random, inputs: Inputs, column: str) -> _Filter:
    """A condition on ``column`` that matches at least one seeded row."""
    values = inputs.values(column)
    low, high = int(values[0]), int(values[-1])
    while True:
        shape = rng.choice(_SHAPES)
        if shape == "more":
            bound = rng.randint(low, max(low, high - 1))
            if inputs.matching(column, bound + 1e-9, float("inf")):
                return _filter(column, shape, rng, bound)
        elif shape == "less":
            bound = rng.randint(low + 1, high + 1)
            if inputs.matching(column, float("-inf"), bound - 1e-9):
                return _filter(column, shape, rng, bound)
        else:
            first = rng.randint(low, high)
            second = rng.randint(first + 1, high + 1)
            if inputs.matching(column, first, second):
                return _filter(column, shape, rng, first, second)


def _sized_filter(
    rng: random.Random, inputs: Inputs, column: str, shape: str, share: float
) -> _Filter:
    """A condition of the given shape keeping about ``share`` of the rows.

    Scan and join cost follow the rows a filter keeps; a small pool of
    questions gets its shares spread evenly instead of drawn, so every
    seed's pool does the same amount of work.
    """
    values = inputs.values(column)
    last = len(values) - 1

    def at(quantile: float) -> float:
        return values[min(last, max(0, round(quantile * last)))]

    if shape == "more":
        return _filter(column, shape, rng, min(int(at(1.0 - share)), int(values[-1]) - 1))
    if shape == "less":
        return _filter(column, shape, rng, int(at(share)) + 1)
    return _filter(
        column, shape, rng, int(at(0.5 - share / 2)), int(at(0.5 + share / 2)) + 1
    )


def _count_question(where: _Filter) -> tuple[str, str]:
    return (
        f"How many orders have {where.words}?",
        f"SELECT COUNT(*) FROM orders WHERE {where.sql}",
    )


def _aggregate_question(word: str, function: str, where: _Filter) -> tuple[str, str]:
    return (
        f"What is the {word} amount of orders with {where.words}?",
        f"SELECT {function}(amount) FROM orders WHERE {where.sql}",
    )


def _top_question(count: int) -> tuple[str, str]:
    return (
        f"top {count} orders by amount",
        f"SELECT order_id FROM orders ORDER BY amount DESC LIMIT {count}",
    )


#: dimension -> (table holding it, join key from ``orders``)
_ORDER_DIMENSIONS = {
    "region": ("users", "user_id"),
    "segment": ("users", "user_id"),
    "category": ("products", "product_id"),
}
#: (dimension, measure) of the grouped questions over ``orders``
_ORDER_VARIANTS = tuple(
    (dimension, measure)
    for measure in ("count", "total", "average")
    for dimension in _ORDER_DIMENSIONS
) + (("month", "total"),)
#: (table, dimension, measure) of the grouped questions that never touch
#: ``orders``; the filter is on the table's numeric column.
_SMALL_VARIANTS = tuple(
    (table, dimension, measure)
    for table, dimensions in (("users", ("region", "segment")), ("products", ("category",)))
    for dimension in dimensions
    for measure in ("count", "average")
)
_SMALL_MEASURES = {"users": "age", "products": "price"}
_FUNCTIONS = {"total": "SUM", "average": "AVG", "maximum": "MAX", "minimum": "MIN"}


def _grouped_orders_question(
    variant: tuple[str, str], where: _Filter
) -> tuple[str, str]:
    """Orders joined to a dimension table and grouped, or grouped by month."""
    dimension, measure = variant
    if dimension == "month":
        month = "STRFTIME('%Y-%m', order_date)"
        return (
            f"What is the total amount per month for orders with {where.words}?",
            f"SELECT {month}, SUM(amount) FROM orders WHERE {where.sql} "
            f"GROUP BY {month}",
        )
    table, key = _ORDER_DIMENSIONS[dimension]
    source = (
        f"FROM orders JOIN {table} ON orders.{key} = {table}.{key} "
        f"WHERE orders.{where.sql} GROUP BY {table}.{dimension}"
    )
    if measure == "count":
        return (
            f"How many orders are there per {dimension} with {where.words}?",
            f"SELECT {table}.{dimension}, COUNT(*) {source}",
        )
    return (
        f"What is the {measure} amount per {dimension} for orders with "
        f"{where.words}?",
        f"SELECT {table}.{dimension}, {_FUNCTIONS[measure]}(orders.amount) {source}",
    )


def _grouped_small_question(
    variant: tuple[str, str, str], where: _Filter
) -> tuple[str, str]:
    """Grouped questions over ``users`` or ``products`` only."""
    table, dimension, measure = variant
    column = _SMALL_MEASURES[table]
    if measure == "count":
        return (
            f"How many {table} are there per {dimension} with {where.words}?",
            f"SELECT {dimension}, COUNT(*) FROM {table} WHERE {where.sql} "
            f"GROUP BY {dimension}",
        )
    return (
        f"What is the average {column} per {dimension} for {table} with "
        f"{where.words}?",
        f"SELECT {dimension}, AVG({column}) FROM {table} WHERE {where.sql} "
        f"GROUP BY {dimension}",
    )


def _sql_turns(rng: random.Random, inputs: Inputs) -> Iterator[tuple[str, str, str]]:
    """``(app, question, gold_sql)`` forever, apps and templates dealt
    evenly. ``chat2viz`` only draws grouped templates: anything else
    gives it nothing to chart."""
    apps = _deck(rng, SQL_APPS)
    grouped = _deck(
        rng,
        [("orders", v) for v in _ORDER_VARIANTS]
        + [("small", v) for v in _SMALL_VARIANTS],
    )
    # Half scalar, a third grouped, a sixth top-N for the table apps.
    general = _deck(rng, ("count", "aggregate", "aggregate", "grouped", "grouped", "top"))
    aggregates = _deck(rng, sorted(_FUNCTIONS))
    while True:
        app = next(apps)
        kind = "grouped" if app == "chat2viz" else next(general)
        if kind == "count":
            turn = _count_question(_draw_filter(rng, inputs, "amount"))
        elif kind == "aggregate":
            word = next(aggregates)
            turn = _aggregate_question(
                word, _FUNCTIONS[word], _draw_filter(rng, inputs, "amount")
            )
        elif kind == "top":
            turn = _top_question(rng.randint(2, min(60, len(inputs.amounts))))
        else:
            family, variant = next(grouped)
            if family == "orders":
                turn = _grouped_orders_question(
                    variant, _draw_filter(rng, inputs, "amount")
                )
            else:
                turn = _grouped_small_question(
                    variant,
                    _draw_filter(rng, inputs, _SMALL_MEASURES[variant[0]]),
                )
        yield (app, *turn)


#: Words every document of the corpus contains: they make a question's
#: text new without pulling retrieval towards any topic. (Words the
#: corpus lacks do pull: the hashing embedder folds them onto others.)
_QUALIFIERS = (
    "system", "processes", "records", "every", "day", "team", "reviews",
    "report", "each", "week", "operations", "continue", "across", "all",
    "regions",
)


def _kb_turns(rng: random.Random, inputs: Inputs) -> Iterator[tuple[str, str]]:
    """Knowledge-base questions and the topic their sources must share."""
    topics = _deck(rng, inputs.kb_topics)
    while True:
        topic, terms, entities = next(topics)
        extra = " ".join(rng.choice(_QUALIFIERS) for _ in range(3))
        yield (
            f"How does the {rng.choice(terms)} in {rng.choice(entities)} "
            f"behave when {extra}?",
            topic,
        )


_GOAL_DIMENSIONS = ("category", "user", "month", "region", "segment")
_COUNT_WORDS = {1: "one dimension", 2: "two dimensions", 3: "three dimensions"}


def _analysis_goals(rng: random.Random) -> Iterator[tuple[str, int]]:
    """``data_analysis`` goals and the number of charts each must yield.

    The planner emits one chart per named dimension and one more for a
    forecast; "periods" (not "months") keeps the horizon phrase from
    naming the month dimension. Plan sizes are dealt evenly: they own
    the latency tail.
    """
    shapes = _deck(rng, [(n, f) for n in (1, 2, 3) for f in (False, True)])
    while True:
        n_dimensions, forecast = next(shapes)
        dimensions = rng.sample(_GOAL_DIMENSIONS, n_dimensions)
        listed = (
            dimensions[0]
            if n_dimensions == 1
            else ", ".join(dimensions[:-1]) + " and " + dimensions[-1]
        )
        goal = f"Build a sales report by {listed} using {_COUNT_WORDS[n_dimensions]}"
        if forecast:
            goal += f" and forecast the next {rng.randint(2, 12)} periods"
        yield goal, n_dimensions + forecast


# -- op streams --------------------------------------------------------------


def _unique(stream: Iterator[Op], seen: set[str]) -> Iterator[Op]:
    """Drop ops whose text was already emitted."""
    for op in stream:
        if op.text not in seen:
            seen.add(op.text)
            yield op


def _sql_ops(rng: random.Random, inputs: Inputs) -> Iterator[Op]:
    for app, question, gold in _sql_turns(rng, inputs):
        yield Op("chat", "", app, question, gold_sql=gold)


def _kb_ops(rng: random.Random, inputs: Inputs) -> Iterator[Op]:
    for question, topic in _kb_turns(rng, inputs):
        yield Op("chat", "", "knowledge_qa", question, topic=topic)


def _goal_ops(rng: random.Random) -> Iterator[Op]:
    for goal, charts in _analysis_goals(rng):
        yield Op("chat", "", "data_analysis", goal, charts=charts)


def _take(stream: Iterator, count: int) -> list:
    return [next(stream) for _ in range(count)]


def _with_tenants(rng: random.Random, ops: Sequence[Op]) -> tuple[Op, ...]:
    tenants = _deck(rng, TENANTS)
    return tuple(
        op if op.kind == "ingest" else dataclasses.replace(op, tenant=next(tenants))
        for op in ops
    )


def _chat_repeat(rng: random.Random, inputs: Inputs, n_ops: int) -> Plan:
    seen: set[str] = set()
    sql_pool = _take(_unique(_sql_ops(rng, inputs), seen), 32)
    kb_pool = _take(_unique(_kb_ops(rng, inputs), seen), 8)
    # The pool replayed once per tenant fills every tenant's partition
    # (40 entries against a 256-entry budget), so the timed turns all hit.
    warmup = [
        dataclasses.replace(op, tenant=tenant)
        for tenant in TENANTS
        for op in (*sql_pool, *kb_pool)
    ]
    # 3 knowledge_qa turns in every 20: the issue's 15%.
    kinds = _deck(rng, ["kb"] * 3 + ["sql"] * 17)
    kb_entries, sql_entries = _deck(rng, kb_pool), _deck(rng, sql_pool)
    ops = [
        next(kb_entries if next(kinds) == "kb" else sql_entries)
        for _ in range(n_ops)
    ]
    return Plan("chat_repeat", tuple(warmup), _with_tenants(rng, ops))


def _chat_unique(
    rng: random.Random, inputs: Inputs, n_ops: int, n_warm: int
) -> Plan:
    seen: set[str] = set()
    streams = {
        "sql": _unique(_sql_ops(rng, inputs), seen),
        "kb": _unique(_kb_ops(rng, inputs), seen),
        "goal": _unique(_goal_ops(rng), seen),
    }
    # 81% SQL apps, 15% knowledge_qa, 4% data_analysis in every hundred.
    kinds = _deck(rng, ["sql"] * 81 + ["kb"] * 15 + ["goal"] * 4)
    # One ``seen`` set for both lists: the warm-up shares no question
    # with the timed stream, so it warms code paths, not cache entries.
    warmup = [next(streams[next(kinds)]) for _ in range(n_warm)]
    ops = [next(streams[next(kinds)]) for _ in range(n_ops)]
    return Plan(
        "chat_unique", _with_tenants(rng, warmup), _with_tenants(rng, ops)
    )


def _ingest(rng: random.Random, inputs: Inputs, first_id: int) -> Op:
    statements = []
    for offset in range(5):
        statements.append(
            "INSERT INTO orders VALUES ("
            f"{first_id + offset}, {rng.randint(1, inputs.n_users)}, "
            f"{rng.randint(1, inputs.n_products)}, {rng.randint(1, 5)}, "
            f"{round(rng.uniform(5.0, 2500.0), 2)}, "
            f"'2023-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}')"
        )
    return Op("ingest", text=f"ingest {first_id}", statements=tuple(statements))


def _dash_pool(rng: random.Random, inputs: Inputs) -> list[Op]:
    """24 dashboard questions: 16 over ``orders``, 8 that never read it.

    Per-table invalidation would keep that last third cached across
    ingests; invalidating the whole database, as now, does not.
    """

    def questions(variants, template, column_of, count):
        shares = [(index + 1) / (count + 1) for index in range(count)]
        rng.shuffle(shares)
        shapes = _deck(rng, _SHAPES)
        return [
            template(
                variant,
                _sized_filter(rng, inputs, column_of(variant), next(shapes), share),
            )
            for variant, share in zip(
                (variants[i % len(variants)] for i in range(count)), shares
            )
        ]

    turns = questions(
        _ORDER_VARIANTS, _grouped_orders_question, lambda _v: "amount", 16
    ) + questions(
        _SMALL_VARIANTS, _grouped_small_question, lambda v: _SMALL_MEASURES[v[0]], 8
    )
    apps = _deck(rng, ("chat2data", "chat2viz"))
    return [
        Op("chat", "", next(apps), question, gold_sql=gold)
        for question, gold in turns
    ]


def _dash_write_mix(rng: random.Random, inputs: Inputs, n_ops: int) -> Plan:
    reads = _deck(rng, _dash_pool(rng, inputs))
    ops = []
    next_id = inputs.next_order_id
    for index in range(n_ops):
        # Every 8th op of each lane, at a fixed position, is a write.
        if (index // LANES) % 8 == 7:
            ops.append(_ingest(rng, inputs, next_id))
            next_id += 5
        else:
            ops.append(next(reads))
    return Plan("dash_write_mix", (), _with_tenants(rng, ops))


def _gen_concurrent(
    rng: random.Random, inputs: Inputs, n_ops: int, n_warm: int
) -> Plan:
    seen: set[str] = set()
    questions = _unique(_sql_ops(rng, inputs), seen)

    def prompts(count: int) -> tuple[Op, ...]:
        return tuple(
            Op(
                "gen_stream" if index % 16 == 15 else "gen",
                text=next(questions).text,
            )
            for index in range(count)
        )

    warmup = prompts(n_warm)
    return Plan("gen_concurrent", warmup, prompts(n_ops))


def scaled(base: int, scale: float, minimum: int = 1) -> int:
    return max(minimum, round(base * scale))


def build_plan(name: str, seed: int, scale: float, inputs: Inputs) -> Plan:
    """The op list of one round of workload ``name``.

    ``scale`` is the round's length over :data:`SIZING_SECONDS`: 1.0
    gives the op counts in :data:`WORKLOADS`, ``--quick`` a tenth.
    """
    workload = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    n_ops = scaled(workload.base_ops, scale, minimum=LANES * 8)
    if name == "chat_repeat":
        return _chat_repeat(rng, inputs, n_ops)
    if name == "chat_unique":
        return _chat_unique(rng, inputs, n_ops, scaled(50, scale, minimum=5))
    if name == "dash_write_mix":
        return _dash_write_mix(rng, inputs, n_ops)
    return _gen_concurrent(rng, inputs, n_ops, scaled(200, scale, minimum=20))


def verification_sample(seed: int, n_ops: int) -> frozenset[int]:
    """Indices of the seeded 10% of ops whose outputs are checked."""
    rng = random.Random(f"verify:{seed}")
    return frozenset(rng.sample(range(n_ops), max(1, n_ops // 10)))


def serialize(ops: Sequence[Op]) -> bytes:
    """Canonical bytes of an op list (the determinism contract)."""
    return "\n".join(
        json.dumps(dataclasses.asdict(op), sort_keys=True) for op in ops
    ).encode()


def lanes(ops: Sequence[Op], count: int = LANES) -> list[list[tuple[int, Op]]]:
    """Deal ``ops`` round-robin onto ``count`` lanes, keeping indices."""
    dealt: list[list[tuple[int, Op]]] = [[] for _ in range(count)]
    for index, op in enumerate(ops):
        dealt[index % count].append((index, op))
    return dealt
