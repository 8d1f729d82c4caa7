"""Certifies the planned SQL engine's headline performance claims.

Five workloads, all on :class:`repro.sqlengine.Database`:

1. **Point lookup** — 100k-row table, equality predicate, projecting
   the matching rows (``SELECT * ... WHERE user_id = N``). A full scan
   is measured first, then ``CREATE INDEX`` and the same queries again.
   The indexed p50 must be at least 10x faster.
2. **Range scan** — the same table with a ``USING SORTED`` index; a
   narrow ``BETWEEN`` projection must beat the pre-index full scan by
   >= 5x.

   Both gates project rows because that is what an index is for once
   sequential filters are cheap: a row projection materializes tuples
   either way, so the planner's two real paths for it — every row
   through the compiled filter, or the index — are the ones compared.
   The same predicates under ``COUNT(*)`` are a covered columnar shape,
   which keeps its sequential scan whether or not an index exists (a
   numpy mask over the column vector, 0.2-0.4 ms at 100k rows — what an
   index lookup costs); that is asserted from EXPLAIN after each
   ``CREATE INDEX`` and timed as ``columnar_count_ms``.
3. **Join** — 10k x 10k equi-join. The hash-join side is measured at
   full size. A faithful nested-loop run at 10k x 10k would take
   minutes (the condition is re-evaluated for every one of the 100M
   row pairs), so the loop side is measured on a sampled outer table
   (``LOOP_SAMPLE`` rows x 10k inner) and linearly extrapolated — the
   nested loop visits ``outer x inner`` pairs, so its cost is linear in
   the outer cardinality. Even the *measured* sample alone must be
   slower than the full-size hash join.
4. **Filtered GROUP BY** — ``SUM/COUNT/AVG`` per bucket over the 100k
   rows that pass a range filter, no index: the shape dashboards run.
5. **Hash join with a residual** — an equi-join whose ``ON`` carries an
   extra non-equi conjunct, evaluated once per candidate pair.

Workloads 4 and 5 are each reported as input rows/s *and* as a ratio
to a hand-written Python loop computing the same answer over the same
tuples in the same process; the ratio is independent of the box's
speed. Workload 4 is a covered columnar shape (measured 0.6x the
loop); its ceiling of 5x sits well under the compiled row closures
(15x) it replaced, so a statement that silently falls back to the row
pipeline fails the bench. Workload 5 stays row-based — a residual
``ON`` conjunct declines the columnar join — so its ceiling is the one
set for the compiled closures (measured 10-13x the loop; the per-row
tree-walking interpreter before them read 54-57x).

EXPLAIN is consulted before each timed section to prove the intended
plan (SeqScan, columnar or not / IndexScan / IndexRangeScan / HashJoin
/ NestedLoopJoin) is the one being measured.

Results are written to ``BENCH_sqlengine.json`` in the repo root.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import time

from repro.cache.manager import get_cache_manager
from repro.sqlengine import Database

OUTPUT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_sqlengine.json"

#: Point-lookup / range-scan table size.
N_ROWS = 100_000
#: Distinct user_id values (each matches N_ROWS / N_USERS rows).
N_USERS = 5_000
#: Repetitions per timed query shape (different literals each time, so
#: neither the SQL result cache nor the parse memo can short-circuit).
REPS = 9
#: Join side cardinality (both tables).
JOIN_ROWS = 10_000
#: Outer rows actually executed for the nested-loop sample.
LOOP_SAMPLE = 200
#: Distinct GROUP BY keys of the grouped workload.
N_BUCKETS = 16
#: Residual-join inputs: 20 facts x 2 dims per key, 40k candidate pairs.
RESIDUAL_FACTS, RESIDUAL_DIMS, RESIDUAL_KEYS = 20_000, 2_000, 1_000
#: Ceilings on engine time / hand-written-loop time (see docstring).
GROUPED_LOOP_RATIO_MAX = 5.0
RESIDUAL_LOOP_RATIO_MAX = 25.0


def _percentile(samples: list[float], fraction: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))
    return ordered[index]


def _time_calls(call, args: list, reset=lambda: None) -> list[float]:
    samples = []
    for arg in args:
        reset()
        start = time.perf_counter()
        call(arg)
        samples.append(time.perf_counter() - start)
    return samples


def _time_queries(db: Database, queries: list[str]) -> list[float]:
    # Each query starts from an empty sql tier, untimed: a repeated (or
    # already asserted) statement would otherwise time a cache hit.
    return _time_calls(
        db.execute, queries, reset=lambda: get_cache_manager().clear("sql")
    )


def _grouped_by_hand(rows: list[tuple], bound: int) -> list[tuple]:
    """``SELECT bucket, SUM(amount), COUNT(*), AVG(amount) FROM events
    WHERE amount > bound GROUP BY bucket`` as a plain loop."""
    groups: dict = {}
    for row in rows:
        amount = row[2]
        if amount is not None and amount > bound:
            state = groups.get(row[3])
            if state is None:
                state = groups[row[3]] = [0, 0]
            state[0] += amount
            state[1] += 1
    return [
        (bucket, total, count, total / count)
        for bucket, (total, count) in groups.items()
    ]


def _residual_join_by_hand(facts: list[tuple], dims: list[tuple]) -> int:
    """``SELECT COUNT(*) FROM facts JOIN dims ON facts.dim_key =
    dims.dim_key AND facts.amount > dims.floor`` as a plain hash join."""
    buckets: dict = {}
    for dim in dims:
        if dim[1] is not None:
            buckets.setdefault(dim[1], []).append(dim)
    count = 0
    for fact in facts:
        amount = fact[2]
        for dim in buckets.get(fact[1], ()):
            floor = dim[2]
            if amount is not None and floor is not None and amount > floor:
                count += 1
    return count


def _plan_text(db: Database, sql: str) -> str:
    return "\n".join(row[0] for row in db.execute("EXPLAIN " + sql).rows)


def _columnar_count_p50(db: Database, predicates: list[str]) -> float:
    """p50 of ``COUNT(*)`` under each predicate, whose column is indexed
    by now: a covered shape, so the plan must still be the mask."""
    queries = [f"SELECT COUNT(*) FROM events WHERE {p}" for p in predicates]
    assert "SeqScan(events) [columnar]" in _plan_text(db, queries[0])
    return statistics.median(_time_queries(db, queries))


def test_sqlengine_benchmark() -> None:
    # ------------------------------------------------------------------
    # Point lookup: full scan vs hash index at 100k rows.
    # ------------------------------------------------------------------
    db = Database(name="bench")
    db.execute(
        "CREATE TABLE events ("
        "event_id INTEGER PRIMARY KEY, user_id INTEGER, amount INTEGER, "
        "bucket INTEGER)"
    )
    db.insert_rows(
        "events",
        [
            (i, i % N_USERS, (i * 7919) % N_ROWS, (i * 31) % N_BUCKETS)
            for i in range(N_ROWS)
        ],
    )

    # ------------------------------------------------------------------
    # Filtered GROUP BY vs a hand-written loop (before any index exists,
    # so the scan is sequential and the statement columnar).
    # ------------------------------------------------------------------
    grouped_bounds = [N_ROWS // 4 + 997 * rep for rep in range(REPS)]
    grouped_queries = [
        "SELECT bucket, SUM(amount), COUNT(*), AVG(amount) FROM events "
        f"WHERE amount > {bound} GROUP BY bucket"
        for bound in grouped_bounds
    ]
    assert "SeqScan(events) [columnar]" in _plan_text(db, grouped_queries[0])
    event_rows = db.execute("SELECT * FROM events").rows
    # Timed before the answer is checked: a statement that already ran
    # keeps its grouped state, and a rerun would time that.
    grouped_p50 = statistics.median(_time_queries(db, grouped_queries))
    assert sorted(db.execute(grouped_queries[0]).rows) == sorted(
        _grouped_by_hand(event_rows, grouped_bounds[0])
    )
    grouped_hand_p50 = statistics.median(
        _time_calls(
            lambda bound: _grouped_by_hand(event_rows, bound), grouped_bounds
        )
    )
    grouped_ratio = grouped_p50 / grouped_hand_p50

    point_users = [101 + 13 * rep for rep in range(REPS)]
    point_queries = [
        f"SELECT * FROM events WHERE user_id = {user}" for user in point_users
    ]
    point_plan = _plan_text(db, point_queries[0])
    assert "SeqScan(events)" in point_plan and "[columnar]" not in point_plan
    scan_times = _time_queries(db, point_queries)

    db.execute("CREATE INDEX idx_user ON events (user_id)")
    assert "IndexScan(events.user_id" in _plan_text(db, point_queries[0])
    indexed_times = _time_queries(db, point_queries)
    columnar_point_p50 = _columnar_count_p50(
        db, [f"user_id = {user}" for user in point_users]
    )

    scan_p50 = statistics.median(scan_times)
    indexed_p50 = statistics.median(indexed_times)
    point_speedup = scan_p50 / indexed_p50

    # ------------------------------------------------------------------
    # Range scan: sorted index vs the pre-index full scan baseline.
    # ------------------------------------------------------------------
    ranges = [
        f"amount BETWEEN {500 * rep} AND {500 * rep + 400}"
        for rep in range(REPS)
    ]
    range_queries = [f"SELECT * FROM events WHERE {where}" for where in ranges]
    range_plan = _plan_text(db, range_queries[0])
    assert "SeqScan(events)" in range_plan and "[columnar]" not in range_plan
    range_scan_times = _time_queries(db, range_queries)

    db.execute("CREATE INDEX idx_amount ON events (amount) USING SORTED")
    assert "IndexRangeScan(events.amount" in _plan_text(db, range_queries[0])
    range_index_times = _time_queries(db, range_queries)
    columnar_range_p50 = _columnar_count_p50(db, ranges)

    range_scan_p50 = statistics.median(range_scan_times)
    range_index_p50 = statistics.median(range_index_times)
    range_speedup = range_scan_p50 / range_index_p50

    # ------------------------------------------------------------------
    # Join: hash at full 10k x 10k, nested loop on a sampled outer side.
    # ------------------------------------------------------------------
    join_sql = (
        "SELECT COUNT(*) FROM facts "
        "JOIN dims ON facts.dim_key = dims.dim_key"
    )
    rows = [(i, (i * 31) % JOIN_ROWS) for i in range(JOIN_ROWS)]

    hash_db = Database(name="bench_hash")
    for table in ("facts", "dims"):
        hash_db.execute(
            f"CREATE TABLE {table} "
            "(id INTEGER PRIMARY KEY, dim_key INTEGER)"
        )
        hash_db.insert_rows(table, rows)
    assert "HashJoin(INNER)" in _plan_text(hash_db, join_sql)
    # Every row passes, under a bound that differs per repeat: a repeat
    # of one statement would read the grouped state of the last run.
    hash_times = _time_calls(
        lambda bound: hash_db.execute(f"{join_sql} WHERE facts.id > ?", (bound,)),
        [-1, -2, -3],
        reset=lambda: get_cache_manager().clear("sql"),
    )
    hash_p50 = statistics.median(hash_times)

    loop_db = Database(name="bench_loop", enable_hash_join=False)
    loop_db.execute(
        "CREATE TABLE facts (id INTEGER PRIMARY KEY, dim_key INTEGER)"
    )
    loop_db.insert_rows("facts", rows[:LOOP_SAMPLE])
    loop_db.execute(
        "CREATE TABLE dims (id INTEGER PRIMARY KEY, dim_key INTEGER)"
    )
    loop_db.insert_rows("dims", rows)
    assert "NestedLoopJoin(INNER)" in _plan_text(loop_db, join_sql)
    loop_start = time.perf_counter()
    loop_db.execute(join_sql)
    loop_sample_time = time.perf_counter() - loop_start
    loop_extrapolated = loop_sample_time * (JOIN_ROWS / LOOP_SAMPLE)
    join_speedup = loop_extrapolated / hash_p50

    # ------------------------------------------------------------------
    # Hash join whose ON carries a non-equi conjunct vs a hand-written
    # hash join.
    # ------------------------------------------------------------------
    residual_sql = (
        "SELECT COUNT(*) FROM facts JOIN dims "
        "ON facts.dim_key = dims.dim_key AND facts.amount > dims.floor"
    )
    residual_db = Database(name="bench_residual")
    residual_db.execute(
        "CREATE TABLE facts "
        "(id INTEGER PRIMARY KEY, dim_key INTEGER, amount INTEGER)"
    )
    residual_db.execute(
        "CREATE TABLE dims "
        "(id INTEGER PRIMARY KEY, dim_key INTEGER, floor INTEGER)"
    )
    residual_db.insert_rows(
        "facts",
        [(i, i % RESIDUAL_KEYS, (i * 7919) % 1000) for i in range(RESIDUAL_FACTS)],
    )
    residual_db.insert_rows(
        "dims",
        [(i, i % RESIDUAL_KEYS, (i * 613) % 1000) for i in range(RESIDUAL_DIMS)],
    )
    assert "HashJoin(INNER)" in _plan_text(residual_db, residual_sql)
    fact_rows = residual_db.execute("SELECT * FROM facts").rows
    dim_rows = residual_db.execute("SELECT * FROM dims").rows
    assert residual_db.execute(residual_sql).scalar() == _residual_join_by_hand(
        fact_rows, dim_rows
    )
    residual_p50 = statistics.median(
        _time_queries(residual_db, [residual_sql] * REPS)
    )
    residual_hand_p50 = statistics.median(
        _time_calls(
            lambda _rep: _residual_join_by_hand(fact_rows, dim_rows),
            list(range(REPS)),
        )
    )
    residual_ratio = residual_p50 / residual_hand_p50

    payload = {
        "grouped_filter": {
            "rows": N_ROWS,
            "reps": REPS,
            "engine_ms": {"p50": round(grouped_p50 * 1000, 3)},
            "hand_loop_ms": {"p50": round(grouped_hand_p50 * 1000, 3)},
            "rows_per_s": round(N_ROWS / grouped_p50),
            "ratio_to_hand_loop": round(grouped_ratio, 2),
        },
        "residual_join": {
            "rows": [RESIDUAL_FACTS, RESIDUAL_DIMS],
            "reps": REPS,
            "engine_ms": {"p50": round(residual_p50 * 1000, 3)},
            "hand_loop_ms": {"p50": round(residual_hand_p50 * 1000, 3)},
            "rows_per_s": round(
                (RESIDUAL_FACTS + RESIDUAL_DIMS) / residual_p50
            ),
            "ratio_to_hand_loop": round(residual_ratio, 2),
        },
        "point_lookup": {
            "rows": N_ROWS,
            "reps": REPS,
            "full_scan_ms": {
                "p50": round(scan_p50 * 1000, 3),
                "p95": round(_percentile(scan_times, 0.95) * 1000, 3),
            },
            "columnar_count_ms": {"p50": round(columnar_point_p50 * 1000, 3)},
            "indexed_ms": {
                "p50": round(indexed_p50 * 1000, 3),
                "p95": round(_percentile(indexed_times, 0.95) * 1000, 3),
            },
            "speedup_p50": round(point_speedup, 2),
        },
        "range_scan": {
            "rows": N_ROWS,
            "reps": REPS,
            "full_scan_ms": {"p50": round(range_scan_p50 * 1000, 3)},
            "columnar_count_ms": {"p50": round(columnar_range_p50 * 1000, 3)},
            "sorted_index_ms": {"p50": round(range_index_p50 * 1000, 3)},
            "speedup_p50": round(range_speedup, 2),
        },
        "join": {
            "rows": [JOIN_ROWS, JOIN_ROWS],
            "hash_ms": {"p50": round(hash_p50 * 1000, 3)},
            "nested_loop_sample": {
                "outer_rows": LOOP_SAMPLE,
                "inner_rows": JOIN_ROWS,
                "measured_ms": round(loop_sample_time * 1000, 3),
            },
            "nested_loop_ms_extrapolated": round(loop_extrapolated * 1000, 3),
            "speedup_vs_extrapolated": round(join_speedup, 2),
        },
    }
    OUTPUT.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    print("\nsql engine: planned vs naive execution")
    print(
        f"  point lookup : {scan_p50 * 1000:8.2f} ms scan vs "
        f"{indexed_p50 * 1000:8.2f} ms indexed ({point_speedup:.0f}x; "
        f"columnar COUNT(*) {columnar_point_p50 * 1000:.2f} ms)"
    )
    print(
        f"  range scan   : {range_scan_p50 * 1000:8.2f} ms scan vs "
        f"{range_index_p50 * 1000:8.2f} ms sorted index "
        f"({range_speedup:.0f}x; "
        f"columnar COUNT(*) {columnar_range_p50 * 1000:.2f} ms)"
    )
    print(
        f"  join 10kx10k : {hash_p50 * 1000:8.2f} ms hash vs "
        f"{loop_extrapolated * 1000:8.2f} ms nested loop "
        f"(extrapolated from {LOOP_SAMPLE}x{JOIN_ROWS} sample, "
        f"{join_speedup:.0f}x)"
    )
    print(
        f"  grouped 100k : {grouped_p50 * 1000:8.2f} ms engine vs "
        f"{grouped_hand_p50 * 1000:8.2f} ms hand-written loop "
        f"({grouped_ratio:.1f}x the loop)"
    )
    print(
        f"  residual join: {residual_p50 * 1000:8.2f} ms engine vs "
        f"{residual_hand_p50 * 1000:8.2f} ms hand-written loop "
        f"({residual_ratio:.1f}x the loop)"
    )
    print(f"  written to   : {OUTPUT.name}")

    assert point_speedup >= 10.0, (
        f"indexed point lookup only {point_speedup:.1f}x faster (need 10x)"
    )
    assert range_speedup >= 5.0, (
        f"sorted range scan only {range_speedup:.1f}x faster (need 5x)"
    )
    # The sampled nested loop alone (2% of the full outer side) must
    # already lose to the full-size hash join.
    assert loop_sample_time > hash_p50, (
        f"nested-loop sample ({loop_sample_time * 1000:.1f} ms) did not "
        f"exceed full hash join ({hash_p50 * 1000:.1f} ms)"
    )
    assert join_speedup >= 10.0, (
        f"hash join only {join_speedup:.1f}x faster than extrapolated "
        "nested loop (need 10x)"
    )
    assert grouped_ratio <= GROUPED_LOOP_RATIO_MAX, (
        f"filtered GROUP BY takes {grouped_ratio:.1f}x a hand-written "
        f"loop (ceiling {GROUPED_LOOP_RATIO_MAX}x): fell back to the row path?"
    )
    assert residual_ratio <= RESIDUAL_LOOP_RATIO_MAX, (
        f"residual hash join takes {residual_ratio:.1f}x a hand-written "
        f"loop (ceiling {RESIDUAL_LOOP_RATIO_MAX}x): per-row interpretation?"
    )
