"""Ablation A1 — SQL engine design choices (DESIGN.md §5).

The substrate engine makes two optimizer decisions worth measuring:
hash equi-joins (vs. nested loops) and secondary-index point lookups
(vs. sequential scans). Both are pure optimizations — results are
asserted identical — and both should win by a growing factor as data
grows, which is the shape that justifies them.
"""

import itertools
import time

import pytest

from repro.cache.manager import get_cache_manager
from repro.sqlengine import Database

N = 400


def build(enable_hash_join=True, with_index=False):
    db = Database(enable_hash_join=enable_hash_join)
    db.execute("CREATE TABLE facts (id INTEGER PRIMARY KEY, dim_id INTEGER, v REAL)")
    db.execute("CREATE TABLE dims (dim_id INTEGER PRIMARY KEY, label TEXT)")
    db.insert_rows(
        "facts",
        [(i, i % 50, float(i)) for i in range(1, N + 1)],
    )
    db.insert_rows(
        "dims", [(i, f"label-{i}") for i in range(50)]
    )
    if with_index:
        db.execute("CREATE INDEX idx_label ON dims (label)")
        db.execute("CREATE INDEX idx_dim ON facts (dim_id)")
    return db

JOIN_SQL = (
    "SELECT d.label, SUM(f.v) FROM facts f JOIN dims d "
    "ON f.dim_id = d.dim_id GROUP BY d.label"
)
#: ``JOIN_SQL`` keeping every row behind a bound that differs per
#: repeat, so a repeat times the join rather than reading the grouped
#: state the previous run left on the prepared statement.
JOIN_SQL_ABOVE = (
    "SELECT d.label, SUM(f.v) FROM facts f JOIN dims d "
    "ON f.dim_id = d.dim_id WHERE f.v > ? GROUP BY d.label"
)


def timed(fn, repeats=3):
    best = float("inf")
    result = None
    for _ in range(repeats):
        get_cache_manager().clear("sql")  # time the engine, not a hit
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_hash_join_beats_nested_loop():
    hash_db = build(enable_hash_join=True)
    nested_db = build(enable_hash_join=False)
    floors = itertools.count(-1, -1)
    hash_time, hash_rows = timed(
        lambda: hash_db.execute(JOIN_SQL_ABOVE, (next(floors),)).rows
    )
    nested_time, nested_rows = timed(
        lambda: nested_db.execute(JOIN_SQL_ABOVE, (next(floors),)).rows
    )
    assert sorted(hash_rows) == sorted(nested_rows)
    speedup = nested_time / hash_time
    print(
        f"\n=== A1: join strategies over {N}x50 rows — nested "
        f"{nested_time * 1000:.1f} ms vs hash {hash_time * 1000:.1f} ms "
        f"({speedup:.1f}x) ==="
    )
    assert speedup > 2.0, "hash join should clearly win at this size"


def test_index_scan_beats_seq_scan():
    plain = build()
    indexed = build(with_index=True)
    # A row projection: the shape an index serves. ``COUNT(*)`` under
    # the same predicate is a columnar mask that ignores the index.
    sql = "SELECT id, v FROM facts WHERE dim_id = 7"
    seq_time, seq_rows = timed(lambda: plain.execute(sql).rows, repeats=5)
    idx_time, idx_rows = timed(lambda: indexed.execute(sql).rows, repeats=5)
    assert sorted(seq_rows) == sorted(idx_rows)
    assert len(idx_rows) == N // 50
    print(
        f"\n=== A1: point lookup — seqscan {seq_time * 1e6:.0f} us vs "
        f"indexscan {idx_time * 1e6:.0f} us ==="
    )
    # The index prunes the scan; allow noise but require a clear win.
    assert idx_time < seq_time

    plan = indexed.execute("EXPLAIN " + sql).rows[0][0]
    assert plan.startswith("IndexScan")


def test_hash_join_throughput(cold_benchmark):
    db = build(enable_hash_join=True)
    cold_benchmark(lambda: db.execute(JOIN_SQL))


def test_nested_join_throughput(cold_benchmark):
    db = build(enable_hash_join=False)
    cold_benchmark(lambda: db.execute(JOIN_SQL))


def test_indexed_point_query_throughput(cold_benchmark):
    db = build(with_index=True)
    cold_benchmark(
        lambda: db.execute("SELECT COUNT(*) FROM facts WHERE dim_id = 7")
    )
