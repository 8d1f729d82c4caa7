"""Warm-vs-cold speedup of the multi-tier cache on text2sql.

The claim worth certifying: with every cache tier enabled, a repeated
text2sql question — schema linking (RAG), prompt construction with its
per-column value probes (SQL engine), generation (SMMF) and validation
— is served **at least 3x faster at p50** than its first, cold run,
while answering **byte-identically** and recording an overall hit rate
of at least 50%.

Methodology: one booted stack, a fixed question set, several
interleaved rounds. The first occurrence of each question is its cold
sample; every later occurrence is a warm sample. Timings are wall
clock per ``chat`` call; cold and warm populations are compared at
p50/p95. The measured numbers land in ``BENCH_cache.json`` at the repo
root, alongside the per-tier statistics that produced them.
"""

import json
import pathlib
import statistics
import time

from repro.core import DBGPT
from repro.datasets import build_sales_database
from repro.datasources import EngineSource

QUESTIONS = [
    "How many orders are there?",
    "How many users are there?",
    "How many products are there?",
    "What is the total amount per region?",
    "What is the total amount per segment?",
    "What is the average amount per category?",
]
ROUNDS = 7
OUTPUT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_cache.json"


def _percentile(samples, fraction):
    ordered = sorted(samples)
    index = min(len(ordered) - 1, round(fraction * (len(ordered) - 1)))
    return ordered[index]


def _overall_hit_rate(stats):
    hits = misses = 0
    for row in stats.values():
        hits += row["hits"] + row["coalesced"]
        misses += row["misses"]
    return hits / (hits + misses) if hits + misses else 0.0


def test_cache_speedup_on_text2sql():
    dbgpt = DBGPT.boot()
    dbgpt.register_source(EngineSource(build_sales_database(n_orders=400)))

    cold_times, warm_times = [], []
    answers: dict[str, str] = {}
    for round_number in range(ROUNDS):
        for question in QUESTIONS:
            start = time.perf_counter()
            response = dbgpt.chat("text2sql", question)
            elapsed = time.perf_counter() - start
            assert response.ok, f"{question!r} failed: {response.text}"
            if round_number == 0:
                cold_times.append(elapsed)
                answers[question] = response.text
            else:
                warm_times.append(elapsed)
                # A cached answer must be the cold answer, byte for byte.
                assert response.text == answers[question]

    stats = dbgpt.cache_stats()
    hit_rate = _overall_hit_rate(stats)
    cold_p50 = statistics.median(cold_times)
    warm_p50 = statistics.median(warm_times)
    cold_p95 = _percentile(cold_times, 0.95)
    warm_p95 = _percentile(warm_times, 0.95)
    speedup_p50 = cold_p50 / warm_p50
    speedup_p95 = cold_p95 / warm_p95

    payload = {
        "workload": {
            "app": "text2sql",
            "questions": len(QUESTIONS),
            "rounds": ROUNDS,
            "n_orders": 400,
        },
        "hit_rate": round(hit_rate, 4),
        "cold_ms": {
            "p50": round(cold_p50 * 1000, 3),
            "p95": round(cold_p95 * 1000, 3),
        },
        "warm_ms": {
            "p50": round(warm_p50 * 1000, 3),
            "p95": round(warm_p95 * 1000, 3),
        },
        "speedup": {
            "p50": round(speedup_p50, 2),
            "p95": round(speedup_p95, 2),
        },
        "tiers": stats,
    }
    OUTPUT.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    print("\nmulti-tier cache: warm vs cold text2sql")
    print(f"  cold p50/p95 : {cold_p50 * 1000:8.2f} / {cold_p95 * 1000:8.2f} ms")
    print(f"  warm p50/p95 : {warm_p50 * 1000:8.2f} / {warm_p95 * 1000:8.2f} ms")
    print(f"  speedup      : {speedup_p50:.1f}x p50, {speedup_p95:.1f}x p95")
    print(f"  hit rate     : {hit_rate:.1%}")
    print(f"  written to   : {OUTPUT.name}")

    assert speedup_p50 >= 3.0, (
        f"warm p50 only {speedup_p50:.2f}x faster than cold (need >= 3x)"
    )
    assert hit_rate >= 0.5, f"hit rate {hit_rate:.1%} below 50%"
