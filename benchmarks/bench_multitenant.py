"""Tenant isolation under a noisy neighbor, end-to-end.

The claim worth certifying: with the tenancy fabric on, one tenant
blowing through its quota at ~10x the allowed rate **cannot degrade
the others**. Eight compliant tenants each drive 16 concurrent
sessions through ``POST /v1/chat``; their p95 latency and cache hit
rate in the contended phase must stay within 10% of a baseline phase
measured without the noisy tenant, while the noisy tenant itself is
shed with structured 429 bodies carrying ``retry_after``.

Methodology: one booted stack over a shared sales
source. Every tenant's working set is warmed first so both phases
measure the same (cached) steady state. The baseline phase runs only
the compliant fleet; the contended phase re-runs the identical fleet
while the noisy tenant hammers away concurrently. Latencies are wall
clock around ``server.handle``; hit rates come from the per-tenant
cache partition statistics, differenced per phase. Results land in
``BENCH_multitenant.json`` at the repo root.
"""

import json
import pathlib
import statistics
import threading
import time

from repro.cache.manager import get_cache_manager
from repro.core import DBGPT
from repro.datasets import build_sales_database
from repro.datasources import EngineSource
from repro.server.request import Request
from repro.tenancy import QuotaConfig

TENANTS = [f"tenant-{index}" for index in range(8)]
SESSIONS_PER_TENANT = 16
TURNS_PER_SESSION = 3
NOISY_TENANT = "noisy"
#: The noisy tenant sustains bursts far beyond this budget: 160
#: near-simultaneous requests against a 4-token burst / 1 token/s
#: refill is >10x over quota for the duration of the phase.
NOISY_QUOTA = QuotaConfig(
    refill_per_second=1.0, burst=4.0, max_inflight=4
)
NOISY_THREADS = 16
NOISY_ATTEMPTS_PER_THREAD = 10
#: Compliant tenants get headroom so every rejection would be a bug,
#: and 16 concurrent sessions fit under the in-flight cap.
COMPLIANT_QUOTA = QuotaConfig(
    refill_per_second=500.0, burst=1000.0, max_inflight=64
)
QUESTIONS = [
    "How many orders are there?",
    "How many users are there?",
    "How many products are there?",
    "What is the total amount per region?",
]
OUTPUT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_multitenant.json"


def _percentile(samples, fraction):
    ordered = sorted(samples)
    index = min(len(ordered) - 1, round(fraction * (len(ordered) - 1)))
    return ordered[index]


def _boot():
    dbgpt = DBGPT.boot()
    dbgpt.register_source(EngineSource(build_sales_database(n_orders=200)))
    for tenant_id in TENANTS:
        dbgpt.register_tenant(tenant_id, quota=COMPLIANT_QUOTA)
    dbgpt.register_tenant(NOISY_TENANT, quota=NOISY_QUOTA)
    return dbgpt, dbgpt.server()


def _open_sessions(server):
    """16 server-side sessions per compliant tenant, up front."""
    sessions = {}
    for tenant_id in TENANTS:
        ids = []
        for _ in range(SESSIONS_PER_TENANT):
            response = server.handle(
                Request(
                    "POST", "/v1/sessions",
                    {"tenant_id": tenant_id, "app": "chat2db"},
                )
            )
            assert response.status == 201, response.body
            ids.append(response.body["session_id"])
        sessions[tenant_id] = ids
    return sessions


def _warm(server):
    """Populate every tenant's cache partition before measuring."""
    for tenant_id in TENANTS:
        for question in QUESTIONS:
            response = server.handle(
                Request(
                    "POST", "/v1/chat",
                    {
                        "tenant_id": tenant_id,
                        "app": "chat2db",
                        "message": question,
                    },
                )
            )
            assert response.status == 200, response.body


def _hit_snapshot():
    """Cumulative (hits, misses) over compliant tenants' partitions."""
    hits = misses = 0
    for tenant_id, tiers in get_cache_manager().tenant_stats().items():
        if tenant_id not in TENANTS:
            continue
        for row in tiers.values():
            hits += row["hits"] + row["coalesced"]
            misses += row["misses"]
    return hits, misses


def _run_compliant_fleet(server, sessions):
    """One phase of the compliant workload; returns (latencies, errors).

    One thread per session — 128 concurrent sessions fleet-wide —
    each sending TURNS_PER_SESSION turns from the shared question set.
    """
    latencies = []
    errors = []
    lock = threading.Lock()

    def drive(tenant_id, session_id, seed):
        local = []
        for turn in range(TURNS_PER_SESSION):
            question = QUESTIONS[(seed + turn) % len(QUESTIONS)]
            started = time.perf_counter()
            response = server.handle(
                Request(
                    "POST", "/v1/chat",
                    {
                        "tenant_id": tenant_id,
                        "session_id": session_id,
                        "message": question,
                    },
                )
            )
            elapsed = time.perf_counter() - started
            local.append(elapsed)
            if response.status != 200:
                with lock:
                    errors.append((tenant_id, response.status, response.body))
        with lock:
            latencies.extend(local)

    threads = [
        threading.Thread(target=drive, args=(tenant_id, session_id, index))
        for tenant_id in TENANTS
        for index, session_id in enumerate(sessions[tenant_id])
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return latencies, errors


def _run_noisy_tenant(server, outcomes, lock):
    """Hammer the noisy tenant ~10x over its quota; record outcomes."""

    def flood():
        for _ in range(NOISY_ATTEMPTS_PER_THREAD):
            response = server.handle(
                Request(
                    "POST", "/v1/chat",
                    {
                        "tenant_id": NOISY_TENANT,
                        "app": "chat2db",
                        "message": QUESTIONS[0],
                    },
                )
            )
            with lock:
                outcomes.append((response.status, response.body))

    threads = [
        threading.Thread(target=flood) for _ in range(NOISY_THREADS)
    ]
    for thread in threads:
        thread.start()
    return threads


def test_noisy_neighbor_cannot_degrade_compliant_tenants():
    dbgpt, server = _boot()
    try:
        sessions = _open_sessions(server)
        _warm(server)

        # -- baseline: compliant fleet alone --------------------------------
        hits_before, misses_before = _hit_snapshot()
        base_latencies, base_errors = _run_compliant_fleet(server, sessions)
        hits_mid, misses_mid = _hit_snapshot()
        assert not base_errors, f"baseline rejections: {base_errors[:3]}"

        # -- contended: same fleet + noisy tenant at ~10x quota -------------
        noisy_outcomes = []
        noisy_lock = threading.Lock()
        noisy_threads = _run_noisy_tenant(server, noisy_outcomes, noisy_lock)
        contended_latencies, contended_errors = _run_compliant_fleet(
            server, sessions
        )
        for thread in noisy_threads:
            thread.join()
        hits_after, misses_after = _hit_snapshot()
        assert not contended_errors, (
            f"contended rejections: {contended_errors[:3]}"
        )

        base_hit_rate = (hits_mid - hits_before) / max(
            1, (hits_mid - hits_before) + (misses_mid - misses_before)
        )
        contended_hit_rate = (hits_after - hits_mid) / max(
            1, (hits_after - hits_mid) + (misses_after - misses_mid)
        )
        base_p50 = statistics.median(base_latencies) * 1000
        base_p95 = _percentile(base_latencies, 0.95) * 1000
        contended_p50 = statistics.median(contended_latencies) * 1000
        contended_p95 = _percentile(contended_latencies, 0.95) * 1000

        throttled = [
            body for status, body in noisy_outcomes if status == 429
        ]
        noisy_ok = sum(
            1 for status, _ in noisy_outcomes if status == 200
        )

        payload = {
            "workload": {
                "tenants": len(TENANTS),
                "sessions_per_tenant": SESSIONS_PER_TENANT,
                "turns_per_session": TURNS_PER_SESSION,
                "noisy_attempts": NOISY_THREADS * NOISY_ATTEMPTS_PER_THREAD,
                "noisy_quota": {
                    "refill_per_second": NOISY_QUOTA.refill_per_second,
                    "burst": NOISY_QUOTA.burst,
                },
            },
            "compliant_ms": {
                "baseline_p50": round(base_p50, 3),
                "baseline_p95": round(base_p95, 3),
                "contended_p50": round(contended_p50, 3),
                "contended_p95": round(contended_p95, 3),
                "p95_ratio": round(contended_p95 / base_p95, 3),
            },
            "compliant_hit_rate": {
                "baseline": round(base_hit_rate, 4),
                "contended": round(contended_hit_rate, 4),
            },
            "noisy": {
                "throttled": len(throttled),
                "served": noisy_ok,
                "retry_after_min": round(
                    min(b["retry_after"] for b in throttled), 3
                ) if throttled else None,
            },
            "quotas": dbgpt.fabric.quotas.snapshot(),
            "sessions": dbgpt.fabric.store.stats(),
        }
        OUTPUT.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

        print("\nmulti-tenant isolation: noisy neighbor at ~10x quota")
        print(f"  compliant p95 : {base_p95:8.2f} ms baseline, "
              f"{contended_p95:8.2f} ms contended "
              f"({contended_p95 / base_p95:.2f}x)")
        print(f"  hit rate      : {base_hit_rate:.1%} baseline, "
              f"{contended_hit_rate:.1%} contended")
        print(f"  noisy tenant  : {len(throttled)} throttled / "
              f"{len(noisy_outcomes)} attempts ({noisy_ok} served)")
        print(f"  written to    : {OUTPUT.name}")

        # Isolation invariants (CI re-checks these from the JSON):
        # the 2 ms floor absorbs scheduler jitter when the absolute
        # p95 is small enough that 10% is sub-millisecond noise.
        assert contended_p95 <= max(base_p95 * 1.10, base_p95 + 2.0), (
            f"compliant p95 degraded: {base_p95:.2f} -> "
            f"{contended_p95:.2f} ms"
        )
        assert contended_hit_rate >= base_hit_rate - 0.10, (
            f"compliant hit rate degraded: {base_hit_rate:.1%} -> "
            f"{contended_hit_rate:.1%}"
        )
        assert throttled, "noisy tenant was never throttled"
        assert all(body["code"] == "tenant_throttled" for body in throttled)
        assert all(body["retry_after"] > 0 for body in throttled)
    finally:
        dbgpt.shutdown()
