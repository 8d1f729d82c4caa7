"""Percentiles, a run's metrics over its rounds, regression bounds,
environment stamp.

Pure functions with no dependency on ``repro``: the unit tests in
``test_harness.py`` exercise them without booting anything.
"""

from __future__ import annotations

import math
import os
import platform
import statistics
import subprocess
import time
from typing import Iterable, Optional, Sequence

#: A percentile is reported only when at least this many samples lie
#: beyond it (the choosing-metrics rule); below that the tail estimate
#: is one or two outliers, not a percentile.
MIN_SAMPLES_BEYOND = 10


def percentile_supported(count: int, fraction: float) -> bool:
    """True when ``count`` samples leave enough beyond ``fraction``."""
    return count * (1.0 - fraction) >= MIN_SAMPLES_BEYOND


def percentile(samples: Sequence[float], fraction: float) -> Optional[float]:
    """Nearest-rank percentile, or None when the sample cannot carry it.

    ``fraction`` is in (0, 1). The median (0.5) needs 20 samples, p95
    needs 200 and p99 needs 1,000 — see :data:`MIN_SAMPLES_BEYOND`.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must be in (0, 1)")
    count = len(samples)
    if count == 0 or not percentile_supported(count, fraction):
        return None
    ordered = sorted(samples)
    return ordered[math.ceil(fraction * count) - 1]


def median_of_rounds(values: Iterable[Optional[float]]) -> Optional[float]:
    """The median over rounds, ignoring rounds that could not report."""
    present = [value for value in values if value is not None]
    return statistics.median(present) if present else None


def pooled_metrics(rounds: Sequence[dict]) -> tuple[dict, dict]:
    """The end-to-end metrics of a run, over all of its rounds at once,
    and the sample counts behind the percentiles.

    Latency samples of the rounds are pooled before a percentile is
    taken, and rates divide the run's ops by the run's seconds. On this
    box one round-sized window (5-8 s) reads 10-20% off the next; one
    number over the whole run averages the windows where the median of
    three per-round numbers picks one (on the same raw rounds the spread
    of ten runs came out about a tenth smaller), and the tail
    percentiles stand on three times the samples. Set-up time and peak
    memory belong to a process, so they stay medians over the rounds.
    """
    pooled = {
        name: [sample for r in rounds for sample in r[name]]
        for name in ("turn_ms", "write_ms", "ttft_ms")
    }
    attempted = sum(r["attempted"] for r in rounds)
    succeeded = sum(r["succeeded"] for r in rounds)
    metrics = {
        "setup_s": median_of_rounds(r["setup_s"] for r in rounds),
        "turns_per_s": succeeded / sum(r["wall_s"] for r in rounds),
        "turn_ms_p50": percentile(pooled["turn_ms"], 0.50),
        "turn_ms_p95": percentile(pooled["turn_ms"], 0.95),
        "turn_ms_p99": percentile(pooled["turn_ms"], 0.99),
        "write_ms_p50": percentile(pooled["write_ms"], 0.50),
        "ttft_ms_p50": percentile(pooled["ttft_ms"], 0.50),
        "ttft_ms_p95": percentile(pooled["ttft_ms"], 0.95),
        "cpu_ms_per_op": sum(r["cpu_s"] for r in rounds) * 1000.0
        / max(succeeded, 1),
        "peak_rss_mb": median_of_rounds(r["peak_rss_mb"] for r in rounds),
        "fail_ratio": sum(r["failed"] for r in rounds) / max(attempted, 1),
    }
    samples = {
        "turns": len(pooled["turn_ms"]),
        "writes": len(pooled["write_ms"]),
        "ttft": len(pooled["ttft_ms"]),
    }
    return metrics, samples


def worsening(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``.

    Positive means worse in the metric's own direction (``better`` is
    ``"lower"`` or ``"higher"``); negative means it improved.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', not {better!r}")
    if first == 0:
        raise ValueError("a bounded metric may never read 0")
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def agree_within(first: float, second: float, better: str, bound: float) -> bool:
    """Two sets of the same code agree when neither reads worse than
    the other by more than the metric's bound."""
    return (
        worsening(first, second, better) <= bound
        and worsening(second, first, better) <= bound
    )


def quartile_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (the driver's
    steadiness measure over ten seeds)."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def calibration_ms() -> float:
    """Wall time of a fixed pure-Python loop: how fast this box is now.

    Recorded beside every summary so a shift between two runs can be
    told apart from a shift in the machine.
    """
    started = time.perf_counter()
    total = 0
    for value in range(400_000):
        total += value * value % 7
    if total < 0:  # pragma: no cover - keeps the loop from being elided
        raise AssertionError
    return (time.perf_counter() - started) * 1000.0


def _git_sha(repo_root: str) -> str:
    if not os.path.isdir(os.path.join(repo_root, ".git")):
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=repo_root,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def environment_stamp(repo_root: str) -> dict:
    """What a reader needs to compare two summaries honestly."""
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count() or 1,
        "git_sha": _git_sha(repo_root),
        "calibration_ms": round(calibration_ms(), 3),
        "unix_time": round(time.time(), 1),
    }
