"""Unified metrics: counters, gauges and fixed-bucket histograms.

One process-wide :class:`MetricsRegistry` replaces the scattered
per-module counters (``smmf/metrics.py`` now publishes here). Metric
instruments are label-aware: each unique label set keeps its own value,
so ``model_requests_total`` can be read per model and summed overall.

Everything is dependency-free and deterministic; the snapshot format
is plain dicts for dashboards, benchmarks and the ``/metrics`` REPL
command. Instruments are thread-safe (one lock each). Per-request code
records through a module-level :class:`MetricHandle`.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from functools import partial
from typing import Any, Callable, Optional, Sequence

LabelKey = tuple[tuple[str, str], ...]

#: Default latency buckets (milliseconds): micro-benchmark floor up to
#: multi-second outliers, roughly logarithmic.
DEFAULT_BUCKETS_MS: tuple[float, ...] = (
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0,
    50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0,
)


def _label_key(labels: dict[str, Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing sum per label set."""

    kind = "counter"

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description
        self._values: dict[LabelKey, float] = {}
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        self._add(_label_key(labels), amount)

    def bind(self, **labels: Any) -> Callable[[float], None]:
        """``inc`` for one label set, resolved now: a hot path keeps
        the returned callable and pays neither the registry lookup nor
        the label sort per event."""
        return partial(self._add, _label_key(labels))

    def _add(self, key: LabelKey, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        with self._lock:
            return self._values.get(_label_key(labels), 0.0)

    def total(self) -> float:
        """Sum across every label set."""
        with self._lock:
            return sum(self._values.values())

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            return {
                "kind": self.kind,
                "values": {
                    _render_labels(key): value
                    for key, value in sorted(self._values.items())
                },
            }


class Gauge:
    """A value that can go up and down (queue depths, pool sizes)."""

    kind = "gauge"

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description
        self._values: dict[LabelKey, float] = {}
        self._lock = threading.Lock()

    def set(self, value: float, **labels: Any) -> None:
        self._set(_label_key(labels), value)

    def bind(self, **labels: Any) -> Callable[[float], None]:
        """``set`` for one label set (see :meth:`Counter.bind`)."""
        return partial(self._set, _label_key(labels))

    def _set(self, key: LabelKey, value: float) -> None:
        with self._lock:
            self._values[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: Any) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: Any) -> float:
        with self._lock:
            return self._values.get(_label_key(labels), 0.0)

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            return {
                "kind": self.kind,
                "values": {
                    _render_labels(key): value
                    for key, value in sorted(self._values.items())
                },
            }


class Histogram:
    """Fixed-bucket distribution per label set.

    Buckets are upper bounds (``value <= bound`` lands in that bucket);
    observations beyond the last bound count in a ``+Inf`` overflow
    bucket. ``sum``/``count`` give exact means even though bucket
    membership is coarse.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        description: str = "",
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        bounds = tuple(buckets if buckets is not None else DEFAULT_BUCKETS_MS)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if list(bounds) != sorted(bounds):
            raise ValueError("bucket bounds must be sorted ascending")
        self.name = name
        self.description = description
        self.bounds = bounds
        #: label key -> (per-bucket counts incl. +Inf, sum, count)
        self._series: dict[LabelKey, list] = {}
        self._lock = threading.Lock()

    def observe(self, value: float, **labels: Any) -> None:
        self._observe(_label_key(labels), value)

    def bind(self, **labels: Any) -> Callable[[float], None]:
        """``observe`` for one label set (see :meth:`Counter.bind`)."""
        return partial(self._observe, _label_key(labels))

    def _observe(self, key: LabelKey, value: float) -> None:
        # bisect_left keeps exact-bound observations in their own
        # bucket (value <= bound), the Prometheus ``le`` convention.
        index = bisect_left(self.bounds, value)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = [
                    [0] * (len(self.bounds) + 1), 0.0, 0,
                ]
            series[0][index] += 1
            series[1] += value
            series[2] += 1

    def count(self, **labels: Any) -> int:
        with self._lock:
            series = self._series.get(_label_key(labels))
            return series[2] if series else 0

    def sum(self, **labels: Any) -> float:
        with self._lock:
            series = self._series.get(_label_key(labels))
            return series[1] if series else 0.0

    def mean(self, **labels: Any) -> float:
        with self._lock:
            series = self._series.get(_label_key(labels))
            if not series or series[2] == 0:
                return 0.0
            return series[1] / series[2]

    def bucket_counts(self, **labels: Any) -> dict[str, int]:
        """``{upper_bound: count}`` with ``"+Inf"`` for the overflow."""
        with self._lock:
            series = self._series.get(_label_key(labels))
            counts = (
                list(series[0])
                if series
                else [0] * (len(self.bounds) + 1)
            )
        rendered = {str(bound): n for bound, n in zip(self.bounds, counts)}
        rendered["+Inf"] = counts[-1]
        return rendered

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            return {
                "kind": self.kind,
                "values": {
                    _render_labels(key): {
                        "count": series[2],
                        "sum": round(series[1], 6),
                        "mean": round(series[1] / series[2], 6)
                        if series[2]
                        else 0.0,
                        "buckets": {
                            str(bound): n
                            for bound, n in zip(self.bounds, series[0])
                        }
                        | {"+Inf": series[0][-1]},
                    }
                    for key, series in sorted(self._series.items())
                },
            }


def _render_labels(key: LabelKey) -> str:
    if not key:
        return ""
    return ",".join(f"{name}={value}" for name, value in key)


class MetricsRegistry:
    """Get-or-create home for every instrument in the process."""

    def __init__(self) -> None:
        self._instruments: dict[str, Any] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, name: str, factory, kind) -> Any:
        # staticcheck: allow LCK003 - double-checked fast path; the
        # miss branch re-reads under the lock before writing.
        instrument = self._instruments.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._instruments.get(name)
                if instrument is None:
                    instrument = self._instruments[name] = factory()
        if not isinstance(instrument, kind):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(instrument).__name__}"
            )
        return instrument

    def counter(self, name: str, description: str = "") -> Counter:
        return self._get_or_create(
            name, lambda: Counter(name, description), Counter
        )

    def gauge(self, name: str, description: str = "") -> Gauge:
        return self._get_or_create(
            name, lambda: Gauge(name, description), Gauge
        )

    def histogram(
        self,
        name: str,
        description: str = "",
        buckets: Optional[Sequence[float]] = None,
    ) -> Histogram:
        return self._get_or_create(
            name, lambda: Histogram(name, description, buckets), Histogram
        )

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._instruments)

    def get(self, name: str) -> Optional[Any]:
        with self._lock:
            return self._instruments.get(name)

    def snapshot(self) -> dict[str, Any]:
        """Every instrument's current state, sorted by name."""
        with self._lock:
            instruments = sorted(self._instruments.items())
        return {name: inst.snapshot() for name, inst in instruments}

    def reset(self) -> None:
        # A new dict, not ``clear()``: handles re-resolve on a new dict.
        with self._lock:
            self._instruments = {}


#: Process-wide registry used by all built-in instrumentation.
_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    return _registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the global registry (tests); returns the previous one."""
    global _registry
    previous, _registry = _registry, registry
    return previous


class MetricHandle:
    """One instrument, declared at module level, recorded through with
    neither a registry lookup nor a label sort per event.

    ``labels`` takes one ``str`` per label name, in order (``None``
    omits that label), and returns the memoised ``inc``/``set``/
    ``observe`` for that label set. The instrument is resolved from the
    current registry, again after :func:`set_registry` or a reset.
    Values must be ``str``: ``1`` and ``True`` share a memo key.
    """

    def __init__(
        self,
        kind: type,
        name: str,
        description: str = "",
        labels: Sequence[str] = (),
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        self.kind = kind
        self.label_names = tuple(labels)
        extra = (buckets,) if kind is Histogram else ()
        self._args = (name, description, *extra)
        #: (instruments it came from, instrument, {values: recorder})
        self._state: tuple[Any, Any, dict] = (None, None, {})

    def labels(self, *values: Optional[str]) -> Callable[..., None]:
        state = self._current()
        recorder = state[2].get(values)
        if recorder is None:
            named = zip(self.label_names, values)
            recorder = state[2][values] = state[1].bind(
                **{name: value for name, value in named if value is not None}
            )
        return recorder

    def instrument(self) -> Any:
        """The instrument, created if need be (an empty series)."""
        return self._current()[1]

    def _current(self) -> tuple[Any, Any, dict]:
        state, registry = self._state, _registry
        if state[0] is not registry._instruments:
            instrument = getattr(registry, self.kind.kind)(*self._args)
            # Replaced whole, so no thread pairs two registries' parts.
            state = self._state = (registry._instruments, instrument, {})
        return state
