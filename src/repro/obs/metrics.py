"""Unified metrics: counters, gauges and fixed-bucket histograms.

One process-wide :class:`MetricsRegistry` is the only store of metric
values; every other view (the SMMF per-model summary among them) is
derived from it. Metric instruments are label-aware: each unique label
set keeps its own value, so ``model_requests_total`` can be read per
model and summed overall.

Everything is dependency-free and deterministic; the snapshot format
is plain dicts for dashboards, benchmarks and the ``/metrics`` REPL
command. Instruments are thread-safe. Counters and histograms record
without a lock, each thread into its own shard, and a read sums the
shards; a gauge's ``inc``/``dec`` read-modify-write takes its lock.
Per-request code records through a module-level :class:`MetricHandle`.
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


class _Sharded:
    """Per-thread shards under :class:`Counter` and :class:`Histogram`.

    Each thread records into its own shard (label key -> series), found
    through a ``threading.local``: no two threads write one shard, so
    recording takes no lock and loses no update. ``_lock`` guards the
    shard list only: a thread's first record adds its shard, folding
    in those of exited threads (their counts stay, the list stays as
    long as the live recorders), and a read sums a copy of the list.
    """

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description
        self._local = threading.local()
        #: (owner, shard) pairs; exited owners' shards fold into one
        #: owned by None. Replaced whole, never mutated.
        self._shards: list[tuple[Optional[threading.Thread], dict]] = []
        self._lock = threading.Lock()

    def _own_shard(self) -> dict:
        shard: dict = {}
        with self._lock:
            shards = [(threading.current_thread(), shard)]
            retired = []
            for owner, kept in self._shards:
                if owner is not None and owner.is_alive():
                    shards.append((owner, kept))
                else:
                    retired.append(kept)
            if retired:
                shards.append((None, self._fold(retired)))
            self._shards = shards
        self._local.shard = shard
        return shard

    def _merged(self) -> dict:
        """Every label set's series, summed over the shards."""
        with self._lock:
            shards = [shard for _owner, shard in self._shards]
        return self._fold(shards)

    def label_sets(self) -> list[dict[str, str]]:
        """Every label set recorded so far, as ``{name: value}``."""
        return [dict(key) for key in self._merged()]

    def _fold(self, shards: list[dict]) -> dict:
        # ``dict.copy`` is one step, so an owner's insert cannot race it.
        total: dict = {}
        for shard in shards:
            for key, series in shard.copy().items():
                total[key] = self._merge(total.get(key), series)
        return total

    @staticmethod
    def _merge(total: Any, series: Any) -> Any:
        """``total`` (or None) plus ``series``, as a new value."""
        raise NotImplementedError


class Counter(_Sharded):
    """A monotonically increasing sum per label set."""

    kind = "counter"

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
        try:
            shard = self._local.shard
        except AttributeError:
            shard = self._own_shard()
        shard[key] = shard.get(key, 0.0) + amount

    @staticmethod
    def _merge(total: Optional[float], series: float) -> float:
        return series if total is None else total + series

    def value(self, **labels: Any) -> float:
        return self._merged().get(_label_key(labels), 0.0)

    def total(self) -> float:
        """Sum across every label set."""
        return sum(self._merged().values(), 0.0)

    def snapshot(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "values": {
                _render_labels(key): value
                for key, value in sorted(self._merged().items())
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


class Histogram(_Sharded):
    """Fixed-bucket distribution per label set.

    Buckets are upper bounds (``value <= bound`` lands in that bucket);
    observations beyond the last bound count in a ``+Inf`` overflow
    bucket. ``sum``/``count`` give exact means even though bucket
    membership is coarse. The count is the sum of the bucket counts,
    so no read disagrees with itself; a read taken while a thread is
    recording may miss that one observation's share of ``sum``.
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
        super().__init__(name, description)
        self.bounds = bounds

    def observe(self, value: float, **labels: Any) -> None:
        self._observe(_label_key(labels), value)

    def bind(self, **labels: Any) -> Callable[[float], None]:
        """``observe`` for one label set (see :meth:`Counter.bind`)."""
        return partial(self._observe, _label_key(labels))

    def _observe(self, key: LabelKey, value: float) -> None:
        # bisect_left keeps exact-bound observations in their own
        # bucket (value <= bound), the Prometheus ``le`` convention.
        index = bisect_left(self.bounds, value)
        try:
            shard = self._local.shard
        except AttributeError:
            shard = self._own_shard()
        # One flat list per series: the bucket counts (+Inf last), then
        # the sum, so a reader copies a series in one slice.
        series = shard.get(key)
        if series is None:
            series = shard[key] = [0] * (len(self.bounds) + 1) + [0.0]
        series[index] += 1
        series[-1] += value

    @staticmethod
    def _merge(total: Optional[list], series: list) -> list:
        series = series[:]  # one step: a live series is read whole
        if total is None:
            return series
        return [mine + theirs for mine, theirs in zip(total, series)]

    def _series(self, labels: dict[str, Any]) -> list:
        """Bucket counts (``+Inf`` last), then the sum, over the shards."""
        series = self._merged().get(_label_key(labels))
        return series or [0] * (len(self.bounds) + 1) + [0.0]

    def count(self, **labels: Any) -> int:
        return sum(self._series(labels)[:-1])

    def sum(self, **labels: Any) -> float:
        return self._series(labels)[-1]

    def mean(self, **labels: Any) -> float:
        series = self._series(labels)
        count = sum(series[:-1])
        return series[-1] / count if count else 0.0

    def bucket_counts(self, **labels: Any) -> dict[str, int]:
        """``{upper_bound: count}`` with ``"+Inf"`` for the overflow."""
        series = self._series(labels)
        rendered = {str(bound): n for bound, n in zip(self.bounds, series)}
        rendered["+Inf"] = series[-2]
        return rendered

    def snapshot(self) -> dict[str, Any]:
        values = {}
        for key, series in sorted(self._merged().items()):
            count = sum(series[:-1])
            values[_render_labels(key)] = {
                "count": count,
                "sum": round(series[-1], 6),
                "mean": round(series[-1] / count, 6) if count else 0.0,
                "buckets": {
                    str(bound): n for bound, n in zip(self.bounds, series)
                }
                | {"+Inf": series[-2]},
            }
        return {"kind": self.kind, "values": values}


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


def registry_token() -> object:
    """Changes with :func:`set_registry` and with a reset: what a caller
    bound through :meth:`MetricHandle.labels` records into the current
    registry for as long as this returns the same object."""
    return _registry._instruments


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
        state = self._state
        if state[0] is not _registry._instruments:
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
