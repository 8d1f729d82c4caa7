"""The core cache primitive: a thread-safe LRU + TTL store.

:class:`CacheStore` is what every tier is built from. It provides

- **LRU eviction** with a hard capacity bound,
- **TTL expiry** against an injectable monotonic clock (tests pass a
  fake clock, so expiry is deterministic without sleeping),
- **per-store statistics** (hits, misses, coalesced waits, puts,
  evictions, expirations),
- **single-flight deduplication**: concurrent ``get_or_compute`` (or
  ``aget_or_compute``) calls for the same missing key run the compute
  exactly once; the other callers, threads or coroutines, wait for the
  leader and then share its result (or its exception — errors are
  never cached). A compute that returns :class:`Uncached` hands its
  value to the leader and the waiters without storing it.

Values are stored as given; callers that cache mutable objects are
responsible for freezing them (the SQL tier stores row tuples, the RAG
tier stores id/score tuples) so a cache hit cannot alias state a
caller might mutate.
"""

from __future__ import annotations

import asyncio
import functools
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Awaitable, Callable, Optional

#: Internal sentinel distinguishing "no entry" from a cached ``None``.
_MISS = object()


class Uncached:
    """A compute result to share with the flight but not store: an
    answer that must not outlive the condition that produced it."""

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value


def _wake(loop: asyncio.AbstractEventLoop, landed: asyncio.Future) -> None:
    """An async waiter's flight callback, run by the landing thread."""
    try:
        loop.call_soon_threadsafe(_settle, landed)
    except RuntimeError:  # the waiter's loop closed without cancelling it
        pass


def _settle(landed: asyncio.Future) -> None:
    if not landed.done():
        landed.set_result(None)


@dataclass
class CacheStats:
    """Counters for one store; a snapshot copy is returned by
    :meth:`CacheStore.stats`."""

    hits: int = 0
    misses: int = 0
    #: Lookups that waited on another thread's in-flight compute and
    #: shared its result (single-flight deduplication).
    coalesced: int = 0
    puts: int = 0
    evictions: int = 0
    expirations: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses + self.coalesced

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served without running the compute."""
        if self.lookups == 0:
            return 0.0
        return (self.hits + self.coalesced) / self.lookups

    def to_dict(self) -> dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "coalesced": self.coalesced,
            "puts": self.puts,
            "evictions": self.evictions,
            "expirations": self.expirations,
            "hit_rate": round(self.hit_rate, 4),
        }


@dataclass
class _Entry:
    value: Any
    expires_at: Optional[float]


class _Flight:
    """One in-flight compute others wait on: threads on ``event``,
    coroutines through ``callbacks``."""

    __slots__ = ("event", "value", "error", "callbacks")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.value: Any = _MISS
        self.error: Optional[BaseException] = None
        self.callbacks: list[Callable[[], None]] = []


class CacheStore:
    """Thread-safe bounded LRU cache with optional TTL.

    ``clock`` must be a monotonic ``() -> float``; it exists so tests
    can drive expiry deterministically. ``on_evict(key, reason)`` is
    called (outside hot paths, inside the store lock) whenever an entry
    leaves the store involuntarily; ``reason`` is ``"lru"`` or
    ``"ttl"``.
    """

    def __init__(
        self,
        capacity: int = 512,
        ttl_seconds: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
        on_evict: Optional[Callable[[Any, str], None]] = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if ttl_seconds is not None and ttl_seconds <= 0:
            raise ValueError("ttl_seconds must be positive (or None)")
        self.capacity = capacity
        self.ttl_seconds = ttl_seconds
        self._clock = clock
        self._on_evict = on_evict
        self._entries: OrderedDict[Any, _Entry] = OrderedDict()
        self._flights: dict[Any, _Flight] = {}
        self._stats = CacheStats()
        self._lock = threading.RLock()

    # -- lookups -----------------------------------------------------------

    def lookup(self, key: Any) -> tuple[bool, Any]:
        """``(hit, value)``; counts the hit or miss."""
        with self._lock:
            value = self._get_locked(key)
            if value is _MISS:
                self._stats.misses += 1
                return False, None
            self._stats.hits += 1
            return True, value

    def peek(self, key: Any) -> tuple[bool, Any]:
        """Like :meth:`lookup` but without touching statistics or LRU
        order (``in`` uses it)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or self._expired(entry):
                return False, None
            return True, entry.value

    def peek_stale(self, key: Any) -> tuple[bool, Any]:
        """Like :meth:`peek` but an expired entry still counts.

        The resilience degradation ladder's last rung: when the
        serving stack is down, an out-of-date answer beats no answer.
        Never touches statistics, LRU order, or the entry itself.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return False, None
            return True, entry.value

    def _get_locked(self, key: Any) -> Any:
        entry = self._entries.get(key)
        if entry is None:
            return _MISS
        if self._expired(entry):
            del self._entries[key]
            self._stats.expirations += 1
            if self._on_evict is not None:
                self._on_evict(key, "ttl")
            return _MISS
        self._entries.move_to_end(key)
        return entry.value

    def _expired(self, entry: _Entry) -> bool:
        return (
            entry.expires_at is not None
            and self._clock() >= entry.expires_at
        )

    # -- mutation ----------------------------------------------------------

    def put(self, key: Any, value: Any) -> None:
        expires = (
            self._clock() + self.ttl_seconds
            if self.ttl_seconds is not None
            else None
        )
        with self._lock:
            self._entries[key] = _Entry(value, expires)
            self._entries.move_to_end(key)
            self._stats.puts += 1
            while len(self._entries) > self.capacity:
                evicted_key, _ = self._entries.popitem(last=False)
                self._stats.evictions += 1
                if self._on_evict is not None:
                    self._on_evict(evicted_key, "lru")

    def delete(self, key: Any) -> bool:
        with self._lock:
            return self._entries.pop(key, None) is not None

    def clear(self) -> int:
        """Drop every entry; returns how many were dropped."""
        with self._lock:
            count = len(self._entries)
            self._entries.clear()
            return count

    # -- single-flight -----------------------------------------------------
    # ``get_or_compute`` and ``aget_or_compute`` share ``_claim`` and
    # ``_land`` and differ only in how a waiter waits, so a sync leader
    # serves async waiters and the other way round.

    def _claim(
        self, key: Any, on_land: Optional[Callable[[], None]] = None
    ) -> tuple[Any, Optional[_Flight], bool]:
        """``(value, flight, leader)`` under one lock hold: a hit has no
        flight, the first miss leads a new one, later misses wait on it
        (registering ``on_land``)."""
        with self._lock:
            value = self._get_locked(key)
            if value is not _MISS:
                self._stats.hits += 1
                return value, None, False
            flight = self._flights.get(key)
            if flight is None:
                flight = self._flights[key] = _Flight()
                self._stats.misses += 1
                return _MISS, flight, True
            if on_land is not None:
                flight.callbacks.append(on_land)
            return _MISS, flight, False

    def _land(
        self, key: Any, flight: _Flight, value: Any = _MISS, error=None
    ) -> Any:
        """Publish the leader's outcome (errors and :class:`Uncached`
        values are never cached), wake every waiter and return the
        value. A cancelled leader lands neither value nor error, so its
        waiters claim again instead of inheriting it."""
        with self._lock:
            if isinstance(value, Uncached):
                value = value.value
            elif value is not _MISS:
                self.put(key, value)
            self._flights.pop(key, None)
            flight.value = value
            if not isinstance(error, asyncio.CancelledError):
                flight.error = error
            callbacks, flight.callbacks = flight.callbacks, []
        flight.event.set()
        for callback in callbacks:
            callback()
        return value

    def _landed(self, flight: _Flight) -> Any:
        """A waiter's share: the value, the leader's error raised, or
        :data:`_MISS` to claim again."""
        if flight.error is not None:
            raise flight.error
        if flight.value is not _MISS:
            with self._lock:
                self._stats.coalesced += 1
        return flight.value

    def get_or_compute(
        self, key: Any, compute: Callable[[], Any]
    ) -> tuple[Any, bool]:
        """``(value, hit)`` — computing at most once per key at a time.

        The first caller to miss becomes the leader and runs
        ``compute`` (outside the store lock); any caller that misses
        the same key meanwhile — thread or coroutine — waits for the
        leader instead of recomputing. A raising compute propagates its
        exception to the leader *and* every waiter, and caches nothing.
        """
        while True:
            value, flight, leader = self._claim(key)
            if flight is None:
                return value, True
            if leader:
                try:
                    value = compute()
                except BaseException as exc:
                    self._land(key, flight, error=exc)
                    raise
                return self._land(key, flight, value), False
            flight.event.wait()
            value = self._landed(flight)
            if value is not _MISS:
                return value, True

    async def aget_or_compute(
        self, key: Any, compute: Callable[[], Awaitable[Any]]
    ) -> tuple[Any, bool]:
        """:meth:`get_or_compute` for an awaitable ``compute``; a waiter
        awaits a future its flight callback settles, so the loop never
        blocks."""
        loop = asyncio.get_running_loop()
        while True:
            landed = loop.create_future()
            on_land = functools.partial(_wake, loop, landed)
            value, flight, leader = self._claim(key, on_land)
            if flight is None:
                return value, True
            if leader:
                try:
                    value = await compute()
                except BaseException as exc:
                    self._land(key, flight, error=exc)
                    raise
                return self._land(key, flight, value), False
            # A cancelled waiter just stops waiting: its callback later
            # finds the future done, and the flight serves the others.
            await landed
            value = self._landed(flight)
            if value is not _MISS:
                return value, True

    # -- introspection -----------------------------------------------------

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(**vars(self._stats))

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Any) -> bool:
        return self.peek(key)[0]

    def keys(self) -> list[Any]:
        """Current keys, least-recently-used first."""
        with self._lock:
            return list(self._entries)
