"""Secondary index structures: hash (point) and sorted (point + range).

A secondary index maps values of one or more columns to row *positions*
in the owning :class:`~repro.sqlengine.table.Table`'s heap. Two kinds:

- :class:`HashIndex` — a dict from value tuples to position lists.
  O(1) point lookups; no ordering, so no range support.
- :class:`SortedIndex` — a bisect-maintained sorted list of
  ``(key, position)`` entries. Point lookups are O(log n), and range
  predicates over the *first* indexed column (``>``, ``>=``, ``<``,
  ``<=``, ``BETWEEN``) become binary-searched slices.

Both kinds skip rows whose indexed columns contain NULL: SQL equality
and range comparisons are never true against NULL, so such rows can
never be produced by an index lookup, and the executor re-applies the
full predicate to every candidate row anyway (correctness never rests
on index semantics alone).

Sorted keys are built with :func:`repro.sqlengine.types.sort_key`, the
engine's total order over heterogeneous values, so a column holding a
mix of numbers and text cannot break the bisect invariants.
"""

from __future__ import annotations

import bisect
import operator
from dataclasses import dataclass
from typing import Any, Optional, Sequence

from repro.sqlengine.errors import ExecutionError
from repro.sqlengine.types import sort_key

#: Index kinds accepted by ``CREATE INDEX ... USING <kind>``.
INDEX_KINDS = ("hash", "sorted")


@dataclass(frozen=True)
class IndexInfo:
    """Catalog-level metadata for one secondary index."""

    name: str
    table: str
    columns: tuple[str, ...]
    kind: str  # 'hash' | 'sorted'

    def describe(self) -> str:
        cols = ", ".join(self.columns)
        return f"{self.name} ON {self.table} ({cols}) USING {self.kind.upper()}"


class SecondaryIndex:
    """Base class: maps column-value tuples to row positions."""

    kind = "abstract"

    def __init__(self, name: str, positions: tuple[int, ...]) -> None:
        self.name = name
        #: Column positions (within the table schema) this index covers.
        self.column_positions = positions

    def key_of(self, row: Sequence[Any]) -> Optional[tuple[Any, ...]]:
        """The index key for ``row``, or None when any part is NULL."""
        key = tuple(row[p] for p in self.column_positions)
        if any(part is None for part in key):
            return None
        return key

    def add(self, position: int, row: Sequence[Any]) -> None:
        raise NotImplementedError

    def rebuild(self, rows: Sequence[Sequence[Any]]) -> None:
        raise NotImplementedError

    def lookup(self, values: Sequence[Any]) -> list[int]:
        """Positions of rows whose indexed columns equal ``values``."""
        raise NotImplementedError

    def clone(self) -> "SecondaryIndex":
        raise NotImplementedError


class HashIndex(SecondaryIndex):
    """Equality index: value tuple -> row positions, via one dict."""

    kind = "hash"

    def __init__(self, name: str, positions: tuple[int, ...]) -> None:
        super().__init__(name, positions)
        self._buckets: dict[tuple[Any, ...], list[int]] = {}

    def add(self, position: int, row: Sequence[Any]) -> None:
        key = self.key_of(row)
        if key is not None:
            self._buckets.setdefault(key, []).append(position)

    def rebuild(self, rows: Sequence[Sequence[Any]]) -> None:
        self._buckets = {}
        for position, row in enumerate(rows):
            self.add(position, row)

    def lookup(self, values: Sequence[Any]) -> list[int]:
        key = tuple(values)
        if any(part is None for part in key):
            return []
        try:
            return list(self._buckets.get(key, ()))
        except TypeError:  # unhashable probe value
            return []

    def clone(self) -> "HashIndex":
        twin = HashIndex(self.name, self.column_positions)
        twin._buckets = {k: list(v) for k, v in self._buckets.items()}
        return twin

    def __len__(self) -> int:
        return sum(len(v) for v in self._buckets.values())


class SortedIndex(SecondaryIndex):
    """Ordered index: bisect over ``sort_key``-encoded value tuples.

    Supports point lookups on the full key and range scans over the
    first indexed column.
    """

    kind = "sorted"

    def __init__(self, name: str, positions: tuple[int, ...]) -> None:
        super().__init__(name, positions)
        #: Sorted parallel arrays: encoded key tuple / heap position.
        self._keys: list[tuple] = []
        self._positions: list[int] = []

    @staticmethod
    def _encode(values: Sequence[Any]) -> tuple:
        return tuple(sort_key(v) for v in values)

    def add(self, position: int, row: Sequence[Any]) -> None:
        key = self.key_of(row)
        if key is None:
            return
        encoded = self._encode(key)
        at = bisect.bisect_right(self._keys, encoded)
        self._keys.insert(at, encoded)
        self._positions.insert(at, position)

    def rebuild(self, rows: Sequence[Sequence[Any]]) -> None:
        entries = []
        for position, row in enumerate(rows):
            key = self.key_of(row)
            if key is not None:
                entries.append((self._encode(key), position))
        entries.sort()
        self._keys = [key for key, _pos in entries]
        self._positions = [pos for _key, pos in entries]

    def lookup(self, values: Sequence[Any]) -> list[int]:
        if any(part is None for part in values):
            return []
        encoded = self._encode(values)
        lo = bisect.bisect_left(self._keys, encoded)
        hi = bisect.bisect_right(self._keys, encoded)
        return self._positions[lo:hi]

    def range_lookup(
        self,
        low: Any = None,
        high: Any = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> list[int]:
        """Positions where the first indexed column lies in the range.

        ``None`` bounds are open. NULL rows are never in the index, so
        they are never produced (matching SQL comparison semantics).
        """
        keys, first = self._keys, operator.itemgetter(0)
        lo = 0
        hi = len(keys)
        if low is not None:
            side = bisect.bisect_left if low_inclusive else bisect.bisect_right
            lo = side(keys, sort_key(low), key=first)
        if high is not None:
            side = bisect.bisect_right if high_inclusive else bisect.bisect_left
            hi = side(keys, sort_key(high), key=first)
        return self._positions[lo:hi]

    def clone(self) -> "SortedIndex":
        twin = SortedIndex(self.name, self.column_positions)
        twin._keys = list(self._keys)
        twin._positions = list(self._positions)
        return twin

    def __len__(self) -> int:
        return len(self._keys)


def make_index(
    kind: str, name: str, positions: tuple[int, ...]
) -> SecondaryIndex:
    """Construct an index of ``kind`` ('hash' or 'sorted')."""
    lowered = kind.lower()
    if lowered == "hash":
        return HashIndex(name, positions)
    if lowered == "sorted":
        return SortedIndex(name, positions)
    raise ExecutionError(
        f"unknown index kind {kind!r}; expected one of {INDEX_KINDS}"
    )
