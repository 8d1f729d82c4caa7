"""Column vectors and the numpy kernels of the batch operators.

A column is had as a *numeric* vector (``int64``/``float64`` values plus
a NULL mask) or a *dictionary* (int codes in first-seen order, ``-1``
for NULL, plus the distinct Python values); see
:meth:`repro.sqlengine.table.Table.vector`. Every kernel gives the row
pipeline's exact result — values, Python types, group order, float
bits — or raises :class:`Decline` (docs/sqlengine.md § Columnar
execution).
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

import numpy as np

#: Integers of this magnitude stop converting to ``float64`` exactly.
EXACT = 2**52


class Decline(Exception):
    """Inexact data or a failing expression: the statement reruns on
    the row pipeline, which owns the result and the error."""


def numeric(values: list, dtype: type, prior: Optional[tuple]) -> tuple:
    """``(data, nulls)`` extending ``prior`` by ``values``; declines a
    value that is not exactly representable (|int| >= 2**52, NaN, or
    -0.0, which a sum started at 0.0 would lose)."""
    nulls = np.array([value is None for value in values], bool)
    try:
        data = np.array([0 if v is None else v for v in values], dtype)
    except OverflowError:
        raise Decline from None
    if dtype is np.float64:
        inexact = np.isnan(data) | (np.signbit(data) & (data == 0))
    else:
        inexact = (data >= EXACT) | (data <= -EXACT)
    if inexact.any():
        raise Decline
    if prior is not None:
        data, nulls = np.append(prior[0], data), np.append(prior[1], nulls)
    return data, nulls


def dictionary(values: list, prior: Optional[tuple]) -> tuple:
    """``(codes, distinct)`` extending ``prior`` by ``values``; values
    equal as dict keys — the row path's grouping and hash-join
    equality — share a code."""
    index: dict[Any, int] = {None: -1}
    if prior is not None:
        index.update((value, code) for code, value in enumerate(prior[1]))
    try:
        codes = [index.setdefault(value, len(index) - 1) for value in values]
    except TypeError:  # unhashable
        raise Decline from None
    codes = np.array(codes, np.int64)
    if prior is not None:
        codes = np.append(prior[0], codes)
    return codes, list(index)[1:]


def distinct_map(
    codes: np.ndarray,
    values: list,
    fn: Callable[[Sequence[Any]], Any],
    encode: Callable[[Any], int],
    where: Any = slice(None),
) -> np.ndarray:
    """``encode(fn((value,)))`` per entry of ``codes``, calling the
    compiled expression ``fn`` once per distinct value present under
    ``where`` (entries outside it read 0) instead of once per row."""
    present = np.flatnonzero(
        np.bincount(codes[where] + 1, minlength=len(values) + 1)
    )
    lookup = np.zeros(len(values) + 1, np.int64)
    try:
        lookup[present] = [
            encode(fn((values[code - 1] if code else None,)))
            for code in present.tolist()
        ]
    except Exception as error:  # noqa: BLE001 - the row path reports it
        raise Decline from error
    return lookup[codes + 1]


def join(
    left: np.ndarray, left_values: list, right: np.ndarray, right_values: list
) -> tuple[np.ndarray, np.ndarray]:
    """Inner equi-join of two dictionary-coded key columns: aligned
    entry indices into each side, left entries in order and each one's
    matches in right order (the hash join's probe order). NULL matches
    nothing."""
    index = {value: code for code, value in enumerate(right_values)}
    probe = np.array(
        [-1] + [index.get(value, -1) for value in left_values], np.int64
    )[left + 1]
    build = np.flatnonzero(right >= 0)
    build = build[np.argsort(right[build], kind="stable")]
    keys = right[build]
    low = np.searchsorted(keys, probe, "left")
    counts = np.searchsorted(keys, probe, "right") - low
    starts = np.cumsum(counts) - counts
    left_index = np.repeat(np.arange(len(probe)), counts)
    within = np.arange(len(left_index)) - np.repeat(starts, counts)
    return left_index, build[np.repeat(low, counts) + within]


def group(
    keys: list[tuple[np.ndarray, int]], size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Group id per entry and the first entry of each group, from
    ``(codes, code space)`` per key; groups are numbered in order of
    first appearance, as the row path's dict emits them."""
    if not keys:
        return np.zeros(size, np.int64), np.zeros(min(size, 1), np.int64)
    combined, space = keys[0]
    for codes, count in keys[1:]:
        space *= count
        if space >= 2**62:
            raise Decline
        combined = combined * count + codes
    _, first, inverse = np.unique(
        combined, return_index=True, return_inverse=True
    )
    order = np.argsort(first)  # sorted-code groups by first appearance
    return np.argsort(order)[inverse], first[order]


def fold(
    name: str,
    partial: tuple,
    group_of: np.ndarray,
    groups: int,
    data: Optional[np.ndarray] = None,
    nulls: Optional[np.ndarray] = None,
) -> tuple:
    """``partial`` (per group: non-NULL count, sum or extreme; values
    folded, their largest magnitude) extended by a batch of entries. A
    sum continues in entry order (``np.add.at``), as ``_Sum``/``_Avg``
    do, so its float bits equal one pass over all the entries."""
    counts, acc, folded, largest = partial
    if nulls is not None:
        group_of, data = group_of[~nulls], data[~nulls]
    counts = np.append(counts, np.zeros(groups - len(counts), np.int64))
    counts += np.bincount(group_of, minlength=groups)
    if name == "COUNT":
        return counts, None, 0, 0
    folded += len(data)
    if name == "SUM" and data.dtype.kind == "i":
        largest = max(largest, int(np.abs(data).max(initial=0)))
        if folded * largest >= 2 * EXACT:
            raise Decline  # a float64 partial sum could round
    if acc is None:
        acc = np.zeros(0, np.float64 if name == "AVG" else data.dtype)
    if name in ("SUM", "AVG"):
        acc = np.append(acc, np.zeros(groups - len(acc), acc.dtype))
        with np.errstate(all="ignore"):  # inf - inf is NaN, as in Python
            np.add.at(acc, group_of, data.astype(acc.dtype, copy=False))
    else:  # fold from the far end of the type's range
        top = np.inf if acc.dtype.kind == "f" else np.iinfo(acc.dtype).max
        far, extreme = (top, np.minimum) if name == "MIN" else (-top, np.maximum)
        acc = np.append(acc, np.full(groups - len(acc), far, acc.dtype))
        extreme.at(acc, group_of, data)
    return counts, acc, folded, largest


def results(name: str, partial: tuple) -> list:
    """One aggregate's result per group as Python values (NULL: no value)."""
    counts, acc = partial[0].tolist(), partial[1]
    if name == "COUNT":
        return counts
    values = acc.tolist()
    if name == "AVG":
        values = [total / (count or 1) for total, count in zip(values, counts)]
    return [value if count else None for value, count in zip(values, counts)]
