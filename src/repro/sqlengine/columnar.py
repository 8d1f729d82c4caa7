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
    """``(codes, distinct, index)`` extending ``prior`` by ``values``;
    values equal as dict keys — the row path's grouping and hash-join
    equality — share a code, which ``index`` holds. It is copied, never
    mutated (clones share vectors): a copy costs far less than a rebuild."""
    codes, distinct, index = prior or (np.zeros(0, np.int64), [], {None: -1})
    index = dict(index)
    try:
        fresh = [index.setdefault(value, len(index) - 1) for value in values]
    except TypeError:  # unhashable
        raise Decline from None
    codes = np.append(codes, np.array(fresh, np.int64))
    return codes, distinct + list(index)[len(distinct) + 1 :], index


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


def build(codes: np.ndarray, values: list) -> tuple:
    """A join's build side from its dictionary-coded key: entries with a
    key in code order, entry order within a code (the hash join's); per
    code + 1 the ``(start, count)`` of its run there, NULL's empty; each
    value's code + 1; and the spans per probe code + 1, none yet."""
    order = np.flatnonzero(codes >= 0)
    order = order[np.argsort(codes[order], kind="stable")]
    counts = np.bincount(codes[order] + 1, minlength=len(values) + 1)
    spans = np.stack([np.cumsum(counts) - counts, counts])
    found = {value: code + 1 for code, value in enumerate(values)}
    return order, spans, found, spans[:, :1]


def join(codes: np.ndarray, values: list, side: tuple) -> tuple:
    """Inner equi-join of a dictionary-coded key (``codes`` into
    ``values``) against a :func:`build` side: the side, its probe spans
    extended to ``values`` (codes survive appends), and aligned entry
    indices into each side, matches in the hash join's probe order."""
    order, spans, found, probe = side
    if probe.shape[1] <= len(values):
        extra = [found.get(value, 0) for value in values[probe.shape[1] - 1 :]]
        probe = np.hstack([probe, spans[:, extra]])
    low, counts = probe[:, codes + 1]
    left = np.repeat(np.arange(len(codes)), counts)
    low = np.repeat(low - np.cumsum(counts) + counts, counts)
    return (order, spans, found, probe), (left, order[low + np.arange(len(left))])


#: Batches this small group by a dict pass, which beats a sort there and
#: makes no numpy call that releases the GIL (docs/sqlengine.md).
DICT_PASS = 256


def group(keys: list[tuple[np.ndarray, int]], size: int, index: dict) -> tuple:
    """``index`` (key-id tuple -> group) extended by the batch's new
    groups in order of first appearance, as the row path's dict numbers
    them, the group of each entry and the first entry of each new group,
    from ``(ids, id space)`` per key."""
    index, known = dict(index), len(index)
    if size <= DICT_PASS:
        rows = zip(*[ids.tolist() for ids, _ in keys]) if keys else [()] * size
        group_of = [index.setdefault(key, len(index)) for key in rows]
        first = dict(zip(group_of[::-1], range(size - 1, -1, -1)))
        fresh = [first[new] for new in range(known, len(index))]
        return index, np.array(group_of, np.int64), fresh
    combined, space = np.zeros(size, np.int64), 1
    for ids, count in keys:
        space *= count
        if space >= 2**62:
            raise Decline
        combined = combined * count + ids
    _, first, inverse = np.unique(combined, return_index=True, return_inverse=True)
    rows = list(zip(*[ids[first].tolist() for ids, _ in keys])) or [()] * len(first)
    first, fresh = first.tolist(), []
    for at in sorted(range(len(first)), key=first.__getitem__):
        if rows[at] not in index:
            index[rows[at]] = len(index)
            fresh.append(first[at])
    return index, np.array([index[row] for row in rows], np.int64)[inverse], fresh


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
