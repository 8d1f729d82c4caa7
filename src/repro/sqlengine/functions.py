"""Scalar and aggregate SQL functions.

Scalar functions are plain callables over Python values (NULL-safe: most
return NULL when any argument is NULL, matching SQL semantics).
Aggregates follow an accumulator protocol so the executor can stream
rows through them group by group.
"""

from __future__ import annotations

import datetime as _dt
import math
import operator
from typing import Any, Callable, Optional

from repro.sqlengine.errors import ExecutionError


# ---------------------------------------------------------------------------
# Scalar functions
# ---------------------------------------------------------------------------


def _null_safe(fn: Callable[..., Any]) -> Callable[..., Any]:
    def wrapper(*args: Any) -> Any:
        if any(arg is None for arg in args):
            return None
        return fn(*args)

    return wrapper


def _sql_round(value: float, digits: int = 0) -> float:
    result = round(float(value), int(digits))
    return result if digits else float(int(result))


def _sql_substr(text: str, start: int, length: Optional[int] = None) -> str:
    # SQL SUBSTR is 1-based.
    begin = int(start) - 1
    if begin < 0:
        begin = 0
    if length is None:
        return str(text)[begin:]
    return str(text)[begin : begin + int(length)]


def _extract_date(value: Any) -> _dt.date:
    if isinstance(value, _dt.datetime):
        return value.date()
    if isinstance(value, _dt.date):
        return value
    if isinstance(value, str):
        from repro.sqlengine.types import parse_date

        return parse_date(value)
    raise ExecutionError(f"expected a date value, got {value!r}")


def _strftime(fmt: str, value: Any) -> str:
    return _extract_date(value).strftime(str(fmt))


SCALAR_FUNCTIONS: dict[str, Callable[..., Any]] = {
    "ABS": _null_safe(lambda x: abs(x)),
    "ROUND": _null_safe(_sql_round),
    "FLOOR": _null_safe(lambda x: math.floor(x)),
    "CEIL": _null_safe(lambda x: math.ceil(x)),
    "CEILING": _null_safe(lambda x: math.ceil(x)),
    "SQRT": _null_safe(lambda x: math.sqrt(x)),
    "POWER": _null_safe(lambda x, y: x ** y),
    "MOD": _null_safe(lambda x, y: x % y),
    "SIGN": _null_safe(lambda x: (x > 0) - (x < 0)),
    "LENGTH": _null_safe(lambda s: len(str(s))),
    "LOWER": _null_safe(lambda s: str(s).lower()),
    "UPPER": _null_safe(lambda s: str(s).upper()),
    "TRIM": _null_safe(lambda s: str(s).strip()),
    "LTRIM": _null_safe(lambda s: str(s).lstrip()),
    "RTRIM": _null_safe(lambda s: str(s).rstrip()),
    "SUBSTR": _null_safe(_sql_substr),
    "SUBSTRING": _null_safe(_sql_substr),
    "REPLACE": _null_safe(lambda s, a, b: str(s).replace(str(a), str(b))),
    "CONCAT": lambda *args: "".join(
        "" if a is None else str(a) for a in args
    ),
    "INSTR": _null_safe(lambda s, sub: str(s).find(str(sub)) + 1),
    "YEAR": _null_safe(lambda v: _extract_date(v).year),
    "MONTH": _null_safe(lambda v: _extract_date(v).month),
    "DAY": _null_safe(lambda v: _extract_date(v).day),
    "STRFTIME": _null_safe(_strftime),
    "DATE": _null_safe(_extract_date),
    "COALESCE": lambda *args: next(
        (a for a in args if a is not None), None
    ),
    "NULLIF": lambda a, b: None if a == b else a,
    "IFNULL": lambda a, b: b if a is None else a,
    "MIN2": _null_safe(min),
    "MAX2": _null_safe(max),
}


def is_scalar_function(name: str) -> bool:
    return name.upper() in SCALAR_FUNCTIONS


def call_scalar(name: str, args: list[Any]) -> Any:
    fn = SCALAR_FUNCTIONS.get(name.upper())
    if fn is None:
        raise ExecutionError(f"unknown function: {name}")
    try:
        return fn(*args)
    except ExecutionError:
        raise
    except ZeroDivisionError:
        raise ExecutionError(f"{name}: division by zero") from None
    except (TypeError, ValueError) as exc:
        raise ExecutionError(f"{name}: {exc}") from exc


# ---------------------------------------------------------------------------
# Aggregates
# ---------------------------------------------------------------------------


class Aggregate:
    """Accumulator protocol: ``add`` per row, ``result`` at group end."""

    def add(self, value: Any) -> None:
        raise NotImplementedError

    def result(self) -> Any:
        raise NotImplementedError


class _Count(Aggregate):
    def __init__(self) -> None:
        self._count = 0

    def add(self, value: Any) -> None:
        if value is not None:
            self._count += 1

    def result(self) -> int:
        return self._count


class _CountStar(Aggregate):
    def __init__(self) -> None:
        self._count = 0

    def add(self, value: Any) -> None:
        self._count += 1

    def result(self) -> int:
        return self._count


class _Sum(Aggregate):
    def __init__(self) -> None:
        self._total: Any = None

    def add(self, value: Any) -> None:
        if value is None:
            return
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ExecutionError(f"SUM over non-numeric value {value!r}")
        self._total = value if self._total is None else self._total + value

    def result(self) -> Any:
        return self._total


class _Avg(Aggregate):
    def __init__(self) -> None:
        self._total = 0.0
        self._count = 0

    def add(self, value: Any) -> None:
        if value is None:
            return
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ExecutionError(f"AVG over non-numeric value {value!r}")
        self._total += value
        self._count += 1

    def result(self) -> Optional[float]:
        if self._count == 0:
            return None
        return self._total / self._count


class _Extreme(Aggregate):
    """MIN / MAX: the first value no later one is ``better`` than."""

    def __init__(self, better: Callable[[Any, Any], bool]) -> None:
        self._better = better
        self._best: Any = None

    def add(self, value: Any) -> None:
        if value is None:
            return
        try:
            if self._best is None or self._better(value, self._best):
                self._best = value
        except TypeError:
            raise ExecutionError(
                f"cannot compare {value!r} with {self._best!r}"
            ) from None

    def result(self) -> Any:
        return self._best


class _GroupConcat(Aggregate):
    def __init__(self, separator: str = ",") -> None:
        self._parts: list[str] = []
        self._separator = separator

    def add(self, value: Any) -> None:
        if value is not None:
            self._parts.append(str(value))

    def result(self) -> Optional[str]:
        if not self._parts:
            return None
        return self._separator.join(self._parts)


class _Distinct(Aggregate):
    """Wrap another aggregate, feeding it each distinct value once."""

    def __init__(self, inner: Aggregate) -> None:
        self._inner = inner
        self._seen: set = set()

    def add(self, value: Any) -> None:
        key = (type(value).__name__, value)
        try:
            if key in self._seen:
                return
            self._seen.add(key)
        except TypeError:
            raise ExecutionError(
                f"DISTINCT over unhashable value {value!r}"
            ) from None
        self._inner.add(value)

    def result(self) -> Any:
        return self._inner.result()


_AGGREGATE_FACTORIES: dict[str, Callable[[], Aggregate]] = {
    "COUNT": _Count,
    "SUM": _Sum,
    "AVG": _Avg,
    "MIN": lambda: _Extreme(operator.lt),
    "MAX": lambda: _Extreme(operator.gt),
    "GROUP_CONCAT": _GroupConcat,
}


def is_aggregate_function(name: str) -> bool:
    return name.upper() in _AGGREGATE_FACTORIES


def make_aggregate(name: str, star: bool, distinct: bool) -> Aggregate:
    upper = name.upper()
    if upper == "COUNT" and star:
        return _CountStar()
    factory = _AGGREGATE_FACTORIES.get(upper)
    if factory is None:
        raise ExecutionError(f"unknown aggregate: {name}")
    aggregate = factory()
    if distinct:
        aggregate = _Distinct(aggregate)
    return aggregate
