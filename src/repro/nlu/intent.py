"""Question intent classification."""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Optional


class Intent(enum.Enum):
    COUNT = "count"
    COUNT_DISTINCT = "count_distinct"
    AVG = "avg"
    SUM = "sum"
    MAX = "max"
    MIN = "min"
    TOP_N = "top_n"
    GROUP_COUNT = "group_count"
    DISTINCT = "distinct"
    LIST = "list"


@dataclass
class IntentResult:
    intent: Intent
    #: LIMIT for TOP_N questions.
    top_n: Optional[int] = None
    #: True when the TOP_N direction is ascending (lowest/cheapest).
    ascending: bool = False


_NUMBER = re.compile(r"\d+")

#: The single-intent keyword groups, in the order ``classify`` tries
#: them once the counting and top-N shapes are ruled out.
_AGGREGATES = (
    (Intent.AVG, ("average", "mean", "avg")),
    (Intent.SUM, ("total", "sum")),
    (Intent.MAX, ("maximum", "largest", "biggest")),
    (Intent.MIN, ("minimum", "smallest", "cheapest")),
)


def _has_word(lowered: str, *words: str) -> bool:
    """Whether any of ``words`` occurs with no ASCII letter on either
    side — ``(?<![a-z])word(?![a-z])`` by plain string search."""
    for word in words:
        start = lowered.find(word)
        while start != -1:
            end = start + len(word)
            if not (start and "a" <= lowered[start - 1] <= "z") and not (
                end < len(lowered) and "a" <= lowered[end] <= "z"
            ):
                return True
            start = lowered.find(word, start + 1)
    return False


class IntentClassifier:
    """Keyword-driven intent detection over normalized English text.

    Chinese questions are pre-translated by
    :func:`repro.nlu.multilingual.translate_zh_phrases`, so the keyword
    tables here stay in one language.
    """

    def classify(self, text: str) -> IntentResult:
        lowered = text.lower()

        has_count = "how many" in lowered or _has_word(lowered, "count")
        has_per = _has_word(lowered, "per", "for each", "by each")
        has_distinct = _has_word(lowered, "distinct", "unique", "different")
        if has_count and has_per:
            return IntentResult(Intent.GROUP_COUNT)
        if has_count and has_distinct:
            return IntentResult(Intent.COUNT_DISTINCT)

        top = self._match_top_n(lowered)
        if top is not None:
            return top

        if has_distinct and _has_word(lowered, "distinct", "unique"):
            return IntentResult(Intent.DISTINCT)
        for intent, words in _AGGREGATES:
            if _has_word(lowered, *words):
                return IntentResult(intent)
        if has_count:
            return IntentResult(Intent.COUNT)
        return IntentResult(Intent.LIST)

    @staticmethod
    def _match_top_n(lowered: str) -> Optional[IntentResult]:
        # "top 3", "highest 2", "最高的2个" (post-translation: "highest ... 2 个")
        if "top " in lowered:
            match = _NUMBER.search(lowered[lowered.index("top ") :])
            if match:
                return IntentResult(Intent.TOP_N, top_n=int(match.group()))
        for marker, ascending in (
            ("highest", False),
            ("largest", False),
            ("most", False),
            ("lowest", True),
            ("smallest", True),
            ("cheapest", True),
        ):
            if marker in lowered:
                match = _NUMBER.search(lowered)
                if match:
                    return IntentResult(
                        Intent.TOP_N,
                        top_n=int(match.group()),
                        ascending=ascending,
                    )
        return None
