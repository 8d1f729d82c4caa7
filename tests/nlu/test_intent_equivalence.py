"""The keyword scan in ``IntentClassifier`` classifies exactly as the
per-call regex scan it replaced did.

The reference below is that classifier, kept here verbatim: for every
keyword of every check it escaped, compiled (through ``re``'s cache)
and ran one ``(?<![a-z])word(?![a-z])`` pattern. The classifier now
finds keywords with plain string search and an ASCII-letter boundary
check; the ``IntentResult`` of any text must not have moved.
"""

import re
from typing import Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nlu.intent import Intent, IntentClassifier, IntentResult

_NUMBER = re.compile(r"\d+")


class ReferenceClassifier:
    @staticmethod
    def _has_word(lowered: str, *words: str) -> bool:
        return any(
            re.search(r"(?<![a-z])" + re.escape(w) + r"(?![a-z])", lowered)
            for w in words
        )

    def classify(self, text: str) -> IntentResult:
        lowered = text.lower()

        has_count = "how many" in lowered or self._has_word(lowered, "count")
        has_per = self._has_word(lowered, "per") or self._has_word(
            lowered, "for each", "by each"
        )
        has_distinct = self._has_word(
            lowered, "distinct", "unique", "different"
        )
        if has_count and has_per:
            return IntentResult(Intent.GROUP_COUNT)
        if has_count and has_distinct:
            return IntentResult(Intent.COUNT_DISTINCT)

        top = self._match_top_n(lowered)
        if top is not None:
            return top

        if has_distinct and self._has_word(lowered, "distinct", "unique"):
            return IntentResult(Intent.DISTINCT)
        if self._has_word(lowered, "average", "mean", "avg"):
            return IntentResult(Intent.AVG)
        if self._has_word(lowered, "total", "sum"):
            return IntentResult(Intent.SUM)
        if self._has_word(lowered, "maximum", "largest", "biggest"):
            return IntentResult(Intent.MAX)
        if self._has_word(lowered, "minimum", "smallest", "cheapest"):
            return IntentResult(Intent.MIN)
        if has_count:
            return IntentResult(Intent.COUNT)
        return IntentResult(Intent.LIST)

    @staticmethod
    def _match_top_n(lowered: str) -> Optional[IntentResult]:
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


KEYWORDS = [
    "count", "how many", "per", "for each", "by each", "distinct",
    "unique", "different", "average", "mean", "avg", "total", "sum",
    "maximum", "largest", "biggest", "minimum", "smallest", "cheapest",
    "top", "highest", "lowest", "most",
]
#: What may sit either side of a keyword: nothing, ASCII letters (the
#: only thing the boundary refuses), digits, punctuation, non-ASCII
#: letters and capitals whose lowercase is ASCII.
NEIGHBOURS = ["", " ", "a", "z", "s", "A", "0", "_", "-", "?", "é", "İ", "的"]
FRAGMENTS = KEYWORDS + [
    "Count", "PER", "Sum", "orders", "amount", "summary", "permanent",
    "supper", "meaning", "uniquely", "totally", "countries", "topaz",
    "1", "3", "10", "客户", "个",
]
SEPARATORS = ["", " ", "  ", ", ", "-", "\n", "的"]


@st.composite
def questions(draw):
    pieces = draw(
        st.lists(
            st.tuples(
                st.sampled_from(NEIGHBOURS),
                st.sampled_from(FRAGMENTS),
                st.sampled_from(NEIGHBOURS),
            ),
            min_size=1,
            max_size=5,
        )
    )
    separator = draw(st.sampled_from(SEPARATORS))
    return separator.join("".join(piece) for piece in pieces)


def _deck_questions():
    """The question text of every op the end-to-end benchmark's plans
    hold (warm-up included), over two seeds."""
    from benchmarks.e2e import stack as stacks
    from benchmarks.e2e.workloads import WORKLOADS, build_plan

    texts = set()
    for seed in (1, 2):
        for name, workload in WORKLOADS.items():
            inputs = stacks.load_data(seed, workload.n_orders).inputs
            plan = build_plan(name, seed, 1.0, inputs)
            texts.update(op.text for op in plan.warmup + plan.ops if op.text)
    return sorted(texts)


class TestKeywordScanMatchesTheRegexScan:
    @settings(max_examples=300, deadline=None)
    @given(text=questions())
    def test_same_result_on_keyword_soup(self, text):
        assert IntentClassifier().classify(text) == (
            ReferenceClassifier().classify(text)
        )

    @settings(max_examples=300, deadline=None)
    @given(text=st.text(max_size=40))
    def test_same_result_on_arbitrary_text(self, text):
        assert IntentClassifier().classify(text) == (
            ReferenceClassifier().classify(text)
        )

    def test_same_result_for_every_keyword_between_every_neighbour(self):
        classifier, reference = IntentClassifier(), ReferenceClassifier()
        for keyword in KEYWORDS:
            for before in NEIGHBOURS:
                for after in NEIGHBOURS:
                    for text in (
                        before + keyword + after,
                        "how many " + before + keyword + after + " 5",
                    ):
                        assert classifier.classify(text) == (
                            reference.classify(text)
                        ), text

    def test_same_result_on_every_benchmark_question(self):
        texts = _deck_questions()
        assert len(texts) > 1000
        classifier, reference = IntentClassifier(), ReferenceClassifier()
        for text in texts:
            assert classifier.classify(text) == reference.classify(text), text
