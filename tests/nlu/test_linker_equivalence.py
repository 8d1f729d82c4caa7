"""The compiled ``SchemaLinker`` links exactly what the per-phrase
scanner it replaced did.

The reference below is that scanner, kept here verbatim: for every
question it walked the lexicon and the value index and, per phrase,
escaped, compiled and ran one word-boundary pattern. The linker now
compiles a match plan once per lexicon version and scans with plain
string search; what it finds, which claim wins an overlap and the
order of the result must not have moved.
"""

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nlu import Lexicon, SchemaIndex, SchemaLinker
from repro.nlu.schema_linking import LinkResult, Mention, ValueMention


def _reference_find(text, phrase):
    if not phrase:
        return []
    has_ascii = any("a" <= ch <= "z" or "0" <= ch <= "9" for ch in phrase)
    if not has_ascii:
        positions = []
        start = text.find(phrase)
        while start != -1:
            positions.append((start, start + len(phrase)))
            start = text.find(phrase, start + 1)
        return positions
    pattern = re.compile(
        r"(?<![a-z0-9])" + re.escape(phrase) + r"(?![a-z0-9])"
    )
    return [(m.start(), m.end()) for m in pattern.finditer(text)]


def reference_link(index, lexicon, question):
    text = question.lower()
    mentions = []
    consumed = [False] * len(text)
    for phrase in list(lexicon.phrases()):
        variants = {phrase}
        if phrase.endswith("s"):
            variants.add(phrase[:-1])
        else:
            variants.add(phrase + "s")
        for variant in sorted(variants, key=len, reverse=True):
            for start, end in _reference_find(text, variant):
                if any(consumed[start:end]):
                    continue
                entries = lexicon.lookup(phrase)
                if not entries:
                    continue
                for position in range(start, end):
                    consumed[position] = True
                mentions.append(Mention(variant, start, entries[0]))
    mentions.sort(key=lambda m: m.start)
    taken = {(m.start, m.start + len(m.phrase)) for m in mentions}
    values = []
    for value in sorted(index.value_index, key=len, reverse=True):
        for start, end in _reference_find(text, value):
            if any(start < t_end and end > t_start for t_start, t_end in taken):
                continue
            if any(
                v.start < end and start < v.start + len(v.value)
                for v in values
            ):
                continue
            values.append(
                ValueMention(value, start, list(index.value_index[value]))
            )
    values.sort(key=lambda v: v.start)
    return LinkResult(mentions, values)


#: Surface forms chosen to collide: plural/singular pairs, phrases that
#: are prefixes of each other, equal lengths, regex metacharacters,
#: digits at word edges, repeats that overlap themselves, CJK.
FRAGMENTS = [
    "order", "orders", "order date", "order dates", "date", "s", "ss",
    "class", "clas", "a a", "a", "c++", "a.b", "axb", "laptop-1",
    "laptop", "1", "10", "q1", "1q", "phone-11", "(x)", "x", "[id]",
    "id", "user id", "user", "west", "east", "new york", "york",
    "订单", "订", "单单", "客户", "客户s", "单",
]
SEPARATORS = [" ", "", ", ", "-", "?", " and ", "的", "  "]

fragments = st.sampled_from(FRAGMENTS)


@st.composite
def questions(draw):
    parts = draw(st.lists(fragments, min_size=1, max_size=8))
    text = parts[0]
    for part in parts[1:]:
        text += draw(st.sampled_from(SEPARATORS)) + part
    return draw(st.sampled_from(["", "show ", "How many "])) + text


@st.composite
def vocabularies(draw):
    lexicon = Lexicon()
    phrases = draw(st.lists(fragments, min_size=1, max_size=10))
    for number, phrase in enumerate(phrases):
        lexicon.add_synonym(
            phrase,
            draw(st.sampled_from(["table", "column"])),
            f"target_{number}",
            table=draw(st.sampled_from([None, "t"])),
            weight=draw(st.sampled_from([0.5, 1.0, 2.0])),
        )
    value_index = {}
    # Insertion order is part of the contract: equal-length values
    # are visited in it.
    for number, value in enumerate(
        draw(st.lists(fragments, max_size=10, unique=True))
    ):
        value_index[value] = [("t", f"c{number}")]
    index = SchemaIndex(
        tables={"t": ["c"]},
        column_types={("t", "c"): "TEXT"},
        value_index=value_index,
    )
    return index, lexicon


class TestCompiledLinkerMatchesTheScanner:
    @settings(max_examples=400, deadline=None)
    @given(vocabulary=vocabularies(), asked=st.lists(questions(), min_size=1, max_size=3))
    def test_same_link_result(self, vocabulary, asked):
        index, lexicon = vocabulary
        linker = SchemaLinker(index, lexicon)
        for question in asked:
            assert linker.link(question) == reference_link(
                index, lexicon, question
            )

    @settings(max_examples=100, deadline=None)
    @given(
        vocabulary=vocabularies(),
        question=questions(),
        late=fragments,
    )
    def test_same_after_the_lexicon_grows(self, vocabulary, question, late):
        index, lexicon = vocabulary
        linker = SchemaLinker(index, lexicon)
        linker.link(question)  # compiles the plan
        lexicon.add_synonym(late, "column", "late", table="t", weight=3.0)
        assert linker.link(question) == reference_link(
            index, lexicon, question
        )

    def test_a_synonym_added_after_the_first_link_is_seen(self):
        index = SchemaIndex(
            tables={"orders": ["amount"]},
            column_types={("orders", "amount"): "REAL"},
            value_index={},
        )
        lexicon = index.base_lexicon()
        linker = SchemaLinker(index, lexicon)
        assert not linker.link("total revenue of orders").columns()
        lexicon.add_synonym("revenue", "column", "amount", "orders")
        linked = linker.link("total revenue of orders").columns()
        assert [m.entry.target for m in linked] == ["amount"]

    def test_merge_retires_the_plan_too(self):
        index = SchemaIndex(
            tables={"orders": ["amount"]},
            column_types={("orders", "amount"): "REAL"},
            value_index={},
        )
        lexicon = index.base_lexicon()
        linker = SchemaLinker(index, lexicon)
        linker.link("revenue")
        learned = Lexicon()
        learned.add_synonym("revenue", "column", "amount", "orders")
        lexicon.merge(learned)
        assert [m.phrase for m in linker.link("revenue").mentions] == ["revenue"]

    def test_overlapping_repeats_follow_the_pattern_scan(self):
        # A bounded phrase resumes after its own match ("a a" is found
        # once in "a a a"); a CJK phrase may overlap itself.
        index = SchemaIndex(tables={}, column_types={}, value_index={
            "a a": [("t", "c")], "单单": [("t", "d")],
        })
        result = SchemaLinker(index, Lexicon()).link("a a a 单单单")
        assert result == reference_link(index, Lexicon(), "a a a 单单单")
        assert [(v.value, v.start) for v in result.values] == [
            ("a a", 0), ("单单", 6),
        ]

    def test_the_longer_surface_variant_claims_first(self):
        # Only visible where the shorter variant matches without word
        # boundaries: "客户" would otherwise claim the front of "客户s".
        index = SchemaIndex(tables={}, column_types={}, value_index={})
        for phrase, question in (("客户", "客户s 的"), ("客户s", "客户s")):
            lexicon = Lexicon()
            lexicon.add_synonym(phrase, "table", "customers")
            result = SchemaLinker(index, lexicon).link(question)
            assert result == reference_link(index, lexicon, question)
            assert [m.phrase for m in result.mentions] == ["客户s"]
