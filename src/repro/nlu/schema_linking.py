"""Schema linking: mapping question phrases to schema elements.

Two linkers cooperate:

- lexicon linking — table/column mentions through the vocabulary
  (schema identifiers for the zero-shot model, plus learned synonyms
  after fine-tuning);
- content linking — literal cell values found in the question resolve
  to ``(table, column, value)`` filter candidates, the classic
  database-content linking used by Text-to-SQL systems.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.datasources.base import DataSource, quote_identifier
from repro.nlu.lexicon import Lexicon, LexiconEntry


@dataclass
class SchemaIndex:
    """Everything the linker knows about one data source."""

    tables: dict[str, list[str]]  # table -> column names
    column_types: dict[tuple[str, str], str]  # (table, column) -> type
    value_index: dict[str, list[tuple[str, str]]]  # value -> [(table, col)]
    label_columns: dict[str, str] = field(default_factory=dict)
    #: lower-cased value -> its original database casing (SQL literals
    #: must preserve casing; matching is case-insensitive).
    value_originals: dict[str, str] = field(default_factory=dict)

    @classmethod
    def from_source(
        cls,
        source: DataSource,
        max_values_per_column: int = 200,
    ) -> "SchemaIndex":
        """Introspect a data source, sampling text-column values."""
        tables: dict[str, list[str]] = {}
        column_types: dict[tuple[str, str], str] = {}
        value_index: dict[str, list[tuple[str, str]]] = {}
        value_originals: dict[str, str] = {}
        label_columns: dict[str, str] = {}
        for info in source.tables():
            tables[info.name] = list(info.columns)
            for column, ctype in zip(info.columns, info.column_types):
                column_types[(info.name, column)] = ctype
                if ctype == "TEXT":
                    quoted = quote_identifier(column)
                    values = source.query(
                        f"SELECT DISTINCT {quoted} FROM "
                        f"{quote_identifier(info.name)} "
                        f"WHERE {quoted} IS NOT NULL "
                        f"LIMIT {max_values_per_column}"
                    ).column(column)
                    for value in values:
                        key = str(value).lower()
                        value_index.setdefault(key, []).append(
                            (info.name, column)
                        )
                        value_originals.setdefault(key, str(value))
            label_columns[info.name] = guess_label_column(
                info.columns, column_types, info.name
            )
        return cls(
            tables, column_types, value_index, label_columns,
            value_originals,
        )

    def numeric_columns(self, table: str) -> list[str]:
        return [
            column
            for column in self.tables.get(table, [])
            if self.column_types.get((table, column)) in ("INTEGER", "REAL")
            and not column.lower().endswith("_id")
            and column.lower() != "id"
        ]

    def base_lexicon(self) -> Lexicon:
        """The zero-shot vocabulary: schema identifiers only."""
        lexicon = Lexicon()
        for table, columns in self.tables.items():
            lexicon.add(LexiconEntry(table, "table", table))
            for column in columns:
                lexicon.add(
                    LexiconEntry(column, "column", column, table=table)
                )
        return lexicon


def guess_label_column(
    columns: list[str],
    column_types: dict[tuple[str, str], str],
    table: str,
) -> str:
    """The human-readable column of a table (for "list the X" answers)."""
    preferred = ("name", "title", "label")
    for column in columns:
        if column.lower() in preferred:
            return column
    for column in columns:
        lowered = column.lower()
        if any(lowered.endswith(f"_{p}") or lowered.startswith(p) for p in preferred):
            return column
    for column in columns:
        if column_types.get((table, column)) == "TEXT":
            return column
    return columns[0]


@dataclass
class Mention:
    """One linked phrase with its position in the question."""

    phrase: str
    start: int
    entry: LexiconEntry


@dataclass
class ValueMention:
    """One literal value found in the question."""

    value: str
    start: int
    candidates: list[tuple[str, str]]  # (table, column)


@dataclass
class LinkResult:
    mentions: list[Mention]
    values: list[ValueMention]

    def tables(self) -> list[str]:
        """Distinct tables mentioned, in question order."""
        seen: list[str] = []
        for mention in self.mentions:
            if mention.entry.kind == "table" and mention.entry.target not in seen:
                seen.append(mention.entry.target)
        return seen

    def columns(self) -> list[Mention]:
        return [m for m in self.mentions if m.entry.kind == "column"]


class SchemaLinker:
    """Greedy longest-phrase-first linking over a question string.

    The lexicon and the value index are compiled into a match plan —
    the surface forms in visiting order, each with what a match
    yields — once per lexicon version, not per question. ``index`` is
    read when the plan is compiled and must not change afterwards.
    """

    def __init__(self, index: SchemaIndex, lexicon: Lexicon) -> None:
        self.index = index
        self.lexicon = lexicon
        self._compiled: Optional[tuple[int, list, list]] = None

    def link(self, question: str) -> LinkResult:
        text = question.lower()
        phrases, values = self._plan()
        mentions = self._link_lexicon(text, phrases)
        return LinkResult(mentions, self._link_values(text, mentions, values))

    def _plan(self) -> tuple[list, list]:
        """``(phrase rows, value rows)``, recompiled after the lexicon
        mutates. Threads racing on a stale plan each compile the same
        rows; the last assignment wins."""
        compiled = self._compiled
        version = self.lexicon.version
        if compiled is None or compiled[0] != version:
            phrases = []
            for phrase in self.lexicon.phrases():
                entry = self.lexicon.lookup(phrase)[0]
                # Also try the singular/plural surface variant of each
                # phrase, the longer form first.
                if phrase.endswith("s"):
                    variants = (phrase, phrase[:-1])
                else:
                    variants = (phrase + "s", phrase)
                phrases.extend(
                    (v, _on_word_boundaries(v), entry) for v in variants if v
                )
            value_index = self.index.value_index
            values = [
                (value, _on_word_boundaries(value), value_index[value])
                for value in sorted(value_index, key=len, reverse=True)
                if value
            ]
            compiled = self._compiled = (version, phrases, values)
        return compiled[1], compiled[2]

    @staticmethod
    def _link_lexicon(text: str, phrases: list) -> list[Mention]:
        mentions: list[Mention] = []
        consumed = [False] * len(text)
        for variant, bounded, entry in phrases:
            if variant not in text:
                continue
            for start, end in _find_phrase(text, variant, bounded):
                if any(consumed[start:end]):
                    continue
                consumed[start:end] = [True] * (end - start)
                mentions.append(Mention(variant, start, entry))
        mentions.sort(key=lambda m: m.start)
        return mentions

    @staticmethod
    def _link_values(
        text: str, mentions: list[Mention], plan: list
    ) -> list[ValueMention]:
        taken = {
            (m.start, m.start + len(m.phrase)) for m in mentions
        }
        values: list[ValueMention] = []
        for value, bounded, candidates in plan:
            if value not in text:
                continue
            for start, end in _find_phrase(text, value, bounded):
                overlaps_mention = any(
                    start < t_end and end > t_start
                    for t_start, t_end in taken
                )
                if overlaps_mention:
                    continue
                already = any(
                    v.start < end and start < v.start + len(v.value)
                    for v in values
                )
                if already:
                    continue
                values.append(
                    ValueMention(
                        value=value,
                        start=start,
                        candidates=list(candidates),
                    )
                )
        values.sort(key=lambda v: v.start)
        return values


_WORD_CHARACTERS = frozenset("abcdefghijklmnopqrstuvwxyz0123456789")


def _on_word_boundaries(phrase: str) -> bool:
    """CJK phrases (no ASCII letters or digits) match as plain
    substrings since Chinese has no word delimiters; everything else
    only between word boundaries."""
    return not _WORD_CHARACTERS.isdisjoint(phrase)


def _find_phrase(
    text: str, phrase: str, bounded: bool
) -> list[tuple[int, int]]:
    """All occurrences of ``phrase`` in ``text``, scanning left to right.

    ``bounded`` occurrences have no ASCII letter or digit on either
    side and do not overlap each other — what the pattern
    ``(?<![a-z0-9])phrase(?![a-z0-9])`` finds, without compiling one
    per phrase; unbounded ones may overlap.
    """
    positions = []
    size = len(phrase)
    start = text.find(phrase)
    while start != -1:
        end = start + size
        if not bounded or (
            (start == 0 or text[start - 1] not in _WORD_CHARACTERS)
            and (end == len(text) or text[end] not in _WORD_CHARACTERS)
        ):
            positions.append((start, end))
            start = text.find(phrase, end if bounded else start + 1)
        else:
            start = text.find(phrase, start + 1)
    return positions
