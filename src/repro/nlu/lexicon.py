"""Phrase -> schema-element vocabulary with longest-match lookup."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional


@dataclass(frozen=True)
class LexiconEntry:
    """One vocabulary item.

    ``kind`` is ``'table'`` or ``'column'``; ``target`` is the schema
    identifier; columns carry their owning ``table`` when known.
    """

    phrase: str
    kind: str
    target: str
    table: Optional[str] = None
    weight: float = 1.0


class Lexicon:
    """Multi-phrase vocabulary supporting plural folding and merging.

    Phrases are stored lower-cased. ``lookup`` also tries the singular
    form (trailing ``s`` stripped) so "customers" finds "customer".
    """

    def __init__(self) -> None:
        self._entries: dict[str, list[LexiconEntry]] = {}
        #: Bumped by every ``add`` (``add_synonym`` and ``merge`` go
        #: through it); whatever was compiled from this vocabulary —
        #: a linker's match plan, a model's prefix store — keys on it.
        self.version = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, phrase: str) -> bool:
        return self._normalize(phrase) in self._entries

    @staticmethod
    def _normalize(phrase: str) -> str:
        return phrase.strip().lower().replace("_", " ")

    def add(self, entry: LexiconEntry) -> None:
        phrase = self._normalize(entry.phrase)
        if not phrase:
            raise ValueError("empty lexicon phrase")
        self.version += 1
        bucket = self._entries.setdefault(phrase, [])
        # Keep the highest-weight entry per (kind, target, table).
        for index, existing in enumerate(bucket):
            same = (
                existing.kind == entry.kind
                and existing.target == entry.target
                and existing.table == entry.table
            )
            if same:
                if entry.weight > existing.weight:
                    bucket[index] = entry
                return
        bucket.append(entry)

    def add_synonym(
        self,
        phrase: str,
        kind: str,
        target: str,
        table: Optional[str] = None,
        weight: float = 1.0,
    ) -> None:
        self.add(LexiconEntry(phrase, kind, target, table, weight))

    def lookup(self, phrase: str) -> list[LexiconEntry]:
        """All entries for ``phrase`` (or its singular), best first."""
        normalized = self._normalize(phrase)
        found = self._entries.get(normalized)
        if not found and normalized.endswith("s"):
            found = self._entries.get(normalized[:-1])
        if not found and not normalized.endswith("s"):
            found = self._entries.get(normalized + "s")
        if not found:
            return []
        return sorted(found, key=lambda e: -e.weight)

    def phrases(self) -> list[str]:
        """All phrases, longest first (for greedy matching)."""
        return sorted(self._entries, key=lambda p: (-len(p), p))

    def merge(self, other: "Lexicon") -> None:
        """Add every entry of ``other`` into this lexicon."""
        for entries in other._entries.values():
            for entry in entries:
                self.add(entry)

    def copy(self) -> "Lexicon":
        clone = Lexicon()
        clone.merge(self)
        return clone

    @classmethod
    def from_entries(cls, entries: Iterable[LexiconEntry]) -> "Lexicon":
        lexicon = cls()
        for entry in entries:
            lexicon.add(entry)
        return lexicon
