"""Adapters: attachable lexicon deltas (the LoRA analogue).

A :class:`LexiconAdapter` is a named set of learned synonyms that can
be attached to a base :class:`SqlCoderModel` without copying it —
multiple domain adapters can be managed and swapped, mirroring how
DB-GPT-Hub users keep per-domain fine-tunes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.fileio import write_text_atomic
from repro.llm.sql_coder import SqlCoderModel
from repro.nlu.lexicon import Lexicon, LexiconEntry


@dataclass
class LexiconAdapter:
    """A named learned-synonym delta."""

    name: str
    lexicon: Lexicon = field(default_factory=Lexicon)

    def __len__(self) -> int:
        return len(self.lexicon)

    # -- serialization (share/reload fine-tunes like weight files) -----

    def save(self, path) -> None:
        import json

        entries = []
        for phrase in self.lexicon.phrases():
            for entry in self.lexicon.lookup(phrase):
                entries.append(
                    {
                        "phrase": entry.phrase,
                        "kind": entry.kind,
                        "target": entry.target,
                        "table": entry.table,
                        "weight": entry.weight,
                    }
                )
        write_text_atomic(
            path,
            json.dumps({"name": self.name, "entries": entries},
                       ensure_ascii=False),
        )

    @classmethod
    def load(cls, path) -> "LexiconAdapter":
        import json
        import pathlib

        payload = json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
        lexicon = Lexicon.from_entries(
            LexiconEntry(
                phrase=item["phrase"],
                kind=item["kind"],
                target=item["target"],
                table=item.get("table"),
                weight=item.get("weight", 1.0),
            )
            for item in payload["entries"]
        )
        return cls(name=payload["name"], lexicon=lexicon)

    def apply_to(
        self, base: SqlCoderModel, model_name: str | None = None
    ) -> SqlCoderModel:
        """Build a tuned model = base lexicon + this adapter."""
        merged = base.lexicon.copy()
        merged.merge(self.lexicon)
        return SqlCoderModel(
            name=model_name or f"{base.name}+{self.name}",
            lexicon=merged,
        )

