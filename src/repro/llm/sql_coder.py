"""The simulated Text-to-SQL model ("sql-coder").

Reconstructs a :class:`SchemaIndex` from the schema and value sections
of the prompt, then runs the grammar-driven parser. The model's
*lexicon* plays the role of its weights: the zero-shot model ships with
schema identifiers only; :mod:`repro.hub` fine-tuning produces a model
whose lexicon carries learned domain synonyms.

What a prompt holds before its question line — the schema and "Known
column values" every question over one database repeats — is this
model's KV state: a replica compiles it once into its prefix store
(automatic prefix caching), so a generation costs only the question.
"""

from __future__ import annotations

import threading
from functools import partial
from typing import Optional

from repro.cache.store import CacheStore
from repro.llm.base import (
    GenerationRequest,
    LanguageModel,
    LLMError,
    count_tokens,
    deduplicated_batch,
)
from repro.llm.prompts import (
    QUESTION_HEADER,
    parse_prompt_sections,
    parse_schema_text,
    parse_values_text,
)
from repro.nlu.lexicon import Lexicon
from repro.nlu.schema_linking import SchemaIndex, guess_label_column
from repro.nlu.text2sql import Text2SqlError, Text2SqlParser
from repro.obs.metrics import get_registry

#: Entries a replica's prefix store keeps: a parser and a token count
#: per live prefix. A replica serves a handful of schemas (a repair
#: prompt, its feedback in the values section, is a one-off). Not a
#: setting: past the live prefixes, more room only keeps dead ones.
PREFIX_STORE_CAPACITY = 32

#: Where the shared prefix ends. A newline is never inside a token, so
#: token counts on either side of it add up to the prompt's.
_QUESTION_LINE = "\n" + QUESTION_HEADER


class SqlCoderModel(LanguageModel):
    """Prompt -> SQL text. Capabilities: ``text2sql``."""

    def __init__(
        self,
        name: str = "sql-coder",
        lexicon: Optional[Lexicon] = None,
        languages: tuple[str, ...] = ("en", "zh"),
    ) -> None:
        super().__init__(name, frozenset({"text2sql"}))
        #: Learned synonyms merged into every schema's base lexicon.
        self.lexicon = lexicon or Lexicon()
        #: Languages the model understands; English-centric hosted
        #: models are simulated with ``languages=("en",)``.
        self.languages = languages
        registry = get_registry()
        lookups = registry.counter(
            "llm_prefix_cache_total",
            "prefix store lookups, one per distinct prefix of a fused step",
        )
        self._count_hits = lookups.bind(model=name, outcome="hit")
        self._count_misses = lookups.bind(model=name, outcome="miss")
        evicted = registry.counter(
            "llm_prefix_evictions_total",
            "entries pushed out of a replica's full prefix store",
        ).bind(model=name)
        self._prefixes = CacheStore(
            PREFIX_STORE_CAPACITY,
            on_evict=lambda _key, _reason: evicted(),
        )
        #: ``parsers`` while this thread runs a fused step: what the
        #: step has resolved so far, ``key -> (parser, store hit)``.
        self._step = threading.local()

    def generate_batch(self, requests):
        """Vectorized batch: identical prompts run the parser once, and
        each distinct prefix is looked up (on a cold or thrashing
        store: compiled) once for all the members that share it."""
        step = self._step.parsers = {}
        try:
            return deduplicated_batch(self, requests)
        finally:
            del self._step.parsers
            hits = sum(hit for _parser, hit in step.values())
            self._count_lookups(hits, len(step) - hits)

    def cached_prefixes(self) -> int:
        return len(self._prefixes)

    def drop_prefixes(self) -> None:
        self._prefixes.clear()

    def count_prompt_tokens(self, prompt: str) -> int:
        cut = prompt.find(_QUESTION_LINE)
        if cut == -1:
            return count_tokens(prompt)
        prefix = prompt[:cut]
        tokens, _hit = self._prefixes.get_or_compute(
            ("tokens", prefix), partial(count_tokens, prefix)
        )
        return tokens + count_tokens(prompt[cut:])

    def complete(self, request: GenerationRequest) -> str:
        from repro.nlu.multilingual import detect_language

        sections = parse_prompt_sections(request.prompt)
        schema_text = sections.get("schema")
        question = sections.get("question")
        if not schema_text or not question:
            raise LLMError(
                f"{self.name}: prompt lacks a schema or question section"
            )
        language = detect_language(question)
        if language not in self.languages:
            raise LLMError(
                f"{self.name}: language {language!r} is not supported "
                f"(supported: {list(self.languages)})"
            )
        parser = self._parser(schema_text, sections.get("values", ""))
        try:
            result = parser.parse(question)
        except Text2SqlError as exc:
            raise LLMError(f"{self.name}: {exc}") from exc
        return result.sql

    def _parser(self, schema_text: str, values_text: str) -> Text2SqlParser:
        """The parser compiled for this prefix under the lexicon as it
        stands; a mutated or replaced lexicon is a different key."""
        key = (
            "parser", schema_text, values_text,
            self.lexicon, self.lexicon.version,
        )
        step = getattr(self._step, "parsers", None)
        resolved = step.get(key) if step is not None else None
        if resolved is None:
            resolved = self._prefixes.get_or_compute(
                key, partial(self._compile, schema_text, values_text)
            )
            if step is not None:
                step[key] = resolved
            else:
                # A lone ``generate`` is a fused step of one.
                self._count_lookups(resolved[1], not resolved[1])
        return resolved[0]

    def _count_lookups(self, hits: int, misses: int) -> None:
        if hits:
            self._count_hits(hits)
        if misses:
            self._count_misses(misses)

    def _compile(self, schema_text: str, values_text: str) -> Text2SqlParser:
        index = self._build_index(schema_text, values_text)
        lexicon = index.base_lexicon()
        lexicon.merge(self.lexicon)
        return Text2SqlParser(index, lexicon)

    @staticmethod
    def _build_index(schema_text: str, values_text: str) -> SchemaIndex:
        parsed = parse_schema_text(schema_text)
        if not parsed:
            raise LLMError("schema section could not be parsed")
        tables = {
            table: [name for name, _ctype in columns]
            for table, columns in parsed.items()
        }
        column_types = {
            (table, name): ctype
            for table, columns in parsed.items()
            for name, ctype in columns
        }
        label_columns = {
            table: guess_label_column(
                tables[table], column_types, table
            )
            for table in tables
        }
        value_index, value_originals = parse_values_text(values_text)
        return SchemaIndex(
            tables=tables,
            column_types=column_types,
            value_index=value_index,
            label_columns=label_columns,
            value_originals=value_originals,
        )
