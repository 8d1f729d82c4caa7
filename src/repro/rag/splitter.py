"""Text segmentation strategies (paper: "contents in each data source
are segmented into paragraphs")."""

from __future__ import annotations

import abc
import re

from repro.rag.document import Chunk, Document


class Splitter(abc.ABC):
    """Split documents into chunks."""

    @abc.abstractmethod
    def split(self, document: Document) -> list[Chunk]:
        """Return the chunks of ``document`` in order."""

    @staticmethod
    def _make_chunks(document: Document, pieces: list[str]) -> list[Chunk]:
        chunks = []
        for position, piece in enumerate(pieces):
            text = piece.strip()
            if not text:
                continue
            chunks.append(
                Chunk(
                    chunk_id=f"{document.doc_id}#{position}",
                    doc_id=document.doc_id,
                    text=text,
                    position=position,
                    metadata=dict(document.metadata),
                )
            )
        return chunks


class ParagraphSplitter(Splitter):
    """Split on blank lines; merge short paragraphs up to ``min_chars``."""

    def __init__(self, min_chars: int = 0) -> None:
        if min_chars < 0:
            raise ValueError("min_chars must be >= 0")
        self.min_chars = min_chars

    def split(self, document: Document) -> list[Chunk]:
        raw = re.split(r"\n\s*\n", document.text)
        merged: list[str] = []
        buffer = ""
        for paragraph in raw:
            paragraph = paragraph.strip()
            if not paragraph:
                continue
            buffer = f"{buffer}\n\n{paragraph}" if buffer else paragraph
            if len(buffer) >= self.min_chars:
                merged.append(buffer)
                buffer = ""
        if buffer:
            merged.append(buffer)
        return self._make_chunks(document, merged)


class SentenceSplitter(Splitter):
    """Pack whole sentences into chunks of at most ``max_chars``."""

    _SENTENCE_END = re.compile(r"(?<=[.!?。？！])\s+")

    def __init__(self, max_chars: int = 400) -> None:
        if max_chars <= 0:
            raise ValueError("max_chars must be positive")
        self.max_chars = max_chars

    def split(self, document: Document) -> list[Chunk]:
        sentences = self._SENTENCE_END.split(document.text)
        pieces: list[str] = []
        buffer = ""
        for sentence in sentences:
            sentence = sentence.strip()
            if not sentence:
                continue
            candidate = f"{buffer} {sentence}".strip()
            if buffer and len(candidate) > self.max_chars:
                pieces.append(buffer)
                buffer = sentence
            else:
                buffer = candidate
        if buffer:
            pieces.append(buffer)
        return self._make_chunks(document, pieces)


class FixedSizeSplitter(Splitter):
    """Fixed-width character windows with overlap."""

    def __init__(self, size: int = 300, overlap: int = 50) -> None:
        if size <= 0:
            raise ValueError("size must be positive")
        if not 0 <= overlap < size:
            raise ValueError("overlap must satisfy 0 <= overlap < size")
        self.size = size
        self.overlap = overlap

    def split(self, document: Document) -> list[Chunk]:
        text = document.text
        step = self.size - self.overlap
        pieces = [
            text[start : start + self.size]
            for start in range(0, max(len(text), 1), step)
        ]
        # Drop trailing windows fully contained in the previous one.
        pieces = [p for p in pieces if p.strip()]
        return self._make_chunks(document, pieces)
