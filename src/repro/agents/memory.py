"""The local communication archive.

The paper: "DB-GPT's Multi-Agent framework archives the entire
communication history among its agents within a local storage system,
thereby significantly enhancing the reliability of the generated
content." Every message passes through here; the archive persists to a
JSON file and is queryable by conversation, agent and keyword — the
consistency benchmark (P6) replays answers from it.

The archive is **thread-safe**: concurrent agent teams share one
memory, so every mutation and every read runs under one lock. Reads
return snapshots (fresh lists) so callers can iterate while other
teams keep appending, and ``_persist_locked`` serializes the message
list to disk while still holding the lock — a stale payload can never
overwrite a newer one (the lost-update race the unlocked version had
under concurrent appends).
"""

from __future__ import annotations

import json
import pathlib
import threading
from typing import Optional

from repro.agents.messages import AgentMessage
from repro.fileio import write_text_atomic


class AgentMemory:
    """Append-only message archive with optional file persistence."""

    def __init__(self, path: Optional[pathlib.Path | str] = None) -> None:
        self._lock = threading.RLock()
        self._messages: list[AgentMessage] = []
        self._path = pathlib.Path(path) if path is not None else None
        if self._path is not None and self._path.exists():
            with self._lock:
                self._load_locked()

    def __len__(self) -> int:
        with self._lock:
            return len(self._messages)

    def append(self, message: AgentMessage) -> None:
        with self._lock:
            self._messages.append(message)
            if self._path is not None:
                self._persist_locked()

    def snapshot(self) -> list[AgentMessage]:
        """A point-in-time copy of the full archive."""
        with self._lock:
            return list(self._messages)

    def conversation(self, conversation_id: str) -> list[AgentMessage]:
        with self._lock:
            return [
                m for m in self._messages
                if m.conversation_id == conversation_id
            ]

    def by_agent(self, name: str) -> list[AgentMessage]:
        with self._lock:
            return [
                m for m in self._messages
                if m.sender == name or m.recipient == name
            ]

    def search(self, keyword: str) -> list[AgentMessage]:
        lowered = keyword.lower()
        with self._lock:
            return [
                m for m in self._messages if lowered in m.content.lower()
            ]

    def last_answer(
        self, conversation_id: str, sender: Optional[str] = None
    ) -> Optional[AgentMessage]:
        """Most recent message in a conversation (optionally by sender)."""
        for message in reversed(self.conversation(conversation_id)):
            if sender is None or message.sender == sender:
                return message
        return None

    def recall_similar(
        self, content: str, sender: Optional[str] = None
    ) -> Optional[AgentMessage]:
        """Find an archived answer to an (almost) identical request.

        This is the reliability mechanism: before re-deriving an
        answer, agents check whether the same question was already
        answered this session and reuse the archived result.
        """
        normalized = _normalize(content)
        for message in reversed(self.snapshot()):
            if sender is not None and message.sender != sender:
                continue
            if _normalize(message.metadata.get("request", "")) == normalized:
                return message
        return None

    def conversation_ids(self) -> list[str]:
        seen: list[str] = []
        for message in self.snapshot():
            if message.conversation_id not in seen:
                seen.append(message.conversation_id)
        return seen

    def clear(self) -> None:
        with self._lock:
            self._messages.clear()
            if self._path is not None:
                self._persist_locked()

    # -- persistence -------------------------------------------------------

    def _persist_locked(self) -> None:
        payload = [m.to_dict() for m in self._messages]
        write_text_atomic(self._path, json.dumps(payload, ensure_ascii=False))

    def _load_locked(self) -> None:
        payload = json.loads(self._path.read_text(encoding="utf-8"))
        self._messages = [AgentMessage.from_dict(item) for item in payload]


def _normalize(text: str) -> str:
    return " ".join(str(text).lower().split())
