"""The agent base class."""

from __future__ import annotations

from typing import Any, Optional

from repro.agents.memory import AgentMemory
from repro.agents.messages import AgentMessage


class AgentError(Exception):
    """An agent could not complete its task."""


class ConversableAgent:
    """An autonomous participant in the multi-agent conversation, wired
    into shared memory and (optionally) SMMF.

    Subclasses implement :meth:`generate_reply`. :meth:`exchange`
    archives the request, delivers it, archives the reply and returns
    it — the communication history is therefore complete by
    construction.
    """

    def __init__(
        self,
        name: str,
        profile: str,
        memory: AgentMemory,
        llm_client: Any = None,
        model: Optional[str] = None,
        use_recall: bool = True,
    ) -> None:
        self.name = name
        self.profile = profile
        self.memory = memory
        self.llm_client = llm_client
        self.model = model
        self.use_recall = use_recall

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(name={self.name!r})"

    async def generate_reply(self, message: AgentMessage) -> AgentMessage:
        """Produce a fresh reply to ``message`` (already archived)."""
        raise NotImplementedError

    # -- messaging ---------------------------------------------------------

    async def exchange(
        self,
        content: str,
        *,
        conversation_id: str = "default",
        round: int = 0,
        metadata: Optional[dict[str, Any]] = None,
    ) -> AgentMessage:
        """One archived exchange: archive the user's request,
        :meth:`receive` it, archive the reply and return it."""
        message = AgentMessage(
            sender="user",
            recipient=self.name,
            content=content,
            conversation_id=conversation_id,
            round=round,
            metadata=dict(metadata or {}),
        )
        self.memory.append(message)
        reply = await self.receive(message)
        self.memory.append(reply)
        return reply

    async def receive(self, message: AgentMessage) -> AgentMessage:
        """Handle an inbound message: the archived answer to a similar
        earlier request, re-addressed as the reply to ``message``, or a
        freshly generated reply (recall disabled or no match)."""
        recalled = (
            self.memory.recall_similar(message.content, sender=self.name)
            if self.use_recall
            else None
        )
        if recalled is None:
            return await self.generate_reply(message)
        return AgentMessage(
            sender=self.name,
            recipient=message.sender,
            content=recalled.content,
            conversation_id=message.conversation_id,
            round=message.round,
            metadata={
                **recalled.metadata,
                "recalled_from": recalled.message_id,
                "request": message.content,
            },
        )

    def reply_to(
        self,
        message: AgentMessage,
        content: str,
        metadata: Optional[dict[str, Any]] = None,
    ) -> AgentMessage:
        merged = dict(metadata or {})
        merged.setdefault("request", message.content)
        return AgentMessage(
            sender=self.name,
            recipient=message.sender,
            content=content,
            conversation_id=message.conversation_id,
            round=message.round,
            metadata=merged,
        )

    # -- LLM access --------------------------------------------------------

    async def ask_llm(self, prompt: str, task: Optional[str] = None) -> str:
        """The bound model's completion, through the client's async
        path: concurrent agents submit to the serving engine together
        and share batches."""
        if self.llm_client is None or self.model is None:
            raise AgentError(
                f"agent {self.name!r} has no LLM binding for task {task!r}"
            )
        return await self.llm_client.agenerate(self.model, prompt, task=task)
