"""Agent base classes."""

from __future__ import annotations

import abc
import asyncio
from typing import Any, Optional

from repro.agents.memory import AgentMemory
from repro.agents.messages import AgentMessage


class AgentError(Exception):
    """An agent could not complete its task."""


class Agent(abc.ABC):
    """An autonomous participant in the multi-agent conversation."""

    def __init__(self, name: str, profile: str) -> None:
        self.name = name
        self.profile = profile

    @abc.abstractmethod
    def generate_reply(self, message: AgentMessage) -> AgentMessage:
        """Produce a reply to ``message`` (already archived by send)."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(name={self.name!r})"


class ConversableAgent(Agent):
    """An agent wired into shared memory and (optionally) SMMF.

    ``send`` archives the outbound message, delivers it, archives the
    reply and returns it — the communication history is therefore
    complete by construction.
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
        super().__init__(name, profile)
        self.memory = memory
        self.llm_client = llm_client
        self.model = model
        self.use_recall = use_recall

    # -- messaging ---------------------------------------------------------

    def send(
        self,
        recipient: "ConversableAgent",
        content: str,
        conversation_id: str = "default",
        round: int = 0,
        metadata: Optional[dict[str, Any]] = None,
    ) -> AgentMessage:
        message = AgentMessage(
            sender=self.name,
            recipient=recipient.name,
            content=content,
            conversation_id=conversation_id,
            round=round,
            metadata=dict(metadata or {}),
        )
        self.memory.append(message)
        reply = recipient.receive(message)
        self.memory.append(reply)
        return reply

    def _recalled(self, message: AgentMessage) -> Optional[AgentMessage]:
        """The archived answer to a similar earlier request, re-addressed
        as the reply to ``message`` — or ``None`` (recall disabled or no
        match), in which case the caller generates a fresh reply."""
        if not self.use_recall:
            return None
        recalled = self.memory.recall_similar(
            message.content, sender=self.name
        )
        if recalled is None:
            return None
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

    def receive(self, message: AgentMessage) -> AgentMessage:
        """Handle an inbound message, consulting the archive first."""
        return self._recalled(message) or self.generate_reply(message)

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

    async def areceive(self, message: AgentMessage) -> AgentMessage:
        """Async :meth:`receive`: the recall check runs inline (fast,
        lock-guarded memory scan) and :meth:`generate_reply` runs off
        the loop (``asyncio.to_thread`` carries the caller's context so
        spans stay parented), so concurrent agent branches never block
        the event loop — their LLM calls land in the serving scheduler
        together and coalesce into shared batches."""
        return self._recalled(message) or await asyncio.to_thread(
            self.generate_reply, message
        )

    # -- LLM access --------------------------------------------------------

    def _bound_llm(self, task: Optional[str]) -> Any:
        if self.llm_client is None or self.model is None:
            raise AgentError(
                f"agent {self.name!r} has no LLM binding for task {task!r}"
            )
        return self.llm_client

    def ask_llm(self, prompt: str, task: Optional[str] = None) -> str:
        return self._bound_llm(task).generate(self.model, prompt, task=task)

    async def aask_llm(self, prompt: str, task: Optional[str] = None) -> str:
        """Async :meth:`ask_llm`, routed through the serving engine.

        With the continuous-batching scheduler mounted the call goes
        through its ``aschedule`` path end-to-end (no thread parked per
        agent); a client without ``agenerate`` has its blocking round
        trip run off the loop. Either way concurrent agents submit
        together and share batches.
        """
        client = self._bound_llm(task)
        agenerate = getattr(client, "agenerate", None)
        if agenerate is not None:
            return await agenerate(self.model, prompt, task=task)
        return await asyncio.to_thread(
            client.generate, self.model, prompt, task=task
        )
