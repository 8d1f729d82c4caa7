"""The planner agent: goal -> structured plan via the planner model."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Any, Optional

from repro.agents.base import AgentError, ConversableAgent
from repro.agents.messages import AgentMessage
from repro.llm.prompts import build_plan_prompt


@dataclass
class PlanStep:
    step: int
    action: str  # 'chart' | 'aggregate' | custom
    description: str = ""
    params: dict[str, Any] = field(default_factory=dict)


@dataclass
class Plan:
    goal: str
    steps: list[PlanStep]

    @property
    def chart_steps(self) -> list[PlanStep]:
        return [s for s in self.steps if s.action == "chart"]

    def describe(self) -> str:
        lines = [f"Plan for: {self.goal}"]
        for step in self.steps:
            lines.append(f"  {step.step}. [{step.action}] {step.description}")
        return "\n".join(lines)


class PlannerAgent(ConversableAgent):
    """Devises the multi-step strategy (Figure 3, area 3)."""

    def __init__(self, memory, llm_client, model: str = "planner",
                 schema: Optional[str] = None) -> None:
        super().__init__(
            name="planner",
            profile=(
                "Decomposes a data-analysis goal into chart-generation "
                "steps plus a final aggregation step."
            ),
            memory=memory,
            llm_client=llm_client,
            model=model,
        )
        self.schema = schema

    async def generate_reply(self, message: AgentMessage) -> AgentMessage:
        plan = await self.make_plan(message.content)
        # asdict deep-copies the nested params dict: the archived
        # message must not alias the live PlanStep objects, or post-hoc
        # step mutation would silently rewrite the communication history.
        return self.reply_to(
            message,
            plan.describe(),
            metadata={"plan": [asdict(step) for step in plan.steps]},
        )

    async def make_plan(self, goal: str) -> Plan:
        prompt = build_plan_prompt(goal, schema=self.schema)
        raw = await self.ask_llm(prompt, task="plan")
        try:
            items = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise AgentError(
                f"planner model returned invalid JSON: {raw[:80]!r}"
            ) from exc
        steps = []
        for item in items:
            params = {
                key: value
                for key, value in item.items()
                if key not in ("step", "action", "description")
            }
            steps.append(
                PlanStep(
                    step=int(item["step"]),
                    action=str(item["action"]),
                    description=str(item.get("description", "")),
                    params=params,
                )
            )
        if not steps:
            raise AgentError(f"planner produced an empty plan for {goal!r}")
        return Plan(goal=goal, steps=steps)
