"""Multi-Agents framework.

The paper's module-layer component for complex data interaction tasks
(generative data analysis): a planner agent decomposes the goal, chart
agents execute each analysis dimension, and an aggregator assembles the
report — with the *entire communication history archived in local
storage* (:class:`AgentMemory`), the reliability mechanism the paper
highlights against MetaGPT/AutoGen. Users custom-define agents, the
flexibility claim against LlamaIndex, by subclassing
:class:`ConversableAgent`.
"""

from repro.agents.actions import Action, ActionResult, ChartAction
from repro.agents.awel_integration import AgentOperator, compile_plan_dag
from repro.agents.base import AgentError, ConversableAgent
from repro.agents.forecast import ForecastAgent, SeasonalForecaster
from repro.agents.data_agents import AggregatorAgent, ChartAgent
from repro.agents.memory import AgentMemory
from repro.agents.messages import AgentMessage
from repro.agents.planner import Plan, PlannerAgent, PlanStep
from repro.agents.team import (
    AnalysisReport,
    DataAnalysisTeam,
    new_conversation_id,
)

__all__ = [
    "Action",
    "ActionResult",
    "AgentError",
    "AgentMemory",
    "AgentMessage",
    "AgentOperator",
    "ForecastAgent",
    "SeasonalForecaster",
    "compile_plan_dag",
    "new_conversation_id",
    "AggregatorAgent",
    "AnalysisReport",
    "ChartAction",
    "ChartAgent",
    "ConversableAgent",
    "DataAnalysisTeam",
    "Plan",
    "PlanStep",
    "PlannerAgent",
]
