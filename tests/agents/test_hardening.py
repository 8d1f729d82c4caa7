"""Regression tests for the agents-layer hardening fixes.

Each test here fails on the pre-fix code:

- conversation ids came from a module-level ``itertools.count(1)``, so
  a restarted process replaying a persisted archive reused the exact
  same ids and interleaved unrelated conversations;
- ``AgentMemory`` had no lock, so two concurrently appending teams
  could persist a stale snapshot over a newer one (lost update);
- ``PlannerAgent.generate_reply`` serialized steps via
  ``step.__dict__``, aliasing the mutable ``params`` dicts into the
  archived message metadata.
"""

import asyncio
import copy
import importlib
import json
import threading

import pytest

from repro.agents import (
    AgentMemory,
    AgentMessage,
    DataAnalysisTeam,
    Plan,
    PlannerAgent,
    PlanStep,
)
from repro.datasets import build_sales_database
from repro.datasources import EngineSource
from repro.llm import ChatModel, PlannerModel, SqlCoderModel
from repro.smmf import ModelSpec, deploy

GOAL = "sales report from three dimensions"


@pytest.fixture(scope="module")
def client():
    _controller, client = deploy(
        [
            ModelSpec("sql-coder", lambda: SqlCoderModel("sql-coder")),
            ModelSpec("planner", lambda: PlannerModel("planner")),
            ModelSpec("chat", lambda: ChatModel("chat")),
        ]
    )
    return client


@pytest.fixture
def source():
    return EngineSource(build_sales_database(n_orders=120))


class TestConversationIds:
    def test_two_teams_in_one_process_never_collide(self, client, source):
        memory = AgentMemory()
        team_a = DataAnalysisTeam(source, client, memory=memory)
        team_b = DataAnalysisTeam(source, client, memory=memory)
        ids = {
            team_a.run(GOAL).conversation_id,
            team_b.run(GOAL).conversation_id,
            team_a.run(GOAL).conversation_id,
        }
        assert len(ids) == 3

    def test_restarted_process_never_collides(self, client, tmp_path):
        """A new process over a persisted archive must mint fresh ids.

        The restart is simulated by reloading the team module, which
        re-runs its module-level id state exactly like a fresh
        interpreter would; under the old ``itertools.count(1)`` both
        "processes" started at ``analysis-1``.
        """
        import repro.agents.team as team_module

        archive = tmp_path / "archive.json"
        memory = AgentMemory(archive)
        first_process_ids = {
            team_module.new_conversation_id() for _ in range(5)
        }
        for conversation_id in first_process_ids:
            memory.append(
                AgentMessage(
                    sender="planner",
                    recipient="user",
                    content="archived",
                    conversation_id=conversation_id,
                )
            )

        reloaded = importlib.reload(team_module)
        restored = AgentMemory(archive)
        second_process_ids = {
            reloaded.new_conversation_id() for _ in range(5)
        }
        assert not (
            second_process_ids & set(restored.conversation_ids())
        )
        assert not (second_process_ids & first_process_ids)

    def test_injected_rng_pins_the_sequence(self):
        import random

        from repro.agents.team import new_conversation_id

        a = new_conversation_id(random.Random(7))
        b = new_conversation_id(random.Random(7))
        assert a == b
        assert a.startswith("analysis-")


class TestMemoryThreadSafety:
    def message(self, content):
        return AgentMessage(
            sender="a", recipient="b", content=content, conversation_id="c"
        )

    def test_concurrent_persist_loses_no_update(self, tmp_path, monkeypatch):
        """Two concurrent appends must both reach the archive file.

        The schedule forces the pre-fix lost-update interleaving:
        thread A serializes its one-message snapshot, then stalls in
        ``json.dumps``; thread B appends a second message and persists
        both; A then resumes and (pre-fix) overwrites the file with its
        stale single-message payload. With the lock, B cannot enter
        ``append`` until A's persist finished, so the final file always
        holds both messages.
        """
        import repro.agents.memory as memory_module

        path = tmp_path / "archive.json"
        memory = AgentMemory(path)
        entered = threading.Event()
        release = threading.Event()
        real_dumps = json.dumps

        def gated_dumps(payload, **kwargs):
            if (
                isinstance(payload, list)
                and len(payload) == 1
                and not release.is_set()
            ):
                entered.set()
                release.wait(timeout=2.0)
            return real_dumps(payload, **kwargs)

        monkeypatch.setattr(memory_module.json, "dumps", gated_dumps)

        writer_a = threading.Thread(
            target=memory.append, args=(self.message("first"),)
        )
        writer_a.start()
        assert entered.wait(timeout=2.0)
        writer_b = threading.Thread(
            target=memory.append, args=(self.message("second"),)
        )
        writer_b.start()
        writer_b.join(timeout=0.2)  # pre-fix: B completes unblocked
        release.set()
        writer_a.join(timeout=2.0)
        writer_b.join(timeout=2.0)
        assert not writer_a.is_alive() and not writer_b.is_alive()

        assert len(memory) == 2
        persisted = json.loads(path.read_text())
        assert len(persisted) == 2, (
            "a stale snapshot overwrote the newer archive (lost update)"
        )

    def test_snapshot_is_isolated_from_later_appends(self):
        memory = AgentMemory()
        memory.append(self.message("one"))
        snapshot = memory.snapshot()
        memory.append(self.message("two"))
        assert len(snapshot) == 1
        assert len(memory) == 2

    def test_concurrent_appends_all_archived(self):
        memory = AgentMemory()
        threads = [
            threading.Thread(
                target=lambda i=i: memory.append(self.message(f"m{i}"))
            )
            for i in range(32)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(memory) == 32


class TestPlannerSerializationAliasing:
    def test_post_hoc_step_mutation_cannot_corrupt_archive(self, client):
        """The archived plan must be a deep copy of the live steps."""
        planner = PlannerAgent(AgentMemory(), client)
        plan = Plan(
            goal="g",
            steps=[
                PlanStep(
                    step=1,
                    action="chart",
                    description="by category",
                    params={"dimension": "category", "chart_type": "donut"},
                )
            ],
        )
        async def make_plan(goal):
            return plan

        planner.make_plan = make_plan
        message = AgentMessage(
            sender="user", recipient="planner", content="g"
        )
        reply = asyncio.run(planner.generate_reply(message))
        archived = copy.deepcopy(reply.metadata["plan"])

        plan.steps[0].params["dimension"] = "corrupted"
        plan.steps[0].params.clear()

        assert reply.metadata["plan"] == archived
        assert (
            reply.metadata["plan"][0]["params"]["dimension"] == "category"
        )

    def test_report_plan_mutation_cannot_corrupt_archive(
        self, client, source
    ):
        """The live ``report.plan`` must not alias archived metadata."""
        team = DataAnalysisTeam(source, client)
        report = team.run(GOAL)
        archived = team.memory.conversation(report.conversation_id)
        planner_reply = next(
            m for m in archived if m.sender == "planner"
        )
        before = copy.deepcopy(planner_reply.metadata["plan"])

        for step in report.plan.steps:
            step.params["dimension"] = "corrupted"

        assert planner_reply.metadata["plan"] == before
