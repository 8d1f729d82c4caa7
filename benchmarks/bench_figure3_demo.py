"""Experiment F3 — the Figure 3 generative data analysis demonstration.

Runs the exact demo command through the multi-agent framework and
verifies every numbered area of the walkthrough: the four-step plan
(area 3), the three dimension charts with the paper's chart types
(area 4), the aggregated report (area 5), in-place chart-type
alteration (area 6) and conversation continuation (area 7). The chart
numbers are cross-checked against direct SQL ground truth.
"""

import pytest

from repro.viz import ChartType

GOAL = (
    "Build sales reports and analyze user orders from at least three "
    "distinct dimensions"
)


@pytest.fixture(scope="module")
def report(sales_dbgpt):
    app = sales_dbgpt.app("data_analysis")
    response = app.chat(GOAL)
    assert response.ok, response.metadata
    return response.payload


def test_figure3_plan_has_four_steps(report):
    print("\n=== Figure 3, area 3: the plan ===")
    print(report.plan.describe())
    assert len(report.plan.steps) == 4
    assert len(report.plan.chart_steps) == 3
    assert report.plan.steps[-1].action == "aggregate"


def test_figure3_three_charts_with_paper_types(report):
    charts = {c.chart_type: c for c in report.dashboard.charts}
    print("\n=== Figure 3, area 4: the charts ===")
    for chart in report.dashboard.charts:
        print(
            f"  {chart.title}: {chart.chart_type.value}, "
            f"{len(chart.points)} points, total {chart.total:,.0f}"
        )
    # Donut for category share, bar for users, area for monthly trend.
    assert set(charts) == {ChartType.DONUT, ChartType.BAR, ChartType.AREA}
    assert len(charts[ChartType.DONUT].points) == 5   # 5 categories
    assert len(charts[ChartType.AREA].points) == 12   # 12 months


def test_figure3_chart_totals_match_ground_truth(report, sales_dbgpt):
    source = sales_dbgpt.sources.get("sales")
    truth = source.query("SELECT SUM(amount) FROM orders").scalar()
    for chart in report.dashboard.charts:
        assert chart.total == pytest.approx(truth, rel=1e-6), chart.title


def test_figure3_aggregated_report(report):
    text = report.dashboard.render_text()
    print("\n=== Figure 3, area 5: aggregated report (head) ===")
    print("\n".join(text.splitlines()[:6]))
    assert report.dashboard.narrative
    assert all(
        chart.title in text for chart in report.dashboard.charts
    )


def test_figure3_alter_chart_type(report):
    first = report.dashboard.charts[0]
    original_points = list(first.points)
    altered = report.dashboard.alter_chart_type(first.title, "table")
    assert altered.chart_type is ChartType.TABLE
    assert altered.points == original_points


def test_figure3_communication_archived(report, sales_dbgpt):
    memory = sales_dbgpt.app("data_analysis").memory
    archived = memory.conversation(report.conversation_id)
    assert len(archived) == report.message_count
    senders = {message.sender for message in archived}
    assert {"user", "planner", "aggregator"} <= senders
    print(
        f"\n=== archive: {len(archived)} messages, "
        f"agents={sorted(senders)} ==="
    )


def test_figure3_conversation_continues(sales_dbgpt, report):
    follow_up = sales_dbgpt.chat(
        "chat2data", "What is the total amount per segment?"
    )
    assert follow_up.ok
    assert "breakdown" in follow_up.text


def test_figure3_end_to_end_latency(
    benchmark, cold_benchmark, sales_dbgpt
):
    from repro.agents import DataAnalysisTeam

    source = sales_dbgpt.sources.get("sales")

    def run_once():
        team = DataAnalysisTeam(source, sales_dbgpt.client)
        return team.run(GOAL)

    result = cold_benchmark(run_once, rounds=10)
    assert len(result.dashboard.charts) == 3
    benchmark.extra_info["messages"] = result.message_count
    benchmark.extra_info["plan_steps"] = len(result.plan.steps)
