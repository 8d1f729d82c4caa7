"""Interactive command-line front-end.

The laptop stand-in for DB-GPT's web UI: a chat REPL over the booted
application layer.

Run::

    python -m repro.cli                    # demo sales database
    python -m repro.cli --csv ./data_dir   # your own CSV tables
    python -m repro.cli --command "show tables" --command "/apps"
    python -m repro.cli lint examples/     # static analysis front-end
    python -m repro.cli check src/         # concurrency/determinism pass
    python -m repro.cli explain "SELECT …" # engine query plan (EXPLAIN)
    python -m repro.cli trace              # trace one request end-to-end
    python -m repro.cli cache stats        # cache tier statistics
    python -m repro.cli health             # worker health / breaker states
    python -m repro.cli serve              # continuous-batching engine demo
    python -m repro.cli tenants            # multi-tenant fabric demo table
    python -m repro.cli agents             # multi-agent analysis plan demo

Slash commands switch context; anything else goes to the active app::

    /apps            list applications
    /app <name>      switch the active application
    /lint <sql>      analyze a SQL statement against the active schema
    /explain <sql>   show the SQL engine's plan for a query
    /check [path]    run the staticcheck pass (default: src/)
    /trace           span tree of the last request, with timings
    /metrics         model serving metrics
    /stats           serving scheduler stats (occupancy, admissions)
    /cache [clear]   cache tier statistics (or drop every entry)
    /health          per-worker health and breaker states
    /help            this text
    /quit            exit
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import Iterable, Optional

from repro.core import DBGPT
from repro.datasets import build_sales_database
from repro.datasources import CsvSource, EngineSource

_HELP = (
    "commands: /apps, /app <name>, /lint <sql>, /explain <sql>, "
    "/check [path], /trace, /metrics, /stats, /cache [clear], /health, "
    "/help, /quit — anything else is sent to the active app"
)


def render_serving_stats(stats: dict) -> str:
    """Plain-text serving scheduler stats for the CLI and REPL."""
    lines = [f"mode: {stats['mode']}"]
    rows = [
        ("queue depth", "queue_depth"),
        ("in-flight batches", "inflight_batches"),
        ("in-flight members", "inflight_members"),
        ("batch occupancy", "occupancy"),
        ("admitted into flight", "admitted_into_flight"),
        ("dispatched batches", "dispatched_batches"),
        ("dispatched requests", "dispatched_requests"),
        ("mean batch size", "mean_batch_size"),
        ("shed", "shed"),
        ("expired", "expired"),
        ("cancelled streams", "cancelled"),
    ]
    lines.extend(f"{label:<22} {stats[key]}" for label, key in rows)
    return "\n".join(lines)


def render_health(rows: list) -> str:
    """Plain-text worker health table for the CLI and REPL."""
    if not rows:
        return "no workers registered"
    header = (
        f"{'worker':<12} {'model':<12} {'state':<8} {'breaker':<10} "
        f"{'reason':<8} {'inflight':>8} {'served':>7} {'failed':>7}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        state = "up" if row["alive"] and row["healthy"] else "down"
        lines.append(
            f"{row['worker']:<12} {row['model']:<12} {state:<8} "
            f"{row['breaker']:<10} "
            f"{row['down_reason'] or '-':<8} "
            f"{row['inflight']:>8} {row['served']:>7} {row['failed']:>7}"
        )
    return "\n".join(lines)


class CliSession:
    """The REPL engine, separable from stdin/stdout for testing."""

    def __init__(self, dbgpt: Optional[DBGPT] = None) -> None:
        if dbgpt is None:
            dbgpt = DBGPT.boot()
            dbgpt.register_source(EngineSource(build_sales_database()))
        self.dbgpt = dbgpt
        self.active_app = (
            "chat2db" if "chat2db" in dbgpt.app_names() else
            (dbgpt.app_names()[0] if dbgpt.app_names() else "")
        )
        self.done = False

    def handle(self, line: str) -> str:
        """Process one input line; returns the text to display."""
        line = line.strip()
        if not line:
            return ""
        if line.startswith("/"):
            return self._command(line)
        if not self.active_app:
            return "no applications registered; load a data source first"
        response = self.dbgpt.chat(self.active_app, line)
        prefix = "" if response.ok else "(failed) "
        return f"{prefix}{response.text}"

    def _command(self, line: str) -> str:
        parts = line.split()
        command, args = parts[0].lower(), parts[1:]
        if command in ("/quit", "/exit", "/q"):
            self.done = True
            return "bye"
        if command == "/help":
            return _HELP
        if command == "/apps":
            lines = [
                f"{'-> ' if name == self.active_app else '   '}{name}"
                for name in self.dbgpt.app_names()
            ]
            return "\n".join(lines)
        if command == "/app":
            if not args:
                return "usage: /app <name>"
            name = args[0].lower()
            if name not in self.dbgpt.app_names():
                return (
                    f"no app named {name!r}; known: "
                    f"{', '.join(self.dbgpt.app_names())}"
                )
            self.active_app = name
            return f"switched to {name}"
        if command == "/lint":
            if not args:
                return "usage: /lint <sql statement>"
            return self._lint(line.split(None, 1)[1])
        if command == "/explain":
            if not args:
                return "usage: /explain <select statement>"
            return self._explain(line.split(None, 1)[1])
        if command == "/check":
            return self._check(args)
        if command == "/trace":
            from repro.obs import get_tracer, render_trace

            spans = get_tracer().last_trace()
            if not spans:
                return "no completed trace yet; send a message first"
            return render_trace(spans)
        if command == "/cache":
            if args and args[0].lower() == "clear":
                dropped = self.dbgpt.clear_caches()
                return f"cleared {dropped} cached entries"
            if args:
                return "usage: /cache [clear]"
            return self.dbgpt.cache.render_stats()
        if command == "/health":
            return render_health(self.dbgpt.health_snapshot())
        if command == "/stats":
            return render_serving_stats(self.dbgpt.serving_stats())
        if command == "/metrics":
            lines = [
                f"{model}: {metrics}"
                for model, metrics in self.dbgpt.model_metrics().items()
            ]
            return "\n".join(lines) or "no traffic yet"
        return f"unknown command {command!r}; {_HELP}"

    def _lint(self, sql: str) -> str:
        """Analyze one SQL statement against the default source schema."""
        from repro.analysis.gate import review_sql

        source = self.dbgpt.default_source()
        if source is None:
            return "no data source registered; nothing to lint against"
        findings = review_sql(sql, source=source)
        if not findings:
            return "clean: no findings"
        return "\n".join(diag.render() for diag in findings)

    def _explain(self, sql: str) -> str:
        """Render the engine's query plan for one SELECT statement."""
        from repro.sqlengine.errors import SqlEngineError

        source = self.dbgpt.default_source()
        database = getattr(source, "database", None)
        if database is None:
            return "no SQL-engine data source registered"
        if not sql.lstrip().upper().startswith("EXPLAIN"):
            sql = f"EXPLAIN {sql}"
        try:
            result = database.execute(sql)
        except SqlEngineError as exc:
            return f"error: {exc}"
        return "\n".join(row[0] for row in result.rows)

    def _check(self, args: list[str]) -> str:
        """Run the staticcheck pass and return its report text."""
        from repro.staticcheck import run_check
        from repro.staticcheck.baseline import (
            load_baseline,
            split_baselined,
        )
        from repro.staticcheck.check import DEFAULT_BASELINE, render_report

        try:
            project, findings = run_check(args or ["src"])
        except SystemExit as exc:
            return str(exc)
        new, suppressed, stale = split_baselined(
            findings, load_baseline(pathlib.Path(DEFAULT_BASELINE))
        )
        report, _status = render_report(
            new,
            len(suppressed),
            stale,
            sum(1 for _ in project.modules),
            strict=False,
        )
        return report

    def run_commands(self, commands: Iterable[str]) -> list[str]:
        """Batch mode: process each command, collecting the outputs."""
        outputs = []
        for command in commands:
            outputs.append(self.handle(command))
            if self.done:
                break
        return outputs


def explain_main(argv: list[str]) -> int:
    """``repro explain``: print the engine's plan for one query.

    Loads the demo sales database (or a CSV directory) and renders the
    plan tree EXPLAIN produces — scans with access paths and pushed
    filters, join strategies, then the pipeline steps. Nothing is
    executed.
    """
    from repro.sqlengine.errors import SqlEngineError

    parser = argparse.ArgumentParser(
        prog="repro.cli explain",
        description="Show the SQL engine's plan for a query (no execution).",
    )
    parser.add_argument(
        "sql", help="the SELECT (or WITH) statement to plan"
    )
    parser.add_argument(
        "--csv", help="directory of CSV files to load as tables"
    )
    args = parser.parse_args(argv)
    if args.csv:
        database = CsvSource(args.csv).database
    else:
        database = build_sales_database()
    sql = args.sql
    if not sql.lstrip().upper().startswith("EXPLAIN"):
        sql = f"EXPLAIN {sql}"
    try:
        result = database.execute(sql)
    except SqlEngineError as exc:
        print(f"error: {exc}")
        return 1
    for row in result.rows:
        print(row[0])
    return 0


def trace_main(argv: list[str]) -> int:
    """``repro trace``: run one traced request and print its span tree.

    Boots the demo stack (or a CSV directory), sends one question
    through the chosen application, and pretty-prints the resulting
    span tree plus a flat per-stage summary. ``--export`` additionally
    writes the trace as JSON-lines for offline analysis.
    """
    from repro.obs import dump_spans, get_tracer, render_trace, stage_timings

    parser = argparse.ArgumentParser(
        prog="repro.cli trace",
        description="Trace one request end-to-end and print the span tree.",
    )
    parser.add_argument(
        "--question",
        default="What is the total amount per region?",
        help="the question to send (default: a demo aggregate)",
    )
    parser.add_argument(
        "--app",
        default="text2sql",
        help="application to exercise (default: text2sql)",
    )
    parser.add_argument(
        "--csv", help="directory of CSV files to load as tables"
    )
    parser.add_argument(
        "--export", help="also write the trace to this JSON-lines file"
    )
    args = parser.parse_args(argv)
    dbgpt = build_dbgpt(args)
    if args.app not in dbgpt.app_names():
        print(
            f"no app named {args.app!r}; known: "
            f"{', '.join(dbgpt.app_names())}"
        )
        return 1
    response = dbgpt.chat(args.app, args.question)
    spans = get_tracer().last_trace()
    print(f"question: {args.question}")
    print(f"answer:   {response.text.splitlines()[0]}")
    print()
    print(render_trace(spans))
    print()
    print("per-stage totals:")
    for name, total_ms in stage_timings(spans):
        print(f"  {name:<20} {total_ms:8.2f} ms")
    if args.export:
        count = dump_spans(spans, args.export)
        print(f"\nexported {count} spans to {args.export}")
    return 0


def cache_main(argv: list[str]) -> int:
    """``repro cache``: inspect or clear the cache tiers.

    ``stats`` runs a short demo workload against the sales database
    (so the counters have something to show) and prints the per-tier
    table; ``clear`` drops every cached entry. ``--json`` emits the
    raw stats dict for scripting.
    """
    import json

    parser = argparse.ArgumentParser(
        prog="repro.cli cache",
        description="Inspect or clear the multi-tier cache.",
    )
    parser.add_argument(
        "action",
        nargs="?",
        default="stats",
        choices=("stats", "clear"),
        help="show per-tier statistics (default) or drop every entry",
    )
    parser.add_argument(
        "--csv", help="directory of CSV files to load as tables"
    )
    parser.add_argument(
        "--turns",
        type=int,
        default=4,
        help="demo questions to run before reporting stats (default 4)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the stats as JSON instead of a table",
    )
    args = parser.parse_args(argv)
    dbgpt = build_dbgpt(args)
    if args.action == "clear":
        dropped = dbgpt.clear_caches()
        print(f"cleared {dropped} cached entries")
        return 0
    questions = [
        "How many orders are there?",
        "What is the total amount per region?",
    ]
    for turn in range(max(args.turns, 0)):
        dbgpt.chat("text2sql", questions[turn % len(questions)])
    if args.json:
        print(json.dumps(dbgpt.cache_stats(), indent=2, sort_keys=True))
    else:
        print(dbgpt.cache.render_stats())
    return 0


def health_main(argv: list[str]) -> int:
    """``repro health``: worker health and breaker states.

    Boots the demo stack, optionally runs a short kill/recover demonstration, and
    prints the per-worker health table. ``--json`` emits the raw rows.
    """
    import json

    from repro.core.config import DbGptConfig

    parser = argparse.ArgumentParser(
        prog="repro.cli health",
        description="Show per-worker health and circuit-breaker states.",
    )
    parser.add_argument(
        "--csv", help="directory of CSV files to load as tables"
    )
    parser.add_argument(
        "--demo",
        action="store_true",
        help="kill one sql-coder replica, drive traffic, show recovery",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the health rows as JSON instead of a table",
    )
    args = parser.parse_args(argv)
    config = DbGptConfig()
    dbgpt = DBGPT.boot(config)
    if args.csv:
        dbgpt.register_source(CsvSource(args.csv))
    else:
        dbgpt.register_source(EngineSource(build_sales_database()))
    if args.demo:
        record = dbgpt.controller.workers("sql-coder")[0]
        record.worker.kill()
        print(f"killed {record.worker.worker_id}; sending traffic...")
        dbgpt.chat("text2sql", "How many orders are there?")
        print(render_health(dbgpt.health_snapshot()))
        record.worker.restart()
        dbgpt.controller.advance_clock(
            config.resilience.probe_interval_s
        )
        print(f"\nrestarted {record.worker.worker_id}; after one probe:")
    if args.json:
        print(json.dumps(dbgpt.health_snapshot(), indent=2))
    else:
        print(render_health(dbgpt.health_snapshot()))
    return 0


#: Per-stream chunk buffer for the ``repro serve`` demo, smaller than
#: its 7-chunk chat replies so an abandoned stream is still generating
#: when its consumer walks away (the default of 32 would have delivered
#: it in full, and there would be nothing to cancel).
_SERVE_DEMO_STREAM_BUFFER = 2


def serve_main(argv: list[str]) -> int:
    """``repro serve``: the continuous-batching engine, demonstrated.

    Boots the stack, drives a burst of concurrent chat turns plus two
    token streams through its engine (one stream is cancelled
    mid-generation), and prints the scheduler stats — in-flight batch
    occupancy, admissions into live batches, cancellations. ``--json`` emits the raw stats dict on stdout;
    progress text goes to stderr.
    """
    import json
    import time
    from concurrent.futures import ThreadPoolExecutor

    from repro.core.config import DbGptConfig
    from repro.runtime import mono_clock, run_sync
    from repro.serving import ServingConfig

    parser = argparse.ArgumentParser(
        prog="repro.cli serve",
        description="Demonstrate the continuous-batching serving engine.",
    )
    parser.add_argument(
        "--csv", help="directory of CSV files to load as tables"
    )
    parser.add_argument(
        "--requests",
        type=int,
        default=24,
        help="concurrent demo turns to drive (default 24)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the stats as JSON instead of a table",
    )
    args = parser.parse_args(argv)
    config = DbGptConfig(
        serving=ServingConfig(stream_buffer=_SERVE_DEMO_STREAM_BUFFER)
    )
    dbgpt = DBGPT.boot(config)
    if args.csv:
        dbgpt.register_source(CsvSource(args.csv))
    else:
        dbgpt.register_source(EngineSource(build_sales_database()))
    total = max(args.requests, 1)
    print(f"driving {total} concurrent turns...", file=sys.stderr)
    with ThreadPoolExecutor(max_workers=min(total, 32)) as pool:
        futures = [
            pool.submit(
                dbgpt.client.generate,
                "chat",
                f"demo question {index}",
                "chat",
            )
            for index in range(total)
        ]
        for future in futures:
            future.result()

    async def streams() -> None:
        # Two live token streams, one abandoned mid-generation so the
        # cancellation counters have something to show.
        async for _chunk in dbgpt.client.astream("chat", "stream me a reply"):
            pass
        aborted = dbgpt.client.astream("chat", "stream to abandon")
        await anext(aborted, None)
        await aborted.aclose()

    run_sync(streams())
    # The engine reaps the cancelled member on its own loop; read the
    # stats once its batch has retired.
    stats = dbgpt.serving_stats()
    give_up = mono_clock() + 5.0
    while stats["inflight_batches"] and mono_clock() < give_up:
        time.sleep(0.001)
        stats = dbgpt.serving_stats()
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True))
    else:
        print(render_serving_stats(stats))
    dbgpt.shutdown()
    return 0


def tenants_main(argv: list[str]) -> int:
    """``repro tenants``: the multi-tenant fabric, demonstrated.

    Boots the demo stack, registers two tenants over the demo
    sales database (one with a tighter quota), drives a few turns per
    tenant, and prints the per-tenant control-plane table — session
    counts, quota state, cache hit rate. ``--json``
    emits the raw rows.
    """
    import json

    from repro.tenancy import QuotaConfig

    parser = argparse.ArgumentParser(
        prog="repro.cli tenants",
        description="Show the multi-tenant session fabric at work.",
    )
    parser.add_argument(
        "--csv", help="directory of CSV files to load as tables"
    )
    parser.add_argument(
        "--turns",
        type=int,
        default=3,
        help="demo turns to run per tenant (default 3)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the tenant rows as JSON instead of a table",
    )
    args = parser.parse_args(argv)
    dbgpt = DBGPT.boot()
    if args.csv:
        dbgpt.register_source(CsvSource(args.csv))
    else:
        dbgpt.register_source(EngineSource(build_sales_database()))
    dbgpt.register_tenant("acme", name="Acme Corp")
    dbgpt.register_tenant(
        "globex",
        name="Globex",
        quota=QuotaConfig(refill_per_second=1.0, burst=2.0),
    )
    questions = [
        "How many orders are there?",
        "What is the total amount per region?",
        "Show the tables.",
    ]
    from repro.tenancy.quotas import TenantThrottled

    for tenant_id in ("acme", "globex"):
        record = None
        for turn in range(max(args.turns, 0)):
            try:
                record, _ = dbgpt.tenant_chat(
                    tenant_id,
                    questions[turn % len(questions)],
                    session_id=record.session_id if record else None,
                    app_name="chat2db",
                )
            except TenantThrottled as exc:
                print(
                    f"{tenant_id}: throttled "
                    f"(retry in {exc.retry_after:.2f}s)"
                )
    if args.json:
        print(json.dumps(dbgpt.tenants(), indent=2, sort_keys=True))
    else:
        print(dbgpt.fabric.render_table())
    return 0


def agents_main(argv: list[str]) -> int:
    """``repro agents``: one generative analysis plan, end to end.

    Boots the demo stack, assembles the planner / chart-agent /
    aggregator team over the sales database, compiles the plan into an
    AWEL DAG and executes it. Prints the plan, the
    resulting dashboard, any recorded failures, and the archived
    conversation. ``--chaos`` kills one sql-coder replica mid-plan to
    demonstrate that the plan still completes; ``--trace`` prints the
    ``agent.plan`` span tree afterwards.
    """
    from repro.agents import DataAnalysisTeam

    parser = argparse.ArgumentParser(
        prog="repro.cli agents",
        description="Run a multi-agent generative analysis plan.",
    )
    parser.add_argument(
        "--goal",
        default="sales report from three dimensions",
        help="the analysis goal to hand the planner",
    )
    parser.add_argument(
        "--csv", help="directory of CSV files to load as tables"
    )
    parser.add_argument(
        "--chaos",
        action="store_true",
        help="kill one sql-coder replica before running the plan",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="print the agent.plan span tree after the run",
    )
    args = parser.parse_args(argv)
    dbgpt = DBGPT.boot()
    if args.csv:
        dbgpt.register_source(CsvSource(args.csv))
    else:
        dbgpt.register_source(EngineSource(build_sales_database()))
    if args.chaos:
        record = dbgpt.controller.workers("sql-coder")[0]
        record.worker.kill()
        print(f"chaos: killed {record.worker.worker_id}")
    team = DataAnalysisTeam(
        dbgpt.default_source(), dbgpt.client, memory=dbgpt.memory
    )
    report = team.run(args.goal)
    print(f"goal: {report.goal}")
    print(f"conversation: {report.conversation_id} "
          f"({report.message_count} archived messages)")
    print("\nplan:")
    for step in report.plan.steps:
        print(f"  {step.step}. [{step.action}] {step.description}")
    print(f"\ndashboard: {report.dashboard.title}")
    for chart in report.dashboard.charts:
        print(
            f"  - {chart.title} ({chart.chart_type.value}, "
            f"{len(chart.points)} points)"
        )
    print(f"narrative: {report.dashboard.narrative}")
    if report.failures:
        print("\nfailures:")
        for failure in report.failures:
            print(f"  - {failure}")
    else:
        print("\nfailures: none")
    if args.trace:
        from repro.obs import get_tracer, render_trace

        print()
        print(render_trace(get_tracer().last_trace()))
    return 0


def build_dbgpt(args: argparse.Namespace) -> DBGPT:
    dbgpt = DBGPT.boot()
    if args.csv:
        dbgpt.register_source(CsvSource(args.csv))
    else:
        dbgpt.register_source(EngineSource(build_sales_database()))
    return dbgpt


def main(argv: Optional[list[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "lint":
        from repro.analysis.lint import lint_main

        return lint_main(argv[1:])
    if argv and argv[0] == "check":
        from repro.staticcheck import check_main

        return check_main(argv[1:])
    if argv and argv[0] == "explain":
        return explain_main(argv[1:])
    if argv and argv[0] == "trace":
        return trace_main(argv[1:])
    if argv and argv[0] == "cache":
        return cache_main(argv[1:])
    if argv and argv[0] == "health":
        return health_main(argv[1:])
    if argv and argv[0] == "serve":
        return serve_main(argv[1:])
    if argv and argv[0] == "tenants":
        return tenants_main(argv[1:])
    if argv and argv[0] == "agents":
        return agents_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro.cli", description="Chat with your data (DB-GPT repro)."
    )
    parser.add_argument(
        "--csv", help="directory of CSV files to load as tables"
    )
    parser.add_argument(
        "--command",
        action="append",
        default=[],
        help="run one command non-interactively (repeatable)",
    )
    args = parser.parse_args(argv)
    session = CliSession(build_dbgpt(args))

    if args.command:
        for output in session.run_commands(args.command):
            print(output)
        return 0

    print("DB-GPT repro CLI — /help for commands")
    print(f"active app: {session.active_app}")
    while not session.done:
        try:
            line = input(f"{session.active_app}> ")
        except (EOFError, KeyboardInterrupt):
            print()
            break
        output = session.handle(line)
        if output:
            print(output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
