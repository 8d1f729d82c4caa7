"""``make docs-check``: the metric, span, route and diagnostic-code
tables agree with the source.

Each fixture is a small source tree (or code registry) and an
``observability.md``, ``tenancy.md`` or ``diagnostics.md`` whose table
differs from it in one way; the checker names that difference.
"""

import pathlib

import pytest

from repro import doccheck
from repro.analysis.diagnostics import Severity

ROOT = pathlib.Path(__file__).resolve().parents[1]

SOURCE = '''
from repro.obs.metrics import Counter, Histogram, MetricHandle

_LATENCY = MetricHandle(
    Histogram, "app_latency_ms", "turn latency", ("app", "ok")
)
_PLANS = MetricHandle(Counter, "agent_plan_retries_total", "re-sent plans")


class Scheduler:
    def __init__(self, registry):
        self._requests = registry.counter("serving_requests_total", "")
'''

ROWS = {
    "app_latency_ms": "| `app_latency_ms` | histogram | `app`, `ok` | Turns |",
    "agent_plan_retries_total": (
        "| `agent_plan_retries_total` | counter | — | Re-sent plans |"
    ),
    "serving_requests_total": (
        "| `serving_requests_total` | counter | `model`, `outcome` | x |"
    ),
}


def write_tree(tmp_path, rows, source=SOURCE):
    package = tmp_path / "src"
    package.mkdir()
    (package / "module.py").write_text(source, encoding="utf-8")
    doc = tmp_path / "observability.md"
    doc.write_text(
        "# Observability\n\n### Exported metric names\n\n"
        "| Metric | Kind | Labels | Meaning |\n|---|---|---|---|\n"
        + "\n".join(rows)
        + "\n\n### Deleted counters\n\n| Deleted | Read instead |\n"
        "|---|---|\n| `app_requests_total` | counter | x | y |\n",
        encoding="utf-8",
    )
    return doc, [str(package)]


def test_a_matching_table_has_no_problems(tmp_path):
    doc, sources = write_tree(tmp_path, ROWS.values())
    assert doccheck.check_metric_table(doc, sources) == []


def test_a_declared_metric_missing_from_the_table(tmp_path):
    rows = [row for name, row in ROWS.items() if name != "app_latency_ms"]
    doc, sources = write_tree(tmp_path, rows)
    assert doccheck.check_metric_table(doc, sources) == [
        "metric 'app_latency_ms' is declared in the source but not "
        "documented"
    ]


def test_a_registry_declared_metric_missing_from_the_table(tmp_path):
    rows = [r for n, r in ROWS.items() if n != "serving_requests_total"]
    doc, sources = write_tree(tmp_path, rows)
    assert doccheck.check_metric_table(doc, sources) == [
        "metric 'serving_requests_total' is declared in the source but "
        "not documented"
    ]


def test_a_documented_metric_the_source_does_not_declare(tmp_path):
    extra = "| `app_requests_total` | counter | `app`, `ok` | Turns |"
    doc, sources = write_tree(tmp_path, [*ROWS.values(), extra])
    assert doccheck.check_metric_table(doc, sources) == [
        "metric 'app_requests_total' is documented but not declared in "
        "the source"
    ]


@pytest.mark.parametrize(
    "row, problem",
    [
        (
            "| `app_latency_ms` | histogram | `app` | Turns |",
            "metric 'app_latency_ms' declares labels ['app', 'ok'], "
            "documented as ['app']",
        ),
        (
            "| `app_latency_ms` | histogram | `ok`, `app` | Turns |",
            "metric 'app_latency_ms' declares labels ['app', 'ok'], "
            "documented as ['ok', 'app']",
        ),
    ],
)
def test_a_row_that_disagrees_with_its_declaration(tmp_path, row, problem):
    rows = {**ROWS, "app_latency_ms": row}
    doc, sources = write_tree(tmp_path, rows.values())
    assert doccheck.check_metric_table(doc, sources) == [problem]


def test_main_counts_table_problems_as_failures(tmp_path, capsys):
    rows = [row for name, row in ROWS.items() if name != "app_latency_ms"]
    doc, _sources = write_tree(tmp_path, rows)
    # ``main`` checks any observability.md against the repro package.
    assert doccheck.main([str(doc)]) > 0
    out = capsys.readouterr().out
    assert "metric 'app_latency_ms' is declared in the source" in out


def test_the_repository_docs_pass():
    paths = [str(ROOT / "README.md"), str(ROOT / "docs")]
    assert doccheck.main(paths) == 0


SPAN_SOURCE = '''
from repro.obs.tracer import get_tracer


def handle(tracer, match, name):
    with get_tracer().span("app.chat", app="demo"):
        with tracer.span("awel.operator", operator="x"):
            pass
    # Neither is a span the table names: a ``re.Match`` span, and a
    # name that is not a literal.
    match.span(1)
    with tracer.span(name):
        pass
'''

SPAN_ROWS = {
    "app.chat": "| `app.chat` | Application | `app` |",
    "awel.operator": "| `awel.operator` | Protocol | `operator` |",
}


def write_span_tree(tmp_path, rows):
    package = tmp_path / "src"
    package.mkdir()
    (package / "module.py").write_text(SPAN_SOURCE, encoding="utf-8")
    doc = tmp_path / "observability.md"
    doc.write_text(
        "# Observability\n\n### Span names\n\n"
        "| Span | Layer | Attributes |\n|---|---|---|\n"
        + "\n".join(rows)
        + "\n\n## Metrics\n\n| `app.render` | not a span row |\n",
        encoding="utf-8",
    )
    return doc, [str(package)]


def test_a_matching_span_table_has_no_problems(tmp_path):
    doc, sources = write_span_tree(tmp_path, SPAN_ROWS.values())
    assert doccheck.check_span_table(doc, sources) == []


def test_an_opened_span_missing_from_the_table(tmp_path):
    doc, sources = write_span_tree(tmp_path, [SPAN_ROWS["app.chat"]])
    assert doccheck.check_span_table(doc, sources) == [
        "span 'awel.operator' is opened in the source but not documented"
    ]


def test_a_documented_span_the_source_does_not_open(tmp_path):
    extra = "| `agent.step` | Module/Agents | `step` |"
    doc, sources = write_span_tree(tmp_path, [*SPAN_ROWS.values(), extra])
    assert doccheck.check_span_table(doc, sources) == [
        "span 'agent.step' is documented but not opened in the source"
    ]


def test_main_counts_span_table_problems_as_failures(tmp_path, capsys):
    doc, _sources = write_span_tree(tmp_path, [SPAN_ROWS["app.chat"]])
    # ``main`` checks any observability.md against the repro package,
    # which opens spans this fixture's table does not name.
    assert doccheck.main([str(doc)]) > 0
    out = capsys.readouterr().out
    assert "span 'smmf.generate' is opened in the source" in out


ROUTE_SOURCE = '''
class Server:
    def __init__(self, router):
        self.router = router
        self.router.add_route("GET", "/api/health", self._health)
        self._tenant_route("POST", "/v1/chat", self._chat)
        self._tenant_route("GET", "/v1/sessions/{session_id}", self._get)

    def _tenant_route(self, method, pattern, handler):
        # Not a route: its arguments are not literals.
        self.router.add_route(method, pattern, handler)
'''

ROUTE_ROWS = {
    ("/api/health", "GET"): "| `/api/health` | GET | Liveness |",
    ("/v1/chat", "POST"): "| `/v1/chat` | POST | One turn |",
    ("/v1/sessions/{session_id}", "GET"): (
        "| `/v1/sessions/{session_id}` | GET | Transcript |"
    ),
}


def write_route_tree(tmp_path, rows):
    source = tmp_path / "service.py"
    source.write_text(ROUTE_SOURCE, encoding="utf-8")
    doc = tmp_path / "tenancy.md"
    doc.write_text(
        "# Tenancy\n\n## HTTP surface\n\n"
        "| Route | Method | Purpose |\n|---|---|---|\n"
        + "\n".join(rows)
        + "\n\n**Errors.**\n\n| Status | `code` | When |\n|---|---|---|\n"
        "| 404 | `unknown_app` | x |\n\n## Configuration\n\n"
        "| `/v1/gone` | GET | not a route row |\n",
        encoding="utf-8",
    )
    return doc, source


def test_a_matching_route_table_has_no_problems(tmp_path):
    doc, source = write_route_tree(tmp_path, ROUTE_ROWS.values())
    assert doccheck.check_route_table(doc, source) == []


def test_a_mounted_route_missing_from_the_table(tmp_path):
    rows = [r for key, r in ROUTE_ROWS.items() if key[0] != "/v1/chat"]
    doc, source = write_route_tree(tmp_path, rows)
    assert doccheck.check_route_table(doc, source) == [
        "route POST /v1/chat is mounted but not documented"
    ]


def test_a_documented_route_the_server_does_not_mount(tmp_path):
    stale = "| `/api/chat/{app}` | POST | Untenanted turn |"
    doc, source = write_route_tree(tmp_path, [*ROUTE_ROWS.values(), stale])
    assert doccheck.check_route_table(doc, source) == [
        "route POST /api/chat/{app} is documented but not mounted"
    ]


def test_the_repository_route_table_matches_the_server():
    source = ROOT / "src" / "repro" / "server" / "service.py"
    doc = ROOT / "docs" / "tenancy.md"
    assert doccheck.check_route_table(doc, source) == []
    assert ("/v1/chat", "POST") in doccheck.declared_routes(source)


CODE_ROWS = [
    "| `SQL001` | `unknown-table` | error | A table is not in the catalog |",
    "| `SQL010` | `select-star` | warning | `SELECT *` |",
]


def write_code_table(tmp_path, rows):
    doc = tmp_path / "diagnostics.md"
    doc.write_text(
        "# Codes\n\n| Code | Name | Severity | Fires when |\n|---|---|---|---|\n"
        + "\n".join(rows)
        + "\n\n| Code | Owner |\n|---|---|\n| `SQL001` | binder |\n",
        encoding="utf-8",
    )
    return doc


def test_a_matching_code_table_has_no_problems(tmp_path, monkeypatch):
    monkeypatch.setattr(
        "repro.analysis.diagnostics.DIAGNOSTIC_CODES",
        {"SQL001": (Severity.ERROR, "unknown-table"),
         "SQL010": (Severity.WARNING, "select-star"),
         "LCK001": (Severity.ERROR, "lock-order-cycle")},
    )
    doc = write_code_table(tmp_path, CODE_ROWS)
    assert doccheck.check_code_table(doc, ("SQL",)) == []


def test_code_table_drift_is_reported_both_ways(tmp_path, monkeypatch):
    monkeypatch.setattr(
        "repro.analysis.diagnostics.DIAGNOSTIC_CODES",
        {"SQL001": (Severity.ERROR, "unknown-table"),
         "SQL016": (Severity.ERROR, "duplicate-cte")},
    )
    doc = write_code_table(tmp_path, CODE_ROWS)
    assert doccheck.check_code_table(doc, ("SQL",)) == [
        "code SQL016 duplicate-cte (error) is registered but not documented",
        "code SQL010 select-star (warning) is documented but not registered",
    ]


def test_a_row_with_the_wrong_severity(tmp_path):
    row = "| `SQL001` | `unknown-table` | warning | A table is missing |"
    doc = write_code_table(tmp_path, [row])
    problems = doccheck.check_code_table(doc, ("SQL",))
    assert "code SQL001 unknown-table (error) is registered but not documented" in problems
    assert "code SQL001 unknown-table (warning) is documented but not registered" in problems


@pytest.mark.parametrize("name", sorted(doccheck.CODE_FAMILIES))
def test_the_repository_code_tables_match_the_registry(name):
    doc = ROOT / "docs" / name
    assert doccheck.check_code_table(doc, doccheck.CODE_FAMILIES[name]) == []
