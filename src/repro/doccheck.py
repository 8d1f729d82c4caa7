"""Documentation link checker behind ``make docs-check``.

Scans Markdown files for relative links — ``[text](target)`` and
reference-style ``[label]: target`` definitions — and verifies each
target resolves to a real file or directory relative to the file the
link appears in. External (``http(s)://``, ``mailto:``) and
in-page (``#anchor``) links are skipped; a ``path#anchor`` target is
checked for the path part only.

An ``observability.md`` among the files also has its metric table
(the ``### Exported metric names`` section) checked against the
metrics the ``repro`` package declares, as the OBS staticcheck rules
read them: every declared metric must have a row and every row a
declaration, and a ``MetricHandle``'s row lists its label names in
their declared order. Its span table (``### Span names``) is checked
the same way against the literal span names the package opens.

A ``tenancy.md`` among the files has its route table (the ``## HTTP
surface`` section) checked against the routes ``DbGptServer`` mounts,
read statically from the ``add_route``/``_tenant_route`` literals in
``repro/server/service.py``: every ``(pattern, method)`` both ways.

A ``diagnostics.md`` or ``staticcheck.md`` among the files has its
code tables (``| `CODE` | `name` | severity | ... |`` rows) checked
against ``DIAGNOSTIC_CODES`` for the code families it documents
(``SQL``/``AWEL``, the staticcheck ones): every ``(code, name,
severity)`` both ways.

Run::

    python -m repro.doccheck README.md docs

Exit status is the number of problems (0 == everything resolves).
"""

from __future__ import annotations

import ast
import pathlib
import re
import sys
from typing import Optional

import repro
from repro.staticcheck.model import load_project
from repro.staticcheck.rules.obs import declared_metrics, declared_spans

#: Inline links. The target group stops at the first ')' or whitespace,
#: which is enough for the plain relative links this repo uses.
_INLINE_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
#: Reference-style definitions at line start: ``[label]: target``.
_REF_LINK = re.compile(r"^\s*\[[^\]]+\]:\s+(\S+)", re.MULTILINE)
#: Fenced code blocks are stripped first — link-shaped text inside
#: examples is not a navigable link.
_CODE_FENCE = re.compile(r"```.*?```", re.DOTALL)

_SKIP_PREFIXES = ("http://", "https://", "mailto:", "ftp://")

#: The metric table's section, up to the next heading.
_METRIC_SECTION = re.compile(
    r"^### Exported metric names\n(.*?)(?=^#)", re.MULTILINE | re.DOTALL
)
#: ``| `name` | kind | labels | meaning |``
_METRIC_ROW = re.compile(
    r"^\|\s*`([a-z][a-z0-9_]*)`\s*\|[^|]*\|([^|]*)\|", re.MULTILINE
)
#: The span table's section, up to the next heading.
_SPAN_SECTION = re.compile(
    r"^### Span names\n(.*?)(?=^#)", re.MULTILINE | re.DOTALL
)
#: ``| `name` | layer | attributes |``
_SPAN_ROW = re.compile(r"^\|\s*`([a-z][a-z0-9_.]*)`\s*\|", re.MULTILINE)
#: The route table's section, up to the next heading.
_ROUTE_SECTION = re.compile(
    r"^## HTTP surface\n(.*?)(?=^#)", re.MULTILINE | re.DOTALL
)
#: ``| `/v1/chat` | POST | purpose |``
_ROUTE_ROW = re.compile(
    r"^\|\s*`(/[^`]*)`\s*\|\s*([A-Z]+)\s*\|", re.MULTILINE
)
#: The ``DbGptServer`` calls that mount a route: ``(method, pattern, ...)``.
_MOUNTS = frozenset({"add_route", "_tenant_route"})
#: ``| `SQL002` | `unknown-column` | error | fires when |``
_CODE_ROW = re.compile(
    r"^\|\s*`([A-Z]+\d{3})`\s*\|\s*`([a-z0-9-]+)`\s*\|\s*(\w+)\s*\|",
    re.MULTILINE,
)
#: The diagnostic-code families each code reference documents.
CODE_FAMILIES = {
    "diagnostics.md": ("SQL", "AWEL"),
    "staticcheck.md": ("STC", "LCK", "ASY", "DET", "OBS", "CFG"),
}


def iter_links(markdown: str) -> list[str]:
    """Every link target in ``markdown``, code fences excluded."""
    stripped = _CODE_FENCE.sub("", markdown)
    targets = _INLINE_LINK.findall(stripped)
    targets += _REF_LINK.findall(stripped)
    return targets


def check_file(path: pathlib.Path) -> list[str]:
    """Broken relative link targets in one Markdown file."""
    broken: list[str] = []
    for target in iter_links(path.read_text(encoding="utf-8")):
        if target.startswith(_SKIP_PREFIXES) or target.startswith("#"):
            continue
        resolved = target.split("#", 1)[0]
        if not resolved:
            continue
        if not (path.parent / resolved).exists():
            broken.append(target)
    return broken


def documented_metrics(markdown: str) -> dict[str, tuple[str, ...]]:
    """``{name: label names}`` from the metric table."""
    section = _METRIC_SECTION.search(markdown + "\n#")
    rows = _METRIC_ROW.findall(section.group(1)) if section else []
    return {
        name: tuple(re.findall(r"`(\w+)`", labels)) for name, labels in rows
    }


def check_metric_table(doc: pathlib.Path, sources: list[str]) -> list[str]:
    """Where ``doc``'s metric table and the metrics ``sources``
    declare disagree, one line each."""
    documented = documented_metrics(doc.read_text(encoding="utf-8"))
    declared = declared_metrics(load_project(sources))
    problems = [
        f"metric {name!r} is declared in the source but not documented"
        for name in sorted(declared.keys() - documented.keys())
    ]
    problems += [
        f"metric {name!r} is documented but not declared in the source"
        for name in sorted(documented.keys() - declared.keys())
    ]
    for name in sorted(declared.keys() & documented.keys()):
        labels = declared[name]
        if labels is not None and labels != documented[name]:
            problems.append(
                f"metric {name!r} declares labels {list(labels)}, "
                f"documented as {list(documented[name])}"
            )
    return problems


def documented_spans(markdown: str) -> set[str]:
    """The span names in the span table."""
    section = _SPAN_SECTION.search(markdown + "\n#")
    return set(_SPAN_ROW.findall(section.group(1))) if section else set()


def check_span_table(doc: pathlib.Path, sources: list[str]) -> list[str]:
    """Where ``doc``'s span table and the spans ``sources`` open
    disagree, one line each."""
    documented = documented_spans(doc.read_text(encoding="utf-8"))
    declared = declared_spans(load_project(sources))
    problems = [
        f"span {name!r} is opened in the source but not documented"
        for name in sorted(declared - documented)
    ]
    problems += [
        f"span {name!r} is documented but not opened in the source"
        for name in sorted(documented - declared)
    ]
    return problems


def documented_routes(markdown: str) -> set[tuple[str, str]]:
    """``(pattern, method)`` of every row in the route table."""
    section = _ROUTE_SECTION.search(markdown + "\n#")
    return set(_ROUTE_ROW.findall(section.group(1))) if section else set()


def declared_routes(source: pathlib.Path) -> set[tuple[str, str]]:
    """``(pattern, method)`` of every route ``source`` mounts with
    literal arguments."""
    tree = ast.parse(source.read_text(encoding="utf-8"))
    return {
        (node.args[1].value, node.args[0].value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in _MOUNTS
        and len(node.args) >= 2
        and all(
            isinstance(arg, ast.Constant) and isinstance(arg.value, str)
            for arg in node.args[:2]
        )
    }


def check_route_table(doc: pathlib.Path, source: pathlib.Path) -> list[str]:
    """Where ``doc``'s route table and the routes ``source`` mounts
    disagree, one line each."""
    documented = documented_routes(doc.read_text(encoding="utf-8"))
    declared = declared_routes(source)
    problems = [
        f"route {method} {pattern} is mounted but not documented"
        for pattern, method in sorted(declared - documented)
    ]
    problems += [
        f"route {method} {pattern} is documented but not mounted"
        for pattern, method in sorted(documented - declared)
    ]
    return problems


def documented_codes(markdown: str) -> set[tuple[str, str, str]]:
    """``(code, name, severity)`` of every code-table row."""
    return set(_CODE_ROW.findall(_CODE_FENCE.sub("", markdown)))


def check_code_table(
    doc: pathlib.Path, families: tuple[str, ...]
) -> list[str]:
    """Where ``doc``'s code tables and the registered diagnostic codes
    of ``families`` (code prefixes) disagree, one line each."""
    from repro.analysis.diagnostics import DIAGNOSTIC_CODES

    documented = documented_codes(doc.read_text(encoding="utf-8"))
    declared = {
        (code, name, severity.value)
        for code, (severity, name) in DIAGNOSTIC_CODES.items()
        if code.startswith(families)
    }
    problems = [
        f"code {code} {name} ({severity}) is registered but not documented"
        for code, name, severity in sorted(declared - documented)
    ]
    problems += [
        f"code {code} {name} ({severity}) is documented but not registered"
        for code, name, severity in sorted(documented - declared)
    ]
    return problems


def collect_markdown(paths: list[str]) -> list[pathlib.Path]:
    """Expand files/directories into the Markdown files to check."""
    files: list[pathlib.Path] = []
    for raw in paths:
        path = pathlib.Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.md")))
        else:
            files.append(path)
    return files


def main(argv: Optional[list[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if not argv:
        print("usage: python -m repro.doccheck <file-or-dir> [...]")
        return 2
    files = collect_markdown(argv)
    missing = [path for path in files if not path.exists()]
    if missing:
        for path in missing:
            print(f"doccheck: no such file: {path}")
        return len(missing)
    failures = 0
    checked_links = 0
    for path in files:
        targets = [
            t
            for t in iter_links(path.read_text(encoding="utf-8"))
            if not t.startswith(_SKIP_PREFIXES) and not t.startswith("#")
        ]
        checked_links += len(targets)
        for target in check_file(path):
            print(f"{path}: broken link -> {target}")
            failures += 1
        package = pathlib.Path(repro.__file__).parent
        problems = []
        if path.name == "observability.md":
            problems = check_metric_table(path, [str(package)])
            problems += check_span_table(path, [str(package)])
        elif path.name == "tenancy.md":
            problems = check_route_table(
                path, package / "server" / "service.py"
            )
        elif path.name in CODE_FAMILIES:
            problems = check_code_table(path, CODE_FAMILIES[path.name])
        for problem in problems:
            print(f"{path}: {problem}")
            failures += 1
    print(
        f"doccheck: {len(files)} files, {checked_links} relative links, "
        f"{failures} problems"
    )
    return failures


if __name__ == "__main__":
    sys.exit(main())
