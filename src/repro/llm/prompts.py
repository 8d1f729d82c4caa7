"""The prompt contract shared by applications and simulated models.

Applications build prompts with the ``build_*`` helpers; simulated
models parse them back with :func:`parse_prompt_sections`. Keeping both
sides in one module prevents the two from drifting apart — the same
reason real systems centralize their prompt templates.
"""

from __future__ import annotations

import re
from typing import Optional

from repro.datasources.base import DataSource

SCHEMA_HEADER = "Given the database schema:"
VALUES_HEADER = "Known column values:"
QUESTION_HEADER = "Write one SQL query answering:"
CONTEXT_HEADER = "Context:"
QA_QUESTION_HEADER = "Question:"
SQL_HEADER = "Explain in plain language what this SQL does:"
GOAL_HEADER = "Plan the steps to accomplish:"
REPAIR_HEADER = "A previous SQL draft was rejected by the analyzer."


def build_text2sql_prompt(
    source: DataSource,
    question: str,
    max_values_per_column: int = 20,
) -> str:
    """Schema + sample values + question, the standard Text-to-SQL
    prompt layout (sample values enable database-content linking)."""
    schema, *value_lines = source.prompt_context(max_values_per_column)
    lines = [SCHEMA_HEADER, schema]
    if value_lines:
        lines.append(VALUES_HEADER)
        lines.extend(value_lines)
    lines.append(f"{QUESTION_HEADER} {question}")
    lines.append("SQL:")
    return "\n".join(lines)


def build_sql_repair_prompt(
    source: DataSource,
    question: str,
    sql: str,
    findings: list[str],
    max_values_per_column: int = 20,
) -> str:
    """A text2sql prompt carrying analyzer feedback for one repair turn.

    The feedback block is inserted *before* the question header so
    :func:`parse_prompt_sections` keeps the question section clean
    (simulated models re-parse their own prompts; the feedback lines
    are shaped so the values parser skips them).
    """
    base = build_text2sql_prompt(
        source, question, max_values_per_column=max_values_per_column
    )
    # Pre-colon fragments carry no dot, so parse_values_text skips them.
    feedback_lines = [REPAIR_HEADER, f"Rejected draft: {sql}", "Findings:"]
    feedback_lines.extend(f"- {finding}" for finding in findings)
    feedback_lines.append("Write a corrected query fixing every finding.")
    feedback = "\n".join(feedback_lines)
    index = base.rfind(QUESTION_HEADER)
    if index == -1:
        return f"{base}\n{feedback}"
    return f"{base[:index]}{feedback}\n{base[index:]}"


def build_qa_prompt(context: str, question: str) -> str:
    return (
        "You are a helpful data assistant. Use only the context.\n"
        f"{CONTEXT_HEADER}\n{context}\n\n"
        f"{QA_QUESTION_HEADER} {question}\nAnswer:"
    )


def build_sql2text_prompt(sql: str) -> str:
    return f"{SQL_HEADER}\n{sql}\nExplanation:"


def build_plan_prompt(goal: str, schema: Optional[str] = None) -> str:
    lines = [f"{GOAL_HEADER} {goal}"]
    if schema:
        lines.append(SCHEMA_HEADER)
        lines.append(schema)
    lines.append("Respond with a JSON list of steps.")
    return "\n".join(lines)


def parse_prompt_sections(prompt: str) -> dict[str, str]:
    """Split a prompt built by the helpers above into named sections."""
    headers = {
        "schema": SCHEMA_HEADER,
        "values": VALUES_HEADER,
        "question": QUESTION_HEADER,
        "context": CONTEXT_HEADER,
        "qa_question": QA_QUESTION_HEADER,
        "sql": SQL_HEADER,
        "goal": GOAL_HEADER,
    }
    positions = []
    for name, header in headers.items():
        index = prompt.find(header)
        if index != -1:
            positions.append((index, len(header), name))
    positions.sort()
    sections: dict[str, str] = {}
    for rank, (start, header_len, name) in enumerate(positions):
        end = positions[rank + 1][0] if rank + 1 < len(positions) else len(prompt)
        body = prompt[start + header_len : end].strip()
        # Trailing cue lines ("SQL:", "Answer:", ...) belong to no section.
        body = re.sub(
            r"\n(?:SQL|Answer|Explanation|Respond with a JSON list of steps\.?):?\s*$",
            "",
            body,
        ).strip()
        sections[name] = body
    return sections


_SCHEMA_LINE = re.compile(r"^(\w+)\((.*)\)(?:\s*\[(\d+) rows\])?$")


def parse_schema_text(schema_text: str) -> dict[str, list[tuple[str, str]]]:
    """Parse ``table(col TYPE, ...)`` lines back into metadata."""
    tables: dict[str, list[tuple[str, str]]] = {}
    for line in schema_text.splitlines():
        line = line.strip()
        if not line:
            continue
        match = _SCHEMA_LINE.match(line)
        if not match:
            continue
        table = match.group(1)
        columns: list[tuple[str, str]] = []
        for part in match.group(2).split(","):
            pieces = part.strip().split()
            if not pieces:
                continue
            name = pieces[0]
            ctype = pieces[1] if len(pieces) > 1 else "TEXT"
            columns.append((name, ctype))
        tables[table] = columns
    return tables


def parse_values_text(
    values_text: str,
) -> tuple[dict[str, list[tuple[str, str]]], dict[str, str]]:
    """Parse ``table.column: v1, v2`` lines into a value index.

    Returns ``(value_index, value_originals)`` — lookups are done on
    lower-cased values, but SQL literals must keep database casing.
    """
    value_index: dict[str, list[tuple[str, str]]] = {}
    value_originals: dict[str, str] = {}
    for line in values_text.splitlines():
        line = line.strip()
        if ":" not in line or "." not in line.split(":", 1)[0]:
            continue
        location, _, rendered = line.partition(":")
        table, _, column = location.strip().partition(".")
        for value in rendered.split(","):
            original = value.strip()
            cleaned = original.lower()
            if cleaned:
                value_index.setdefault(cleaned, []).append((table, column))
                value_originals.setdefault(cleaned, original)
    return value_index, value_originals
