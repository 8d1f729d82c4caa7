"""Privacy measures: PII scrubbing before text reaches any model.

The paper emphasizes privacy-sensitive setups; besides serving local
models (SMMF), DB-GPT masks personally identifiable information in
prompts. The scrubber is deterministic and reversible within a session
so answers can be un-masked before display.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

#: Order matters: SSN and CARD shapes also match the PHONE pattern, so
#: they must be masked first.
_PATTERNS: list[tuple[str, re.Pattern[str]]] = [
    # Local part covers RFC 5321 "atext" specials, not just \w.
    ("EMAIL", re.compile(r"[\w.+\-!#$%&'*/=?^`{|}~]+@[\w-]+\.[\w.-]+")),
    ("SSN", re.compile(r"\b\d{3}-\d{2}-\d{4}\b")),
    ("CARD", re.compile(r"\b(?:\d{4}[ -]){3}\d{4}\b")),
    ("PHONE", re.compile(r"(?<!\d)(?:\+?\d[\d\s-]{7,}\d)(?!\d)")),
    ("IP", re.compile(r"\b(?:\d{1,3}\.){3}\d{1,3}\b")),
]

#: What every match of each category's pattern contains. A text with
#: none of them has nothing to mask; one search for them is about a
#: quarter of a search for the patterns themselves.
_NEEDS = {
    "EMAIL": "@",
    "SSN": r"\d-\d",
    "CARD": r"\d[ -]\d",
    "PHONE": r"\d[\d\s-]{7,}\d",
    "IP": r"\d\.\d",
}


@dataclass
class ScrubResult:
    """Masked text plus the mapping needed to restore it."""

    text: str
    replacements: dict[str, str] = field(default_factory=dict)

    @property
    def found_pii(self) -> bool:
        return bool(self.replacements)


class PrivacyScrubber:
    """Mask PII with stable placeholders like ``<EMAIL_1>``.

    The same literal value always maps to the same placeholder within
    one scrubber instance, so multi-turn conversations stay coherent.
    """

    def __init__(self, categories: list[str] | None = None) -> None:
        known = {name for name, _ in _PATTERNS}
        if categories is not None:
            unknown = set(categories) - known
            if unknown:
                raise ValueError(f"unknown PII categories: {sorted(unknown)}")
        self.categories = set(categories) if categories else known
        self._assigned: dict[str, str] = {}
        self._counters: dict[str, int] = {}
        self._needs = re.compile(
            "|".join(_NEEDS[category] for category in sorted(self.categories))
        )

    def scrub(self, text: str) -> ScrubResult:
        """Mask all configured PII categories in ``text``."""
        replacements: dict[str, str] = {}
        if self._needs.search(text) is None:
            return ScrubResult(text=text, replacements=replacements)
        for category, pattern in _PATTERNS:
            if category not in self.categories:
                continue

            def mask(match: re.Match[str]) -> str:
                literal = match.group(0)
                placeholder = self._placeholder(category, literal)
                replacements[placeholder] = literal
                return placeholder

            text = pattern.sub(mask, text)
        return ScrubResult(text=text, replacements=replacements)

    def restore(self, text: str, result: ScrubResult) -> str:
        """Replace placeholders in ``text`` with their original values."""
        for placeholder, literal in result.replacements.items():
            text = text.replace(placeholder, literal)
        return text

    def _placeholder(self, category: str, literal: str) -> str:
        key = f"{category}:{literal}"
        if key not in self._assigned:
            self._counters[category] = self._counters.get(category, 0) + 1
            self._assigned[key] = f"<{category}_{self._counters[category]}>"
        return self._assigned[key]
