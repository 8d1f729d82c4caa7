"""``PrivacyScrubber.scrub`` searches once before it substitutes.

Text with nothing every match of a configured pattern contains (an
``@``, a digit next to ``-``, ``.`` or a space, a long digit run) is
returned as it came, with no ``sub`` pass; everything else takes the
per-category ``sub`` passes. Both must give what the ``sub`` passes
alone give, on arbitrary text and on text built from PII-shaped pieces.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rag.privacy import _PATTERNS, PrivacyScrubber, ScrubResult

CATEGORIES = [name for name, _ in _PATTERNS]

PIECES = [
    "a@b.com", "ada.l+x@example.org", "123-45-6789",
    "4111 1111 1111 1111", "4111-1111-1111-1111", "555-123-4567",
    "+1 555 123 4567", "10.0.0.1", "192.168.1.254", "12345678",
    "1.2.3", "@", ".", "-", " ", "\n", "x", "9", "-9", "ssn",
]
PII_TEXT = st.lists(st.sampled_from(PIECES), max_size=12).map("".join)


def every_sub(scrubber: PrivacyScrubber, text: str) -> ScrubResult:
    """The scrub without the pre-check: one ``sub`` per category."""
    replacements: dict[str, str] = {}
    for category, pattern in _PATTERNS:
        if category not in scrubber.categories:
            continue

        def mask(match, category=category):
            placeholder = scrubber._placeholder(category, match.group(0))
            replacements[placeholder] = match.group(0)
            return placeholder

        text = pattern.sub(mask, text)
    return ScrubResult(text=text, replacements=replacements)


def assert_same_as_every_sub(texts, categories=None):
    fast = PrivacyScrubber(categories)
    slow = PrivacyScrubber(categories)
    for text in texts:
        got, want = fast.scrub(text), every_sub(slow, text)
        assert got.text == want.text
        assert got.replacements == want.replacements


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.text(max_size=60), max_size=4))
def test_arbitrary_text_matches_every_sub(texts):
    assert_same_as_every_sub(texts)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.lists(PII_TEXT, min_size=1, max_size=4),
    st.none() | st.lists(st.sampled_from(CATEGORIES), min_size=1),
)
def test_pii_shaped_text_matches_every_sub(texts, categories):
    assert_same_as_every_sub(texts, categories)


@pytest.mark.parametrize("category", CATEGORIES)
def test_each_category_alone_matches_every_sub(category):
    """One category at a time, so no other category's pre-check can
    cover for a wrong one."""
    assert_same_as_every_sub([f"id {piece}." for piece in PIECES], [category])


def test_clean_text_runs_no_sub(monkeypatch):
    scrubber = PrivacyScrubber()
    calls = []
    # ``re.Pattern`` is immutable: count ``sub`` calls through stand-ins.
    monkeypatch.setattr(
        "repro.rag.privacy._PATTERNS",
        [(name, _Counting(pattern, calls)) for name, pattern in _PATTERNS],
    )
    result = scrubber.scrub("How many orders are there per region?")
    assert result.text == "How many orders are there per region?"
    assert not result.found_pii and calls == []
    assert scrubber.scrub("mail a@b.com").text == "mail <EMAIL_1>"
    assert len(calls) == len(_PATTERNS)


class _Counting:
    def __init__(self, pattern, calls):
        self._pattern = pattern
        self._calls = calls

    def sub(self, repl, text):
        self._calls.append(text)
        return self._pattern.sub(repl, text)
