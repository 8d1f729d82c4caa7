r"""``normalize_prompt`` folds whitespace exactly as the regex it replaced.

Inference-tier keys embed the normalized prompt, so any divergence
would split or merge cache entries; the property pins the split-join
form to ``re.sub(r"\s+", " ", prompt).strip()`` on text rich in the
unusual whitespace both recognise.
"""

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.keys import normalize_prompt

_WHITESPACE = re.compile(r"\s+")

_ALPHABET = st.sampled_from(
    [" ", "\t", "\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
     "\x1f", "\x85", "\u00a0", "\u1680", "\u2000", "\u200b", "\u2028",
     "\u2029", "\u202f", "\u3000", "\ufeff", "a", "Z", "7", "_", "\u00e9",
     "\u8868"]
)


def _regex_fold(prompt: str) -> str:
    return _WHITESPACE.sub(" ", prompt).strip()


@settings(max_examples=400, derandomize=True)
@given(st.text(alphabet=_ALPHABET, max_size=40) | st.text(max_size=40))
def test_split_join_equals_the_regex(prompt):
    assert normalize_prompt(prompt) == _regex_fold(prompt)


def test_every_code_point_agrees():
    for code_point in range(0x110000):
        char = chr(code_point)
        if 0xD800 <= code_point <= 0xDFFF:
            continue
        text = f"a{char}{char}b"
        assert normalize_prompt(text) == _regex_fold(text), hex(code_point)
