"""Token definitions shared by the lexer and parser."""

from __future__ import annotations

import enum
from typing import Any, NamedTuple


class TokenType(enum.Enum):
    KEYWORD = "KEYWORD"
    IDENTIFIER = "IDENTIFIER"
    NUMBER = "NUMBER"
    STRING = "STRING"
    OPERATOR = "OPERATOR"
    PUNCTUATION = "PUNCTUATION"
    PARAMETER = "PARAMETER"
    EOF = "EOF"


#: Reserved words. Identifiers matching these (case-insensitively) are
#: emitted as KEYWORD tokens with an upper-cased value.
KEYWORDS = frozenset(
    {
        "SELECT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER",
        "LIMIT", "OFFSET", "AS", "AND", "OR", "NOT", "IN", "IS", "NULL",
        "LIKE", "BETWEEN", "EXISTS", "DISTINCT", "ASC", "DESC", "JOIN",
        "INNER", "LEFT", "RIGHT", "FULL", "OUTER", "CROSS", "ON", "UNION",
        "ALL", "INSERT", "INTO", "VALUES", "UPDATE", "SET", "DELETE",
        "CREATE", "DROP", "TABLE", "IF", "PRIMARY", "KEY", "UNIQUE",
        "DEFAULT", "CASE", "WHEN", "THEN", "ELSE", "END", "CAST", "TRUE",
        "FALSE", "INDEX", "VIEW", "INTERSECT", "EXCEPT", "ALTER", "ADD",
        "COLUMN", "RENAME", "TO", "BEGIN", "COMMIT", "ROLLBACK",
        "TRANSACTION", "EXPLAIN", "WITH",
    }
)

#: Multi-character operators, longest first so the lexer is greedy.
MULTI_CHAR_OPERATORS = ("<>", "!=", ">=", "<=", "||")

SINGLE_CHAR_OPERATORS = frozenset("+-*/%=<>")

PUNCTUATION = frozenset("(),.;")


class Token(NamedTuple):
    """A single lexical token; a tuple, which the lexer builds faster
    than a frozen dataclass.

    ``value`` holds the normalized payload: upper-cased keyword text,
    the raw identifier, a Python int/float for numbers, or the unescaped
    string body for string literals.
    """

    type: TokenType
    value: Any
    position: int

    def is_keyword(self, *names: str) -> bool:
        return self.type is TokenType.KEYWORD and self.value in names

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Token({self.type.name}, {self.value!r}, pos={self.position})"
