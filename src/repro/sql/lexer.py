"""SQL tokenizer."""

from __future__ import annotations

import typing
from dataclasses import dataclass

from repro.errors import SqlError

KEYWORDS = {
    "SELECT", "FROM", "WHERE", "INSERT", "INTO", "VALUES", "UPDATE", "SET",
    "DELETE", "CREATE", "TABLE", "INDEX", "ON", "PRIMARY", "KEY",
    "DISTRIBUTE", "BY", "HASH", "REPLICATION", "AND", "OR", "NOT", "ORDER",
    "LIMIT", "ASC", "DESC", "BEGIN", "COMMIT", "ROLLBACK", "NULL", "TRUE",
    "FALSE", "COUNT", "SUM", "AVG", "MIN", "MAX", "AS", "INT", "BIGINT",
    "FLOAT", "DOUBLE", "TEXT", "VARCHAR", "FOR", "IN",
}

_PUNCT = {"(", ")", ",", "*", "=", "<", ">", "+", "-", "/", ";", "?", "."}
_TWO_CHAR = {"<=", ">=", "<>", "!="}


@dataclass(frozen=True)
class Token:
    kind: str  # 'kw' | 'ident' | 'number' | 'string' | 'punct' | 'end'
    value: typing.Any
    position: int


def tokenize(text: str) -> list[Token]:
    """Turn SQL text into tokens. Raises :class:`SqlError` on bad input."""
    tokens: list[Token] = []
    index = 0
    length = len(text)
    while index < length:
        char = text[index]
        if char.isspace():
            index += 1
            continue
        if text[index:index + 2] in _TWO_CHAR:
            tokens.append(Token("punct", text[index:index + 2], index))
            index += 2
            continue
        if char == "'":
            end = text.find("'", index + 1)
            while end != -1 and text[end:end + 2] == "''":
                end = text.find("'", end + 2)
            if end == -1:
                raise SqlError(f"unterminated string literal at {index}")
            raw = text[index + 1:end].replace("''", "'")
            tokens.append(Token("string", raw, index))
            index = end + 1
            continue
        if char.isdigit() or (char == "." and index + 1 < length
                              and text[index + 1].isdigit()):
            end = index
            seen_dot = False
            while end < length and (text[end].isdigit()
                                    or (text[end] == "." and not seen_dot)):
                if text[end] == ".":
                    seen_dot = True
                end += 1
            literal = text[index:end]
            value: typing.Any = float(literal) if seen_dot else int(literal)
            tokens.append(Token("number", value, index))
            index = end
            continue
        if char.isalpha() or char == "_":
            end = index
            while end < length and (text[end].isalnum() or text[end] == "_"):
                end += 1
            word = text[index:end]
            upper = word.upper()
            if upper in KEYWORDS:
                tokens.append(Token("kw", upper, index))
            else:
                tokens.append(Token("ident", word.lower(), index))
            index = end
            continue
        if char in _PUNCT:
            tokens.append(Token("punct", char, index))
            index += 1
            continue
        raise SqlError(f"unexpected character {char!r} at {index}")
    tokens.append(Token("end", None, length))
    return tokens
