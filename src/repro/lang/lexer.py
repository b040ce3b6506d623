"""Lexer for the mini-Java surface language.

The language is a small Java subset sufficient to express the benchmark
applications of the Thresher paper: classes with single inheritance, static
and instance fields/methods, constructors, arrays, the usual statements and
expressions, and a ``nondet()`` builtin modelling environment choice.
"""

from __future__ import annotations

from typing import Iterator

from .errors import LexError, SourcePosition

KEYWORDS = frozenset(
    [
        "class",
        "extends",
        "static",
        "final",
        "public",
        "private",
        "protected",
        "void",
        "int",
        "boolean",
        "if",
        "else",
        "while",
        "for",
        "return",
        "new",
        "null",
        "true",
        "false",
        "this",
        "super",
        "break",
        "continue",
        "assert",
        "instanceof",
        "throw",
    ]
)

# Multi-character operators must be listed before their prefixes.
OPERATORS = [
    "==",
    "!=",
    "<=",
    ">=",
    "&&",
    "||",
    "++",
    "--",
    "+=",
    "-=",
    "=",
    "<",
    ">",
    "+",
    "-",
    "*",
    "/",
    "%",
    "!",
    "(",
    ")",
    "{",
    "}",
    "[",
    "]",
    ";",
    ",",
    ".",
]


class Token:
    """A single lexical token.

    ``kind`` is one of ``"ident"``, ``"int"``, ``"string"``, ``"op"``,
    ``"keyword"``, or ``"eof"``; ``text`` is the exact source text (for
    string literals, the *unquoted* contents).
    """

    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: SourcePosition) -> None:
        self.kind = kind
        self.text = text
        self.pos = pos

    def __repr__(self) -> str:
        return f"Token({self.kind!r}, {self.text!r}, {self.pos})"

    def is_op(self, text: str) -> bool:
        return self.kind == "op" and self.text == text

    def is_keyword(self, text: str) -> bool:
        return self.kind == "keyword" and self.text == text


def tokenize(source: str, first_line: int = 1) -> list[Token]:
    """Tokenize ``source``, returning a token list terminated by EOF.

    ``first_line`` is the line the text starts on; the frontend sets it
    when it checks a text against a base program (see
    :func:`repro.lang.frontend`)."""
    return list(_tokens(source, first_line))


def _tokens(source: str, line: int) -> Iterator[Token]:
    i = 0
    col = 1
    n = len(source)

    def pos() -> SourcePosition:
        return SourcePosition(line, col)

    def advance(count: int) -> None:
        nonlocal i, line, col
        for _ in range(count):
            if i < n and source[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        ch = source[i]
        if ch in " \t\r\n":
            advance(1)
            continue
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                advance(1)
            continue
        if source.startswith("/*", i):
            start = pos()
            advance(2)
            while i < n and not source.startswith("*/", i):
                advance(1)
            if i >= n:
                raise LexError("unterminated block comment", start)
            advance(2)
            continue
        if ch.isdigit():
            start = pos()
            j = i
            while j < n and source[j].isdigit():
                j += 1
            text = source[i:j]
            advance(j - i)
            yield Token("int", text, start)
            continue
        if ch.isalpha() or ch == "_" or ch == "$":
            start = pos()
            j = i
            while j < n and (source[j].isalnum() or source[j] in "_$"):
                j += 1
            text = source[i:j]
            advance(j - i)
            kind = "keyword" if text in KEYWORDS else "ident"
            yield Token(kind, text, start)
            continue
        if ch == '"':
            start = pos()
            j = i + 1
            chars: list[str] = []
            while j < n and source[j] != '"':
                if source[j] == "\\" and j + 1 < n:
                    esc = source[j + 1]
                    chars.append({"n": "\n", "t": "\t", '"': '"', "\\": "\\"}.get(esc, esc))
                    j += 2
                else:
                    chars.append(source[j])
                    j += 1
            if j >= n:
                raise LexError("unterminated string literal", start)
            advance(j + 1 - i)
            yield Token("string", "".join(chars), start)
            continue
        matched = False
        for op in OPERATORS:
            if source.startswith(op, i):
                start = pos()
                advance(len(op))
                yield Token("op", op, start)
                matched = True
                break
        if not matched:
            raise LexError(f"unexpected character {ch!r}", pos())
    yield Token("eof", "", pos())
