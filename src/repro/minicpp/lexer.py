"""Lexer for MiniC++, the C++ subset accepted by the reproduction compiler.

Covers the lexical needs of the paper's workloads: identifiers, keywords,
integer/float/char/bool literals, the full C++ operator set used by
expression code (including ``->``, ``::``, ``<<``/``>>``, compound
assignments, increment/decrement), and both comment styles.

One compiled alternation reads the text once: each match is a run of
blanks and comments, one token, or the start of something malformed.
Lines and columns come from the offset of the last newline seen.
"""

from __future__ import annotations

import re
from typing import NamedTuple

KEYWORDS = frozenset(
    """
    bool break char class const continue delete do double else false float
    for if int long namespace new operator private protected public return
    short signed sizeof static static_cast struct template this true typename
    unsigned virtual void while using
    """.split()
)

# Multi-character operators, longest first so maximal munch works.
_OPERATORS = [
    "<<=", ">>=", "->*", "...",
    "::", "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "+", "-", "*", "/", "%", "=", "<", ">", "!", "~", "&", "|", "^", "?",
    ":", ";", ",", ".", "(", ")", "[", "]", "{", "}",
]

_ESCAPES = {"n": 10, "t": 9, "0": 0, "\\": 92, "'": 39}

# Alternatives in the order they are tried.  Integer suffixes (10u, 3UL,
# 0xFFu) and a float's f/F are consumed and ignored; ``1..2`` is 1, '.',
# .2 and ``1e+`` is 1, e, +.  An unterminated ``/*`` falls through the
# ``skip`` alternative and must not lex as '/' '*', so ``bad`` sits before
# the operators: it is whatever starts no token.
_TOKEN = re.compile(
    "|".join(
        [
            r"(?P<skip>(?:[ \t\r\n]+|//[^\n]*|/\*.*?\*/)+)",
            r"(?P<ident>[^\W\d]\w*)",
            r"(?P<hex>0[xX][0-9a-fA-F]+)[uUlL]{0,3}",
            r"(?P<char>'(?:\\.|[^\\])')",
            r"(?P<bad>/\*|0[xX]|')",
            r"(?P<float>(?:\d+\.(?!\.)\d*|\.\d+)(?:[eE][+-]?\d+)?[fF]?|\d+[eE][+-]?\d+[fF]?)",
            r"(?P<int>\d+)[uUlL]{0,3}",
            "(?P<op>" + "|".join(map(re.escape, _OPERATORS)) + ")",
            r"(?P<stray>.)",
        ]
    ),
    re.DOTALL,
)


class LexError(Exception):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class Token(NamedTuple):
    kind: str  # 'ident' | 'keyword' | 'int' | 'float' | 'char' | 'op' | 'eof'
    text: str
    line: int
    column: int
    value: object = None

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.text!r} @{self.line}:{self.column})"


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    append = tokens.append
    new = tuple.__new__  # Token(...) and Token._make are Python-level; this is the C constructor
    keywords = KEYWORDS
    line = 1
    line_start = 0  # offset of the first character of ``line``
    for match in _TOKEN.finditer(source):
        kind = match.lastgroup
        text = match[kind]
        start = match.start()
        if kind == "skip":
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = start + text.rfind("\n") + 1
            continue
        column = start - line_start + 1
        if kind == "op":
            append(new(Token, ("op", text, line, column, None)))
        elif kind == "ident":
            kind = "keyword" if text in keywords else "ident"
            append(new(Token, (kind, text, line, column, None)))
        elif kind == "int":
            append(new(Token, ("int", text, line, column, int(text))))
        elif kind == "float":
            if text[-1] in "fF":
                text = text[:-1]
                append(new(Token, ("float", text + "f", line, column, float(text))))
            else:
                append(new(Token, ("float", text, line, column, float(text))))
        elif kind == "hex":
            append(new(Token, ("int", text, line, column, int(text, 16))))
        elif kind == "char":
            body = text[1:-1]
            if len(body) == 1:
                value = ord(body)
            elif body[1] in _ESCAPES:
                value = _ESCAPES[body[1]]
            else:
                raise _malformed(source, start, line, column)
            append(new(Token, ("char", text, line, column, value)))
            if body == "\n":  # a raw newline between the quotes
                line += 1
                line_start = start + 2
        else:
            raise _malformed(source, start, line, column)
    end = len(source)
    append(new(Token, ("eof", "", line, end - line_start + 1, None)))
    return tokens


def _malformed(source: str, start: int, line: int, column: int) -> LexError:
    """The diagnostic for text at ``start`` that begins no token."""
    if source.startswith("/*", start):
        return LexError("unterminated block comment", line, column)
    if source.startswith(("0x", "0X"), start):
        return LexError("hexadecimal literal without digits", line, column)
    if source[start] == "'":
        body = source[start + 1 : start + 3]
        if body[:1] == "\\" and body[1:] and body[1] not in _ESCAPES:
            return LexError(f"unknown escape \\{body[1]}", line, column + 2)
        return LexError("unterminated character literal", line, column)
    return LexError(f"unexpected character {source[start]!r}", line, column)
