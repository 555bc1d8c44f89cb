"""The frontend against what it replaced (PR 24, the PR 23 pattern).

``tests/oracles.py`` keeps the character-walk lexer and the ladder
``_parse_binary`` verbatim; the one-regex lexer must produce their token
streams (kind, text, value, line, column) and the precedence-climbing
parser their ASTs, on the nine workloads, the load generator's sources,
200 generated programs and hypothesis soups built to sit on the seams —
operators with nothing between them, ``1..2``, ``1.f``, ``1e+``, ``08``,
``a/**/b``, a comment at the end of input, CRLF, columns after tabs.

The walk had four bugs (``tests/test_frontend.py::TestLexer`` pins the
fixes): the differential steps around exactly those and nothing else.
"""

from __future__ import annotations

import random
import re

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.fuzz import generate_source_program
from repro.minicpp import LexError, ParseError, tokenize
from repro.minicpp.parser import Parser
from repro.service.loadgen import generate_sources

from .compile_linear_freeze import nine_workloads
from .oracles import _ORACLE_OPERATORS, OracleParser, oracle_tokenize


def corpus() -> list:
    sources = [source for _, source in nine_workloads()]
    sources += list(generate_sources(64))
    rng = random.Random(24)
    sources += [generate_source_program(rng, seed=24).source for _ in range(200)]
    return sources


@pytest.fixture(scope="module")
def sources() -> list:
    return corpus()


# -- tokens -------------------------------------------------------------------------


def fields(tokens) -> list:
    return [(t.kind, t.text, t.line, t.column, repr(t.value)) for t in tokens]


#: the walk left a hex literal's suffix behind as an identifier
HEX_WITH_SUFFIX = re.compile(r"0[xX][0-9a-fA-F]+[uUlL]")


def assert_same_tokens(source: str) -> None:
    try:
        want = fields(oracle_tokenize(source))
    except (LexError, ValueError, IndexError):
        # ``0x`` was a ValueError and a quote at the end of input an
        # IndexError; both are LexErrors now
        with pytest.raises(LexError):
            tokenize(source)
        return
    # an escaped character literal's text had lost its opening quote
    want = [
        (kind, "'" + text if kind == "char" and text[0] == "\\" else text, line, column, value)
        for kind, text, line, column, value in want
    ]
    assert fields(tokenize(source)) == want


def test_token_streams_equal_on_the_corpus(sources):
    assert len(sources) == 9 + 64 + 200
    for source in sources:
        assert_same_tokens(source)


FRAGMENTS = _ORACLE_OPERATORS + [
    "a", "b1", "_x", "if", "int", "x_y", "é", "٣",
    "0", "1", "08", "42", "12u", "3UL", "7LL", "1f", "0x1F", "0Xab", "0x", "0xg",
    "1.", "1.5", ".5", "1..2", "1...", "1.f", "1.5f", "2.F", "1e5", "1e+", "1e-3f", "1.e2", "1.5.2",
    " ", "  ", "\t", "\n", "\r\n", "\r", "\f",
    "//c\n", "// c", "/* c */", "/* a\nb */", "/*", "/*/", "a/**/b", "*/",
    "'a'", "'\\n'", "'\\0'", "'\\''", "'\\q'", "'''", "''", "'", "'\\", "'\n'", "'ab'",
    "$", "@", "#", "\\",
]


@settings(max_examples=600, deadline=None, suppress_health_check=list(HealthCheck))
@given(st.lists(st.sampled_from(FRAGMENTS), min_size=1, max_size=12))
def test_token_soup(pieces):
    source = "".join(pieces)
    if not HEX_WITH_SUFFIX.search(source):
        assert_same_tokens(source)


def test_operators_lex_longest_first():
    """Every operator directly against every other: maximal munch."""
    for left in _ORACLE_OPERATORS:
        for right in _ORACLE_OPERATORS:
            assert_same_tokens(f"a{left}{right}b")


# -- syntax trees -----------------------------------------------------------------------


def assert_same_tree(source: str) -> None:
    try:
        want = OracleParser(source).parse()
    except ParseError as error:
        with pytest.raises(ParseError) as caught:
            Parser(source).parse()
        assert str(caught.value) == str(error)
        return
    assert Parser(source).parse() == want


def test_syntax_trees_equal_on_the_corpus(sources):
    for source in sources:
        assert_same_tree(source)


OPERANDS = ["a", "b", "c", "1", "2.5f", "p[a]", "f(a, b)", "s.x", "q->y", "(a)", "(int)b", "-a", "!b", "*q", "a++"]
BINARY = ["||", "&&", "|", "^", "&", "==", "!=", "<", ">", "<=", ">=", "<<", ">>", "+", "-", "*", "/", "%"]
GLUE = BINARY + ["?", ":", "=", "+=", "<<=", "(", ")", ","]


@settings(max_examples=400, deadline=None, suppress_health_check=list(HealthCheck))
@given(
    st.lists(st.tuples(st.sampled_from(OPERANDS), st.sampled_from(GLUE)), min_size=1, max_size=14),
    st.sampled_from(OPERANDS),
)
def test_expression_soup(pairs, last):
    """Operands glued by operators of every binding power (and now and then
    by something that makes the expression malformed — then both parsers
    must refuse it with the same message)."""
    expression = " ".join(f"{operand} {glue}" for operand, glue in pairs) + " " + last
    assert_same_tree(f"int g(int a, int b, int c, int* p, S s, S* q) {{ return {expression}; }}")


def test_every_pair_of_operators_binds_as_the_ladder_bound_it():
    for first in BINARY:
        for second in BINARY:
            assert_same_tree(f"int g(int a, int b, int c) {{ return a {first} b {second} c; }}")

