"""Property tests for the parser, the error positions it reports, and the
programs printed in README.md."""

import re
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from threadsplit import ir
from threadsplit.ir import BasicBlock, BinOp, Branch, Cfg, ConstAssign, Halt, Jump, Print
from threadsplit.textfmt import KEYWORDS, ParseError, format_cfg, parse

README = Path(__file__).resolve().parents[1] / "README.md"

_HEAD = "abcxyzABZ_"
NAMES = st.builds(str.__add__, st.sampled_from(_HEAD), st.text(_HEAD + "019", max_size=5))

INSTRS = st.one_of(
    st.builds(ConstAssign, NAMES, st.integers(ir.INT_MIN, ir.INT_MAX)),
    st.builds(BinOp, NAMES, NAMES, st.sampled_from(ir.BINARY_OPS), NAMES),
    st.builds(Print, NAMES),
)


@st.composite
def cfgs(draw):
    """Valid cfgs: block i always reaches i + 1, the last block halts,
    and the other arm of a branch goes anywhere."""
    n = draw(st.integers(1, 8))
    labels = draw(st.lists(NAMES, min_size=n, max_size=n, unique=True))
    blocks = []
    for i, label in enumerate(labels):
        if i == n - 1:
            term = Halt()
        elif draw(st.booleans()):
            term = Jump(i + 1)
        else:
            arms = [i + 1, draw(st.integers(0, n - 1))]
            if draw(st.booleans()):
                arms.reverse()
            term = Branch(draw(NAMES), *arms)
        blocks.append(BasicBlock(i, label, draw(st.lists(INSTRS, max_size=4)), term))
    return Cfg(draw(NAMES), blocks)


@given(cfgs())
def test_format_then_parse_is_identity(cfg):
    assert not ir.validate(cfg)
    assert parse(format_cfg(cfg)) == cfg


TOKENS = sorted(KEYWORDS) + [
    "a", "b", "x", "_t1", "0", "7", "-3", "99999999999999999999", "=", "+", "-",
    "*", "/", "%", "<", "<=", "==", "!=", ",", ":", "{", "}", "\n", "#", " ",
    "\t", "\r", ">", "!", "²", "½", "é", "٣", "\x0c",
]


def _parses_or_parse_error(text: str) -> None:
    try:
        parse(text)
    except ParseError:
        pass


@given(st.text())
def test_arbitrary_text_raises_only_parse_error(text):
    _parses_or_parse_error(text)


@given(st.lists(st.sampled_from(TOKENS), max_size=60).map("".join))
def test_token_soup_raises_only_parse_error(text):
    _parses_or_parse_error(text)


@given(cfgs(), st.data())
def test_edited_program_raises_only_parse_error(cfg, data):
    text = format_cfg(cfg)
    pos = data.draw(st.integers(0, len(text)))
    cut = data.draw(st.integers(0, 3))
    _parses_or_parse_error(text[:pos] + data.draw(st.sampled_from(TOKENS)) + text[pos + cut:])


def test_non_decimal_digit_is_a_parse_error():
    with pytest.raises(ParseError) as ei:
        parse("func f {\n  block a:\n    x = ²\n    halt\n}\n")
    assert (ei.value.span.line, ei.value.span.column) == (3, 9)


def test_overlong_literal_is_a_parse_error():
    with pytest.raises(ParseError) as ei:
        parse("func f {\n  block a:\n    x = " + "9" * 5000 + "\n    halt\n}\n")
    assert "64-bit" in ei.value.message


# Broken programs and the (line, column, message) the parser reports for
# each, recorded from the character-at-a-time tokenizer this one replaced.
# An ir.validate error points at the label of the first block it names.
BROKEN = [
    ("", (1, 1, "expected 'func', got end of input")),
    ("# only a comment", (1, 17, "expected 'func', got end of input")),
    ("fun f { block a: halt }", (1, 1, "expected 'func', got 'fun'")),
    ("func { block a: halt }", (1, 6, "expected function name, got '{'")),
    ("func f block a: halt }", (1, 8, "expected '{', got 'block'")),
    ("func f {\n  block a:\n    halt\n", (4, 1, "expected 'block' or '}', got end of input")),
    ("func f {\n  blok a:\n    halt\n}\n", (2, 3, "expected 'block' or '}', got 'blok'")),
    ("func f {\n  block 1a:\n    halt\n}\n", (2, 9, "expected block label, got '1'")),
    ("func f {\n  block a\n    halt\n}\n", (2, 10, "expected ':', got end of line")),
    ("func f {\n  block a:\n    x = 1\n}\n", (4, 1, "block 'a' has no terminator")),
    ("func f {\n  block a:\n    x 1\n    halt\n}\n", (3, 7, "expected '=', got '1'")),
    ("func f {\n  block a:\n    x = \n    halt\n}\n",
     (3, 9, "expected a number or variable, got end of line")),
    ("func f {\n  block a:\n    x = y\n    halt\n}\n",
     (3, 10, "expected an operator, got end of line")),
    ("func f {\n  block a:\n    x = y ^ z\n    halt\n}\n", (3, 11, "unexpected character '^'")),
    ("func f {\n  block a:\n    x = y > z\n    halt\n}\n", (3, 11, "unexpected character '>'")),
    ("func f {\n  block a:\n    x = y + 3\n    halt\n}\n",
     (3, 13, "expected variable name, got '3'")),
    ("func f {\n  block a:\n    x = 9223372036854775808\n    halt\n}\n",
     (3, 9, "integer literal 9223372036854775808 outside 64-bit signed range")),
    ("func f {\n  block a:\n    x = -9223372036854775809\n    halt\n}\n",
     (3, 9, "integer literal -9223372036854775809 outside 64-bit signed range")),
    ("func f {\n  block a:\n    print 5\n    halt\n}\n",
     (3, 11, "expected variable name, got '5'")),
    ("func f {\n  block a:\n    print x y\n    halt\n}\n",
     (3, 13, "expected end of statement, got 'y'")),
    ("func f {\n  block a:\n    jmp b\n  block b:\n    halt\n}\n",
     (3, 9, "expected '=', got 'b'")),
    ("func f {\n  block a:\n    jump\n  block b:\n    halt\n}\n",
     (3, 9, "expected target label, got end of line")),
    ("func f {\n  block a:\n    br c a, b\n  block b:\n    halt\n}\n",
     (3, 10, "expected ',', got 'a'")),
    ("func f {\n  block a:\n    br c, a, nowhere\n  block b:\n    halt\n}\n",
     (3, 14, "unknown block label 'nowhere'")),
    ("func f {\n  block a:\n    jump b\n  block a:\n    halt\n}\n",
     (4, 9, "duplicate block label 'a'")),
    ("func f {\n  block a:\n    halt x\n}\n", (3, 10, "expected end of statement, got 'x'")),
    ("func f {\n\tblock a:\r\n\t\tx = 1 @ 2\r\n\t\thalt\r\n}\r\n",
     (3, 9, "unexpected character '@'")),
    ("func f {\n  block a:  # label\n    x = 1  # one\n    halt  # done\n}\n# tail\nfunc g",
     (7, 1, "trailing input after '}': 'func'")),
    ("func f {\n  block a:\n    halt\n  block b:\n    halt\n}\n",
     (2, 9, "multiple exits: blocks [0, 1] all halt")),
    ("func f {\n  block a:\n    x = y + -1\n    halt\n}\n",
     (3, 13, "expected variable name, got '-1'")),
    ("func f {\n  block a:\n    x = y -1\n    halt\n}\n",
     (3, 11, "expected an operator, got '-1'")),
    ("func f {\n  block a:\n    x = 1\n    y = x ! x\n    halt\n}\n",
     (4, 11, "unexpected character '!'")),
    ("func f {\n  block a:\n    x = 1 halt\n}\n",
     (3, 11, "expected end of statement, got 'halt'")),
    ("func f {\n  block a:\n    é = 1\n    halt\n}\n",
     (2, 9, "block 0: invalid variable name 'é'")),
    ("func f {\n  block a:\n    x = ٣\n    y = x + ½\n    halt\n}\n",
     (4, 13, "unexpected character '½'")),
    ("func f {\n  block a:\n    x = 1\f\n    halt\n}\n", (3, 10, "unexpected character '\\x0c'")),
    ("func f {\n  block a:\n    jump a\n}\n", (1, 1, "no exit: no block has a halt terminator")),
    ("func f {\n  block a:\n    halt\n}\n}\n", (5, 1, "trailing input after '}': '}'")),
    ("func f {\n  block a:\n    jump b\n  block b:\n    é = 1\n    halt\n}\n",
     (4, 9, "block 1: invalid variable name 'é'")),
    ("func f {\n  block a:\n    halt\n  block b:\n    jump a\n}\n",
     (4, 9, "block 1 (b) is unreachable from entry")),
]


@pytest.mark.parametrize("text, want", BROKEN)
def test_error_position_and_message(text, want):
    with pytest.raises(ParseError) as ei:
        parse(text)
    assert (ei.value.span.line, ei.value.span.column, ei.value.message) == want


def test_readme_programs_parse():
    blocks = re.findall(r"```[^\n]*\n(.*?)```", README.read_text(), re.S)
    programs = [b for b in blocks if b.startswith("func")]
    assert programs
    for text in programs:
        parse(text)
