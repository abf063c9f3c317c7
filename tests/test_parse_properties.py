"""Property tests for the parser, the error positions it reports, the
line matcher against the token parser, and the programs printed in
README.md."""

import re
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import distinct_text, repeated_text
from threadsplit import ir
from threadsplit.ir import BasicBlock, BinOp, Branch, Cfg, ConstAssign, Halt, Jump, Print
from threadsplit.kernels import KERNELS, kernel_text
from threadsplit.textfmt import (
    KEYWORDS,
    ParseError,
    _parse_common,
    _parse_tokens,
    format_cfg,
    format_instr,
    parse,
)

README = Path(__file__).resolve().parents[1] / "README.md"

_HEAD = "abcxyzABZ_"
NAMES = st.builds(str.__add__, st.sampled_from(_HEAD), st.text(_HEAD + "019", max_size=5))


def instrs_named(names):
    return st.one_of(
        st.builds(ConstAssign, names, st.integers(ir.INT_MIN, ir.INT_MAX)),
        st.builds(BinOp, names, names, st.sampled_from(ir.BINARY_OPS), names),
        st.builds(Print, names),
    )


@st.composite
def cfgs(draw, names=NAMES):
    """Valid cfgs: block i always reaches i + 1, the last block halts,
    and the other arm of a branch goes anywhere. With other `names` than
    NAMES the cfg may name things badly, and then it is not valid."""
    instrs = instrs_named(names)
    n = draw(st.integers(1, 8))
    labels = draw(st.lists(names, min_size=n, max_size=n, unique=True))
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
            term = Branch(draw(names), *arms)
        blocks.append(BasicBlock(i, label, draw(st.lists(instrs, max_size=4)), term))
    return Cfg(draw(names), blocks)


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


@st.composite
def edited_programs(draw):
    """A printed valid program with one token put in at a random place,
    over up to three characters."""
    text = format_cfg(draw(cfgs()))
    pos = draw(st.integers(0, len(text)))
    cut = draw(st.integers(0, 3))
    return text[:pos] + draw(st.sampled_from(TOKENS)) + text[pos + cut:]


@given(edited_programs())
def test_edited_program_raises_only_parse_error(text):
    _parses_or_parse_error(text)


# The line matcher in front of the token parser only ever accepts: on any
# text, parse gives what the token parser gives, Cfg or error.

# Keywords, names that start with one, and names that are not ASCII.
ODD = sorted(KEYWORDS) + ["blocky", "halt_", "é", "٣", "x٣", "²x"]
ODD_NAMES = st.integers(0, 39).flatmap(lambda k: NAMES if k else st.sampled_from(ODD))


@st.composite
def layouts(draw):
    """A printed program, its names sometimes keywords or not ASCII,
    relaid: blank and comment-only lines, other indents and separators,
    trailing comments, CRLF, no final newline, or all on one line."""
    lines = format_cfg(draw(cfgs(ODD_NAMES))).splitlines()
    if draw(st.integers(0, 4)) == 0:
        return " ".join(line.strip() for line in lines)
    sep = draw(st.sampled_from([" ", "\t", "  ", " \t", ""]))
    out = []
    for line in lines:
        if draw(st.integers(0, 3)) == 0:
            out.append(draw(st.sampled_from(["", "# note", "  \t", "\t# x = 1", " \r"])))
        indent = draw(st.sampled_from(["", "  ", "\t", " \t "]))
        tail = draw(st.sampled_from(["", "", " ", "\t", "  # c", "#", " \r"]))
        out.append(indent + line.strip().replace(" ", sep) + tail)
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(out) + draw(st.sampled_from([eol, ""]))


def _outcome(parser, text: str):
    try:
        return parser(text)
    except ParseError as e:
        return e.message, (e.span.line, e.span.column)


def _agrees_with_token_parser(text: str) -> None:
    want = _outcome(_parse_tokens, text)
    assert _outcome(parse, text) == want
    got = _parse_common(text)
    assert got is None or got == want


@given(st.one_of(
    cfgs().map(format_cfg),
    edited_programs(),
    st.lists(st.sampled_from(TOKENS), max_size=60).map("".join),
    layouts(),
))
def test_parse_agrees_with_token_parser(text):
    _agrees_with_token_parser(text)


@st.composite
def repeated_layouts(draw):
    """A printed program with statement lines copied in: its own
    instructions after a label or an instruction, which keeps it valid,
    and now and then any of its lines anywhere, which mostly does not. A
    copy is verbatim or a near miss that only a blank, a comment or a
    carriage return tells apart."""
    cfg = draw(cfgs())
    lines = format_cfg(cfg).splitlines()
    instrs = [f"    {format_instr(i)}" for blk in cfg.blocks for i in blk.instrs] or ["    x = 1"]
    tails = st.sampled_from(["", "", "", " ", "\t", "  # c", "#", "\r", " \r"])
    out = []
    for line in lines:
        out.append(line)
        if line.startswith("  block ") or line in instrs:
            out += [draw(st.sampled_from(instrs)) + draw(tails)
                    for _ in range(draw(st.integers(0, 4)))]
        if draw(st.integers(0, 9)) == 9:
            out.append(draw(st.sampled_from(lines)) + draw(tails))
    return "\n".join(out) + "\n"


@given(repeated_layouts())
def test_repeated_lines_agree_with_token_parser(text):
    _agrees_with_token_parser(text)


@pytest.mark.parametrize("build", [repeated_text, distinct_text])
def test_matcher_accepts_large_programs(build):
    # A fallback to the token parser would be silent, and slow.
    text = build(2000)
    cfg = _parse_common(text)
    assert cfg is not None
    assert cfg == _parse_tokens(text)


def test_equal_lines_share_one_instruction():
    # At least a quarter of the lines repeat: each distinct line is
    # matched once, and equal lines share one instruction.
    cfg = _parse_common(repeated_text(3))
    first, *rest = (blk.instrs for blk in cfg.blocks)
    for instrs in rest:
        assert all(a is b for a, b in zip(instrs, first, strict=True))
    near = _parse_common("func f {\n  block a:\n" + "    x = 1\n    x = 1 \n" * 3 + "    halt\n}\n")
    one, two, three, *_ = near.blocks[0].instrs
    assert one is three and one is not two and one == two
    # Fewer repeat: one pass matches every line, and each builds its own.
    few = _parse_common("func f {\n  block a:\n    x = 1\n    x = 1\n    y = 2\n    z = 3\n    halt\n}\n")
    one, two, *_ = few.blocks[0].instrs
    assert one == two and one is not two


# The matcher must turn each of these down and leave it to the token
# parser: statements out of place, a repeated label, a literal out of
# range, and a valid literal with more digits than it reads.
TURNED_DOWN = [
    "func f {\n  x = 1\n  block a:\n    halt\n}\n",
    "func f {\n  print x\n  block a:\n    halt\n}\n",
    "func f {\n  halt\n  block a:\n    halt\n}\n",
    "func f {\n  block a:\n    halt\n    x = 1\n}\n",
    "func f {\n  block a:\n    halt\n    print x\n}\n",
    "func f {\n  block a:\n    jump b\n    halt\n  block b:\n    halt\n}\n",
    "func f {\n  block a:\n    br c, b, c\n  block b:\n    x = 1\n  block c:\n    jump b\n}\n",
    "func f {\n  block a:\n    br c, b, c\n  block b:\n  block c:\n    jump b\n}\n",
    "func f {\n  block a:\n    x = 1\n}\n",
    "func f {\n  block a:\n    halt\n}\n  block b:\n    halt\n",
    "func f {\n  block a:\n    halt\n}\n    x = 1\n",
    "func f {\n  block a:\n    halt\n}\n    halt\n",
    "func f {\n  block a:\n    halt\n",
    "func f {\n}\n",
    "func f {\n  block a:\n    br c, b, a\n  block b:\n    jump b\n  block b:\n    halt\n}\n",
    "func f {\n  block a:\n    br c, b, a\n  block b:\n    jump c\n  block c:\n    halt\n"
    "  block c:\n    jump b\n}\n",
    "func f {\n  block a:\n    x = 9999999999999999999\n    halt\n}\n",
    "func f {\n  block a:\n    x = 00000000000000000001\n    halt\n}\n",
]


@pytest.mark.parametrize("text", TURNED_DOWN)
def test_turned_down_texts_agree_with_token_parser(text):
    _agrees_with_token_parser(text)


# Every place a name goes, with the other places holding plain names.
SLOTS = ("func {} {{\n  block {}:\n    {} = 1\n    {} = {} + {}\n    print {}\n"
         "    br {}, {}, {}\n  block {}:\n    jump {}\n  block {}:\n    halt\n}}\n")
PLAIN = ("f", "a", "x", "y", "x", "x", "y", "y", "b", "a", "b", "c", "c")


@pytest.mark.parametrize("slot", range(len(PLAIN)))
def test_odd_names_agree_with_token_parser(slot):
    for name in ODD:
        _agrees_with_token_parser(SLOTS.format(*PLAIN[:slot], name, *PLAIN[slot + 1:]))


@given(cfgs())
def test_matcher_accepts_printed_programs(cfg):
    assert _parse_common(format_cfg(cfg)) == cfg


@pytest.mark.parametrize("name", KERNELS)
def test_matcher_accepts_bundled_kernels(name):
    text = kernel_text(name)
    assert _parse_common(text) == _parse_tokens(text)


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
    _agrees_with_token_parser(text)


def test_readme_programs_parse():
    blocks = re.findall(r"```[^\n]*\n(.*?)```", README.read_text(), re.S)
    programs = [b for b in blocks if b.startswith("func")]
    assert programs
    for text in programs:
        parse(text)
