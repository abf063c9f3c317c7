"""Textual format for CFGs: parser, pretty-printer, and DOT renderings
of original and per-thread graphs.

Grammar (one function per file):

    func NAME {
      block LABEL:
        INSTR
        ...
        TERM
      ...
    }

    INSTR ::= ID = NUM | ID = ID OP ID | print ID
    TERM  ::= jump LABEL | br ID, LABEL, LABEL | halt

    ID    ::= a letter or `_`, then letters, digits or `_`
    NUM   ::= an optional `-`, then decimal digits (64-bit signed range)
    OP    ::= + - * / % < <= == !=

`#` starts a line comment. Whitespace is insignificant except that
statements inside a block are separated by newlines. Block ids are
assigned in textual order starting at 0; the first block is the entry.

`parse` tries two parsers in turn. The line matcher (`_parse_common`)
reads the usual layout, one statement per line. It matches and decodes
each distinct line once, so in every text it accepts, equal instruction
lines share one frozen instruction. It only accepts: on any text it does
not take whole, valid and in that layout, it gives up without a word,
and the token parser (`_parse_tokens`) reads the text from the start.
The token parser is the only source of ParseError. It checks every
character before it parses, so a stray character is reported before an
earlier syntax error: an order a line-at-a-time reader would have to
tokenize the whole text to match.

The token parser splits the text into plain string tokens with one
regular expression, and a token's kind is read off its text. Line and
column are worked out only for a ParseError, by scanning again up to
the offending token. Errors found after parsing (unknown labels aside)
come from ir.validate and are reported at the label of the first block
the first error names, or at 1:1 when it names none.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NoReturn

from . import ir
from .ir import BasicBlock, BinOp, Branch, Cfg, ConstAssign, Instr, Jump, Print
from .obfuscate import ThreadCfg

KEYWORDS = {"func", "block", "print", "jump", "br", "halt"}

# One token per match, after skipping blanks and a comment. The last
# alternatives never fail: `.` captures a stray character (checked in
# `_check_chars`), and the empty match at the end of the text is the
# end-of-input token "". A name starts with a letter (str.isalpha) or
# `_` and goes on with `\w`; a number is made of `\d` digits, which int()
# reads. `[^\W\d]` also admits digit signs like '²', which are stray.
_TOKEN_RE = re.compile(
    r"[ \t\r]*(?:#[^\n]*)?([^\W\d]\w*|-?\d+|<=|==|!=|[=+\-*/%<,:{}\n]|.|\Z)"
)
_PUNCT = frozenset(("<=", "==", "!=", "\n", "")) | frozenset("=+-*/%<,:{}")
_END_OF_STATEMENT = ("block", "}", "")

# The line matcher: after the `func NAME {` header, one match per
# distinct line (the header's own line goes on right after its `{`), over
# the distinct lines joined. A line holds one statement or none, then
# blanks, an optional comment and its newline or the end of the text;
# any other line fills the last group. Names are ASCII and not
# keywords, and literals have at most 19 digits: whatever else the token
# parser reads is left to it. Groups: block label; dest, lhs, op, rhs or
# dest, number; print or jump and its name; br's three names; halt or
# `}`; the bad line.
_NAME = rf"(?!(?:{'|'.join(sorted(KEYWORDS))})(?!\w))[A-Za-z_][A-Za-z0-9_]*(?!\w)"
_BLANK = r"[ \t\r]*"
_COMMENT = r"(?:#[^\n]*)?"
_HEADER_RE = re.compile(rf"(?:{_BLANK}{_COMMENT}\n)*{_BLANK}func[ \t\r]+({_NAME}){_BLANK}\{{")
_LINE_RE = re.compile(
    rf"{_BLANK}(?:(?:block[ \t\r]+({_NAME}){_BLANK}:"
    rf"|({_NAME}){_BLANK}={_BLANK}(?:({_NAME}){_BLANK}(<=|==|!=|[-+*/%<]){_BLANK}({_NAME})"
    rf"|(-?[0-9]{{1,19}}(?!\w)))"
    rf"|(print|jump)[ \t\r]+({_NAME})"
    rf"|br[ \t\r]+({_NAME}){_BLANK},{_BLANK}({_NAME}){_BLANK},{_BLANK}({_NAME})"
    rf"|(halt|\}})){_BLANK})?{_COMMENT}(?:\n|\Z)|(.+)\n?"
)
# The kinds of a decoded distinct line (a row), each with its value: an
# instruction; a block label; a terminator's (condition or "" for a jump,
# target label, target label), or None for halt; the closing `}`; a blank.
_INSTR, _LABEL, _TERM, _CLOSE, _BLANK_LINE = range(5)


@dataclass(frozen=True)
class SourceSpan:
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


class ParseError(Exception):
    def __init__(self, message: str, span: SourceSpan):
        super().__init__(f"{span}: {message}")
        self.message = message
        self.span = span


class _Parser:
    """Parser state over the token strings. A token's kind is read
    off its text: "" is the end of input, "\\n" the end of a line, a
    keyword or punctuation stands for itself, and `idents` holds every
    distinct name."""

    def __init__(self, text: str):
        self.text = text
        self.toks = toks = _TOKEN_RE.findall(text)
        self.idents = self._check_chars(set(toks))
        self.i = 0

    def _check_chars(self, distinct: set[str]) -> set[str]:
        """Raise on the first stray character; return the names."""
        idents, stray = set(), []
        for tok in distinct:
            if tok in _PUNCT:
                continue
            c = tok[0]
            if c.isalpha() or c == "_":
                if tok not in KEYWORDS:
                    idents.add(tok)
            elif not (c.isdecimal() or c == "-"):
                # `.` caught it, or `\w` took a digit like '²' that int() rejects.
                stray.append(tok)
        if stray:
            k = min(map(self.toks.index, stray))
            self.fail(k, f"unexpected character {self.toks[k][0]!r}")
        return idents

    def span(self, k: int) -> SourceSpan:
        """Line and column of token k, found by scanning up to it."""
        for j, mo in enumerate(_TOKEN_RE.finditer(self.text)):
            if j == k:
                break
        offset = mo.start(1)
        return SourceSpan(self.text.count("\n", 0, offset) + 1,
                          offset - self.text.rfind("\n", 0, offset))

    def fail(self, k: int, message: str) -> NoReturn:
        raise ParseError(message, self.span(k))

    def skip_newlines(self) -> str:
        toks, i = self.toks, self.i
        while toks[i] == "\n":
            i += 1
        self.i = i
        return toks[i]

    def expect(self, want: str) -> None:
        tok = self.toks[self.i]
        if tok != want:
            self.fail(self.i, f"expected '{want}', got {_describe(tok)}")
        self.i += 1

    def name(self, what: str) -> tuple[str, int]:
        k = self.i
        tok = self.toks[k]
        if tok not in self.idents:
            self.fail(k, f"expected {what}, got {_describe(tok)}")
        self.i = k + 1
        return tok, k

    def end_statement(self) -> None:
        # A statement ends at a newline, or just before `block` / `}`.
        tok = self.toks[self.i]
        if tok == "\n":
            self.i += 1
        elif tok not in _END_OF_STATEMENT:
            self.fail(self.i, f"expected end of statement, got {_describe(tok)}")


def _describe(tok: str) -> str:
    if tok == "":
        return "end of input"
    if tok == "\n":
        return "end of line"
    return f"'{tok}'"


def parse(text: str) -> Cfg:
    """Parse a program into a validated Cfg; raises ParseError on bad input."""
    cfg = _parse_common(text)
    return cfg if cfg is not None else _parse_tokens(text)


def _parse_common(text: str) -> Cfg | None:
    """The Cfg of a program laid out one statement per line, or None for
    anything else: a line that does not match, a statement out of place,
    an unknown label or a cfg with problems (a duplicate label or an
    out-of-range literal among them). It never reports; `_parse_tokens`
    does.

    Each distinct line after the header is matched and decoded once into
    a row, and every line is read through those rows, so equal
    instruction lines share one frozen instruction."""
    head = _HEADER_RE.match(text)
    if head is None:
        return None
    lines = text[head.end():].split("\n")
    rows = dict.fromkeys(lines)
    for line, (label, dest, lhs, op, rhs, num, word, arg, cond, iftrue, iffalse, end,
               bad) in zip(rows, _LINE_RE.findall("\n".join(rows))):
        if dest:
            rows[line] = _INSTR, BinOp(dest, lhs, op, rhs) if op else ConstAssign(dest, int(num))
        elif label:
            rows[line] = _LABEL, label
        elif word == "print":
            rows[line] = _INSTR, Print(arg)
        elif word or cond:
            rows[line] = _TERM, (cond, arg or iftrue, arg or iffalse)
        elif end:
            rows[line] = (_TERM, None) if end == "halt" else (_CLOSE, None)
        elif bad:
            return None
        else:
            rows[line] = _BLANK_LINE, None
    blocks: list[BasicBlock] = []
    labels: dict[str, int] = {}
    pending: list[tuple[BasicBlock, str, str, str]] = []
    add = None  # appends to the open block's instructions, until its terminator
    closed = False
    for kind, value in map(rows.__getitem__, lines):
        if kind == _INSTR:
            if add is None:
                return None
            add(value)
        elif kind == _LABEL:
            if add is not None or closed:
                return None
            labels[value] = len(blocks)
            blk = BasicBlock(len(blocks), value)
            blocks.append(blk)
            add = blk.instrs.append
        elif kind == _TERM:  # a terminator closes the block
            if add is None:
                return None
            if value is not None:
                pending.append((blk, *value))
            add = None
        elif kind == _CLOSE:
            if add is not None or closed:
                return None
            closed = True
    if not closed:
        return None
    for blk, cond, iftrue, iffalse in pending:
        if iftrue not in labels or iffalse not in labels:
            return None
        blk.term = Branch(cond, labels[iftrue], labels[iffalse]) if cond else Jump(labels[iftrue])
    cfg = Cfg(name=head[1], blocks=blocks)
    return None if cfg.problems else cfg


def _parse_tokens(text: str) -> Cfg:
    """The reference parser, and the only one that reports: it reads the
    text token by token and raises ParseError at the first error."""
    p = _Parser(text)
    p.skip_newlines()
    p.expect("func")
    name = p.name("function name")[0]
    p.expect("{")

    blocks: list[BasicBlock] = []
    labels: dict[str, int] = {}
    label_toks: list[int] = []  # token index of each block's label
    # Terminator targets are labels until the whole function is read:
    # (block, branch condition or None for a jump, [(label, token index)]).
    pending: list[tuple[BasicBlock, str | None, list[tuple[str, int]]]] = []

    while (tok := p.skip_newlines()) != "}":
        if tok != "block":
            p.fail(p.i, f"expected 'block' or '}}', got {_describe(tok)}")
        p.i += 1
        label, k = p.name("block label")
        if label in labels:
            p.fail(k, f"duplicate block label {label!r}")
        p.expect(":")
        blk = BasicBlock(id=len(blocks), label=label)
        labels[label] = blk.id
        label_toks.append(k)
        _parse_statements(p, blk, pending)
        blocks.append(blk)

    p.i += 1  # the closing brace
    tok = p.skip_newlines()
    if tok != "":
        p.fail(p.i, f"trailing input after '}}': {_describe(tok)}")

    for blk, cond, targets in pending:
        for label, k in targets:
            if label not in labels:
                p.fail(k, f"unknown block label {label!r}")
        ids = [labels[label] for label, _ in targets]
        blk.term = Jump(ids[0]) if cond is None else Branch(cond, *ids)

    cfg = Cfg(name=name, blocks=blocks)
    errors = cfg.problems
    if errors:
        b = errors[0].block
        span = SourceSpan(1, 1) if b is None else p.span(label_toks[b])
        raise ParseError("; ".join(errors), span)
    return cfg


def _parse_statements(p: _Parser, blk: BasicBlock, pending: list) -> None:
    """Parse `(INSTR NEWLINE)* TERM` into blk; targets resolved later."""
    toks, idents, instrs = p.toks, p.idents, blk.instrs
    while True:
        tok = p.skip_newlines()
        i = p.i
        if tok in idents:
            # ID = NUM | ID = ID OP ID
            if toks[i + 1] != "=":
                p.fail(i + 1, f"expected '=', got {_describe(toks[i + 1])}")
            rhs = toks[i + 2]
            if rhs in idents:
                op = toks[i + 3]
                if op not in ir.BINARY_OPS:
                    p.fail(i + 3, f"expected an operator, got {_describe(op)}")
                p.i = i + 4
                rhs2 = p.name("variable name")[0]
                instrs.append(BinOp(tok, rhs, op, rhs2))
            elif rhs and (rhs[0].isdecimal() or rhs[0] == "-" and len(rhs) > 1):
                instrs.append(ConstAssign(tok, _int_literal(p, i + 2)))
                p.i = i + 3
            else:
                p.fail(i + 2, f"expected a number or variable, got {_describe(rhs)}")
            p.end_statement()
            continue
        if tok in _END_OF_STATEMENT:
            p.fail(i, f"block {blk.label!r} has no terminator")
        p.i = i + 1
        if tok == "print":
            instrs.append(Print(p.name("variable name")[0]))
            p.end_statement()
            continue
        if tok == "jump":
            pending.append((blk, None, [p.name("target label")]))
        elif tok == "br":
            cond = p.name("condition variable")[0]
            p.expect(",")
            iftrue = p.name("target label")
            p.expect(",")
            pending.append((blk, cond, [iftrue, p.name("target label")]))
        elif tok != "halt":  # a halt block keeps its default Halt terminator
            p.fail(i, f"expected a statement, got {_describe(tok)}")
        p.end_statement()
        return


def _int_literal(p: _Parser, k: int) -> int:
    text = p.toks[k]
    try:
        value = int(text)
    except ValueError:  # more digits than int() converts
        value = None
    if value is None or not ir.INT_MIN <= value <= ir.INT_MAX:
        p.fail(k, f"integer literal {text} outside 64-bit signed range")
    return value


def format_cfg(cfg: Cfg) -> str:
    """Pretty-print a Cfg in the grammar above; parse(format_cfg(c)) == c."""
    lines = [f"func {cfg.name} {{"]
    for blk in cfg.blocks:
        lines.append(f"  block {blk.label}:")
        for instr in blk.instrs:
            lines.append(f"    {format_instr(instr)}")
        lines.append(f"    {_format_term(cfg, blk.term)}")
    lines.append("}")
    return "\n".join(lines) + "\n"


def format_instr(instr: Instr) -> str:
    if isinstance(instr, ConstAssign):
        return f"{instr.dest} = {instr.value}"
    if isinstance(instr, BinOp):
        return f"{instr.dest} = {instr.lhs} {instr.op} {instr.rhs}"
    return f"print {instr.src}"


def _format_term(cfg: Cfg, term) -> str:
    if isinstance(term, Jump):
        return f"jump {cfg.blocks[term.target].label}"
    if isinstance(term, Branch):
        t, f = cfg.blocks[term.iftrue].label, cfg.blocks[term.iffalse].label
        return f"br {term.cond}, {t}, {f}"
    return "halt"

def emit_dot_cfg(cfg: Cfg) -> str:
    """One node per block labeled `id: label`; one edge per successor
    relation, branch edges annotated T/F."""
    lines = [f'digraph "{cfg.name}" {{']
    for blk in cfg.blocks:
        lines.append(f'  b{blk.id} [shape=box, label="{blk.id}: {blk.label}"];')
    for blk in cfg.blocks:
        for succ in sorted(set(ir.targets(blk.term))):
            note = _branch_note(blk.term, succ)
            lines.append(f"  b{blk.id} -> b{succ}{note};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _branch_note(term, succ: int) -> str:
    if not isinstance(term, Branch):
        return ""
    if term.iftrue == term.iffalse:
        return ' [label="T/F"]'
    return ' [label="T"]' if succ == term.iftrue else ' [label="F"]'


def emit_dot_thread(tcfg: ThreadCfg, cfg: Cfg | None = None) -> str:
    """Render one generated thread: Entry/Exit, the shared Wait/Switch
    pairs (wait sets shown in the Wait labels, DONE included), the owned
    blocks, and the handoff edges between them."""
    wait_sets = tcfg.wait_sets()
    wait_id = {ws: i for i, ws in enumerate(wait_sets)}

    lines = [f'digraph "thread{tcfg.thread_index}" {{']
    lines.append('  entry [shape=oval, label="Entry"];')
    lines.append('  exit [shape=oval, label="Exit"];')
    for i, ws in enumerate(wait_sets):
        flags = ", ".join(str(b) for b in ws.flags)
        flags = f"{flags}, DONE" if flags else "DONE"
        lines.append(f'  wait{i} [shape=diamond, label="Wait {{{flags}}}"];')
        if ws.flags:
            lines.append(f'  switch{i} [shape=trapezium, label="Switch"];')
    for b in sorted(tcfg.owned_blocks):
        label = f"{b}: {cfg.blocks[b].label}" if cfg is not None else str(b)
        lines.append(f'  b{b} [shape=box, label="{label}"];')

    lines.append(f"  entry -> wait{wait_id[tcfg.entry_wait]};")
    for i, ws in enumerate(wait_sets):
        if not ws.flags:
            lines.append(f"  wait{i} -> exit;")
            continue
        lines.append(f"  wait{i} -> switch{i};")
        for b in ws.flags:
            lines.append(f"  switch{i} -> b{b};")
        lines.append(f'  switch{i} -> exit [label="DONE"];')
    for b in sorted(tcfg.owned_blocks):
        ws = tcfg.per_block_wait[b]
        if ws.flags:
            lines.append(f"  b{b} -> wait{wait_id[ws]};")
        else:
            # Nothing of this thread is reachable from b, so b is its last word.
            lines.append(f"  b{b} -> exit;")
    lines.append("}")
    return "\n".join(lines) + "\n"
