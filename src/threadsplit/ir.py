"""Toy integer IR: instructions, terminators, basic blocks, and CFGs.

Values are 64-bit signed integers with wrapping (two's-complement)
arithmetic. Division and modulo truncate toward zero, C style; a zero
divisor raises `Trap`, which the runtime reports as a defined trap.

A `Cfg` is immutable by convention once built: nothing in this package
mutates one after construction, so it is safe to share across workers,
and so are the facts worked out from it on first use and kept on it
(`Cfg.problems`, `Cfg.code`). A derived cfg, such as a
`dataclasses.replace` of one, is a new object that works out its own.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple

INT_BITS = 64
INT_MIN = -(1 << 63)
INT_MAX = (1 << 63) - 1

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def wrap(value: int) -> int:
    """Reduce an integer into the signed 64-bit range, wrapping on overflow."""
    return ((value - INT_MIN) & ((1 << INT_BITS) - 1)) + INT_MIN


def is_var_name(name: str) -> bool:
    return bool(_NAME_RE.match(name))


class Trap(Exception):
    """A defined runtime trap: division or modulo by zero."""


def _div(a: int, b: int) -> int:
    """Division truncating toward zero, C style."""
    if b == 0:
        raise Trap("division by zero")
    # Floor division truncates when the quotient is not negative.
    return a // b if (a < 0) == (b < 0) else -(-a // b)


def _mod(a: int, b: int) -> int:
    """Remainder with the sign of `a`, so that a == _div(a, b) * b + _mod(a, b)."""
    if b == 0:
        raise Trap("modulo by zero")
    r = a % b  # has the sign of b
    return r - b if r and (a < 0) != (b < 0) else r


# Each op's exact result on two in-range values; the executor wraps it
# into 64 bits.
_OPS: dict[str, Callable[[int, int], int]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": _div,
    "%": _mod,
    "<": lambda a, b: 1 if a < b else 0,
    "<=": lambda a, b: 1 if a <= b else 0,
    "==": lambda a, b: 1 if a == b else 0,
    "!=": lambda a, b: 1 if a != b else 0,
}

BINARY_OPS = tuple(_OPS)


@dataclass(frozen=True, slots=True)
class ConstAssign:
    """dest = <64-bit signed literal>"""

    dest: str
    value: int


@dataclass(frozen=True, slots=True)
class BinOp:
    """dest = lhs <op> rhs; comparison ops yield 0 or 1."""

    dest: str
    lhs: str
    op: str
    rhs: str


@dataclass(frozen=True, slots=True)
class Print:
    """Append the value of `src` to the program output."""

    src: str


Instr = ConstAssign | BinOp | Print


@dataclass(frozen=True, slots=True)
class Jump:
    target: int


@dataclass(frozen=True, slots=True)
class Branch:
    cond: str
    iftrue: int
    iffalse: int


@dataclass(frozen=True, slots=True)
class Halt:
    pass


Terminator = Jump | Branch | Halt


@dataclass(slots=True)
class BasicBlock:
    id: int
    label: str
    instrs: list[Instr] = field(default_factory=list)
    term: Terminator = field(default_factory=Halt)


@dataclass
class Cfg:
    """A single function's control-flow graph; block ids are dense, 0-based."""

    name: str
    blocks: list[BasicBlock]
    entry: int = 0

    @property
    def n(self) -> int:
        return len(self.blocks)

    @cached_property
    def problems(self) -> tuple[Problem, ...]:
        """`validate(self)`, worked out on first use and then kept: parsing,
        obfuscating and verifying one cfg check it once between them."""
        return tuple(validate(self))

    @cached_property
    def code(self) -> Code:
        """`lower(self)`, worked out on first use and then kept: every run
        of this cfg, in any engine, executes the one lowering."""
        return lower(self)


# A lowered block: (instrs, cond slot, iftrue, iffalse). Each instruction
# is (op, dest slot, lhs slot or value, rhs slot): a binary op's function
# with three slots, None for a constant (its value in the lhs place), or
# False for a print (the printed slot in the lhs place). A jump has no
# cond slot and its target as iftrue; a halt has neither.
BlockCode = tuple[tuple[tuple, ...], int | None, int | None, int | None]


class Code(NamedTuple):
    """A cfg lowered for execution: `slots` numbers its variables, and
    `blocks` holds each block's `BlockCode`, indexed by block id."""

    slots: dict[str, int]
    blocks: tuple[BlockCode, ...]


def lower(cfg: Cfg) -> Code:
    """Decode `cfg` once for the executor: number every variable it
    mentions into a slot, in order of first mention, and turn each block
    into a `BlockCode`. An instruction object that several blocks share
    (the parser gives equal lines one object) is lowered once, and its
    blocks share the tuple."""
    slots: dict[str, int] = {}
    done: dict[int, tuple] = {}  # id of each instruction object -> its tuple

    def slot(name: str) -> int:
        return slots.setdefault(name, len(slots))

    blocks = []
    for blk in cfg.blocks:
        instrs = []
        for instr in blk.instrs:
            code = done.get(id(instr))
            if code is None:
                if isinstance(instr, BinOp):
                    code = (_OPS[instr.op], slot(instr.dest), slot(instr.lhs), slot(instr.rhs))
                elif isinstance(instr, ConstAssign):
                    code = (None, slot(instr.dest), instr.value, None)
                else:
                    code = (False, None, slot(instr.src), None)
                done[id(instr)] = code
            instrs.append(code)
        term = blk.term
        if isinstance(term, Branch):
            blocks.append((tuple(instrs), slot(term.cond), term.iftrue, term.iffalse))
        elif isinstance(term, Jump):
            blocks.append((tuple(instrs), None, term.target, None))
        else:
            blocks.append((tuple(instrs), None, None, None))
    return Code(slots, tuple(blocks))


def targets(term: Terminator) -> tuple[int, ...]:
    """(target) for a jump, (iftrue, iffalse) for a branch, () for halt."""
    if isinstance(term, Jump):
        return (term.target,)
    if isinstance(term, Branch):
        return (term.iftrue, term.iffalse)
    return ()


def successor_map(cfg: Cfg) -> list[set[int]]:
    """Each block's successor ids as a set, indexed by block id: one
    element when both arms of a branch agree."""
    return [set(targets(blk.term)) for blk in cfg.blocks]


class Problem(str):
    """One `validate` error: the string is its message; `block` is the id
    of the block it points at, or None when it names none."""

    block: int | None = None


def validate(cfg: Cfg) -> list[Problem]:
    """Check structural well-formedness; returns a list of errors, empty if ok.

    Pure and idempotent. Predecessors of the entry block are allowed (a
    program may loop back to its first block). An instruction object that
    several blocks share (the parser gives equal lines one object) is
    checked once when it is valid; an invalid one is reported in every
    block that holds it.
    """
    errors: list[Problem] = []

    def add(text: str, block: int | None = None) -> None:
        errors.append(Problem(text))
        errors[-1].block = block

    n = len(cfg.blocks)
    if n < 1:
        return [Problem("cfg has no blocks")]

    labels: dict[str, int] = {}
    good_names: set[str] = set()
    good_instrs: set[int] = set()
    for i, blk in enumerate(cfg.blocks):
        if blk.id != i:
            add(f"block at index {i} has id {blk.id} (ids must be dense)", i)
        if not blk.label or not is_var_name(blk.label):
            add(f"block {i} has invalid label {blk.label!r}", i)
        elif blk.label in labels:
            add(f"duplicate label {blk.label!r} (blocks {labels[blk.label]} and {i})", i)
        else:
            labels[blk.label] = i
        _check_instrs(blk, good_names, good_instrs, add)

    if not 0 <= cfg.entry < n:
        add(f"entry id {cfg.entry} out of range")
        return errors

    halts = []
    for blk in cfg.blocks:
        term = blk.term
        if isinstance(term, Halt):
            halts.append(blk.id)
        for t in targets(term):
            if not 0 <= t < n:
                add(f"dangling edge: block {blk.id} targets nonexistent block {t}", blk.id)
        if isinstance(term, Branch) and not is_var_name(term.cond):
            add(f"block {blk.id} branches on invalid variable {term.cond!r}", blk.id)

    if not halts:
        add("no exit: no block has a halt terminator")
    elif len(halts) > 1:
        add(f"multiple exits: blocks {halts} all halt", halts[0])

    if not errors:
        unreachable = set(range(n)) - reachable([blk.term for blk in cfg.blocks], cfg.entry)
        for b in sorted(unreachable):
            add(f"block {b} ({cfg.blocks[b].label}) is unreachable from entry", b)
    return errors


def _check_instrs(blk: BasicBlock, good_names: set[str], good_instrs: set[int], add) -> None:
    """Reports each error through `add`. `good_names` holds the names
    already found valid in this cfg, so each distinct name is matched
    once, and `good_instrs` the ids of the instruction objects found
    valid, so a shared one is checked once."""
    for instr in blk.instrs:
        key = id(instr)
        if key in good_instrs:
            continue
        if isinstance(instr, ConstAssign):
            names = (instr.dest,)
        elif isinstance(instr, BinOp):
            names = (instr.dest, instr.lhs, instr.rhs)
        elif isinstance(instr, Print):
            names = (instr.src,)
        else:
            add(f"block {blk.id}: unknown instruction {instr!r}", blk.id)
            continue
        ok = True
        for name in names:
            if name not in good_names:
                if is_var_name(name):
                    good_names.add(name)
                else:
                    add(f"block {blk.id}: invalid variable name {name!r}", blk.id)
                    ok = False
        if isinstance(instr, ConstAssign):
            if not INT_MIN <= instr.value <= INT_MAX:
                add(f"block {blk.id}: constant {instr.value} outside 64-bit range", blk.id)
                ok = False
        elif isinstance(instr, BinOp) and instr.op not in BINARY_OPS:
            add(f"block {blk.id}: unknown operator {instr.op!r}", blk.id)
            ok = False
        if ok:
            good_instrs.add(key)


def reachable(terms: list[Terminator], entry: int = 0) -> set[int]:
    """Ids of the blocks reachable from `entry`, given each block's terminator."""
    seen, stack = {entry}, [entry]
    while stack:
        for s in targets(terms[stack.pop()]):
            if s not in seen:
                seen.add(s)
                stack.append(s)
    return seen
