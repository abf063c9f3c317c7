"""Seeded input programs for the benchmark, and an evaluator for them.

A program lives in the benchmark's own model (blocks of instruction
tuples). threadsplit only ever sees it as `.cfg` text plus an `inputs`
dict. `evaluate` interprets the model directly and shares no code with
threadsplit, so its output and block sequence are an independent
expectation for every engine.

Randomness comes from `random.Random(seed).random()` alone: that is the
one method whose sequence Python keeps fixed across versions.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

_MASK = (1 << 64) - 1
_HALF = 1 << 63


@dataclass
class Block:
    label: str
    instrs: list[tuple]  # ("const", dest, value) | ("bin", dest, lhs, op, rhs) | ("print", src)
    term: tuple  # ("jump", target) | ("br", cond, iftrue, iffalse) | ("halt",)


@dataclass
class Program:
    name: str
    blocks: list[Block]
    inputs: dict[str, int] = field(default_factory=dict)

    def text(self) -> str:
        lines = [f"func {self.name} {{"]
        for blk in self.blocks:
            lines.append(f"  block {blk.label}:")
            for ins in blk.instrs:
                if ins[0] == "const":
                    lines.append(f"    {ins[1]} = {ins[2]}")
                elif ins[0] == "bin":
                    lines.append(f"    {ins[1]} = {ins[2]} {ins[3]} {ins[4]}")
                else:
                    lines.append(f"    print {ins[1]}")
            term = blk.term
            if term[0] == "jump":
                lines.append(f"    jump {self.blocks[term[1]].label}")
            elif term[0] == "br":
                t, f = self.blocks[term[2]].label, self.blocks[term[3]].label
                lines.append(f"    br {term[1]}, {t}, {f}")
            else:
                lines.append("    halt")
        lines.append("}")
        return "\n".join(lines) + "\n"


@dataclass
class Expected:
    output: list[int]
    blocks: list[int]


class _Draw:
    def __init__(self, seed: int):
        self._r = random.Random(seed)

    def below(self, bound: int) -> int:
        return min(int(self._r.random() * bound), bound - 1)

    def between(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi]."""
        return lo + self.below(hi - lo + 1)

    def chance(self, p: float) -> bool:
        return self._r.random() < p


def _signed(v: int) -> int:
    v &= _MASK
    return v - (1 << 64) if v >= _HALF else v


def _apply(op: str, a: int, b: int) -> int:
    if op in ("/", "%"):
        if b == 0:
            raise ZeroDivisionError(op)
        q = abs(a) // abs(b)
        if (a < 0) != (b < 0):
            q = -q
        return _signed(q) if op == "/" else _signed(a - q * b)
    return {
        "+": lambda: _signed(a + b),
        "-": lambda: _signed(a - b),
        "*": lambda: _signed(a * b),
        "<": lambda: int(a < b),
        "<=": lambda: int(a <= b),
        "==": lambda: int(a == b),
        "!=": lambda: int(a != b),
    }[op]()


def evaluate(prog: Program, max_blocks: int = 1_000_000) -> Expected:
    """Run `prog` on its own inputs: 64-bit wrapping values, C-style
    truncating division, unset variables read as 0."""
    env = dict(prog.inputs)
    out: list[int] = []
    seq: list[int] = []
    cur = 0
    while len(seq) < max_blocks:
        seq.append(cur)
        blk = prog.blocks[cur]
        for ins in blk.instrs:
            if ins[0] == "const":
                env[ins[1]] = ins[2]
            elif ins[0] == "bin":
                env[ins[1]] = _apply(ins[3], env.get(ins[2], 0), env.get(ins[4], 0))
            else:
                out.append(env.get(ins[1], 0))
        term = blk.term
        if term[0] == "halt":
            return Expected(out, seq)
        if term[0] == "jump":
            cur = term[1]
        else:
            cur = term[2] if env.get(term[1], 0) != 0 else term[3]
    raise RuntimeError(f"{prog.name} did not halt within {max_blocks} blocks")


# Arithmetic mixed into the blocks of the large family; `k` is a nonzero
# per-block constant, so `/` and `%` never trap.
_LARGE_OPS = (
    ("a", "a", "+", "k"), ("b", "b", "*", "k"), ("c", "a", "-", "b"),
    ("d", "c", "/", "k"), ("a", "a", "+", "d"), ("b", "b", "+", "a"),
    ("c", "c", "%", "k"), ("d", "d", "*", "a"),
)


# Make-up of the large family: branch chances and the edge window.
P_BACK = 0.4
P_FWD = 0.4
SPAN = 48


def large_program(seed: int, n: int = 2000) -> Program:
    """Loop-rich chain of `n` blocks.

    Block i always keeps i+1 as a successor (the backbone), so every
    block is reachable. With chance P_BACK it also branches back to a
    uniform block among the SPAN blocks up to and including itself
    (never the entry); otherwise with chance P_FWD it branches forward
    to a uniform block among the SPAN blocks after i+1. Each block
    carries one constant and two arithmetic instructions; one in twenty
    prints.

    Edges stay within SPAN blocks so that a 2000-block program is many
    loosely coupled stretches: its wait-set sizes, and so its compile
    cost, vary little from one seed to the next, while the graph stays
    dense with overlapping loops.

    Back edges test a global counter, so only the first two executed
    back-edge blocks loop; forward edges fire when `a % 251 == 0`. A run
    therefore executes close to n blocks.
    """
    d = _Draw(seed)
    blocks: list[Block] = []
    for i in range(n):
        instrs: list[tuple] = [("const", "k", d.between(1, 999))]
        if i == 0:
            instrs += [("const", "zero", 0), ("bin", "a", "a0", "+", "zero"),
                       ("bin", "b", "b0", "+", "zero")]
        for _ in range(2):
            instrs.append(("bin",) + _LARGE_OPS[d.below(len(_LARGE_OPS))])
        if d.chance(0.05):
            instrs.append(("print", "a"))
        if i == n - 1:
            instrs += [("print", "a"), ("print", "b"), ("print", "g")]
            term: tuple = ("halt",)
        elif i >= 1 and d.chance(P_BACK):
            instrs += [("const", "one", 1), ("const", "lim", 3),
                       ("bin", "g", "g", "+", "one"), ("bin", "t", "g", "<", "lim")]
            term = ("br", "t", d.between(max(1, i - SPAN + 1), i), i + 1)
        elif i + 2 <= n - 1 and d.chance(P_FWD):
            instrs += [("const", "p", 251), ("bin", "r", "a", "%", "p"),
                       ("const", "zero", 0), ("bin", "t", "r", "==", "zero")]
            term = ("br", "t", d.between(i + 2, min(i + 1 + SPAN, n - 1)), i + 1)
        else:
            term = ("jump", i + 1)
        blocks.append(Block(f"L{i}", instrs, term))
    inputs = {"a0": d.between(1, 10**9), "b0": d.between(1, 10**9)}
    return Program("big", blocks, inputs)


_LOOP_OPS = (
    ("x", "x", "*", "p"), ("x", "x", "+", "i"), ("y", "y", "+", "x"),
    ("y", "y", "%", "q"), ("x", "x", "-", "y"), ("w", "x", "/", "q"),
    ("y", "y", "*", "w"), ("x", "x", "+", "one"),
)


P_SKIP = 0.35


def loop_program(seed: int, n: int, iters: int) -> Program:
    """One counted loop over a body of n-3 blocks.

    Blocks: entry, head (`i < iters`), the body, exit. Body blocks run
    two to four arithmetic instructions over x, y and the inputs p, q;
    with chance P_SKIP a body block branches forward over one to three
    body blocks on `x % q < h`, so the path through each iteration depends on
    `inputs`. One body block in ten prints. The loop bound `iters` is an
    input too.
    """
    if n < 5:
        raise ValueError(f"loop program needs at least 5 blocks, got {n}")
    d = _Draw(seed)
    body = n - 3
    head, first, exit_ = 1, 2, n - 1
    blocks = [Block("entry", [
        ("const", "one", 1), ("const", "zero", 0), ("const", "i", 0),
        ("bin", "x", "x0", "+", "zero"), ("bin", "y", "y0", "+", "zero"),
    ], ("jump", head))]
    blocks.append(Block("head", [("bin", "t", "i", "<", "iters")], ("br", "t", first, exit_)))
    for j in range(body):
        b = first + j
        instrs: list[tuple] = [("bin",) + _LOOP_OPS[d.below(len(_LOOP_OPS))]
                               for _ in range(d.between(2, 4))]
        if d.chance(0.1):
            instrs.append(("print", "y"))
        if j == body - 1:
            instrs.append(("bin", "i", "i", "+", "one"))
            term: tuple = ("jump", head)
        elif j + 2 < body and d.chance(P_SKIP):
            instrs += [("bin", "u", "x", "%", "q"), ("bin", "t", "u", "<", "h")]
            term = ("br", "t", first + d.between(j + 2, min(j + 4, body - 1)), b + 1)
        else:
            term = ("jump", b + 1)
        blocks.append(Block(f"b{j}", instrs, term))
    blocks.append(Block("exit", [("print", "x"), ("print", "y"), ("print", "i")], ("halt",)))
    q = d.between(3, 97)
    inputs = {"iters": iters, "x0": d.between(1, 10**6), "y0": d.between(1, 10**6),
              "p": d.between(3, 10**4), "q": q, "h": d.between(0, q - 1)}
    return Program("loop", blocks, inputs)




def small_loop_program(seed: int) -> Program:
    """A loop program of 8 to 24 blocks running 2 to 6 iterations."""
    d = _Draw(seed)
    return loop_program(seed, d.between(8, 24), d.between(2, 6))


_REFERENCE = loop_program(0, 24, 30)
_REFERENCE_DATA = [_REFERENCE.text()] + [list(range(40))] * 100
_REFERENCE_GRAPH = [frozenset(((7 * i) % 400, (i * i + 1) % 400, (i + 1) % 400)) for i in range(400)]


def reference_work() -> None:
    """A fixed mix of interpreter work (evaluation, text, JSON and set
    walks) that shares no code with threadsplit, for timing the host."""
    evaluate(_REFERENCE)
    json.loads(json.dumps(_REFERENCE_DATA))
    for start in range(0, 400, 40):
        seen: set[int] = set()
        frontier = {start}
        while frontier:
            nxt: set[int] = set()
            for v in frontier:
                nxt |= _REFERENCE_GRAPH[v]
            frontier = nxt - seen
            seen |= nxt
