"""Small hand-built CFGs, a child-process runner and a reference for the
interpreter's arithmetic, shared across test modules."""

import os
import subprocess
import sys
from pathlib import Path

import threadsplit
from threadsplit import ir, rng
from threadsplit.ir import BasicBlock, Branch, Cfg, Halt, Jump
from threadsplit.runtime import Trap


def run_child(*args: str, timeout: float = 60) -> subprocess.CompletedProcess:
    """Run the interpreter with `args` in a child process that imports
    this threadsplit. A run that never stops fails the calling test by
    timeout instead of hanging the suite."""
    env = dict(os.environ, PYTHONPATH=str(Path(threadsplit.__file__).parents[1]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=timeout, env=env)


class ReferenceRng:
    """splitmix64 computed one output at a time: the stream that
    `rng.Rng`, which computes a chunk at a time, must reproduce."""

    MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = seed & self.MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & self.MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self.MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self.MASK
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % bound

    def chance(self, p: float) -> bool:
        return self.next_u64() < p * (1 << 64)


def chain(k: int, name: str = "chain") -> Cfg:
    """Linear cfg: 0 -> 1 -> ... -> k-1, last block halts."""
    blocks = [BasicBlock(i, f"n{i}", [], Jump(i + 1)) for i in range(k - 1)]
    blocks.append(BasicBlock(k - 1, f"n{k - 1}", [], Halt()))
    return Cfg(name, blocks)


def two_loop() -> Cfg:
    """0 <-> 1 with no exit; for wait-set walks only, never execution."""
    return Cfg("loop2", [
        BasicBlock(0, "a", [], Jump(1)),
        BasicBlock(1, "b", [], Jump(0)),
    ])


def diamond() -> Cfg:
    """0 branches to {1, 2}, both rejoin at 3, which halts."""
    return Cfg("diamond", [
        BasicBlock(0, "top", [], Branch("c", 1, 2)),
        BasicBlock(1, "left", [], Jump(3)),
        BasicBlock(2, "right", [], Jump(3)),
        BasicBlock(3, "bottom", [], Halt()),
    ])


def loop_rich(seed: int, n: int = 2000, window: int = 48) -> Cfg:
    """A seeded n-block cfg with many nested loops. Block i always has
    i + 1 as a successor, and the last block halts. With chance 0.4 a
    block also branches back to one of the `window` blocks up to and
    including itself; otherwise, with chance 0.4, it branches forward to
    one of the `window` blocks after i + 1 (clamped to the last block)."""
    r = rng.Rng(seed)
    terms: list[Jump | Branch | Halt] = []
    for i in range(n - 1):
        if r.chance(0.4):
            terms.append(Branch("c", i - r.below(min(window, i + 1)), i + 1))
        elif r.chance(0.4):
            terms.append(Branch("c", min(i + 2 + r.below(window), n - 1), i + 1))
        else:
            terms.append(Jump(i + 1))
    terms.append(Halt())
    return Cfg(f"loops{seed}", [BasicBlock(i, f"b{i}", [], t) for i, t in enumerate(terms)])


def repeated_text(n: int) -> str:
    """An n-block program whose instruction lines repeat: every block
    holds the same four statements, and only its label line and its
    terminator differ. Block i jumps to block i + 1; the last one halts."""
    body = ["    t = t + one", "    c = t < k", "    print t", "    k = 3"]
    lines = ["func repeated {"]
    for i in range(n):
        lines += [f"  block b{i}:", *body, f"    jump b{i + 1}" if i < n - 1 else "    halt"]
    lines.append("}")
    return "\n".join(lines) + "\n"


def distinct_text(n: int) -> str:
    """An n-block program with no two lines alike: block i holds
    `kI = I`, `aI = kI + xI`, `cI = aI < kI` and `print aI`, then jumps
    to block i + 1; the last one halts."""
    lines = ["func distinct {"]
    for i in range(n):
        lines += [f"  block b{i}:", f"    k{i} = {i}", f"    a{i} = k{i} + x{i}",
                  f"    c{i} = a{i} < k{i}", f"    print a{i}",
                  f"    jump b{i + 1}" if i < n - 1 else "    halt"]
    lines.append("}")
    return "\n".join(lines) + "\n"


def _trunc_div(a: int, b: int) -> int:
    q = abs(a) // abs(b)
    return q if (a < 0) == (b < 0) else -q


def reference_binop(op: str, a: int, b: int) -> int:
    """What `dest = a <op> b` stores, written out one op at a time:
    64-bit wrapping arithmetic, C-style division and remainder, and
    comparisons that yield 0 or 1. A zero divisor raises Trap."""
    if op == "+":
        return ir.wrap(a + b)
    if op == "-":
        return ir.wrap(a - b)
    if op == "*":
        return ir.wrap(a * b)
    if op == "/":
        if b == 0:
            raise Trap("division by zero")
        return ir.wrap(_trunc_div(a, b))
    if op == "%":
        if b == 0:
            raise Trap("modulo by zero")
        return ir.wrap(a - _trunc_div(a, b) * b)
    if op == "<":
        return int(a < b)
    if op == "<=":
        return int(a <= b)
    if op == "==":
        return int(a == b)
    return int(a != b)
