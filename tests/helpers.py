"""Small hand-built CFGs, a child-process runner and a reference for the
interpreter's arithmetic, shared across test modules."""

import os
import subprocess
import sys
from pathlib import Path

import threadsplit
from threadsplit import ir
from threadsplit.ir import BasicBlock, Branch, Cfg, Halt, Jump
from threadsplit.runtime import Trap


def run_child(*args: str, timeout: float = 60) -> subprocess.CompletedProcess:
    """Run the interpreter with `args` in a child process that imports
    this threadsplit. A run that never stops fails the calling test by
    timeout instead of hanging the suite."""
    env = dict(os.environ, PYTHONPATH=str(Path(threadsplit.__file__).parents[1]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=timeout, env=env)


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
