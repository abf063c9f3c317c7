"""Execution engines for original and obfuscated programs.

Three modes share one block-execution core and one shared-store
semantics (undefined variables read as 0):

* `run_sequential` - the reference interpreter over the original cfg.
* `run_obfuscated(.., concurrent=False)` - all workers advanced one
  micro-step at a time (one wait-poll or one block execution) under a
  deterministic schedule, with the at-most-one-raised-flag invariant
  monitored after every micro-step. This is the verification vehicle.
* `run_obfuscated(.., concurrent=True)` - one OS thread per worker,
  spin-waiting on the shared guard flags. CPython's GIL provides the
  sequentially-consistent memory contract the protocol assumes. On
  Linux each worker lowers its own timer slack to 1 µs when it starts;
  every worker sleeps 20 µs after polling its wait set in vain.

Protocol: all flags start 0, then the entry block's flag is raised.
A worker polls its current wait set in ascending block-id order; on
finding a raised flag it clears the flag first, executes the block
against the shared store, then raises the dynamic successor's flag
(or DONE when the block was the original exit), and moves to the wait
set derived for that block. DONE is honored only when no waited data
flag is up. Traps (division/modulo by zero) raise DONE so every worker
terminates, and the trace reports status "trapped". Both obfuscated
modes drive this one handoff step (`_Guards`).

One stop rule holds in every mode: the budget counts executed blocks,
and a run that executes that many without halting ends with status
"deadlock". Polling changes no state, so once every live worker has
polled its whole wait set in vain since the last handoff, with DONE
down, no worker can ever advance: the run ends at once, also as
"deadlock".
"""

from __future__ import annotations

import ctypes
import json
import sys
import threading
import time
from dataclasses import dataclass, field
from enum import Enum

from . import ir, rng
from .ir import BinOp, Branch, Cfg, ConstAssign, Jump, Print
from .obfuscate import ObfuscatedProgram

COMPLETED = "completed"
TRAPPED = "trapped"
DEADLOCK = "deadlock"

SEQ = "seq"  # worker name used by the sequential interpreter

DEFAULT_STEP_BUDGET = 10_000_000

ROUND_ROBIN = "round-robin"
RANDOM = "random"


# prctl(2) option that sets the calling thread's timer slack, in ns. It
# changes that thread alone: threads started later inherit the value of
# the thread that starts them, so a worker's setting never reaches the
# caller of `run_obfuscated`.
_PR_SET_TIMERSLACK = 29
_WORKER_TIMER_SLACK_NS = 1000


def _lookup_prctl():
    """libc's prctl, or None off Linux or where it does not resolve."""
    if not sys.platform.startswith("linux"):
        return None
    try:
        prctl = ctypes.CDLL(None).prctl
    except (OSError, AttributeError):
        return None
    # prctl(int option, ...) reads its variadic arguments as unsigned long.
    prctl.argtypes = (ctypes.c_int,) + (ctypes.c_ulong,) * 4
    prctl.restype = ctypes.c_int
    return prctl


_PRCTL = _lookup_prctl()


class Mutation(Enum):
    """Deliberate protocol faults, injectable in scheduled mode so the
    verifier can prove it detects broken handoffs."""

    NONE = "none"
    SKIP_CLEAR = "skip-clear"
    SKIP_RAISE = "skip-raise"
    WRONG_SUCCESSOR = "wrong-successor"


@dataclass
class Schedule:
    mode: str = ROUND_ROBIN
    seed: int = 0
    step_budget: int = DEFAULT_STEP_BUDGET

    def __post_init__(self):
        if self.mode not in (ROUND_ROBIN, RANDOM):
            raise ValueError(f"unknown schedule mode {self.mode!r}")
        if self.step_budget < 1:
            raise ValueError(f"step budget must be >= 1, got {self.step_budget}")


@dataclass
class ExecutionTrace:
    """Globally ordered record of execution: one (step, worker, block)
    record per executed block, plus the printed output."""

    records: list[tuple[int, int | str, int]] = field(default_factory=list)
    output: list[int] = field(default_factory=list)
    status: str = COMPLETED
    trap_reason: str | None = None
    flag_violations: int = 0  # sched: micro-steps, conc: handoffs, with >1 data flag up

    def block_sequence(self) -> list[int]:
        return [block for _, _, block in self.records]


class Trap(Exception):
    pass


def _trunc_div(a: int, b: int) -> int:
    q = abs(a) // abs(b)
    return q if (a < 0) == (b < 0) else -q


def _binop(op: str, a: int, b: int) -> int:
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


def _exec_block(blk, store: dict, output: list) -> int | None:
    """Run a block's instructions and terminator; returns the dynamic
    successor id, or None for halt. Prints emitted before a trap stay
    in the output."""
    for instr in blk.instrs:
        t = type(instr)
        if t is ConstAssign:
            store[instr.dest] = instr.value
        elif t is BinOp:
            store[instr.dest] = _binop(instr.op, store.get(instr.lhs, 0), store.get(instr.rhs, 0))
        else:
            output.append(store.get(instr.src, 0))
    term = blk.term
    t = type(term)
    if t is Jump:
        return term.target
    if t is Branch:
        return term.iftrue if store.get(term.cond, 0) != 0 else term.iffalse
    return None


def run_sequential(cfg: Cfg, inputs: dict[str, int] | None = None,
                   max_steps: int = DEFAULT_STEP_BUDGET) -> ExecutionTrace:
    """Reference semantics: execute from entry, following terminators.
    Status is "deadlock" if the step budget runs out before halt."""
    store: dict[str, int] = dict(inputs or {})
    trace = ExecutionTrace()
    blocks = cfg.blocks
    cur = cfg.entry
    for step in range(max_steps):
        trace.records.append((step, SEQ, cur))
        try:
            nxt = _exec_block(blocks[cur], store, trace.output)
        except Trap as t:
            trace.status, trace.trap_reason = TRAPPED, str(t)
            return trace
        if nxt is None:
            return trace
        cur = nxt
    trace.status = DEADLOCK
    return trace


def run_obfuscated(prog: ObfuscatedProgram, inputs: dict[str, int] | None = None,
                   sched: Schedule | None = None, concurrent: bool = False,
                   mutation: Mutation = Mutation.NONE) -> ExecutionTrace:
    """Execute an obfuscated program; see the module docstring for the
    protocol. Scheduled mode is fully deterministic given `sched`."""
    if sched is None:
        sched = Schedule()
    if concurrent:
        if mutation is not Mutation.NONE:
            raise ValueError("fault injection is only supported in scheduled mode")
        return _run_concurrent(prog, inputs, sched.step_budget)
    return _run_scheduled(prog, inputs, sched, mutation)


class _Guards:
    """One obfuscated run's shared state: the guard flags, one byte per
    block with DONE at index n, each worker's current wait list, the
    trace, and `handoff`, the protocol step both engines drive.
    `mutation` bends the step for fault injection."""

    def __init__(self, prog: ObfuscatedProgram, inputs, budget: int,
                 mutation: Mutation = Mutation.NONE):
        n = prog.source.n
        self.flags = flags = bytearray(n + 1)
        self.done = done = n
        self.waits = waits = [tcfg.entry_wait.sorted_flags() for tcfg in prog.threads]
        self.trace = trace = ExecutionTrace()
        records, output = trace.records, trace.output
        blocks, store = prog.source.blocks, dict(inputs or {})
        wait_after: list[tuple[int, ...]] = [()] * len(blocks)
        for tcfg in prog.threads:
            for blk, ws in tcfg.per_block_wait.items():
                wait_after[blk] = ws.sorted_flags()
        clear = mutation is not Mutation.SKIP_CLEAR
        raise_next = mutation is not Mutation.SKIP_RAISE
        wrong_successor = mutation is Mutation.WRONG_SUCCESSOR
        raised = 1  # data flags up

        def stop(status: str) -> None:
            """End the run: every worker exits once it finds no waited flag."""
            trace.status = status
            flags[done] = 1

        def handoff(w: int, b: int, step: int) -> int:
            """Worker `w` found flag `b` up: clear it, record (step, w, b),
            run the block, raise its successor's flag (DONE after the exit
            block or a trap) and adopt the block's wait list. Returns how
            many data flags are up, or -1, having stopped the run as a
            deadlock, if the budget allows no further block."""
            nonlocal raised
            if len(records) == budget:
                stop(DEADLOCK)
                return -1
            if clear:
                flags[b] = 0
                raised -= 1
            records.append((step, w, b))
            try:
                nxt = _exec_block(blocks[b], store, output)
            except Trap as t:
                trace.trap_reason = str(t)
                stop(TRAPPED)
            else:
                if nxt is None:
                    flags[done] = 1
                elif raise_next:
                    if wrong_successor:
                        nxt = (nxt + 1) % len(blocks)
                    if not flags[nxt]:
                        # Counted before the flag goes up, while no other
                        # worker can be changing the count.
                        raised += 1
                        flags[nxt] = 1
            waits[w] = wait_after[b]
            return raised

        # Closures, not methods, so that a step costs one plain call; they
        # do not refer to self, so a finished run is freed without waiting
        # for the cycle collector.
        self.stop, self.handoff = stop, handoff
        flags[prog.source.entry] = 1


def _run_scheduled(prog, inputs, sched: Schedule, mutation: Mutation) -> ExecutionTrace:
    core = _Guards(prog, inputs, sched.step_budget, mutation)
    flags, done, waits, handoff, trace = core.flags, core.done, core.waits, core.handoff, core.trace
    live = list(range(prog.m))
    # Stop rule: bit w of `idle` is set once worker w has polled in vain
    # since the last handoff; when every bit is set, no worker can advance.
    idle, everyone = 0, (1 << prog.m) - 1
    violating = False
    chooser = rng.Rng(sched.seed) if sched.mode == RANDOM else None
    pos = 0
    step = 0

    while live:
        if chooser is None:
            pos %= len(live)
        else:
            pos = chooser.below(len(live))
        w = live[pos]
        for b in waits[w]:
            if flags[b]:
                up = handoff(w, b, step)
                if up < 0:
                    return trace
                violating = up > 1
                idle = 0
                pos += 1
                break
        else:
            if flags[done]:
                live.pop(pos)  # exit; the next worker slides into this slot
            else:
                idle |= 1 << w
                if idle == everyone:
                    core.stop(DEADLOCK)
                    live.clear()
                pos += 1
        step += 1
        if violating:
            trace.flag_violations += 1
    return trace


def _run_concurrent(prog, inputs, budget: int) -> ExecutionTrace:
    core = _Guards(prog, inputs, budget)
    flags, done, waits, handoff, trace = core.flags, core.done, core.waits, core.handoff, core.trace
    records = trace.records
    prctl = _PRCTL
    # Stop rule as in scheduled mode. A handoff counts only once its
    # successor's flag is up, and a vain poll counts only if no handoff
    # was counted between reading the count before it and taking the
    # lock after it, so a worker that is running or has a flag coming
    # never counts as idle. The lock keeps the next worker's count from
    # losing this one; reading `idle` before taking it only skips polls
    # already counted.
    lock = threading.Lock()
    handoffs = idle = 0
    everyone = (1 << prog.m) - 1

    def worker(w: int):
        nonlocal handoffs, idle
        if prctl is not None:
            prctl(_PR_SET_TIMERSLACK, _WORKER_TIMER_SLACK_NS, 0, 0, 0)
        while True:
            seen = handoffs
            for b in waits[w]:
                if flags[b]:
                    # Only the worker holding the one raised flag appends
                    # records, so it numbers them 0, 1, 2, ...
                    up = handoff(w, b, len(records))
                    if up < 0:
                        return
                    with lock:
                        idle = 0
                        handoffs += 1
                        if up > 1:
                            trace.flag_violations += 1
                    break
            else:
                if flags[done]:
                    return
                if not idle >> w & 1:
                    with lock:
                        if seen == handoffs:
                            idle |= 1 << w
                            if idle == everyone:
                                core.stop(DEADLOCK)
                                return
                # A real sleep parks this spinner so the active worker
                # gets the GIL; sleep(0) would make it wait out the
                # interpreter's switch interval (5 ms) on every handoff.
                # 20 µs outlasts the wake-up of the worker whose flag was
                # just raised: a spinner that wakes first takes the GIL
                # back, and that worker waits out the switch interval. The
                # 1 µs timer slack keeps the kernel from stretching the
                # sleep (by up to 50 µs by default).
                time.sleep(0.00002)

    workers = [threading.Thread(target=worker, args=(w,), name=f"worker-{w}")
               for w in range(prog.m)]
    for th in workers:
        th.start()
    for th in workers:
        th.join()
    return core.trace


def trace_to_json(trace: ExecutionTrace) -> str:
    doc = {
        "records": [
            {"step": s, "thread": t, "block": b} for s, t, b in trace.records
        ],
        "output": list(trace.output),
        "status": trace.status,
    }
    if trace.trap_reason is not None:
        doc["trap_reason"] = trace.trap_reason
    return json.dumps(doc, indent=2) + "\n"
