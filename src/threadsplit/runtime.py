"""Execution engines for original and obfuscated programs.

Three modes share one block-execution core and one shared-store
semantics (undefined variables read as 0):

* `run_sequential` - the reference interpreter over the original cfg.
* `run_obfuscated(.., concurrent=False)` - all workers advanced one
  micro-step at a time (one wait-poll or one block execution) under a
  deterministic schedule, with the at-most-one-raised-flag invariant
  monitored after every micro-step. This is the verification vehicle.
* `run_obfuscated(.., concurrent=True)` - one OS thread per worker,
  spin-waiting on the shared guard table. CPython's GIL provides the
  sequentially-consistent memory contract the protocol assumes.

Protocol: all flags start 0, then the entry block's flag is raised.
A worker polls its current wait set in ascending block-id order; on
finding a raised flag it clears the flag first, executes the block
against the shared store, then raises the dynamic successor's flag
(or DONE when the block was the original exit), and moves to the wait
set derived for that block. DONE is honored only when no waited data
flag is up. Traps (division/modulo by zero) raise DONE so every worker
terminates, and the trace reports status "trapped". A run that exhausts
its step budget reports "deadlock". The budget counts executed blocks in
`run_sequential` and `conc` mode, and micro-steps in scheduled mode; a
`conc` worker also gives up after that many idle polls of its own.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from enum import Enum
from statistics import median

from . import ir, rng
from .ir import BinOp, Branch, Cfg, ConstAssign, Jump, Print
from .obfuscate import GuardLayout, ObfuscatedProgram

COMPLETED = "completed"
TRAPPED = "trapped"
DEADLOCK = "deadlock"

SEQ = "seq"  # worker name used by the sequential interpreter

DEFAULT_STEP_BUDGET = 10_000_000

ROUND_ROBIN = "round-robin"
RANDOM = "random"


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


class GuardTable:
    """The n+1 guard flags, one byte each, padded to the layout stride."""

    def __init__(self, layout: GuardLayout):
        self.layout = layout
        self.cells = bytearray(layout.slots * layout.stride)

    def get(self, i: int) -> int:
        return self.cells[i * self.layout.stride]

    def set_flag(self, i: int) -> None:
        self.cells[i * self.layout.stride] = 1

    def clear_flag(self, i: int) -> None:
        self.cells[i * self.layout.stride] = 0

    def raised_data_flags(self) -> list[int]:
        """Block flags currently up, DONE excluded."""
        stride = self.layout.stride
        return [b for b in range(self.layout.n) if self.cells[b * stride]]


@dataclass
class ExecutionTrace:
    """Globally ordered record of execution: one (step, worker, block)
    record per executed block, plus the printed output."""

    records: list[tuple[int, int | str, int]] = field(default_factory=list)
    output: list[int] = field(default_factory=list)
    status: str = COMPLETED
    trap_reason: str | None = None
    flag_violations: int = 0  # micro-steps observed with >1 data flag up

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


def _wait_lists(prog: ObfuscatedProgram):
    """Poll orders: per-thread entry wait lists and the per-block wait
    list the owner adopts after executing that block (ascending ids)."""
    entry = [tcfg.entry_wait.sorted_flags() for tcfg in prog.threads]
    after: list[tuple[int, ...]] = [()] * prog.source.n
    for tcfg in prog.threads:
        for b, ws in tcfg.per_block_wait.items():
            after[b] = ws.sorted_flags()
    return entry, after


def _run_scheduled(prog, inputs, sched: Schedule, mutation: Mutation) -> ExecutionTrace:
    cfg = prog.source
    n = cfg.n
    blocks = cfg.blocks
    table = GuardTable(prog.guard_layout)
    cells = table.cells
    stride = prog.guard_layout.stride
    done_off = prog.guard_layout.done_index * stride

    cur_wait, wait_after = _wait_lists(prog)
    live = list(range(prog.m))
    store: dict[str, int] = dict(inputs or {})
    trace = ExecutionTrace()
    records = trace.records
    output = trace.output

    skip_clear = mutation is Mutation.SKIP_CLEAR
    skip_raise = mutation is Mutation.SKIP_RAISE
    wrong_succ = mutation is Mutation.WRONG_SUCCESSOR

    cells[cfg.entry * stride] = 1
    data_raised = 1
    chooser = rng.Rng(sched.seed) if sched.mode == RANDOM else None
    budget = sched.step_budget
    pos = 0
    step = 0

    while live:
        if step >= budget:
            trace.status = DEADLOCK
            return trace
        if chooser is None:
            pos %= len(live)
        else:
            pos = chooser.below(len(live))
        w = live[pos]
        step += 1

        found = -1
        for b in cur_wait[w]:
            if cells[b * stride]:
                found = b
                break
        if found >= 0:
            if not skip_clear:
                cells[found * stride] = 0
                data_raised -= 1
            records.append((step - 1, w, found))
            try:
                nxt = _exec_block(blocks[found], store, output)
            except Trap as t:
                trace.status, trace.trap_reason = TRAPPED, str(t)
                cells[done_off] = 1
            else:
                if nxt is None:
                    cells[done_off] = 1
                elif not skip_raise:
                    if wrong_succ:
                        nxt = (nxt + 1) % n
                    if not cells[nxt * stride]:
                        cells[nxt * stride] = 1
                        data_raised += 1
            cur_wait[w] = wait_after[found]
            pos += 1
        elif cells[done_off]:
            live.pop(pos)  # exit; the next worker slides into this slot
        else:
            pos += 1
        if data_raised > 1:
            trace.flag_violations += 1
    return trace


def _run_concurrent(prog, inputs, step_budget: int) -> ExecutionTrace:
    cfg = prog.source
    blocks = cfg.blocks
    table = GuardTable(prog.guard_layout)
    cells = table.cells
    stride = prog.guard_layout.stride
    done_off = prog.guard_layout.done_index * stride

    entry_waits, wait_after = _wait_lists(prog)
    store: dict[str, int] = dict(inputs or {})
    trace = ExecutionTrace()
    records = trace.records
    output = trace.output
    # Only the single active worker mutates these; the GIL covers the rest.
    state = {"step": 0, "status": COMPLETED, "trap": None}
    abort = threading.Event()

    def worker(t: int, wait: tuple[int, ...]):
        polls = 0
        while True:
            found = -1
            for b in wait:
                if cells[b * stride]:
                    found = b
                    break
            if found >= 0:
                step = state["step"]
                # The budget counts executed blocks, as in run_sequential.
                if step >= step_budget or abort.is_set():
                    state["status"] = DEADLOCK
                    abort.set()
                    return
                cells[found * stride] = 0
                state["step"] = step + 1
                records.append((step, t, found))
                try:
                    nxt = _exec_block(blocks[found], store, output)
                except Trap as trap:
                    state["status"], state["trap"] = TRAPPED, str(trap)
                    cells[done_off] = 1
                else:
                    if nxt is None:
                        cells[done_off] = 1
                    else:
                        cells[nxt * stride] = 1
                wait = wait_after[found]
                continue
            if cells[done_off] or abort.is_set():
                return
            polls += 1
            if polls >= step_budget:
                state["status"] = DEADLOCK
                abort.set()
                return
            # A short real sleep parks this spinner so the active worker
            # gets the GIL immediately; sleep(0) would make it wait out
            # the interpreter's switch interval on every handoff.
            time.sleep(0.000001)

    workers = [
        threading.Thread(target=worker, args=(t, entry_waits[t]), name=f"worker-{t}")
        for t in range(prog.m)
    ]
    cells[cfg.entry * stride] = 1
    for th in workers:
        th.start()
    for th in workers:
        th.join()
    trace.status = state["status"]
    trace.trap_reason = state["trap"]
    return trace


@dataclass
class BenchReport:
    """Wall-clock comparison of the original vs the obfuscated program."""

    mode: str
    repeats: int
    seq_samples: list[float]
    obf_samples: list[float]
    seq_time: float
    conc_time: float
    slowdown: float
    # Published measurements for this transformation report one to two
    # orders of magnitude; actual cost is hardware- and program-dependent.
    expected_band: str = "10x-100x"

    def as_dict(self) -> dict:
        return {
            "mode": self.mode,
            "repeats": self.repeats,
            "seq_samples": self.seq_samples,
            "obf_samples": self.obf_samples,
            "seq_time_median": self.seq_time,
            "conc_time_median": self.conc_time,
            "slowdown": self.slowdown,
            "expected_band": self.expected_band,
        }


def benchmark(cfg: Cfg, prog: ObfuscatedProgram, inputs: dict[str, int] | None = None,
              repeats: int = 3, concurrent: bool = True,
              sched: Schedule | None = None) -> BenchReport:
    """Median wall-clock times over `repeats` runs of each mode, and the
    slowdown ratio obfuscated/sequential."""
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    seq_samples, obf_samples = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        seq_trace = run_sequential(cfg, inputs)
        seq_samples.append(time.perf_counter() - t0)
        _require_completed(seq_trace, "sequential")
        t0 = time.perf_counter()
        obf_trace = run_obfuscated(prog, inputs, sched=sched, concurrent=concurrent)
        obf_samples.append(time.perf_counter() - t0)
        _require_completed(obf_trace, "obfuscated")
    seq_time = median(seq_samples)
    conc_time = median(obf_samples)
    return BenchReport(
        mode="concurrent" if concurrent else "scheduled",
        repeats=repeats,
        seq_samples=seq_samples,
        obf_samples=obf_samples,
        seq_time=seq_time,
        conc_time=conc_time,
        slowdown=conc_time / max(seq_time, 1e-9),
    )


def _require_completed(trace: ExecutionTrace, what: str) -> None:
    if trace.status != COMPLETED:
        raise RuntimeError(f"{what} run did not complete: {trace.status}")


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
