"""Execution engines for original and obfuscated programs.

Three modes share one block executor, `_exec_block`, and one store
semantics (undefined variables read as 0). The executor runs the cfg's
lowering, `Cfg.code` (see `ir.lower`), not its instruction objects: it
is worked out on the first run of a cfg and kept on that cfg object, so
every later run of it, in any mode, decodes nothing. The lowering
numbers the cfg's variables into slots, and a run's store is a list
with one slot each, all 0 except those the inputs name; an input the
cfg never mentions is dropped. A derived cfg is a new object with its
own lowering.

* `run_sequential` - the reference interpreter over the original cfg.
* `run_obfuscated(.., concurrent=False)` - all workers advanced one
  micro-step at a time (one wait-poll or one block execution),
  round-robin or in an order drawn from a seed. This is the
  verification vehicle.
* `run_obfuscated(.., concurrent=True)` - one OS thread per worker,
  polling the shared guard flags: the calling thread is worker 0 and
  starts the other m-1. CPython's GIL provides the
  sequentially-consistent memory contract the protocol assumes. A
  worker that polls its wait set in vain parks in a read of its own
  pipe until a flag of its own or DONE is raised, then polls its whole
  wait set again; the waker writes a byte to that pipe, and lets go of
  the GIL before the write, so the woken worker need not wait for the
  GIL a second time. Where the OS allows it, every worker runs on the
  CPU the caller was on when the run began.

Protocol: all flags start 0, then the entry block's flag is raised.
A worker polls its current wait set in ascending block-id order; on
finding a raised flag it clears the flag first, executes the block
against the shared store, then raises the dynamic successor's flag
(or DONE when the block was the original exit), and moves to the wait
set derived for that block. DONE is honored only when no waited data
flag is up. Traps (division/modulo by zero) raise DONE so every worker
terminates, and the trace reports status "trapped". Both obfuscated
modes drive this one handoff step (`_Guards`), which also checks the
at-most-one-raised-flag invariant: a handoff that still finds a data
flag up once it has cleared its own counts in `flag_violations`.
The step has no fault hooks: the test suite breaks the protocol from
outside, through the flag array, the cfg and the wait lists it is given.

One budget rule holds in every mode: `budget` counts executed blocks,
one below 1 raises ValueError before any pipe or thread exists, and a
run that executes that many without halting ends with status "deadlock"
(reason "budget"). Polling changes no state, so the flags and every
wait list stay as the last handoff left them; once it has raised a flag,
a worker can advance iff its wait list holds a raised flag. If none can,
with DONE down, that handoff (or, for the entry flag, the run's start)
ends the run at once, also as "deadlock" (reason "no-flag").
"""

from __future__ import annotations

import _thread
import json
import os
import sys
import threading
from dataclasses import dataclass, field

from . import rng
from .ir import INT_MAX, INT_MIN, BlockCode, Cfg, Code, Trap, wrap
from .obfuscate import ObfuscatedProgram

COMPLETED = "completed"
TRAPPED = "trapped"
DEADLOCK = "deadlock"

# Why a run stopped; a trace's status follows from it.
TRAP = "trap"
BUDGET = "budget"
NO_FLAG = "no-flag"

SEQ = "seq"  # worker name used by the sequential interpreter

DEFAULT_STEP_BUDGET = 10_000_000


def _check_budget(budget: int) -> None:
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")


@dataclass
class ExecutionTrace:
    """Globally ordered record of execution: one (step, worker, block)
    record per executed block, plus the printed output."""

    records: list[tuple[int, int | str, int]] = field(default_factory=list)
    output: list[int] = field(default_factory=list)
    reason: str = COMPLETED  # COMPLETED, TRAP, BUDGET or NO_FLAG
    trap_reason: str | None = None
    flag_violations: int = 0  # handoffs that found a data flag up after clearing theirs

    @property
    def status(self) -> str:
        return {COMPLETED: COMPLETED, TRAP: TRAPPED}.get(self.reason, DEADLOCK)

    def block_sequence(self) -> list[int]:
        return [block for _, _, block in self.records]


def _new_store(code: Code, inputs: dict[str, int] | None) -> list[int]:
    """A run's store: one slot per variable of the cfg, 0 unless an input
    names it. An input the cfg never mentions has no slot and is dropped."""
    slots = code.slots
    store = [0] * len(slots)
    for name, value in (inputs or {}).items():
        if name in slots:
            store[slots[name]] = value
    return store


def _exec_block(code: BlockCode, store: list[int], output: list[int]) -> int | None:
    """Run a lowered block (see `ir.BlockCode`) against the store;
    returns the dynamic successor id, or None for halt. Prints emitted
    before a trap stay in the output."""
    instrs, cond, iftrue, iffalse = code
    for op, dest, a, b in instrs:
        if op:
            v = op(store[a], store[b])
            store[dest] = v if INT_MIN <= v <= INT_MAX else wrap(v)
        elif op is None:
            store[dest] = a
        else:
            output.append(store[a])
    # A jump or a halt has no cond slot; its successor is iftrue.
    if cond is None or store[cond]:
        return iftrue
    return iffalse


def run_sequential(cfg: Cfg, inputs: dict[str, int] | None = None,
                   budget: int = DEFAULT_STEP_BUDGET) -> ExecutionTrace:
    """Reference semantics: execute from entry, following terminators.
    Status is "deadlock" if the budget runs out before halt."""
    _check_budget(budget)
    code = cfg.code
    store = _new_store(code, inputs)
    trace = ExecutionTrace()
    blocks = code.blocks
    cur = cfg.entry
    for step in range(budget):
        trace.records.append((step, SEQ, cur))
        try:
            nxt = _exec_block(blocks[cur], store, trace.output)
        except Trap as t:
            trace.reason, trace.trap_reason = TRAP, str(t)
            return trace
        if nxt is None:
            return trace
        cur = nxt
    trace.reason = BUDGET
    return trace


def run_obfuscated(prog: ObfuscatedProgram, inputs: dict[str, int] | None = None, *,
                   budget: int = DEFAULT_STEP_BUDGET, seed: int | None = None,
                   concurrent: bool = False) -> ExecutionTrace:
    """Execute an obfuscated program; see the module docstring for the
    protocol. A scheduled run polls the workers round-robin, or in the
    order drawn from `Rng(seed)`; a concurrent run takes no seed."""
    _check_budget(budget)
    if concurrent:
        if seed is not None:
            raise ValueError("a concurrent run takes no schedule seed")
        return _run_concurrent(prog, inputs, budget)
    return _run_scheduled(prog, inputs, budget, seed)


class _Guards:
    """One obfuscated run's shared state: the guard flags, one byte per
    block with DONE at index n, each worker's current wait list, the
    trace, and `handoff`, the protocol step both engines drive. The
    entry and each handoff that raises a flag check that some worker can
    still advance, and stop the run as "no-flag" if none can (see the
    module docstring). The flags come from a global-name lookup of
    `bytearray`, so a test can set `runtime.bytearray` to a subclass that
    sees every clear and raise."""

    def __init__(self, prog: ObfuscatedProgram, inputs, budget: int):
        n = prog.source.n
        self.flags = flags = bytearray(n + 1)
        self.done = done = n
        entry_waits, wait_after = prog.wait_lists
        self.waits = waits = list(entry_waits)
        self.trace = trace = ExecutionTrace()
        records, output = trace.records, trace.output
        code = prog.source.code
        blocks, store = code.blocks, _new_store(code, inputs)
        owner = prog.partition.assign
        raised = 1  # data flags up

        def stop(reason: str) -> None:
            """End the run: every worker exits once it finds no waited flag."""
            trace.reason = reason
            flags[done] = 1

        def any_waited() -> bool:
            """Whether some worker's wait list holds a raised flag."""
            return any(flags[f] for ws in waits for f in ws)

        def handoff(w: int, b: int, step: int) -> int:
            """Worker `w` found flag `b` up: clear it, record (step, w, b),
            adopt the block's wait list, run the block and raise its
            successor's flag, or DONE after the exit block or a trap.
            Returns the flag raised, or -1, having stopped the run, if the
            budget allows no further block or no worker can advance."""
            nonlocal raised
            if len(records) == budget:
                stop(BUDGET)
                return -1
            flags[b] = 0
            raised -= 1
            if raised:
                # Counted while no other worker can be changing the count.
                trace.flag_violations += 1
            records.append((step, w, b))
            waits[w] = wait_after[b]
            try:
                nxt = _exec_block(blocks[b], store, output)
            except Trap as t:
                trace.trap_reason = str(t)
                stop(TRAP)
                return done
            if nxt is None:
                stop(COMPLETED)
                return done
            if not flags[nxt]:
                raised += 1  # before the flag goes up, as above
                flags[nxt] = 1
            # The owner of `nxt` waits on it after every correct handoff, so
            # only a lost write or a broken wait list gets to the scan. With
            # DONE up, every worker exits once it finds no waited flag anyway.
            if (flags[nxt] and nxt in waits[owner[nxt]]) or flags[done] or any_waited():
                return nxt
            stop(NO_FLAG)
            return -1

        # A closure, not a method, so that a step costs one plain call; it
        # does not refer to self, so a finished run is freed without
        # waiting for the cycle collector.
        self.handoff = handoff
        entry = prog.source.entry
        flags[entry] = 1
        if not any_waited():
            stop(NO_FLAG)


def _run_scheduled(prog, inputs, budget: int, seed: int | None) -> ExecutionTrace:
    core = _Guards(prog, inputs, budget)
    flags, done, waits, handoff, trace = core.flags, core.done, core.waits, core.handoff, core.trace
    live = list(range(prog.m))
    # below(1) is always 0, so a seeded run at m=1 is the round-robin run.
    chooser = None if seed is None or prog.m == 1 else rng.Rng(seed)
    pos = step = 0

    while live:
        if chooser is None:
            pos %= len(live)
        else:
            pos = chooser.below(len(live))
        w = live[pos]
        for b in waits[w]:
            if flags[b]:
                if handoff(w, b, step) < 0:
                    return trace
                pos += 1
                break
        else:
            if flags[done]:
                live.pop(pos)  # exit; the next worker slides into this slot
            else:
                pos += 1
        step += 1
    return trace


def _caller_cpu(cpus: set[int]) -> int:
    """The CPU the calling thread last ran on, if it is in `cpus`;
    otherwise, or where the OS does not say, the lowest of `cpus`."""
    try:
        fd = os.open("/proc/thread-self/stat", os.O_RDONLY)
        try:
            stat = os.read(fd, 1024)
        finally:
            os.close(fd)
        # Field 39, "processor"; the command name in field 2 may hold spaces.
        cpu = int(stat.rpartition(b")")[2].split()[36])
    except (OSError, ValueError, IndexError):
        return min(cpus)
    return cpu if cpu in cpus else min(cpus)


def _run_concurrent(prog, inputs, budget: int) -> ExecutionTrace:
    # The protocol's memory contract is the GIL; a free-threaded build
    # can run without it (Python 3.13t), so such a run starts nothing.
    if not getattr(sys, "_is_gil_enabled", lambda: True)():
        raise OSError("concurrent mode needs the GIL, and this Python runs without it")
    m = prog.m
    core = _Guards(prog, inputs, budget)
    flags, done, waits, handoff, trace = core.flags, core.done, core.waits, core.handoff, core.trace
    records, owner = trace.records, prog.partition.assign
    # A worker parks in a read of its own pipe, and a byte written to the
    # pipe wakes it; one read takes in up to 64 pending wakes. `os.write`
    # lets go of the GIL before the write that wakes the reader, so the
    # woken worker takes the GIL on its first wake; a lock release would
    # wake it only to wait for the GIL a second time. Every pipe is open
    # before any worker starts and closed after every worker has ended.
    fds: list[int] = []  # each worker's read end, then its write end
    try:
        for _ in range(m):
            fds += os.pipe()
            os.set_blocking(fds[-1], False)
    except OSError:
        for fd in fds:
            os.close(fd)
        raise
    parks, bells = fds[0::2], fds[1::2]

    def wake(*ws: int) -> None:
        # Wakes can pile up unread: a worker reads its pipe only when it
        # parks, and one that keeps finding a flag up at its next poll runs
        # on without parking while the workers handing back to it write a
        # byte each time. A full pipe already holds a pending wake, so a
        # write that would block is dropped rather than stalling the waker.
        for v in ws:
            try:
                os.write(bells[v], b"\0")
            except BlockingIOError:
                pass

    def worker(w: int):
        park = parks[w]
        while True:
            for b in waits[w]:
                if flags[b]:
                    # Only the worker holding the one raised flag appends
                    # records, so it numbers them 0, 1, 2, ...
                    to = handoff(w, b, len(records))
                    if to < 0 or to == done:
                        wake(*range(m))
                        return
                    if owner[to] != w:
                        wake(owner[to])
                    break
            else:
                if flags[done]:
                    return
                os.read(park, 64)

    def abort() -> None:
        """Raise DONE and wake every worker, so that none stays parked."""
        flags[done] = 1
        wake(*range(m))

    failed: list[BaseException] = []

    def spawned(w: int, ended) -> None:
        # Plain `_thread`, so no `threading` call here: `current_thread()`
        # would register a dummy Thread for good.
        try:
            worker(w)
        except BaseException as e:
            failed.append(e)
            abort()
        finally:
            ended.release()

    # The caller runs worker 0 and starts the others, which do not
    # handshake: `start_new_thread` returns without waiting for the new
    # thread to run. Where the OS allows it, the caller first pins itself
    # to the CPU it is on, for the whole run, and the workers inherit the
    # pin: under the GIL one runs at a time anyway, and a wake then waits
    # for no second CPU. Where the OS refuses, no worker is pinned; at
    # m=1 there is no other worker, so no pin either.
    mine = os.sched_getaffinity(0) if m > 1 and hasattr(os, "sched_setaffinity") else None
    try:
        if mine:
            os.sched_setaffinity(0, {_caller_cpu(mine)})
    except OSError:
        mine = None
    started = []
    try:
        for w in range(1, m):
            ended = threading.Lock()
            ended.acquire()
            try:
                _thread.start_new_thread(spawned, (w, ended))
            except RuntimeError as e:  # not a worker's own error: its thread never ran
                raise OSError(f"cannot start worker {w}: {e}") from None
            started.append(ended)
        worker(0)
    except BaseException:
        abort()
        raise
    finally:
        for ended in started:
            ended.acquire()
        for fd in fds:
            os.close(fd)
        if mine:
            os.sched_setaffinity(0, mine)
    if failed:
        raise failed[0]
    return trace


def trace_to_json(trace: ExecutionTrace) -> str:
    doc = {
        "records": [
            {"step": s, "thread": t, "block": b} for s, t, b in trace.records
        ],
        "output": list(trace.output),
        "status": trace.status,
        "reason": trace.reason,
        "flag_violations": trace.flag_violations,
    }
    if trace.trap_reason is not None:
        doc["trap_reason"] = trace.trap_reason
    return json.dumps(doc, indent=2) + "\n"
