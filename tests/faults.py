"""Protocol faults applied from outside the runtime, as mutants of the
code under test, so that the tests can show the verifier's checks catch
a broken handoff or a broken wait list.

* skip-clear, skip-raise: `GuardFlags`, a `bytearray` subclass set as
  `runtime.bytearray`, drops every write of 0 or of 1 to a data flag
  after the entry raise. `_Guards` builds its flags with a global-name
  lookup of `bytearray`, so it gets the subclass.
* wrong-successor: the program runs a copy of its cfg whose jump and
  branch targets t are moved to (t + 1) % n, while its wait lists stay
  those of the real cfg, so each handoff raises the flag of the block
  after the dynamic successor.
* foreign-block, dropped-member: edits of `prog.wait_lists` (a cached
  property, so an instance assignment replaces it). Every wait list of
  worker 0 gains the lowest block it does not own, or loses its first
  member. A program in which worker 0 owns every block has no block to
  add, and foreign-block refuses it with ValueError.
"""

from contextlib import contextmanager
from dataclasses import replace

import pytest

from threadsplit import runtime
from threadsplit.ir import Branch, Cfg, Jump
from threadsplit.obfuscate import ObfuscatedProgram, obfuscate
from threadsplit.runtime import DEFAULT_STEP_BUDGET, run_obfuscated, run_sequential
from threadsplit.verify import _differences

SKIP_CLEAR = "skip-clear"
SKIP_RAISE = "skip-raise"
WRONG_SUCCESSOR = "wrong-successor"
FOREIGN_BLOCK = "foreign-block"
DROPPED_MEMBER = "dropped-member"

HANDOFF_FAULTS = (SKIP_CLEAR, SKIP_RAISE, WRONG_SUCCESSOR)

# The value whose writes to a data flag each flag fault drops.
_DROPPED_WRITE = {SKIP_CLEAR: 0, SKIP_RAISE: 1}


class GuardFlags(bytearray):
    """Guard flags that count the clears of data flags and drop the
    writes of `drop` to them. The first write, the entry raise, and every
    write to DONE (the last index) always go through. `made` lists every
    instance, so a test can read the counts of the run it made."""

    drop: int | None = None
    made: list["GuardFlags"]

    def __init__(self, *args):
        super().__init__(*args)
        self.writes = self.clears = 0
        self.made.append(self)

    def __setitem__(self, i, v):
        self.writes += 1
        if self.writes > 1 and i != len(self) - 1:
            if v == 0:
                self.clears += 1
            if v == self.drop:
                return
        super().__setitem__(i, v)


@contextmanager
def guard_flags(drop: int | None = None):
    """Make `runtime.bytearray` a fresh `GuardFlags` subclass that drops
    the writes of `drop`, or none, until the block ends, even by an
    error. Yields the subclass."""
    shim = type("GuardFlags", (GuardFlags,), {"drop": drop, "made": []})
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(runtime, "bytearray", shim, raising=False)
        yield shim


def shifted(cfg: Cfg) -> Cfg:
    """`cfg` with every jump or branch target t moved to (t + 1) % n."""
    n = cfg.n

    def move(term):
        if isinstance(term, Jump):
            return Jump((term.target + 1) % n)
        if isinstance(term, Branch):
            return Branch(term.cond, (term.iftrue + 1) % n, (term.iffalse + 1) % n)
        return term

    return replace(cfg, blocks=[replace(blk, term=move(blk.term)) for blk in cfg.blocks])


def with_fault(prog: ObfuscatedProgram, fault: str) -> ObfuscatedProgram:
    """A copy of `prog` that carries `fault` in its cfg or wait lists;
    `prog` itself for the flag faults, which need `guard_flags`."""
    if fault in _DROPPED_WRITE:
        return prog
    if fault == WRONG_SUCCESSOR:
        return ObfuscatedProgram(shifted(prog.source), prog.partition, prog.threads)
    owner = prog.partition.assign
    if fault == FOREIGN_BLOCK:
        foreign = next((b for b, w in enumerate(owner) if w != 0), None)
        if foreign is None:
            raise ValueError("foreign-block needs a block off worker 0, "
                             "and worker 0 owns every block")

        def edit(ws):
            return tuple(sorted({*ws, foreign}))
    elif fault == DROPPED_MEMBER:
        def edit(ws):
            return ws[1:]
    else:
        raise ValueError(f"unknown fault {fault!r}")
    entry, after = prog.wait_lists
    faulty = ObfuscatedProgram(prog.source, prog.partition, prog.threads)
    faulty.wait_lists = (
        (edit(entry[0]), *entry[1:]),
        tuple(edit(ws) if owner[b] == 0 else ws for b, ws in enumerate(after)),
    )
    return faulty


def run_with_fault(prog: ObfuscatedProgram, fault: str, inputs=None, *,
                   budget: int = DEFAULT_STEP_BUDGET, seed: int | None = None,
                   concurrent: bool = False):
    """`run_obfuscated` of `prog` with `fault` applied for this run only."""
    with guard_flags(_DROPPED_WRITE.get(fault)):
        return run_obfuscated(with_fault(prog, fault), inputs, budget=budget, seed=seed,
                              concurrent=concurrent)


def check_faults(cfg: Cfg, m: int = 3, seed: int = 7,
                 faults=HANDOFF_FAULTS) -> dict[str, dict]:
    """Run each fault on `obfuscate(cfg, m, seed)` under the round-robin
    schedule and report how the verifier's checks saw it. As in
    `verify.check_equivalence`, a run may execute only as many blocks as
    the reference did."""
    ref = run_sequential(cfg)
    ref_blocks = ref.block_sequence()
    prog = obfuscate(cfg, m, seed)
    report: dict[str, dict] = {}
    for fault in faults:
        trace = run_with_fault(prog, fault, budget=len(ref_blocks))
        signals = _differences(trace, ref, ref_blocks, prog.partition.assign)
        report[fault] = {"detected": bool(signals), "signals": signals}
    return report
