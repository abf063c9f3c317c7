"""The three workloads: what one round does and what it checks.

Each workload is one closed-loop caller: a round starts when the last
one has finished, and every round attempts the same operations. Calls
go through module attributes (`textfmt.parse`, `obf.obfuscate`, ...) so
that a traced run sees them through the tracer's wrappers.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

from programs import (Expected, Program, evaluate, large_program, loop_program,
                      reference_work, small_loop_program)
from threadsplit import ir, runtime, textfmt, verify

obf = importlib.import_module("threadsplit.obfuscate")

CONC_M = 2  # OS threads in a concurrent run; run.py checks the core count

# Seconds `reference_work` takes on this benchmark's reference host.
REFERENCE_S = 0.0055


def host_slowness() -> float:
    """How much slower than the reference host this one runs right now.

    Shared hosts drift by a quarter within a minute. The CPU-bound rates
    are multiplied by the slowness measured just before and after each
    timed call, and set-up times divided by it, which takes most of that
    drift out of them; a change to threadsplit does not move the
    reference work.
    """
    t0 = time.perf_counter()
    reference_work()
    return (time.perf_counter() - t0) / REFERENCE_S


class Timed:
    """Wall time of the block it wraps, and the host slowness around it."""

    def __enter__(self):
        self._before = host_slowness()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self._t0
        self.slowness = (self._before + host_slowness()) / 2


class CheckFailed(Exception):
    pass


class NoTrace:
    def span(self, name: str):
        return nullcontext()


@dataclass
class Stats:
    """What one phase of a run measured, round by round."""

    rounds: int = 0
    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0
    # One (work done, seconds, host slowness) sample per round each.
    compile: list = field(default_factory=list)
    load: list = field(default_factory=list)
    conc: list = field(default_factory=list)
    verify: list = field(default_factory=list)
    artifact_bytes: int = 0
    artifact_blocks: int = 0
    pair_seq_s: float = 0.0  # sequential and concurrent runs of the same
    pair_conc_s: float = 0.0  # program on the same inputs


@dataclass
class Case:
    """What threadsplit gets (text, inputs) and what it must produce."""

    text: str
    inputs: dict[str, int]
    expected: Expected


def _case(prog: Program) -> Case:
    return Case(prog.text(), prog.inputs, evaluate(prog))


def _check(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def compile_text(text: str, m: int, pseed: int, st: Stats):
    """Text to artifact text: parse, obfuscate, serialize."""
    with Timed() as t:
        cfg = textfmt.parse(text)
        prog = obf.obfuscate(cfg, m, pseed)
        art = obf.program_to_json(prog)
    st.compile.append((cfg.n, t.seconds, t.slowness))
    st.attempted += 1
    st.artifact_bytes += len(art)
    st.artifact_blocks += cfg.n
    _check(not obf.check_bijection(prog), f"{cfg.name}: partition is not a bijection")
    return cfg, prog, art


def load(art: str, cfg, prog, st: Stats) -> None:
    with Timed() as t:
        loaded = obf.program_from_json(art, cfg)
    st.load.append((cfg.n, t.seconds, t.slowness))
    st.attempted += 1
    _check(loaded.partition.assign == prog.partition.assign, "loaded assignment differs")
    for a, b in zip(loaded.threads, prog.threads, strict=True):
        _check(a.per_block_wait == b.per_block_wait and a.entry_wait == b.entry_wait,
               f"loaded wait sets of thread {a.thread_index} differ")


def expect_refused(art: str, cfg, st: Stats) -> None:
    """A tampered artifact must be refused with ValueError; accepting it
    is a failed operation, not a failed check."""
    st.attempted += 1
    try:
        obf.program_from_json(art, cfg)
    except ValueError:
        return
    except Exception as e:  # refused, but not with the documented error
        print(f"tampered load raised {type(e).__name__}: {e}", file=sys.stderr)
    st.failed += 1


def check_wait_sets(cfg, prog, blocks_per_thread: int | None) -> None:
    """Compare wait sets with the verifier's independent BFS oracle: all
    of them, or the first `blocks_per_thread` owned blocks of each
    thread plus every entry wait."""
    succs = ir.successor_map(cfg)
    pre_entry = succs + [{cfg.entry}]
    for t in prog.threads:
        want = verify.oracle_first_inset_reachable(cfg.n, t.owned_blocks, cfg, pre_entry)
        _check(set(t.entry_wait.flags) == want, f"entry wait of thread {t.thread_index}")
        owned = sorted(t.owned_blocks)[:blocks_per_thread]
        for b in owned:
            want = verify.oracle_first_inset_reachable(b, t.owned_blocks, cfg, succs)
            _check(set(t.per_block_wait[b].flags) == want,
                   f"wait set of block {b} in thread {t.thread_index}")


def _check_trace(trace, case: Case, what: str) -> None:
    _check(trace.status == runtime.COMPLETED, f"{what}: status {trace.status}")
    _check(trace.output == case.expected.output, f"{what}: output differs from evaluator")
    _check(trace.block_sequence() == case.expected.blocks,
           f"{what}: block sequence differs from evaluator")
    _check([r[0] for r in trace.records] == list(range(len(trace.records))),
           f"{what}: step indices are not contiguous")
    _check(trace.flag_violations == 0, f"{what}: {trace.flag_violations} flag violations")


def run_pair(cfg, prog, case: Case, st: Stats) -> None:
    """The reference run and a concurrent run of the same program."""
    t0 = time.perf_counter()
    seq = runtime.run_sequential(cfg, case.inputs)
    t1 = time.perf_counter()
    conc = runtime.run_obfuscated(prog, case.inputs, concurrent=True)
    t2 = time.perf_counter()
    st.attempted += 2
    # Not scaled: a handoff is mostly a sleeping thread's wake-up.
    st.conc.append((len(conc.records), t2 - t1, 1.0))
    st.pair_seq_s += t1 - t0
    st.pair_conc_s += t2 - t1
    _check_trace(seq, case, "sequential run")
    _check_trace(conc, case, "concurrent run")
    assign = prog.partition.assign
    _check(all(assign[b] == w for _, w, b in conc.records),
           "concurrent run executed a block off its owner thread")


def check_equivalence(cfg, config, inputs, cases: int, st: Stats) -> None:
    with Timed() as t:
        report = verify.check_equivalence(cfg, config, inputs=inputs)
    st.verify.append((len(report.cases), t.seconds, t.slowness))
    st.attempted += 1
    _check(len(report.cases) == cases, f"verifier ran {len(report.cases)} cases, expected {cases}")
    _check(report.ok, "verifier: " + report.summary().replace("\n", "; "))


class Workload:
    name = ""
    pool_size = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.pool: list[Case] = []

    def setup(self) -> None:
        """Generate the inputs and their expected results, then warm up
        every layer once on a small program."""
        self.pool = [self.make_case(i) for i in range(self.pool_size)]
        warm = _case(loop_program(self.seed, 12, 3))
        st = Stats()
        cfg, prog, art = compile_text(warm.text, CONC_M, 0, st)
        load(art, cfg, prog, st)
        run_pair(cfg, prog, warm, st)
        check_equivalence(cfg, verify.VerifyConfig((CONC_M,), 1, 1), warm.inputs, 3, st)

    def make_case(self, i: int) -> Case:
        raise NotImplementedError

    def round(self, r: int, st: Stats, tr) -> None:
        raise NotImplementedError


class CompileLarge(Workload):
    """2000-block loop-rich programs: text to artifact at m=4, reload,
    three tampered loads, a concurrent run and a small verifier sweep."""

    name = "compile-large"
    pool_size = 24
    m = 4
    # Seed-independent program for the cut-short `threads` load, which
    # the loader accepts on every input today.
    cut_seed = 20131102
    cut_n = 200

    def make_case(self, i: int) -> Case:
        return _case(large_program(self.seed * 1009 + i))

    def setup(self) -> None:
        super().setup()
        text = large_program(self.cut_seed, n=self.cut_n).text()
        self.cut_cfg = textfmt.parse(text)
        doc = json.loads(obf.program_to_json(obf.obfuscate(self.cut_cfg, self.m, 0)))
        doc["threads"] = doc["threads"][:1]
        self.cut_art = json.dumps(doc)

    def round(self, r: int, st: Stats, tr) -> None:
        case = self.pool[r % len(self.pool)]
        pseed = self.seed * 1009 + r
        with tr.span("bench.compile"):
            cfg, prog, art = compile_text(case.text, self.m, pseed, st)
        share = cfg.n / self.m
        for t in prog.threads:
            _check(0.8 * share <= len(t.owned_blocks) <= 1.2 * share,
                   f"thread {t.thread_index} owns {len(t.owned_blocks)} of {cfg.n} blocks")
        check_wait_sets(cfg, prog, 8)
        with tr.span("bench.load"):
            load(art, cfg, prog, st)
        edited, variant = _edit_wait_set(art), _variant_cfg(cfg, prog)
        with tr.span("bench.tampered"):
            expect_refused(edited, cfg, st)
            expect_refused(art, variant, st)
            expect_refused(self.cut_art, self.cut_cfg, st)
        with tr.span("bench.run"):
            run_pair(cfg, obf.obfuscate(cfg, CONC_M, pseed), case, st)
        with tr.span("bench.verify"):
            config = verify.VerifyConfig(m_values=(self.m,), partition_seeds=1, schedule_seeds=1)
            check_equivalence(cfg, config, case.inputs, 3, st)


def _edit_wait_set(art: str) -> str:
    """Drop one flag from the first non-empty per-block wait set."""
    doc = json.loads(art)
    waits = doc["threads"][0]["per_block_wait"]
    key = next(k for k, v in waits.items() if v)
    waits[key] = waits[key][1:]
    return json.dumps(doc)


def _variant_cfg(cfg, prog):
    """Same name and size, one jump turned into a branch that adds an
    owned block to that jump's wait set, so every wait-set check must
    see the difference."""
    for blk in cfg.blocks[1:]:
        if isinstance(blk.term, ir.Jump):
            owner = prog.threads[prog.partition.assign[blk.id]]
            waits = owner.per_block_wait[blk.id].flags
            extra = [b for b in sorted(owner.owned_blocks) if b not in waits]
            if extra:
                blocks = list(cfg.blocks)
                blocks[blk.id] = ir.BasicBlock(blk.id, blk.label, blk.instrs,
                                               ir.Branch("a", extra[0], blk.term.target))
                return ir.Cfg(cfg.name, blocks, cfg.entry)
    raise CheckFailed("no jump block to retarget")


class ConcHandoff(Workload):
    """A 50-block loop running about 15k blocks concurrently at m=2."""

    name = "conc-handoff"
    pool_size = 3

    def make_case(self, i: int) -> Case:
        return _case(loop_program(self.seed * 1009 + i, 50, 450))

    def round(self, r: int, st: Stats, tr) -> None:
        case = self.pool[r % len(self.pool)]
        with tr.span("bench.compile"):
            cfg, prog, art = compile_text(case.text, CONC_M, self.seed * 1009 + r, st)
        check_wait_sets(cfg, prog, None)
        with tr.span("bench.load"):
            load(art, cfg, prog, st)
        with tr.span("bench.run"):
            run_pair(cfg, prog, case, st)
        with tr.span("bench.verify"):
            config = verify.VerifyConfig(m_values=(CONC_M,), partition_seeds=1, schedule_seeds=1)
            check_equivalence(cfg, config, {**case.inputs, "iters": 2}, 3, st)


class VerifySweep(Workload):
    """Small loop programs, each swept by the verifier over m=1..4,
    three partition seeds, round-robin and two random schedules."""

    name = "verify-sweep"
    pool_size = 256
    config = verify.VerifyConfig(m_values=(1, 2, 3, 4), partition_seeds=3, schedule_seeds=2)
    cases = 4 * 3 * (1 + 1 + 2)

    def make_case(self, i: int) -> Case:
        return _case(small_loop_program(self.seed * 1009 + i))

    def round(self, r: int, st: Stats, tr) -> None:
        case = self.pool[r % len(self.pool)]
        with tr.span("bench.compile"):
            cfg, prog, art = compile_text(case.text, CONC_M, self.seed * 1009 + r, st)
        check_wait_sets(cfg, prog, None)
        with tr.span("bench.load"):
            load(art, cfg, prog, st)
        with tr.span("bench.run"):
            run_pair(cfg, prog, case, st)
        with tr.span("bench.verify"):
            check_equivalence(cfg, self.config, case.inputs, self.cases, st)


WORKLOADS = {w.name: w for w in (CompileLarge, ConcHandoff, VerifySweep)}
