"""Differential verification of the transformation.

`run_sequential` on the original cfg is the oracle. Every obfuscated
configuration in a sweep (m values x partition seeds x schedules) must
reproduce its output and dynamic block sequence exactly, run each block
on the worker that owns it, with zero mutual-exclusion violations and a
structurally valid partition.

Equal runs are judged once. A scheduled run is fixed by the thread
count, the assignment and the schedule seed, so a case whose run another
case of the same sweep already made reuses that verdict and names that
case (`CaseResult.reuses`). Every case keeps its own result.

A program needs only one scheduled run per (m, assignment), the
round-robin one, when its `structure` case passes. That case checks
premise (a): every wait list of thread t names only blocks that the
assignment gives to t (`check_own_waits`). With (a), every schedule
makes the round-robin run, up to step indices and vain polls:

* only a handoff writes flags, after the entry raise: it clears the
  flag it found and raises one successor, or DONE, so exactly one data
  flag is up between handoffs (premise (b); a handoff that finds
  another still up counts in `flag_violations`);
* a poll changes no state (premise (c)), so a schedule decides only
  which worker polls next, never what a poll finds;
* by (a) only the owner of the raised flag waits on it, so at most one
  worker can advance at any micro-step.

So the blocks run, the worker of each, the output and how the run ends
(completed, trap, budget or no-flag) do not depend on the schedule, and
each `random:k` case of such a program shares the round-robin run. A
handoff that breaks (b) is met under every schedule, round-robin
included, and fails that run. What is still run for real: the
round-robin run of each distinct (m, assignment), and every schedule
of a program whose structure case fails. At m=1, (a) always holds.
`test_every_schedule_makes_the_round_robin_run` checks the claim on
runs that complete, trap, run out of budget, find no flag, or run a
shifted cfg.

The wait-set computation gets its own independent oracle here: a plain
node-at-a-time BFS (`oracle_first_inset_reachable`) that shares no code
with the Tarjan pass it checks.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from itertools import chain

from . import ir, rng
from .ir import BasicBlock, BinOp, Branch, Cfg, Halt, Jump
from .obfuscate import (ObfuscatedProgram, _owned_lists, check_bijection, check_cfg,
                         check_thread_count, obfuscate, wait_set_query)
from .runtime import COMPLETED, ExecutionTrace, run_obfuscated, run_sequential


def oracle_first_inset_reachable(bcur: int, bbset, cfg: Cfg,
                                 succs: list[set[int]] | None = None) -> set[int]:
    """Reference answer for the wait-set walk: the members of `bbset`
    reachable from `bcur` by a non-empty path whose intermediate nodes
    all lie outside `bbset`."""
    if succs is None:
        succs = ir.successor_map(cfg)
    inset = frozenset(bbset)
    result: set[int] = set()
    seen: set[int] = set()
    queue = deque(succs[bcur])
    while queue:
        v = queue.popleft()
        if v in inset:
            result.add(v)
            continue
        if v in seen:
            continue
        seen.add(v)
        queue.extend(succs[v])
    return result


_FLIP_C = BinOp("c", "c", "==", "z")

_BRANCH_DENSITY = 0.4  # chance that a non-exit block of `random_cfg` branches
_SUBSETS_PER_CFG = 50  # block subsets `check_algorithm1` draws for each cfg


def random_cfg(r: rng.Rng, max_n: int = 12) -> Cfg:
    """Random valid cfg with uniform size 1..max_n: one halt block, the
    rest jumps or branches with uniformly random targets. Targets are
    redrawn (keeping n fixed) until every block is reachable from the
    entry. Every block runs `c = c == z` and every branch tests c; z is
    never set, so c flips at each block and branches take both arms."""
    n = 1 + r.below(max_n)
    while True:
        exit_id = r.below(n)
        terms: list[Jump | Branch | Halt] = []
        for i in range(n):
            if i == exit_id:
                terms.append(Halt())
            elif r.chance(_BRANCH_DENSITY):
                terms.append(Branch("c", r.below(n), r.below(n)))
            else:
                terms.append(Jump(r.below(n)))
        # Reachability is the only check a draw can fail; most draws do,
        # so test it before building the cfg.
        if len(ir.reachable(terms)) < n:
            continue
        cfg = Cfg("random", [BasicBlock(i, f"b{i}", [_FLIP_C], term)
                             for i, term in enumerate(terms)])
        if not ir.validate(cfg):
            return cfg


@dataclass
class Alg1Report:
    cfgs: int
    comparisons: int
    mismatches: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches


@dataclass
class VerifyConfig:
    m_values: tuple[int, ...] = (1, 2, 3, 4)
    partition_seeds: int = 25
    schedule_seeds: int = 10

    def __post_init__(self):
        if not self.m_values:
            raise ValueError("m_values must not be empty")
        for m in self.m_values:
            check_thread_count(m)
        if len(set(self.m_values)) < len(self.m_values):
            raise ValueError(f"m_values must not repeat, got {','.join(map(str, self.m_values))}")
        for name in ("partition_seeds", "schedule_seeds"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


@dataclass
class CaseResult:
    program: str
    m: int
    partition_seed: int
    schedule: str  # "structure", "round-robin", or "random:<seed>"
    ok: bool
    detail: str = ""
    status: str = ""
    flag_violations: int = 0
    reuses: str = ""  # the case whose run this one shares; empty if it ran


@dataclass
class VerifyReport:
    cases: list[CaseResult] = field(default_factory=list)
    alg1: Alg1Report | None = None

    @property
    def passed(self) -> int:
        return sum(1 for c in self.cases if c.ok)

    @property
    def failed(self) -> int:
        return len(self.cases) - self.passed

    @property
    def ok(self) -> bool:
        return self.failed == 0 and (self.alg1 is None or self.alg1.ok)

    @property
    def runs(self) -> int:
        """Scheduled runs made: the run cases that reuse no other's."""
        return sum(1 for c in self.cases if c.schedule != "structure" and not c.reuses)

    def summary(self) -> str:
        lines = [f"equivalence cases: {self.passed} passed, {self.failed} failed, "
                 f"from {self.runs} scheduled runs"]
        for c in [c for c in self.cases if not c.ok][:20]:
            lines.append(
                f"  FAIL {c.program} m={c.m} pseed={c.partition_seed} "
                f"sched={c.schedule}: {c.detail}"
            )
        if self.alg1 is not None:
            verdict = "ok" if self.alg1.ok else f"{len(self.alg1.mismatches)} mismatches"
            lines.append(
                f"wait-set oracle: {self.alg1.comparisons} comparisons "
                f"over {self.alg1.cfgs} cfgs, {verdict}"
            )
        lines.append("verdict: " + ("PASS" if self.ok else "FAIL"))
        return "\n".join(lines)

    def to_json(self) -> str:
        doc = {
            "cases": [vars(c).copy() for c in self.cases],
            "passed": self.passed,
            "failed": self.failed,
            "ok": self.ok,
        }
        if self.alg1 is not None:
            doc["alg1"] = {
                "cfgs": self.alg1.cfgs,
                "comparisons": self.alg1.comparisons,
                "mismatches": self.alg1.mismatches,
            }
        return json.dumps(doc, indent=2) + "\n"


def check_algorithm1(trials: int = 1000, max_n: int = 12, seed: int = 2024) -> Alg1Report:
    """Compare the production wait-set pass against the BFS oracle over
    `trials` random cfgs: `_SUBSETS_PER_CFG` random block subsets each,
    one pass per subset, queried with every block as the start."""
    if trials < 0:
        raise ValueError(f"wait-set oracle trials must be >= 0, got {trials}")
    r = rng.Rng(seed)
    comparisons = 0
    mismatches: list[dict] = []
    for _ in range(trials):
        cfg = random_cfg(r, max_n)
        succs = ir.successor_map(cfg)
        n = cfg.n
        for _ in range(_SUBSETS_PER_CFG):
            mask = r.below(1 << n)
            owned = [b for b in range(n) if mask >> b & 1]
            subset = frozenset(owned)
            first_in_subset = wait_set_query(succs, owned)
            for bcur in range(n):
                got = first_in_subset(succs[bcur])
                want = tuple(sorted(oracle_first_inset_reachable(bcur, subset, cfg, succs)))
                comparisons += 1
                if got != want:
                    mismatches.append({
                        "edges": [sorted(s) for s in succs],
                        "bcur": bcur,
                        "subset": owned,
                        "got": list(got),
                        "want": list(want),
                    })
    return Alg1Report(trials, comparisons, mismatches)


def _first_divergence(got: list[int], want: list[int]) -> str:
    for i, (g, w) in enumerate(zip(got, want)):
        if g != w:
            return f"first divergence at step {i}: block {g}, expected {w}"
    return f"length {len(got)}, expected {len(want)}"


def _differences(trace: ExecutionTrace, ref: ExecutionTrace, ref_blocks: list[int],
                 owner: list[int]) -> list[str]:
    """How a run of an obfuscated program whose partition is `owner`
    differs from the reference run `ref`, whose block sequence is
    `ref_blocks`: status, then flag violations, then the first record run
    off its block's owner, then output, then block sequence. Empty when
    it does not."""
    found = []
    if trace.status != ref.status:
        found.append(f"status {trace.status}, expected {ref.status}")
    if trace.flag_violations:
        found.append(f"{trace.flag_violations} mutual-exclusion violations")
    for step, w, b in trace.records:
        if w != owner[b]:
            found.append(f"step {step}: worker {w} ran block {b}, owned by worker {owner[b]}")
            break
    if trace.output != ref.output:
        found.append("output differs: " + _first_divergence(trace.output, ref.output))
    blocks = trace.block_sequence()
    if blocks != ref_blocks:
        found.append("block sequence differs: " + _first_divergence(blocks, ref_blocks))
    return found


def check_own_waits(prog: ObfuscatedProgram) -> list[str]:
    """Premise (a): every entry wait and every per-block wait of thread t
    holds only blocks that `prog.partition.assign` gives to t. Empty when
    it holds, else one line naming the first list that breaks it, in
    thread order, each thread's entry wait before its blocks' waits.
    Expects an assignment that `check_bijection` passes."""
    assign = prog.partition.assign
    entry, after = prog.wait_lists
    for t, owned in enumerate(_owned_lists(prog.partition)):
        members = set(entry[t])
        members.update(chain.from_iterable(map(after.__getitem__, owned)))
        if members.issubset(owned):
            continue
        own = set(owned)
        lists = chain([("at entry", entry[t])], ((f"after block {b}", after[b]) for b in owned))
        for at, ws in lists:
            for x in ws:
                if x not in own:
                    return [f"thread {t} waits {at} on block {x} of thread {assign[x]}"]
    return []


def check_equivalence(cfg: Cfg, config: VerifyConfig | None = None,
                      name: str | None = None,
                      inputs: dict[str, int] | None = None) -> VerifyReport:
    """Sweep one program: every m x partition seed gets a structure
    check plus round-robin and `schedule_seeds` random-schedule runs,
    each compared field-by-field against the sequential reference.
    Each run's budget is the reference's block count: a run that needs
    more has already diverged. Each program is built by `obfuscate`. The
    cfg is validated once, before the reference runs (`Cfg.problems` keeps
    the result for every build); an invalid one raises ValueError.

    The structure case passes when the assignment partitions the blocks
    (`check_bijection`) and each wait list names only its own thread's
    blocks (`check_own_waits`). Such a program runs once, round-robin,
    per (m, assignment), and its random-schedule cases share that run:
    only a handoff writes flags, exactly one data flag is up between
    handoffs, a poll changes no state, and only the flag's owner waits
    on it, so every schedule makes the same run (see the module
    docstring). A program that fails its structure case runs every
    schedule for real. A run is judged once per (m, assignment, seed,
    or None for a program that passed): a later case with the same key
    copies the verdict and names the case that ran."""
    config = config or VerifyConfig()
    name = name or cfg.name
    check_cfg(cfg)
    ref = run_sequential(cfg, inputs)
    if ref.status != COMPLETED:
        raise ValueError(f"reference run of {name} did not complete: {ref.status}")
    ref_blocks = ref.block_sequence()
    budget = len(ref_blocks)
    results: list[CaseResult] = []
    ran: dict[tuple, CaseResult] = {}  # (m, assignment, effective seed) -> case that ran
    for m in config.m_values:
        for pseed in range(config.partition_seeds):
            prog = obfuscate(cfg, m, pseed)
            issues = check_bijection(prog) or check_own_waits(prog)
            results.append(CaseResult(
                name, m, pseed, "structure", not issues, "; ".join(issues)))
            assignment = tuple(prog.partition.assign)
            for seed in (None, *range(config.schedule_seeds)):
                label = "round-robin" if seed is None else f"random:{seed}"
                key = (m, assignment, seed if issues else None)
                first = ran.get(key)
                if first is None:
                    trace = run_obfuscated(prog, inputs, budget=budget, seed=seed)
                    found = _differences(trace, ref, ref_blocks, prog.partition.assign)
                    case = ran[key] = CaseResult(name, m, pseed, label, not found,
                                                 found[0] if found else "",
                                                 trace.status, trace.flag_violations)
                else:
                    case = CaseResult(name, m, pseed, label, first.ok, first.detail,
                                      first.status, first.flag_violations,
                                      f"m={m} pseed={first.partition_seed} sched={first.schedule}")
                results.append(case)
    return VerifyReport(cases=results)


def verify_files(named_cfgs: list[tuple[str, Cfg]], config: VerifyConfig | None = None,
                 alg1_trials: int = 100, seed: int = 2024) -> VerifyReport:
    """Full verification: wait-set oracle trials (unless alg1_trials is
    0) plus the differential sweep over (name, cfg) pairs. A negative
    alg1_trials raises ValueError."""
    alg1 = check_algorithm1(alg1_trials, seed=seed) if alg1_trials else None
    cases = [case for name, cfg in named_cfgs
             for case in check_equivalence(cfg, config, name).cases]
    return VerifyReport(cases, alg1)
