"""Differential verification of the transformation.

`run_sequential` on the original cfg is the oracle. Every obfuscated
configuration in a sweep (m values x partition seeds x schedules) must
reproduce its output and dynamic block sequence exactly, run each block
on the worker that owns it, with zero mutual-exclusion violations and a
structurally valid partition.

The wait-set computation gets its own independent oracle here: a plain
node-at-a-time BFS (`oracle_first_inset_reachable`) that shares no code
with the Tarjan pass it checks.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field

from . import ir, rng
from .ir import BasicBlock, BinOp, Branch, Cfg, Halt, Jump
from .obfuscate import check_bijection, obfuscate, wait_set_query
from .runtime import (
    COMPLETED,
    RANDOM,
    ROUND_ROBIN,
    ExecutionTrace,
    Schedule,
    run_obfuscated,
    run_sequential,
)


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
        if not self.m_values or any(m < 1 for m in self.m_values):
            raise ValueError("m_values entries must be >= 1")
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

    def summary(self) -> str:
        lines = [f"equivalence cases: {self.passed} passed, {self.failed} failed"]
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


def check_equivalence(cfg: Cfg, config: VerifyConfig | None = None,
                      name: str | None = None,
                      inputs: dict[str, int] | None = None) -> VerifyReport:
    """Sweep one program: every m x partition seed gets a structure
    check plus round-robin and `schedule_seeds` random-schedule runs,
    each compared field-by-field against the sequential reference.
    Each run's budget is the reference's block count: a run that needs
    more has already diverged. Each program is built by `obfuscate`. The
    cfg is validated once, before the reference runs (`Cfg.problems` keeps
    the result for every build); an invalid one raises ValueError."""
    config = config or VerifyConfig()
    name = name or cfg.name
    errors = cfg.problems
    if errors:
        raise ValueError(f"invalid cfg {name!r}: " + "; ".join(errors))
    ref = run_sequential(cfg, inputs)
    if ref.status != COMPLETED:
        raise ValueError(f"reference run of {name} did not complete: {ref.status}")
    ref_blocks = ref.block_sequence()
    budget = len(ref_blocks)
    results: list[CaseResult] = []
    schedules = [Schedule(ROUND_ROBIN, 0, budget)]
    schedules += [Schedule(RANDOM, s, budget) for s in range(config.schedule_seeds)]
    for m in config.m_values:
        for pseed in range(config.partition_seeds):
            prog = obfuscate(cfg, m, pseed)
            issues = check_bijection(prog)
            results.append(CaseResult(
                name, m, pseed, "structure", not issues, "; ".join(issues)))
            for sched in schedules:
                label = sched.mode if sched.mode == ROUND_ROBIN else f"{sched.mode}:{sched.seed}"
                trace = run_obfuscated(prog, inputs, sched=sched)
                found = _differences(trace, ref, ref_blocks, prog.partition.assign)
                results.append(CaseResult(name, m, pseed, label, not found,
                                          found[0] if found else "",
                                          trace.status, trace.flag_violations))
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
