"""The thread-splitting transformation.

Takes a single-threaded CFG and a thread count m, assigns every basic
block to one of m threads uniformly at random (so there are exactly m^n
possible assignments for n blocks), and builds one guarded CFG per
thread. Each thread spins in a Wait node until the flag of one of its
blocks is raised, dispatches to that block through a Switch node,
executes it, raises the flag of the block's dynamic successor (owned by
whichever thread), and returns to waiting. A dedicated DONE flag, raised
when the original exit block runs, releases every thread.

The wait set attached to a block b is the set of in-partition blocks
reachable from b along paths whose intermediate blocks all lie outside
the partition: the first blocks of this thread that can possibly run
next. Thread entry nodes wait on the analogous set computed from the
program entry.

All of a thread's wait sets come from one pass (`wait_set_query`): an
iterative Tarjan walk over the blocks outside the partition gives each
of them `reach`, the in-partition blocks it reaches first. Blocks of one
strongly connected component share their reach, and Tarjan closes a
component only after every component it leads to, so each reach is one
union over finished successors. A block's wait set is then the union,
over its successors s, of {s} when s is in the partition and reach[s]
otherwise; the entry wait applies the same rule to a virtual pre-entry
node whose sole successor is the program entry.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from functools import cached_property

from . import ir, rng
from .ir import Cfg

FORMAT_VERSION = 2


@dataclass
class Partition:
    """The assignment: `assign[b]` is block b's thread in [0, m), the list
    the artifact stores."""

    m: int
    assign: list[int]
    seed: int

    def owned(self, t: int) -> frozenset[int]:
        return frozenset(b for b, ti in enumerate(self.assign) if ti == t)


@dataclass(frozen=True)
class WaitSet:
    """Block flags one Wait node spins on, ascending: the order the runtime
    polls them and the artifact stores them. Every wait also watches the
    DONE flag, which is implicit and not part of `flags`."""

    flags: tuple[int, ...]


@dataclass
class ThreadCfg:
    """One generated thread: its owned blocks plus synthetic structure.

    Structure: Entry feeds the Wait node for `entry_wait`. Each distinct
    non-empty wait set gets one shared Wait+Switch pair; the Switch
    dispatches to whichever waited block's flag is up, or to Exit on
    DONE. After executing block b, control moves to the Wait node for
    `per_block_wait[b]`; a block whose wait set is empty can never see
    another owned block run, so it proceeds straight to Exit.
    """

    thread_index: int
    owned_blocks: frozenset[int]
    entry_wait: WaitSet
    per_block_wait: dict[int, WaitSet]

    def wait_sets(self) -> list[WaitSet]:
        """Distinct wait sets needing a Wait node, in first-use order:
        the entry wait (always, even when empty), then non-empty
        per-block waits in block-id order."""
        per_block = self.per_block_wait
        later = (per_block[b] for b in sorted(per_block))
        return list(dict.fromkeys([self.entry_wait, *(ws for ws in later if ws.flags)]))


@dataclass
class ObfuscatedProgram:
    source: Cfg
    partition: Partition
    threads: list[ThreadCfg]

    @property
    def m(self) -> int:
        return self.partition.m

    @cached_property
    def wait_lists(self) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
        """The `WaitSet.flags` the runtime polls: each thread's entry wait,
        and the wait that follows each block, indexed by block id. Gathered
        on first use and kept for the program's lifetime."""
        after: list[tuple[int, ...]] = [()] * self.source.n
        for tcfg in self.threads:
            for b, ws in tcfg.per_block_wait.items():
                after[b] = ws.flags
        return tuple(tcfg.entry_wait.flags for tcfg in self.threads), tuple(after)


def partition_blocks(cfg: Cfg, m: int, seed: int) -> Partition:
    """Assign each block a thread index drawn uniformly and independently
    from [0, m), in block-id order, from a splitmix64 stream seeded with
    `seed`. Deterministic: same (cfg, m, seed) gives the same partition."""
    if m < 1:
        raise ValueError(f"thread count must be >= 1, got {m}")
    r = rng.Rng(seed)
    return Partition(m=m, assign=[r.below(m) for _ in range(cfg.n)], seed=seed)


def wait_set_query(succs, bbset) -> Callable[[Iterable[int]], frozenset[int]]:
    """One pass over the blocks outside `bbset` (see the module
    docstring). Returns a query mapping the successors of a block, or
    the targets of any virtual node, to the blocks of `bbset` reached
    first from it: a target in `bbset` is itself, any other target
    contributes its reach. `succs` is indexed by block id, as from
    ir.successor_map."""
    n = len(succs)
    num = [0] * n  # DFS discovery number; 0 while unvisited
    low = [0] * n
    reach: list = [None] * n
    on_stack = [False] * n
    stack: list[int] = []
    counter = 0
    for root in range(n):
        if num[root] or root in bbset:
            continue
        counter += 1
        num[root] = low[root] = counter
        reach[root] = set()
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(succs[root]))]
        while work:
            v, edges = work[-1]
            rv = reach[v]
            for w in edges:
                if w in bbset:
                    rv.add(w)
                elif not num[w]:
                    counter += 1
                    num[w] = low[w] = counter
                    reach[w] = set()
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(succs[w])))
                    break
                elif on_stack[w]:
                    if num[w] < low[v]:
                        low[v] = num[w]
                else:  # w's component is closed, so its reach is final
                    rv |= reach[w]
            else:
                work.pop()
                if low[v] == num[v]:
                    # Close v's component: its members share one reach.
                    x = stack.pop()
                    on_stack[x] = False
                    while x != v:
                        rv |= reach[x]
                        reach[x] = rv
                        x = stack.pop()
                        on_stack[x] = False
                if work:
                    u = work[-1][0]
                    if on_stack[v]:
                        if low[v] < low[u]:
                            low[u] = low[v]
                    else:
                        reach[u] |= rv

    def first_in_set(targets: Iterable[int]) -> frozenset[int]:
        found: set[int] = set()
        for s in targets:
            if s in bbset:
                found.add(s)
            else:
                found |= reach[s]
        return frozenset(found)

    return first_in_set


def build_thread_cfg(cfg: Cfg, partition: Partition, t: int, succs=None) -> ThreadCfg:
    if not 0 <= t < partition.m:
        raise ValueError(f"thread index {t} out of range for m={partition.m}")
    if succs is None:
        succs = ir.successor_map(cfg)
    owned = partition.owned(t)
    first_owned = wait_set_query(succs, owned)
    entry_wait = WaitSet(tuple(sorted(first_owned((cfg.entry,)))))
    per_block = {b: WaitSet(tuple(sorted(first_owned(succs[b])))) for b in sorted(owned)}
    return ThreadCfg(t, owned, entry_wait, per_block)


def obfuscate(cfg: Cfg, m: int, seed: int) -> ObfuscatedProgram:
    """Partition the blocks and build all m thread CFGs. Pure function of
    its arguments."""
    errors = cfg.problems
    if errors:
        raise ValueError(f"invalid cfg {cfg.name!r}: " + "; ".join(errors))
    partition = partition_blocks(cfg, m, seed)
    succs = ir.successor_map(cfg)
    threads = [build_thread_cfg(cfg, partition, t, succs) for t in range(m)]
    return ObfuscatedProgram(cfg, partition, threads)


def count_combinations(m: int, n: int) -> int:
    """Number of distinct block-to-thread assignments: exactly m**n."""
    if m < 1:
        raise ValueError(f"thread count must be >= 1, got {m}")
    if n < 0:
        raise ValueError(f"block count must be >= 0, got {n}")
    return m**n


def check_bijection(prog: ObfuscatedProgram) -> list[str]:
    """Independent structural check that the threads' owned sets form a
    partition of all block ids: each id in exactly one owned set."""
    errors = []
    counts = {b: 0 for b in range(prog.source.n)}
    for tcfg in prog.threads:
        for b in tcfg.owned_blocks:
            if b not in counts:
                errors.append(f"thread {tcfg.thread_index} owns unknown block {b}")
            else:
                counts[b] += 1
    for b, c in counts.items():
        if c != 1:
            errors.append(f"block {b} owned by {c} threads, expected exactly 1")
    return errors


def _thread_doc(tcfg: ThreadCfg) -> dict:
    return {
        "owned": sorted(tcfg.owned_blocks),
        "entry_wait": list(tcfg.entry_wait.flags),
        "per_block_wait": {str(b): list(ws.flags)
                           for b, ws in sorted(tcfg.per_block_wait.items())},
    }


def program_to_json(prog: ObfuscatedProgram) -> str:
    """Stable, compact serialization of an obfuscated program."""
    doc = {
        "version": FORMAT_VERSION,
        "source_name": prog.source.name,
        "m": prog.partition.m,
        "n": prog.source.n,
        "seed": prog.partition.seed,
        "prng": rng.ALGORITHM,
        "assign": prog.partition.assign,
        "threads": [_thread_doc(tcfg) for tcfg in prog.threads],
    }
    return json.dumps(doc, separators=(",", ":")) + "\n"


def _is_a(value, kind: type) -> bool:
    # bool is an int subclass, but true/false is never a count or an id.
    return isinstance(value, kind) and not isinstance(value, bool)


def _field(doc: dict, key: str, kind: type):
    if key not in doc:
        raise ValueError(f"program file has no {key!r} field")
    value = doc[key]
    if not _is_a(value, kind):
        raise ValueError(f"program file field {key!r} must be a {kind.__name__}, "
                         f"got {type(value).__name__}")
    return value


def program_from_json(text: str, cfg: Cfg) -> ObfuscatedProgram:
    """Rebuild an ObfuscatedProgram against its source cfg.

    The stored assignment is authoritative (it may have been hand-tuned);
    wait sets are recomputed from it and cross-checked against the stored
    ones, thread by thread, so corruption or a cfg/file mismatch is
    detected at the first thread that differs. Any malformed file raises
    ValueError.
    """
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:  # RecursionError: nested too deep
        raise ValueError(f"not a valid program file: {e}") from e
    if not isinstance(doc, dict):
        raise ValueError(f"not a valid program file: top level is a {type(doc).__name__}")
    if doc.get("version") != FORMAT_VERSION:
        raise ValueError(f"unsupported program file version {doc.get('version')!r}")
    source_name = _field(doc, "source_name", str)
    if source_name != cfg.name:
        raise ValueError(f"program file is for function {source_name!r}, not {cfg.name!r}")
    n = _field(doc, "n", int)
    if n != cfg.n:
        raise ValueError(f"program file expects {n} blocks, cfg has {cfg.n}")
    m = _field(doc, "m", int)
    if m < 1:
        raise ValueError(f"program file has thread count {m}, expected >= 1")
    assign = _field(doc, "assign", list)
    if len(assign) != cfg.n or not all(_is_a(t, int) and 0 <= t < m for t in assign):
        raise ValueError("malformed block assignment")
    seed = _field(doc, "seed", int)
    stored_threads = _field(doc, "threads", list)
    if len(stored_threads) != m:
        raise ValueError(f"program file has {len(stored_threads)} threads, expected m={m}")

    partition = Partition(m=m, assign=assign, seed=seed)
    succs = ir.successor_map(cfg)
    threads = []
    for t, stored in enumerate(stored_threads):
        threads.append(build_thread_cfg(cfg, partition, t, succs))
        if _thread_doc(threads[-1]) != stored:
            raise ValueError(
                f"thread {t} in program file does not match the "
                f"given cfg (stale or edited file?)"
            )
    return ObfuscatedProgram(cfg, partition, threads)
