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
iterative Tarjan walk (Tarjan, SIAM J. Comput. 1972) over the blocks
outside the partition gives each of them `reach`, the in-partition
blocks it reaches first. A reach is an int used as a bitset over the
thread's owned blocks: bit i stands for the i-th smallest of them, and
an owned block's reach is its own bit. Blocks of one strongly connected
component share their reach, and Tarjan closes a component only after
every component it leads to, so each reach is one OR over finished
successors. A block's wait set is the OR of its successors' reach, read
back as the ascending tuple of those blocks; each distinct int is read
once, so equal wait sets of a thread share one tuple. The entry wait
applies the same rule to a virtual pre-entry node whose sole successor
is the program entry.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

from . import ir, rng
from .ir import Cfg

FORMAT_VERSION = 3

MAX_THREADS = 1024  # a build makes a ThreadCfg, and a `conc` run an OS thread, per thread


@dataclass
class Partition:
    """The assignment: `assign[b]` is block b's thread in [0, m), the list
    the artifact stores."""

    m: int
    assign: list[int]
    seed: int


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
    r = rng.Rng(seed)
    return Partition(m=m, assign=[r.below(m) for _ in range(cfg.n)], seed=seed)


# The positions of the set bits of each byte value, ascending.
_BYTE_BITS = tuple(tuple(i for i in range(8) if byte >> i & 1) for byte in range(256))
# Up to this many set bits, a reach is read one highest bit at a time;
# above it, byte by byte through `_BYTE_BITS`. The two cost the same at
# 8 bits on the wait sets of 2000-block programs at m = 2, 4 and 8.
_FEW_BITS = 8


def _decode(bits: int, owned: list[int]) -> tuple[int, ...]:
    """The blocks `owned[i]` for each bit i set in the non-zero `bits`,
    ascending."""
    found = []
    if bits.bit_count() <= _FEW_BITS:
        # bit_length is O(1), and dropping the top bit shrinks the int.
        while bits:
            top = bits.bit_length() - 1
            found.append(owned[top])
            bits ^= 1 << top
        found.reverse()
        return tuple(found)
    # Start at the byte of the lowest set bit, so that flags high in a
    # long owned list cost only the bytes they span.
    at = ((bits & -bits).bit_length() - 1) & ~7
    bits >>= at
    for byte in bits.to_bytes((bits.bit_length() + 7) // 8, "little"):
        if byte:
            for i in _BYTE_BITS[byte]:
                found.append(owned[at + i])
        at += 8
    return tuple(found)


def wait_set_query(succs, owned: list[int]) -> Callable[[Iterable[int]], tuple[int, ...]]:
    """One pass over the blocks outside `owned`, the thread's block ids
    in ascending order (see the module docstring). Returns a query
    mapping the successors of a block, or the targets of any virtual
    node, to the owned blocks reached first from it, ascending: an owned
    target is itself, any other target contributes its reach. Equal
    answers are one shared tuple. `succs` is indexed by block id, as
    from ir.successor_map."""
    n = len(succs)
    num = [0] * n  # DFS discovery number; 0 while unvisited
    low = [0] * n
    reach = [0] * n  # bit i stands for owned[i]
    on_stack = [False] * n
    # An owned block counts as a finished component whose reach is itself.
    for i, b in enumerate(owned):
        num[b] = -1
        reach[b] = 1 << i
    stack: list[int] = []
    counter = 0
    for root in range(n):
        if num[root]:
            continue
        counter += 1
        num[root] = low[root] = counter
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(succs[root]))]
        while work:
            v, edges = work[-1]
            rv = reach[v]
            for w in edges:
                if not num[w]:
                    reach[v] = rv
                    counter += 1
                    num[w] = low[w] = counter
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(succs[w])))
                    break
                if on_stack[w]:
                    if num[w] < low[v]:
                        low[v] = num[w]
                else:  # w is owned, or its component is closed: its reach is final
                    rv |= reach[w]
            else:
                work.pop()
                reach[v] = rv
                if low[v] == num[v]:
                    # Close v's component: its members share one reach.
                    x = stack.pop()
                    on_stack[x] = False
                    if x != v:
                        members = []
                        while x != v:
                            members.append(x)
                            rv |= reach[x]
                            x = stack.pop()
                            on_stack[x] = False
                        reach[v] = rv
                        for x in members:
                            reach[x] = rv
                if work:
                    u = work[-1][0]
                    if on_stack[v]:
                        if low[v] < low[u]:
                            low[u] = low[v]
                    else:
                        reach[u] |= rv

    answers: dict[int, tuple[int, ...]] = {0: ()}

    def first_in_set(targets: Iterable[int]) -> tuple[int, ...]:
        bits = 0
        for s in targets:
            bits |= reach[s]
        found = answers.get(bits)
        if found is None:
            found = answers[bits] = _decode(bits, owned)
        return found

    return first_in_set


def build_thread_cfg(cfg: Cfg, partition: Partition, t: int, succs=None) -> ThreadCfg:
    if not 0 <= t < partition.m:
        raise ValueError(f"thread index {t} out of range for m={partition.m}")
    if succs is None:
        succs = ir.successor_map(cfg)
    owned = [b for b, ti in enumerate(partition.assign) if ti == t]
    first_owned = wait_set_query(succs, owned)
    entry_wait = WaitSet(first_owned((cfg.entry,)))
    per_block = {b: WaitSet(first_owned(succs[b])) for b in owned}
    return ThreadCfg(t, frozenset(owned), entry_wait, per_block)


def check_thread_count(m: int) -> None:
    if not 1 <= m <= MAX_THREADS:
        raise ValueError(f"thread count must be in 1..{MAX_THREADS}, got {m}")


def check_cfg(cfg: Cfg) -> None:
    errors = cfg.problems
    if errors:
        raise ValueError(f"invalid cfg {cfg.name!r}: " + "; ".join(errors))


def obfuscate(cfg: Cfg, m: int, seed: int) -> ObfuscatedProgram:
    """Partition the blocks and build all m thread CFGs. Pure function of
    its arguments. An invalid cfg, or an m outside 1..MAX_THREADS, raises
    ValueError."""
    check_cfg(cfg)
    check_thread_count(m)
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
        "entry_wait": tcfg.entry_wait.flags,
        "per_block_wait": {str(b): ws.flags for b, ws in sorted(tcfg.per_block_wait.items())},
    }


_THREAD_KEYS = {"entry_wait", "per_block_wait"}
_INT = frozenset({int})


def _stored_matches(stored, tcfg: ThreadCfg) -> bool:
    """Whether a thread read from a program file is `_thread_doc(tcfg)`:
    the same keys, and lists of the same values, all of them ints (a
    float or a bool that compares equal to one is refused). So the keys of
    `per_block_wait` are exactly the blocks the assignment gives the thread."""
    if not isinstance(stored, dict) or stored.keys() != _THREAD_KEYS:
        return False
    entry, waits = stored["entry_wait"], stored["per_block_wait"]
    per_block = tcfg.per_block_wait
    if (entry != list(tcfg.entry_wait.flags)
            or not isinstance(waits, dict) or len(waits) != len(per_block)):
        return False
    for b, ws in per_block.items():
        if waits.get(str(b)) != list(ws.flags):
            return False
    # A float or a bool that equals a block id passes the comparisons above.
    return _INT.issuperset(map(type, chain(entry, *waits.values())))


def program_to_json(prog: ObfuscatedProgram) -> str:
    """Stable, compact serialization of an obfuscated program."""
    doc = {
        "version": FORMAT_VERSION,
        "source_name": prog.source.name,
        "m": prog.partition.m,
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

    Checked in order, any failure raising ValueError: the cfg is valid,
    as `obfuscate` checks it; a JSON object; `version` is FORMAT_VERSION
    (older files are refused, not read); `source_name` matches the cfg;
    `m` is an int in 1..MAX_THREADS; `assign` holds one thread in 0..m-1
    per block of the cfg; `seed` is an int; `threads` holds m entries,
    each equal to its thread rebuilt from the assignment, with every
    block id an int. The stored assignment is authoritative (it
    may have been hand-tuned): `seed` and `prng` only record how it was
    drawn and are not checked against it; `prng` and unknown keys are not
    read.
    """
    check_cfg(cfg)
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
    m = _field(doc, "m", int)
    check_thread_count(m)
    assign = _field(doc, "assign", list)
    if len(assign) != cfg.n:
        raise ValueError(f"program file assigns {len(assign)} blocks, cfg has {cfg.n}")
    if not all(_is_a(t, int) and 0 <= t < m for t in assign):
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
        if not _stored_matches(stored, threads[-1]):
            raise ValueError(
                f"thread {t} in program file does not match the "
                f"given cfg (stale or edited file?)"
            )
    return ObfuscatedProgram(cfg, partition, threads)
