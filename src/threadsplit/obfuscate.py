"""The thread-splitting transformation.

A program is two facts about its source cfg: the assignment of its n
blocks to m threads, drawn uniformly from a seeded stream (one of
exactly m^n), and the wait list that follows each block. That list
holds the blocks of the block's own thread reachable from it along
paths whose intermediate blocks all lie outside the thread: the first
of them that can run next. Each thread also has an entry wait, the same
set computed from the program entry. `ObfuscatedProgram` holds the
source, the assignment and these lists (`wait_lists`), which the
runtime polls and the artifact stores. A thread waits until the flag of
one of its waited blocks is up, runs that block, raises the flag of the
block's dynamic successor, and waits on that block's list; a DONE flag,
raised when the exit block runs, releases every thread.
`ObfuscatedProgram.threads` draws this as one `ThreadCfg` per thread, a
view of the lists made on first use.

All of a thread's wait lists come from one pass (`wait_set_query`): an
iterative Tarjan walk (Tarjan, SIAM J. Comput. 1972) over the blocks
outside the thread gives each of them `reach`, the thread's blocks it
reaches first. A reach is an int used as a bitset over the thread's
owned blocks: bit i stands for the i-th smallest of them, and an owned
block's reach is its own bit. Blocks of one strongly connected
component share their reach, and Tarjan closes a component only after
every component it leads to, so each reach is one OR over finished
successors. A block's wait list is the OR of its successors' reach,
read back as the ascending tuple of those blocks; each distinct int is
read once, so equal lists of a thread share one tuple. The entry wait
applies the same rule to a virtual pre-entry node whose sole successor
is the program entry.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import itemgetter

from . import ir, rng
from .ir import Cfg

FORMAT_VERSION = 3

MAX_THREADS = 1024  # a build makes a wait-set pass, and a `conc` run an OS thread, per thread


@dataclass
class Partition:
    """The assignment: `assign[b]` is block b's thread in [0, m), the list
    the artifact stores."""

    m: int
    assign: list[int]
    seed: int


def _owned_lists(partition: Partition) -> list[list[int]]:
    """Each thread's blocks, ascending, from one pass over the assignment."""
    owned: list[list[int]] = [[] for _ in range(partition.m)]
    for b, t in enumerate(partition.assign):
        owned[t].append(b)
    return owned


@dataclass(frozen=True)
class WaitSet:
    """Block flags one Wait node spins on, ascending. Every wait also
    watches the DONE flag, which is implicit and not part of `flags`."""

    flags: tuple[int, ...]


@dataclass
class ThreadCfg:
    """One generated thread, as `ObfuscatedProgram.threads` draws it.

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
    """`wait_lists` holds each thread's entry wait, then the wait after
    each block, indexed by block id; each wait is ascending block ids."""

    source: Cfg
    partition: Partition
    wait_lists: tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]

    @property
    def m(self) -> int:
        return self.partition.m

    @cached_property
    def threads(self) -> list[ThreadCfg]:
        """One ThreadCfg per thread, drawn from the assignment and
        `wait_lists` on first use and kept for the program's lifetime."""
        entry, after = self.wait_lists
        return [ThreadCfg(t, frozenset(owned), WaitSet(entry[t]),
                          {b: WaitSet(after[b]) for b in owned})
                for t, owned in enumerate(_owned_lists(self.partition))]


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


def build_thread_cfg(cfg: Cfg, owned: list[int], succs) -> tuple[tuple[int, ...], list]:
    """The wait lists of the thread that owns the blocks `owned`,
    ascending: its entry wait, and the wait after each owned block, in
    `owned` order. `succs` is ir.successor_map(cfg)."""
    first_owned = wait_set_query(succs, owned)
    return first_owned((cfg.entry,)), [first_owned(succs[b]) for b in owned]


def check_thread_count(m: int) -> None:
    if not 1 <= m <= MAX_THREADS:
        raise ValueError(f"thread count must be in 1..{MAX_THREADS}, got {m}")


def check_cfg(cfg: Cfg) -> None:
    errors = cfg.problems
    if errors:
        raise ValueError(f"invalid cfg {cfg.name!r}: " + "; ".join(errors))


def build_program(cfg: Cfg, partition: Partition, stored: list | None = None) -> ObfuscatedProgram:
    """The program of `partition` over the valid `cfg`, whose `assign`
    holds a thread in 0..m-1 for each block (`check_bijection`): one
    `build_thread_cfg` per thread. `stored`, when given, is the thread
    list of a program file; each stored thread must equal its build,
    checked before the next thread is built, or ValueError is raised."""
    succs = ir.successor_map(cfg)
    owns_0_or_1 = partition.assign[:2]
    entry, after = [], [()] * cfg.n
    for t, owned in enumerate(_owned_lists(partition)):
        first, waits = build_thread_cfg(cfg, owned, succs)
        if stored is not None:
            thread = stored[t]
            same = thread == {"entry_wait": list(first),
                              "per_block_wait": dict(zip(map(str, owned), map(list, waits)))}
            if same and t in owns_0_or_1:
                # Equal lists can still hold true or false for block 1 or 0,
                # and then only among the first two members of a list.
                lists = [thread["entry_wait"], *thread["per_block_wait"].values()]
                heads = chain.from_iterable(map(itemgetter(slice(2)), lists))
                same = bool not in set(map(type, heads))
            if not same:
                raise ValueError(f"thread {t} in program file does not match the "
                                 f"given cfg (stale or edited file?)")
        entry.append(first)
        for b, ws in zip(owned, waits):
            after[b] = ws
    return ObfuscatedProgram(cfg, partition, (tuple(entry), tuple(after)))


def obfuscate(cfg: Cfg, m: int, seed: int) -> ObfuscatedProgram:
    """Partition the blocks and build every thread's wait lists. Pure
    function of its arguments. An invalid cfg, or an m outside
    1..MAX_THREADS, raises ValueError."""
    check_cfg(cfg)
    check_thread_count(m)
    return build_program(cfg, partition_blocks(cfg, m, seed))


def count_combinations(m: int, n: int) -> int:
    """Number of distinct block-to-thread assignments: exactly m**n."""
    if m < 1:
        raise ValueError(f"thread count must be >= 1, got {m}")
    if n < 0:
        raise ValueError(f"block count must be >= 0, got {n}")
    return m**n


def check_bijection(prog: ObfuscatedProgram) -> list[str]:
    """Independent structural check that the assignment partitions all
    block ids: one thread in 0..m-1 for each block."""
    assign, n, m = prog.partition.assign, prog.source.n, prog.m
    errors = [f"block {b} assigned to thread {t}, expected one in 0..{m - 1}"
              for b, t in enumerate(assign) if not 0 <= t < m]
    if len(assign) != n:
        errors.append(f"{len(assign)} blocks assigned, expected {n}")
    return errors


def program_to_json(prog: ObfuscatedProgram) -> str:
    """Stable, compact serialization of an obfuscated program."""
    entry, after = prog.wait_lists
    doc = {
        "version": FORMAT_VERSION,
        "source_name": prog.source.name,
        "m": prog.partition.m,
        "seed": prog.partition.seed,
        "prng": rng.ALGORITHM,
        "assign": prog.partition.assign,
        "threads": [{"entry_wait": first, "per_block_wait": {str(b): after[b] for b in owned}}
                    for first, owned in zip(entry, _owned_lists(prog.partition))],
    }
    return json.dumps(doc, separators=(",", ":")) + "\n"


def _field(doc: dict, key: str, kind: type):
    if key not in doc:
        raise ValueError(f"program file has no {key!r} field")
    value = doc[key]
    # bool is an int subclass, but true/false is never a count or an id.
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(f"program file field {key!r} must be a {kind.__name__}, "
                         f"got {type(value).__name__}")
    return value


def _refuse_float(text: str):
    raise ValueError(f"program file holds the number {text}; every number in it is an int")


# A float that equals a block id would pass the comparison of a stored thread.
_DECODER = json.JSONDecoder(parse_float=_refuse_float, parse_constant=_refuse_float)


def program_from_json(text: str, cfg: Cfg) -> ObfuscatedProgram:
    """Rebuild an ObfuscatedProgram against its source cfg.

    Checked in order, any failure raising ValueError: the cfg is valid,
    as `obfuscate` checks it; JSON with no float anywhere, not even
    under a key that is not read (a number with a fraction or an
    exponent, such as 1.0 or 1e0, NaN or Infinity); a JSON object;
    `version` is FORMAT_VERSION (older files are refused, not read);
    `source_name` matches the cfg; `m` is an int in 1..MAX_THREADS;
    `assign` holds one thread in 0..m-1 per block of the cfg, each an
    int, not true or false; `seed` is an int; `threads` holds m entries,
    each equal to its thread rebuilt from the assignment, with no true or
    false for a block id, checked in thread order up to the first that
    differs. The stored assignment is authoritative (it may have been
    hand-tuned): `seed` and `prng` only record how it was drawn and are
    not checked against it; `prng` and unknown keys are not read.
    """
    check_cfg(cfg)
    try:
        doc = _DECODER.decode(text)
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
    # A valid cfg has a block, so `assign` is not empty.
    if not ({int} >= set(map(type, assign)) and 0 <= min(assign) and max(assign) < m):
        raise ValueError("malformed block assignment")
    seed = _field(doc, "seed", int)
    stored = _field(doc, "threads", list)
    if len(stored) != m:
        raise ValueError(f"program file has {len(stored)} threads, expected m={m}")
    return build_program(cfg, Partition(m=m, assign=assign, seed=seed), stored)
