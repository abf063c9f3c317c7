import hashlib
import inspect
import itertools
import json
from collections import Counter

import pytest

import threadsplit.obfuscate
from helpers import chain, diamond, loop_rich, two_loop
from threadsplit import ir
from threadsplit.kernels import kernel_text
from threadsplit.obfuscate import (
    MAX_THREADS,
    Partition,
    WaitSet,
    build_program,
    build_thread_cfg,
    check_bijection,
    count_combinations,
    obfuscate,
    partition_blocks,
    program_from_json,
    program_to_json,
    wait_set_query,
)
from threadsplit.textfmt import parse
from threadsplit.verify import oracle_first_inset_reachable


def prime_cfg():
    return parse(kernel_text("prime"))


# The wait-set walk, pinned on the five canonical shapes.

def walk(bcur, bbset, cfg):
    """The blocks of `bbset` that `bcur`'s successors reach first, ascending."""
    succs = ir.successor_map(cfg)
    return wait_set_query(succs, sorted(bbset))(succs[bcur])


def entry_wait(bbset, cfg):
    """The same query for a virtual node whose sole successor is the entry."""
    return wait_set_query(ir.successor_map(cfg), sorted(bbset))((cfg.entry,))


def test_walk_linear_skips_out_of_set_blocks():
    cfg = chain(5)  # E=0, A=1, B=2, C=3, X=4
    assert walk(1, {1, 3}, cfg) == (3,)


def test_walk_direct_successor_in_set():
    cfg = chain(2)
    assert walk(0, {0, 1}, cfg) == (1,)


def test_walk_from_exit_is_empty():
    cfg = chain(5)
    for bbset in ({0}, {4}, {0, 1, 2, 3, 4}, set()):
        assert walk(4, bbset, cfg) == ()


def test_walk_self_loop_finds_itself():
    cfg = two_loop()
    assert walk(0, {0}, cfg) == (0,)


def test_walk_diamond_converges():
    cfg = diamond()
    assert walk(0, {0, 3}, cfg) == (3,)


def test_walk_full_set_equals_successors():
    cfg = diamond()
    everything = set(range(cfg.n))
    for b in range(cfg.n):
        assert walk(b, everything, cfg) == tuple(sorted(ir.successor_map(cfg)[b]))


def test_walk_empty_set_is_empty():
    cfg = diamond()
    for b in range(cfg.n):
        assert walk(b, set(), cfg) == ()


def test_initial_wait_set_entry_owned():
    cfg = diamond()
    assert entry_wait({0, 3}, cfg) == (0,)


def test_initial_wait_set_empty_partition():
    assert entry_wait(set(), diamond()) == ()


def test_initial_wait_set_skips_to_first_owned():
    cfg = chain(3)
    assert entry_wait({2}, cfg) == (2,)


# Partitioning.

def test_partition_m1_assigns_everything_to_thread_zero():
    cfg = prime_cfg()
    part = partition_blocks(cfg, 1, seed=99)
    assert part.assign == [0] * 16


def test_partition_deterministic():
    cfg = prime_cfg()
    assert partition_blocks(cfg, 4, 42) == partition_blocks(cfg, 4, 42)


@pytest.mark.parametrize("m", [0, -1, MAX_THREADS + 1, 99999999999, 10**20])
def test_obfuscate_refuses_a_thread_count_outside_the_bound(m, monkeypatch):
    def must_not_run(*args):
        raise AssertionError("a refused thread count was partitioned")

    monkeypatch.setattr(threadsplit.obfuscate, "partition_blocks", must_not_run)
    with pytest.raises(ValueError, match=rf"^thread count must be in 1\.\.{MAX_THREADS}, got {m}$"):
        obfuscate(prime_cfg(), m, 1)


def test_partition_thousand_seeds_all_distinct():
    # 4^16 possible assignments; 1000 draws should never collide.
    cfg = prime_cfg()
    seen = {tuple(partition_blocks(cfg, 4, s).assign) for s in range(1000)}
    assert len(seen) == 1000


def test_partition_roughly_uniform():
    cfg = prime_cfg()
    counts = [0, 0, 0, 0]
    for s in range(1000):
        for t in partition_blocks(cfg, 4, s).assign:
            counts[t] += 1
    assert sum(counts) == 16000
    for c in counts:
        assert 3700 <= c <= 4300


# The chi-square quantile at p = 0.999 for (m-1)^2 degrees of freedom.
CHI2_999 = {2: 10.828, 3: 18.467, 4: 27.877, 5: 39.252}


@pytest.mark.parametrize("m", sorted(CHI2_999))
def test_partition_adjacent_blocks_independent(m):
    # Chi-square test of independence on the m x m table of the threads of
    # blocks b and b+1. Fixed seeds make it deterministic; an assignment
    # that repeats the previous block's thread one time in ten scores
    # above 100 here at m=4.
    cfg = chain(4001)
    for seed in range(3):
        assign = partition_blocks(cfg, m, seed).assign
        table = [[0] * m for _ in range(m)]
        for b in range(cfg.n - 1):
            table[assign[b]][assign[b + 1]] += 1
        rows, cols = [sum(r) for r in table], [sum(c) for c in zip(*table)]
        expect = [[r * c / (cfg.n - 1) for c in cols] for r in rows]
        chi2 = sum((table[i][j] - expect[i][j]) ** 2 / expect[i][j]
                   for i in range(m) for j in range(m))
        assert chi2 < CHI2_999[m], (m, seed, chi2)


# (m, n, seeds, chi-square quantile at p = 0.999 for m^n - 1 degrees of freedom)
@pytest.mark.parametrize("m, n, seeds, critical", [
    (3, 3, 2700, 54.05), (2, 4, 1600, 37.70), (4, 2, 1600, 37.70), (2, 6, 6400, 103.4)])
def test_partition_draws_every_assignment_uniformly(m, n, seeds, critical):
    # Goodness of fit over all m^n assignments of an n-block chain, one
    # partition per seed 0..seeds-1, so the statistic is fixed. A bias
    # in the joint draw that leaves each block's marginal and adjacent
    # pairs uniform still shows here.
    cfg = chain(n)
    counts = Counter(tuple(partition_blocks(cfg, m, s).assign) for s in range(seeds))
    expect = seeds / m ** n
    chi2 = sum((counts[a] - expect) ** 2 / expect
               for a in itertools.product(range(m), repeat=n))
    assert chi2 < critical, (m, n, chi2)


# Thread construction.

def test_thread_cfg_empty_partition():
    cfg = chain(3)
    tcfg = build_program(cfg, Partition(2, [0, 0, 0], seed=0)).threads[1]
    assert tcfg.owned_blocks == frozenset()
    assert tcfg.entry_wait == WaitSet(())
    assert tcfg.per_block_wait == {}
    assert tcfg.wait_sets() == [WaitSet(())]


def test_thread_cfg_wait_sets_keep_first_use_order():
    # Two diamonds in a loop: 0 -> {1, 2} -> 3 -> {4, 5} -> 6 -> {0, 7}.
    B, J = ir.Branch, ir.Jump
    terms = [B("c", 1, 2), J(3), J(3), B("c", 4, 5), J(6), J(6), B("c", 0, 7), ir.Halt()]
    cfg = ir.Cfg("fans", [ir.BasicBlock(i, f"b{i}", [], t) for i, t in enumerate(terms)])
    joins, arms = build_program(cfg, Partition(2, [0, 1, 1, 0, 1, 1, 0, 0], seed=0)).threads
    # The entry wait comes back after blocks 4 and 5, and {4, 5} follows both 1 and 2.
    assert [ws.flags for ws in arms.per_block_wait.values()] == [(4, 5), (4, 5), (1, 2), (1, 2)]
    assert arms.wait_sets() == [WaitSet((1, 2)), WaitSet((4, 5))]
    # Block 7's empty wait gets no Wait node.
    assert [ws.flags for ws in joins.wait_sets()] == [(0,), (3,), (6,), (0, 7)]


def test_thread_cfg_m1_chain_waits_on_direct_successors():
    cfg = chain(4)
    (tcfg,) = obfuscate(cfg, 1, 0).threads
    for b in range(4):
        assert tcfg.per_block_wait[b].flags == tuple(sorted(ir.successor_map(cfg)[b]))


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_thread_view_draws_the_wait_lists(m, monkeypatch):
    def refused(*args):
        raise AssertionError("the view rebuilt a thread")

    for name in ("evens", "fib", "prime"):
        cfg = parse(kernel_text(name))
        prog = obfuscate(cfg, m, seed=5)
        entry, after = prog.wait_lists
        succs = ir.successor_map(cfg)
        pre_entry = succs + [{cfg.entry}]
        with monkeypatch.context() as mp:
            mp.setattr(threadsplit.obfuscate, "build_thread_cfg", refused)
            threads = prog.threads
        assert [tcfg.thread_index for tcfg in threads] == list(range(m))
        for t, tcfg in enumerate(threads):
            owned = tcfg.owned_blocks
            assert owned == {b for b, w in enumerate(prog.partition.assign) if w == t}
            want = oracle_first_inset_reachable(cfg.n, owned, cfg, pre_entry)
            assert tcfg.entry_wait.flags == entry[t] == tuple(sorted(want)), (name, t)
            assert list(tcfg.per_block_wait) == sorted(owned)
            for b in owned:
                want = oracle_first_inset_reachable(b, owned, cfg, succs)
                assert tcfg.per_block_wait[b].flags == after[b] == tuple(sorted(want)), (name, b)


def test_obfuscate_prime_four_way_partitions_all_blocks():
    prog = obfuscate(prime_cfg(), 4, seed=42)
    assert prog.m == 4
    owned = [tcfg.owned_blocks for tcfg in prog.threads]
    assert frozenset().union(*owned) == frozenset(range(16))
    assert sum(len(o) for o in owned) == 16
    assert check_bijection(prog) == []


def test_obfuscate_reproducible():
    cfg = prime_cfg()
    assert program_to_json(obfuscate(cfg, 4, 42)) == program_to_json(obfuscate(cfg, 4, 42))


def test_obfuscate_rejects_invalid_cfg():
    with pytest.raises(ValueError):
        obfuscate(two_loop(), 2, 0)


def test_wait_sets_never_contain_foreign_blocks():
    prog = obfuscate(prime_cfg(), 4, seed=11)
    for tcfg in prog.threads:
        assert set(tcfg.entry_wait.flags) <= tcfg.owned_blocks
        for ws in tcfg.per_block_wait.values():
            assert set(ws.flags) <= tcfg.owned_blocks


def test_check_bijection_flags_a_bad_assignment():
    prog = obfuscate(chain(4), 2, seed=3)
    prog.partition.assign[1] = 2
    assert check_bijection(prog) == ["block 1 assigned to thread 2, expected one in 0..1"]
    prog.partition.assign[1:] = [-1]
    assert check_bijection(prog) == ["block 1 assigned to thread -1, expected one in 0..1",
                                     "2 blocks assigned, expected 4"]


# Combination counting.

def test_count_combinations_prime_example():
    value = count_combinations(4, 16)
    oracle = 1
    for _ in range(16):
        oracle *= 4
    assert value == oracle == 4294967296


def test_count_combinations_edges():
    assert count_combinations(3, 0) == 1
    assert count_combinations(1, 100) == 1
    with pytest.raises(ValueError):
        count_combinations(0, 4)
    with pytest.raises(ValueError):
        count_combinations(2, -1)


# Serialization.

def test_program_json_round_trip():
    cfg = prime_cfg()
    prog = obfuscate(cfg, 4, seed=7)
    text = program_to_json(prog)
    again = program_from_json(text, cfg)
    assert again.partition == prog.partition
    assert again.threads == prog.threads


# sha256 of `program_to_json` for each bundled kernel at m=1..4 and
# partition seeds 0 and 7: the artifact format, byte for byte.
ARTIFACT_DIGESTS = {
    ("evens", 1, 0): "e46a902cf902756349d80f77686eeb5e9669dd7e681107092ce75dbffb75ad18",
    ("evens", 1, 7): "c66180cc708293187c87f557c43d11cf6fadc8b85daf477ae0b1adc0f085606d",
    ("evens", 2, 0): "0de24c890a218a7136dab6571ea22284318cb3c10d0e9fa9181137761625f705",
    ("evens", 2, 7): "cc328b60aa2d62610f6993752d613f0f322be39ca7a95b444621de3093f6bb04",
    ("evens", 3, 0): "993452099eb3e7a88bd4322c05c00ea900f8c1d8874d5c3e9301b9400c2b2000",
    ("evens", 3, 7): "189fe980b21fa586ff9df9920dab5ad89a8fbbab99be2ff0e8f8a4c5148ed3b4",
    ("evens", 4, 0): "f9e1e68b252c14e4a463994c87d2188c479c5486f27f8d4c0ca0a42bd6f09734",
    ("evens", 4, 7): "bf6c9633116eae3ec1d3c2cf75d22b9584aa5414fc883af1713f004623d02758",
    ("fib", 1, 0): "3e55cf31b35914d38d51636301bc0357ad76e67f9a33db63a2b55a88f26c6dd8",
    ("fib", 1, 7): "991a15414aa6e7e367903de8c8812b6c042fbff0d772dae7c0de2afe2bc82a74",
    ("fib", 2, 0): "ffe42cf2d2be7850cf5cb77152494735900f20648269be65f6de28955e484e26",
    ("fib", 2, 7): "6a1b9be35e9d47dfcb6582b690ac075e922129d6d0125b455996c62b9aab6b66",
    ("fib", 3, 0): "ad8b799071a0d14da1742a1c1f11fcb0cfea0d5292ba588a881d49231499eb86",
    ("fib", 3, 7): "6c2e87fddbd47fb9fa6b5ba1ce58a685fb38b097fd37e0222c40865fa528069f",
    ("fib", 4, 0): "125e52f44ea5e6eca4f9cd911c5fb9b8fa1c5a1553ac05e342e6047f49533467",
    ("fib", 4, 7): "7c7949c13f6b7550abc0479483e239aab8f5c716f4c4720d9b41968a0b6bf3a8",
    ("prime", 1, 0): "4b6bd27dbcea3127821bde59f8453c73b6d67866a7d893b83608cc6ce7f5d81f",
    ("prime", 1, 7): "abc05a6ecf9ded930cdd12f0c1e7d3b4fae6f9283ecb5e9cfe35bf56994f59df",
    ("prime", 2, 0): "b7767e75c0f2318d731166226bed15b6d3f82d163936766bbded522a8b58acfb",
    ("prime", 2, 7): "eb1e465b0d9788f904ef0fe0b8a7dd1f9283a44a3bd9c27dfc90ecfb9b21828a",
    ("prime", 3, 0): "8cc184ccc1a0d9eb2cd63c582c60270c8ba591aea02473304a906832f6539926",
    ("prime", 3, 7): "43be137ae9de516a3e378c010e3e298febf381550273bc92e9bedfb7cf06112a",
    ("prime", 4, 0): "b0fb24e6f856e15f3e9b6a088973e7face58997a0c88a6c3047a7333a59de10f",
    ("prime", 4, 7): "2640db006d8d05bb12534d4cc466c778274b0dfdeb0addebdf529c82a12a10e6",
}


def test_program_json_bytes_are_pinned():
    for (name, m, seed), digest in ARTIFACT_DIGESTS.items():
        text = program_to_json(obfuscate(parse(kernel_text(name)), m, seed))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (name, m, seed)


# The same for a 2000-block loop-rich cfg (`loop_rich(1)`, partition seed
# 3), whose wait sets span many bytes of owned positions: a mean of 1.7
# flags per block at m=1, 3.9 at m=2, 25 at m=4 and 102 at m=8.
LOOP_RICH_DIGESTS = {
    1: "171a3fdc95ee24cc9e2f2cca20b4bd9f45112f91eb77b68da081a5d694f37c09",
    2: "1bfe2ab1f68025492fec1c4a63bf8029166363e5d8f9f45455ea7450583178dd",
    4: "f4eece7e6892d3382aac55a526446f60c31bd95bae36928be97171246118673d",
    8: "d0b7f6c36999b9a40f1a5bc712cd34b7b5932f5d72f13becae71034bcd147293",
}


@pytest.mark.parametrize("m", sorted(LOOP_RICH_DIGESTS))
def test_loop_rich_program_json_bytes_are_pinned(m):
    cfg = loop_rich(1)
    prog = obfuscate(cfg, m, seed=3)
    text = program_to_json(prog)
    assert hashlib.sha256(text.encode()).hexdigest() == LOOP_RICH_DIGESTS[m]
    succs = ir.successor_map(cfg)
    pre_entry = succs + [{cfg.entry}]
    for tcfg in prog.threads:
        owned = tcfg.owned_blocks
        want = oracle_first_inset_reachable(cfg.n, owned, cfg, pre_entry)
        assert tcfg.entry_wait.flags == tuple(sorted(want)), m
        for b in sorted(owned)[::25]:
            want = oracle_first_inset_reachable(b, owned, cfg, succs)
            assert tcfg.per_block_wait[b].flags == tuple(sorted(want)), (m, b)


def test_program_json_has_documented_fields():
    doc = json.loads(program_to_json(obfuscate(prime_cfg(), 2, seed=1)))
    # Each fact once: the block count is len(assign), and a thread's
    # owned blocks are the keys of its per_block_wait.
    assert list(doc) == ["version", "source_name", "m", "seed", "prng", "assign", "threads"]
    assert doc["version"] == 3
    assert doc["source_name"] == "prime"
    assert doc["m"] == 2
    assert doc["seed"] == 1
    assert doc["prng"] == "splitmix64"
    assert len(doc["assign"]) == 16
    assert len(doc["threads"]) == 2
    for t, thread in enumerate(doc["threads"]):
        assert list(thread) == ["entry_wait", "per_block_wait"]
        assert [int(b) for b in thread["per_block_wait"]] == [
            b for b, owner in enumerate(doc["assign"]) if owner == t]


def test_program_json_rejects_wrong_source():
    cfg = prime_cfg()
    text = program_to_json(obfuscate(cfg, 2, seed=1))
    other = parse(kernel_text("evens"))
    with pytest.raises(ValueError):
        program_from_json(text, other)


def test_program_json_refuses_an_invalid_cfg_as_obfuscate_does():
    # Same name and size as the artifact's cfg, but block 0 jumps to block 5.
    text = program_to_json(obfuscate(chain(2), 2, seed=1))
    broken = ir.Cfg("chain", [ir.BasicBlock(0, "n0", [], ir.Jump(5)),
                              ir.BasicBlock(1, "n1", [], ir.Halt())])
    with pytest.raises(ValueError, match="^invalid cfg 'chain': ") as loaded:
        program_from_json(text, broken)
    with pytest.raises(ValueError) as built:
        obfuscate(broken, 2, seed=1)
    assert str(loaded.value) == str(built.value)


@pytest.mark.parametrize("m", [0, MAX_THREADS + 1])
def test_program_json_refuses_a_thread_count_outside_the_bound(m):
    cfg = prime_cfg()
    doc = json.loads(program_to_json(obfuscate(cfg, 2, seed=1)))
    doc["m"] = m
    with pytest.raises(ValueError, match=rf"^thread count must be in 1\.\.{MAX_THREADS}, got {m}$"):
        program_from_json(json.dumps(doc), cfg)


def test_program_json_rejects_tampered_wait_sets():
    cfg = prime_cfg()
    doc = json.loads(program_to_json(obfuscate(cfg, 2, seed=1)))
    doc["threads"][0]["entry_wait"] = [15]
    with pytest.raises(ValueError):
        program_from_json(json.dumps(doc), cfg)


def test_program_json_refuses_an_edited_thread_after_building_it(monkeypatch):
    cfg = prime_cfg()
    doc = json.loads(program_to_json(obfuscate(cfg, 4, seed=1)))
    doc["threads"][0]["entry_wait"] = [15]
    built = []

    def counted(*args):
        built.append(args[1])
        return build_thread_cfg(*args)

    # The package binds no names over its submodules.
    assert inspect.ismodule(threadsplit.obfuscate)
    monkeypatch.setattr(threadsplit.obfuscate, "build_thread_cfg", counted)
    with pytest.raises(ValueError, match="thread 0 in program file does not match"):
        program_from_json(json.dumps(doc), cfg)
    assert built == [[b for b, t in enumerate(doc["assign"]) if t == 0]]


def _id_lists(thread, field):
    """The lists of block ids that a stored thread holds under `field`."""
    return list(thread[field].values()) if field == "per_block_wait" else [thread[field]]


@pytest.mark.parametrize("field", ["entry_wait", "per_block_wait"])
@pytest.mark.parametrize("retype", [float, bool])
def test_program_json_refuses_retyped_block_ids(field, retype):
    # 1.0 == 1 and True == 1 in Python, so only the type tells them apart.
    # No float gets past the JSON parser; a bool fails the thread's check.
    cfg = parse(kernel_text("evens"))
    doc = json.loads(program_to_json(obfuscate(cfg, 2, seed=0)))
    ids = next(ids for thread in doc["threads"] for ids in _id_lists(thread, field)
               if 0 in ids or 1 in ids)
    at = next(i for i, b in enumerate(ids) if b in (0, 1))
    ids[at] = retype(ids[at])
    refusal = "does not match" if retype is bool else "every number in it is an int"
    with pytest.raises(ValueError, match=refusal):
        program_from_json(json.dumps(doc), cfg)


@pytest.mark.parametrize("field", ["entry_wait", "per_block_wait"])
def test_program_json_refuses_a_float_block_id_in_every_thread(field):
    cfg = prime_cfg()
    text = program_to_json(obfuscate(cfg, 4, seed=1))
    owning_neither = 0
    for t in range(4):
        doc = json.loads(text)
        thread = doc["threads"][t]
        ids = next(ids for ids in _id_lists(thread, field) if ids)
        ids[-1] = float(ids[-1])
        with pytest.raises(ValueError, match=f"^program file holds the number {ids[-1]!r}; "):
            program_from_json(json.dumps(doc), cfg)
        owning_neither += t not in doc["assign"][:2]
    assert owning_neither >= 2


def test_program_json_rejects_unknown_version():
    cfg = prime_cfg()
    doc = json.loads(program_to_json(obfuscate(cfg, 2, seed=1)))
    # Version 1 carried a guard stride; version 2 stated n and each thread's
    # owned blocks.
    for version in (1, 2, 99):
        doc["version"] = version
        with pytest.raises(ValueError):
            program_from_json(json.dumps(doc), cfg)


def test_program_json_rejects_garbage():
    with pytest.raises(ValueError):
        program_from_json("{not json", prime_cfg())


def test_program_json_rejects_deep_nesting():
    with pytest.raises(ValueError):
        program_from_json("[" * 100_000, prime_cfg())


def test_program_json_is_compact():
    text = program_to_json(obfuscate(prime_cfg(), 2, seed=1))
    assert text.count("\n") == 1 and text.endswith("\n")
    assert text == json.dumps(json.loads(text), separators=(",", ":")) + "\n"


# The loader refuses every malformed file with ValueError.

def _prime_doc(m=3):
    cfg = prime_cfg()
    return cfg, json.loads(program_to_json(obfuscate(cfg, m, seed=1)))


def _refused(doc, cfg):
    with pytest.raises(ValueError):
        program_from_json(json.dumps(doc), cfg)


def test_program_json_rejects_short_thread_list():
    cfg, doc = _prime_doc()
    doc["threads"] = doc["threads"][:1]
    _refused(doc, cfg)


def test_program_json_rejects_long_thread_list():
    cfg, doc = _prime_doc()
    doc["threads"].append(doc["threads"][0])
    _refused(doc, cfg)


@pytest.mark.parametrize("key", ["version", "source_name", "m", "seed", "assign", "threads"])
def test_program_json_rejects_missing_key(key):
    cfg, doc = _prime_doc()
    del doc[key]
    _refused(doc, cfg)


def test_program_json_rejects_top_level_list():
    cfg, doc = _prime_doc()
    _refused([doc], cfg)


@pytest.mark.parametrize("key, value", [
    ("source_name", 7),
    ("m", "3"),
    ("m", True),
    ("m", 0),
    ("seed", None),
    ("seed", "1"),
    ("assign", {"0": 0}),
    ("threads", {}),
])
def test_program_json_rejects_wrongly_typed_field(key, value):
    cfg, doc = _prime_doc()
    doc[key] = value
    _refused(doc, cfg)


def test_program_json_names_both_block_counts():
    cfg, doc = _prime_doc()
    doc["assign"].pop()
    with pytest.raises(ValueError, match="program file assigns 15 blocks, cfg has 16"):
        program_from_json(json.dumps(doc), cfg)


@pytest.mark.parametrize("entry", ["0", 1.0, None, -1, 3])
def test_program_json_rejects_bad_assignment_entry(entry):
    cfg, doc = _prime_doc()
    doc["assign"][0] = entry
    _refused(doc, cfg)


def test_program_json_rejects_malformed_thread_entry():
    cfg, doc = _prime_doc()
    doc["threads"][1] = ["entry_wait"]
    _refused(doc, cfg)


@pytest.mark.parametrize("moved", [False, True])
def test_program_json_refuses_a_wait_keyed_by_a_block_of_another_thread(moved):
    # The keys of per_block_wait are the only place a stored thread names
    # its blocks; they must be exactly the blocks `assign` gives it.
    cfg, doc = _prime_doc()
    foreign = doc["assign"].index(1)
    waits = doc["threads"][0]["per_block_wait"]
    if moved:
        del waits[next(iter(waits))]
    waits[str(foreign)] = doc["threads"][1]["per_block_wait"][str(foreign)]
    with pytest.raises(ValueError, match="thread 0 in program file does not match"):
        program_from_json(json.dumps(doc), cfg)
