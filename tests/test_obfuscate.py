import hashlib
import inspect
import json

import pytest

import threadsplit.obfuscate
from helpers import chain, diamond, two_loop
from threadsplit import ir
from threadsplit.kernels import kernel_text
from threadsplit.obfuscate import (
    Partition,
    WaitSet,
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


def prime_cfg():
    return parse(kernel_text("prime"))


# The wait-set walk, pinned on the five canonical shapes.

def walk(bcur, bbset, cfg):
    """The blocks of `bbset` that `bcur`'s successors reach first."""
    succs = ir.successor_map(cfg)
    return wait_set_query(succs, frozenset(bbset))(succs[bcur])


def entry_wait(bbset, cfg):
    """The same query for a virtual node whose sole successor is the entry."""
    return wait_set_query(ir.successor_map(cfg), frozenset(bbset))((cfg.entry,))


def test_walk_linear_skips_out_of_set_blocks():
    cfg = chain(5)  # E=0, A=1, B=2, C=3, X=4
    assert walk(1, {1, 3}, cfg) == {3}


def test_walk_direct_successor_in_set():
    cfg = chain(2)
    assert walk(0, {0, 1}, cfg) == {1}


def test_walk_from_exit_is_empty():
    cfg = chain(5)
    for bbset in ({0}, {4}, {0, 1, 2, 3, 4}, set()):
        assert walk(4, bbset, cfg) == set()


def test_walk_self_loop_finds_itself():
    cfg = two_loop()
    assert walk(0, {0}, cfg) == {0}


def test_walk_diamond_converges():
    cfg = diamond()
    assert walk(0, {0, 3}, cfg) == {3}


def test_walk_full_set_equals_successors():
    cfg = diamond()
    everything = set(range(cfg.n))
    for b in range(cfg.n):
        assert walk(b, everything, cfg) == ir.successor_map(cfg)[b]


def test_walk_empty_set_is_empty():
    cfg = diamond()
    for b in range(cfg.n):
        assert walk(b, set(), cfg) == set()


def test_initial_wait_set_entry_owned():
    cfg = diamond()
    assert entry_wait({0, 3}, cfg) == {0}


def test_initial_wait_set_empty_partition():
    assert entry_wait(set(), diamond()) == set()


def test_initial_wait_set_skips_to_first_owned():
    cfg = chain(3)
    assert entry_wait({2}, cfg) == {2}


# Partitioning.

def test_partition_m1_assigns_everything_to_thread_zero():
    cfg = prime_cfg()
    part = partition_blocks(cfg, 1, seed=99)
    assert part.assign == [0] * 16


def test_partition_deterministic():
    cfg = prime_cfg()
    assert partition_blocks(cfg, 4, 42) == partition_blocks(cfg, 4, 42)


def test_partition_rejects_bad_m():
    with pytest.raises(ValueError):
        partition_blocks(prime_cfg(), 0, 1)


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


# Thread construction.

def test_thread_cfg_empty_partition():
    cfg = chain(3)
    part = Partition(2, [0, 0, 0], seed=0)
    tcfg = build_thread_cfg(cfg, part, 1)
    assert tcfg.owned_blocks == frozenset()
    assert tcfg.entry_wait == WaitSet(())
    assert tcfg.per_block_wait == {}
    assert tcfg.wait_sets() == [WaitSet(())]


def test_thread_cfg_wait_sets_keep_first_use_order():
    # Two diamonds in a loop: 0 -> {1, 2} -> 3 -> {4, 5} -> 6 -> {0, 7}.
    B, J = ir.Branch, ir.Jump
    terms = [B("c", 1, 2), J(3), J(3), B("c", 4, 5), J(6), J(6), B("c", 0, 7), ir.Halt()]
    cfg = ir.Cfg("fans", [ir.BasicBlock(i, f"b{i}", [], t) for i, t in enumerate(terms)])
    part = Partition(2, [0, 1, 1, 0, 1, 1, 0, 0], seed=0)
    arms = build_thread_cfg(cfg, part, 1)
    # The entry wait comes back after blocks 4 and 5, and {4, 5} follows both 1 and 2.
    assert [ws.flags for ws in arms.per_block_wait.values()] == [(4, 5), (4, 5), (1, 2), (1, 2)]
    assert arms.wait_sets() == [WaitSet((1, 2)), WaitSet((4, 5))]
    # Block 7's empty wait gets no Wait node.
    joins = build_thread_cfg(cfg, part, 0)
    assert [ws.flags for ws in joins.wait_sets()] == [(0,), (3,), (6,), (0, 7)]


def test_thread_cfg_m1_chain_waits_on_direct_successors():
    cfg = chain(4)
    part = partition_blocks(cfg, 1, 0)
    tcfg = build_thread_cfg(cfg, part, 0)
    for b in range(4):
        assert tcfg.per_block_wait[b].flags == tuple(sorted(ir.successor_map(cfg)[b]))


def test_thread_cfg_rejects_bad_index():
    part = partition_blocks(chain(2), 2, 0)
    with pytest.raises(ValueError):
        build_thread_cfg(chain(2), part, 2)


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


def test_check_bijection_flags_double_ownership():
    prog = obfuscate(chain(4), 2, seed=3)
    prog.threads[0].owned_blocks = frozenset(range(4))
    prog.threads[1].owned_blocks = frozenset(range(4))
    assert check_bijection(prog)


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
    ("evens", 1, 0): "512392d5f9360cf17e770dc1de4a312c2b894d20d62104d567b3412d033dfab0",
    ("evens", 1, 7): "86fd8c1cf37a61ccd59610a11ce74bf441713a4e6c62f7afc28d79082a2f7a5d",
    ("evens", 2, 0): "b2bed6920c93d803f9e01d4b09aa19e73df5714af2747478c648bb9715161936",
    ("evens", 2, 7): "b53227523a387959043f12977753212ffa4f1faa6954d2bc5ce0bf0ca0c3fc50",
    ("evens", 3, 0): "a606a1215cce5c054359b8a0be13162fc4c040ff696a348de387bd86589a708d",
    ("evens", 3, 7): "64109324d126a24aa5c2d9b1294aa41e7cf2b19c83808b0b6ebef8c19a21ba7b",
    ("evens", 4, 0): "4432593e77be080c5600e6141ebd4d1b5c7326b2028a99623b5df1cceac5496f",
    ("evens", 4, 7): "ffc6ec43369b3edf7bc06a4831ff7b497ec39988c252dfe8e2e48d827e9c8f31",
    ("fib", 1, 0): "f0f49c89b2f55577cc7cd9cf0b89e4d9f255c09c28c34a549fcdb18e7febe392",
    ("fib", 1, 7): "716ef37df5e99cb872384432082e0aa1f6a83852c3d2f7afcb118e5c2707a830",
    ("fib", 2, 0): "f4dcba9a3eef66771c5060878e3a79a332e681870013b28e085606cb278f90b8",
    ("fib", 2, 7): "5f232efef0513b33dde8ef776c3a2f2055bb907d62e09614320759c2ac9545ce",
    ("fib", 3, 0): "c7c11766e647e8f1e05d9f71e13d7cff57d247aa1d28e8fad5268bf2e9bfc550",
    ("fib", 3, 7): "cd179d460defcd5f4502975895265fe1add9a4af318010b911dfe5e50ae7cf4d",
    ("fib", 4, 0): "bd8f8bb96d855a82702f42888e3046c529eb0b92d7e10add1bdf1b7cfc38a2ab",
    ("fib", 4, 7): "56981222836d6ecb7af1d911dbfa42930ef4e2b55ef7527b672d6965dcb48d8f",
    ("prime", 1, 0): "4f1c8c32a2331b270b0543b6fd1db803419e193ba41a41c0c08ff5ba3199a24e",
    ("prime", 1, 7): "24956576ee9481f06f2ca0b5672f7eba495102424b5f67e20047d16c026e6b89",
    ("prime", 2, 0): "0b35fec641fad2a23a400b22648ba337cac96abfba5534e4e81bdb5ae3a6cb69",
    ("prime", 2, 7): "c6b159b6529b02976c3f352238dd326655862b0340cc017acbda4ead2d53d286",
    ("prime", 3, 0): "52c72db29c6c6000d832cc8ed0db9e3e405b666714f8359ccc1930f4a45d8d9c",
    ("prime", 3, 7): "00318dc38dcafc0f981531358f77916fe11d9530d0cf2016cf2ce7b915d210c8",
    ("prime", 4, 0): "e1b14d35ba1176e0658fcfce8fd4315a2b9d340ecaa98ffa47101756da7c02b1",
    ("prime", 4, 7): "fd1fd9beefc319b61d63a88f450de2e6348e1465f27070223ca245abbe1204b2",
}


def test_program_json_bytes_are_pinned():
    for (name, m, seed), digest in ARTIFACT_DIGESTS.items():
        text = program_to_json(obfuscate(parse(kernel_text(name)), m, seed))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (name, m, seed)


def test_program_json_has_documented_fields():
    doc = json.loads(program_to_json(obfuscate(prime_cfg(), 2, seed=1)))
    assert doc["version"] == 2
    assert doc["source_name"] == "prime"
    assert doc["m"] == 2
    assert doc["n"] == 16
    assert doc["seed"] == 1
    assert "stride" not in doc
    assert doc["prng"] == "splitmix64"
    assert len(doc["assign"]) == 16
    assert len(doc["threads"]) == 2


def test_program_json_rejects_wrong_source():
    cfg = prime_cfg()
    text = program_to_json(obfuscate(cfg, 2, seed=1))
    other = parse(kernel_text("evens"))
    with pytest.raises(ValueError):
        program_from_json(text, other)


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
        built.append(args[2])
        return build_thread_cfg(*args)

    # The package binds no names over its submodules.
    assert inspect.ismodule(threadsplit.obfuscate)
    monkeypatch.setattr(threadsplit.obfuscate, "build_thread_cfg", counted)
    with pytest.raises(ValueError, match="thread 0 in program file does not match"):
        program_from_json(json.dumps(doc), cfg)
    assert built == [0]


def test_program_json_rejects_unknown_version():
    cfg = prime_cfg()
    doc = json.loads(program_to_json(obfuscate(cfg, 2, seed=1)))
    for version in (1, 99):  # version 1 carried a guard stride
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


@pytest.mark.parametrize("key", ["version", "source_name", "m", "n", "seed", "assign",
                                 "threads"])
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
    ("n", 16.0),
    ("seed", None),
    ("seed", "1"),
    ("assign", {"0": 0}),
    ("threads", {}),
])
def test_program_json_rejects_wrongly_typed_field(key, value):
    cfg, doc = _prime_doc()
    doc[key] = value
    _refused(doc, cfg)


@pytest.mark.parametrize("entry", ["0", 1.0, None, -1, 3])
def test_program_json_rejects_bad_assignment_entry(entry):
    cfg, doc = _prime_doc()
    doc["assign"][0] = entry
    _refused(doc, cfg)


def test_program_json_rejects_malformed_thread_entry():
    cfg, doc = _prime_doc()
    doc["threads"][1] = ["owned"]
    _refused(doc, cfg)
