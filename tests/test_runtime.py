import errno
import hashlib
import json
import os
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import faults
from helpers import chain, reference_binop, run_child
from threadsplit import rng, runtime
from threadsplit.ir import BINARY_OPS, INT_MAX, INT_MIN, BasicBlock, BinOp, Cfg, Halt, Print
from threadsplit.kernels import KERNELS, kernel_text
from threadsplit.obfuscate import Partition, WaitSet, build_thread_cfg, obfuscate
from threadsplit.runtime import (
    BUDGET,
    COMPLETED,
    DEADLOCK,
    NO_FLAG,
    RANDOM,
    ROUND_ROBIN,
    TRAP,
    TRAPPED,
    ObfuscatedProgram,
    Schedule,
    Trap,
    run_obfuscated,
    run_sequential,
    _Guards,
    trace_to_json,
)
from threadsplit.textfmt import format_cfg, parse
from threadsplit.verify import random_cfg


def kernel(name):
    return parse(kernel_text(name))


def program(src: str):
    return parse(src)


def test_single_halt_block():
    trace = run_sequential(chain(1))
    assert trace.status == COMPLETED
    assert trace.records == [(0, "seq", 0)]
    assert trace.output == []


def test_fib_kernel_prints_55():
    a, b = 0, 1
    for _ in range(10):
        a, b = b, a + b
    assert a == 55
    trace = run_sequential(kernel("fib"))
    assert trace.status == COMPLETED
    assert trace.output == [a]


def test_prime_kernel_matches_trial_division():
    def is_prime(k):
        if k < 2:
            return False
        d = 2
        while d * d <= k:
            if k % d == 0:
                return False
            d += 1
        return True

    trace = run_sequential(kernel("prime"))
    assert trace.status == COMPLETED
    pairs = list(zip(trace.output[::2], trace.output[1::2]))
    assert pairs == [(k, int(is_prime(k))) for k in range(21)]


def test_evens_kernel():
    trace = run_sequential(kernel("evens"))
    assert trace.output == [k for k in range(21) if k % 2 == 0]


def test_undefined_variable_reads_zero():
    trace = run_sequential(program("func f {\n  block a:\n    print ghost\n    halt\n}\n"))
    assert trace.output == [0]


def test_arithmetic_wraps_64_bit():
    src = (
        "func f {\n"
        "  block a:\n"
        f"    big = {INT_MAX}\n"
        "    one = 1\n"
        "    s = big + one\n"
        "    print s\n"
        f"    low = {INT_MIN}\n"
        "    negone = -1\n"
        "    q = low / negone\n"
        "    print q\n"
        "    p = low * negone\n"
        "    print p\n"
        "    halt\n"
        "}\n"
    )
    trace = run_sequential(program(src))
    assert trace.status == COMPLETED
    assert trace.output == [INT_MIN, INT_MIN, INT_MIN]


def test_division_truncates_toward_zero():
    src = (
        "func f {\n"
        "  block a:\n"
        "    a = -7\n"
        "    b = 2\n"
        "    q = a / b\n"
        "    r = a % b\n"
        "    print q\n"
        "    print r\n"
        "    halt\n"
        "}\n"
    )
    trace = run_sequential(program(src))
    assert trace.output == [-3, -1]


def test_comparisons_yield_01():
    src = (
        "func f {\n"
        "  block a:\n"
        "    x = 3\n"
        "    y = 5\n"
        "    lt = x < y\n"
        "    le = y <= x\n"
        "    eq = x == x\n"
        "    ne = x != x\n"
        "    print lt\n"
        "    print le\n"
        "    print eq\n"
        "    print ne\n"
        "    halt\n"
        "}\n"
    )
    assert run_sequential(program(src)).output == [1, 0, 1, 0]


OPERANDS = (st.sampled_from([INT_MIN, INT_MAX, -1, 0, 1]) | st.integers(-9, 9)
            | st.integers(INT_MIN, INT_MAX))


@pytest.mark.parametrize("op", BINARY_OPS)
@settings(max_examples=100)
@given(a=OPERANDS, b=OPERANDS)
def test_binop_matches_reference(op, a, b):
    cfg = Cfg("op", [BasicBlock(0, "a", [Print("x"), BinOp("r", "x", op, "y"), Print("r")],
                                Halt())])
    trace = run_sequential(cfg, {"x": a, "y": b})
    try:
        want = reference_binop(op, a, b)
    except Trap as t:
        assert trace.status == TRAPPED
        assert trace.trap_reason == str(t)
        assert trace.output == [a]  # the print before the trap survives
    else:
        assert trace.status == COMPLETED
        assert trace.output == [a, want]
        assert type(trace.output[1]) is int


DIV_ZERO = (
    "func f {\n"
    "  block a:\n"
    "    x = 7\n"
    "    print x\n"
    "    q = x / zero\n"
    "    print q\n"
    "    halt\n"
    "}\n"
)


def test_division_by_zero_traps_sequential():
    trace = run_sequential(program(DIV_ZERO))
    assert trace.status == TRAPPED
    assert trace.trap_reason == "division by zero"
    assert trace.output == [7]  # prints before the trap survive


def test_modulo_by_zero_traps():
    src = "func f {\n  block a:\n    x = 7\n    r = x % zero\n    halt\n}\n"
    trace = run_sequential(program(src))
    assert trace.status == TRAPPED
    assert trace.trap_reason == "modulo by zero"


def test_trap_in_scheduled_mode_releases_all_workers():
    prog = obfuscate(program(DIV_ZERO), 3, seed=1)
    trace = run_obfuscated(prog)
    assert trace.status == TRAPPED
    assert trace.trap_reason == "division by zero"
    assert trace.output == [7]


def test_trap_in_concurrent_mode():
    prog = obfuscate(program(DIV_ZERO), 2, seed=1)
    trace = run_obfuscated(prog, concurrent=True)
    assert trace.status == TRAPPED
    assert trace.output == [7]


def test_sequential_budget_exhaustion_is_deadlock():
    trace = run_sequential(kernel("fib"), max_steps=3)
    assert trace.status == DEADLOCK


def test_scheduled_budget_exhaustion_is_deadlock():
    prog = obfuscate(kernel("fib"), 2, seed=0)
    trace = run_obfuscated(prog, sched=Schedule(step_budget=5))
    assert trace.status == DEADLOCK


def test_budget_counts_executed_blocks_in_every_engine():
    cfg = kernel("prime")
    ref = run_sequential(cfg, max_steps=100)
    assert ref.status == DEADLOCK
    assert len(ref.records) == 100
    assert len(ref.output) == 20
    prog = obfuscate(cfg, 2, seed=0)
    runs = [run_obfuscated(prog, sched=Schedule(ROUND_ROBIN, 0, 100)),
            run_obfuscated(prog, sched=Schedule(RANDOM, 3, 100)),
            run_obfuscated(prog, sched=Schedule(step_budget=100), concurrent=True)]
    for trace in runs:
        assert trace.status == DEADLOCK
        assert len(trace.records) == 100
        assert trace.output == ref.output
        assert trace.block_sequence() == ref.block_sequence()


# argv[1] is m. The entry block's owner waits on nothing after any of its
# blocks, so once control comes back to it no worker can ever advance, and
# the handoff that raises that flag stops the run. From m=3 on, some
# worker runs no block before that and is still parked when the run stops.
# With argv[2] "entry", the owner's entry wait is empty too: nobody waits
# on the entry flag, and the run stops before its first block.
NO_WAY_BACK = """
import sys
from threadsplit.kernels import kernel_text
from threadsplit.obfuscate import WaitSet, obfuscate
from threadsplit.runtime import Schedule, run_obfuscated
from threadsplit.textfmt import parse

prog = obfuscate(parse(kernel_text("prime")), int(sys.argv[1]), 0)
owner = prog.threads[prog.partition.assign[prog.source.entry]]
for b in owner.per_block_wait:
    owner.per_block_wait[b] = WaitSet(())
if sys.argv[2:] == ["entry"]:
    owner.entry_wait = WaitSet(())
for concurrent in (False, True):
    trace = run_obfuscated(prog, sched=Schedule(step_budget=10**12), concurrent=concurrent)
    print(trace.status, trace.reason, len(trace.records))
"""


@pytest.mark.parametrize("argv", [["2"], ["3"], ["4"], ["5"], ["2", "entry"], ["5", "entry"]],
                         ids="-".join)
def test_run_no_worker_can_advance_stops_at_once(argv):
    proc = run_child("-X", "dev", "-c", NO_WAY_BACK, *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    (sched_status, sched_reason, sched_blocks), (conc_status, conc_reason, conc_blocks) = (
        line.split() for line in proc.stdout.splitlines())
    assert sched_status == conc_status == DEADLOCK
    assert sched_reason == conc_reason == NO_FLAG
    # Both engines stop at the same block: the first one nobody waits for.
    assert sched_blocks == conc_blocks
    assert (sched_blocks == "0") == (argv[1:] == ["entry"])


def test_m1_replays_sequential_exactly():
    for name in KERNELS:
        cfg = kernel(name)
        ref = run_sequential(cfg)
        trace = run_obfuscated(obfuscate(cfg, 1, seed=0))
        assert trace.status == COMPLETED
        assert trace.output == ref.output
        assert trace.block_sequence() == ref.block_sequence()
        assert trace.flag_violations == 0


def test_prime_m4_seed42_round_robin_matches_sequential():
    cfg = kernel("prime")
    ref = run_sequential(cfg)
    prog = obfuscate(cfg, 4, seed=42)
    trace = run_obfuscated(prog, sched=Schedule("round-robin"))
    assert trace.status == COMPLETED
    assert trace.output == ref.output
    assert trace.block_sequence() == ref.block_sequence()
    assert trace.flag_violations == 0


def test_schedule_choice_never_changes_behavior():
    cfg = kernel("prime")
    ref = run_sequential(cfg)
    prog = obfuscate(cfg, 3, seed=9)
    schedules = [Schedule("round-robin")] + [Schedule("random", s) for s in range(10)]
    for sched in schedules:
        trace = run_obfuscated(prog, sched=sched)
        assert trace.status == COMPLETED
        assert trace.output == ref.output
        assert trace.block_sequence() == ref.block_sequence()


# sha256 of the JSON of `records` for each bundled kernel at partition
# seed 0: every scheduled interleaving, step number and worker, pinned.
SCHEDULE_DIGESTS = {
    ("evens", 2, "round-robin"):
        "d5e09e8b0b5f49ac0d1da86014f2712d0902e0378681d4f32dacf21e0b8f7cc0",
    ("evens", 2, "random:0"):
        "e3925c56e3aceddaa239250bc5a80cd90e40eded812a10e30dee66b3b33cd68a",
    ("evens", 2, "random:1"):
        "12bf3c26c7da3039968bd54de4e73f75db24c90e234fc3f0a9cd3b0de2f0483b",
    ("evens", 3, "round-robin"):
        "c5a6b8905543d810ed0f2ff56a48a17aa45db93f8133fb839b380ae191fdf8b2",
    ("evens", 3, "random:0"):
        "ff27a55dada115f922c13c032bd36508d5772912e41611c92e85402fdf766727",
    ("evens", 3, "random:1"):
        "80a9554d5a2e189bdd53550b16030dad7ecec2bcdd5dff794b02671b9365873a",
    ("fib", 2, "round-robin"):
        "09f183aadeaca4d95f52da54fcefa00dec4dacb46f79d989bfe8515e9b3f9f63",
    ("fib", 2, "random:0"):
        "ca15922efc3e6ddfb767b18eb5388dbead0a131fe5164c3628886f601fc2c6f8",
    ("fib", 2, "random:1"):
        "037087fa3a33f015cae367f375d898bc33a87cde178ecec3a687d54cf1c40f78",
    ("fib", 3, "round-robin"):
        "e6ad933b6109205b608615c6290972d6b6244e6aeb105bbcd72fceda8d2d320a",
    ("fib", 3, "random:0"):
        "689fc56e4f06514d8daa4e31ca4455ce46f39127eb7b6ef9417eaf9ec0223d5f",
    ("fib", 3, "random:1"):
        "20b7ed24cfb97578871c0b8d61c33180025f986615110b65617505e86fe0c102",
    ("prime", 2, "round-robin"):
        "56c445e251c71b7857cd55bbff2e8b984a6685d325bba29f887a9402570fa366",
    ("prime", 2, "random:0"):
        "62ae163e8d199f9a4b14aca219f0efa3a205bab6db1864f4296df5dca02d30f8",
    ("prime", 2, "random:1"):
        "2d5c16a76cc74a00a868a2bc5989430ddc509b16034297885cbbae3485be5514",
    ("prime", 3, "round-robin"):
        "f9ab1aeebce4dbcc8c82759c198b638d636fcbcec963ff119a810656000e55f9",
    ("prime", 3, "random:0"):
        "ecb883aa871df2a4a4f852544f69c5bb2dc24d7965837a5d0fed322dfb0668ab",
    ("prime", 3, "random:1"):
        "68b44e84e323c784f70c7d3d4163f28b3927cae6ccc57af1f71083347f1b4ca2",
}


def test_scheduled_records_are_pinned():
    for (name, m, label), digest in SCHEDULE_DIGESTS.items():
        mode, _, seed = label.partition(":")
        trace = run_obfuscated(obfuscate(kernel(name), m, 0),
                               sched=Schedule(mode, int(seed or 0)))
        assert trace.status == COMPLETED
        got = hashlib.sha256(json.dumps(trace.records).encode()).hexdigest()
        assert got == digest, (name, m, label)


# sha256 of the JSON of (records, output, reason, flag_violations) of each
# scheduled run of a bundled kernel at partition seed 0 with a handoff
# fault of `faults` applied, allowed as many blocks as the reference runs,
# as in `faults.check_faults`.
MUTATION_DIGESTS = {
    ("evens", 2, "skip-clear", "round-robin"):
        "53a96654232d41aaef086cdce092034c7f9a9425c4b4bbe084a043c2e6bf34a3",
    ("evens", 2, "skip-clear", "random:0"):
        "fcb57fbc1f81c00b2f1f369441a5bf8f0977007699e567e2d4a2c1b83410b4ca",
    ("evens", 2, "skip-raise", "round-robin"):
        "3429ba8681002355dbcdb358d54206e14d4af63a28c4d19cc275bcd8a93722aa",
    ("evens", 2, "skip-raise", "random:0"):
        "686d029e93eb97cb122e2a2c98b36c9c2f335807358757e991fe47d03f413b0b",
    ("evens", 2, "wrong-successor", "round-robin"):
        "6fc884931e2675e741a8c4e76cef0980f4e3af3068464c0de8d8886261cdc70e",
    ("evens", 2, "wrong-successor", "random:0"):
        "9eab66e1bfcfd53f2dad2fd05009fe8b93e7780de2f199cf438966285a025944",
    ("evens", 3, "skip-clear", "round-robin"):
        "e34cd93f835b094f41c2b01b9365d967bd9c04d4aa2f10c3ee733a36c03862b4",
    ("evens", 3, "skip-clear", "random:0"):
        "95c2c1f128cfee57466d5fe79378f0dc7fd476c0ae3237e619c0f0cc26380818",
    ("evens", 3, "skip-raise", "round-robin"):
        "3429ba8681002355dbcdb358d54206e14d4af63a28c4d19cc275bcd8a93722aa",
    ("evens", 3, "skip-raise", "random:0"):
        "686d029e93eb97cb122e2a2c98b36c9c2f335807358757e991fe47d03f413b0b",
    ("evens", 3, "wrong-successor", "round-robin"):
        "d9f4ceeb449367dee094dd95f8d6a32faf7dc16cbe1ad29f78a9ac4293278e81",
    ("evens", 3, "wrong-successor", "random:0"):
        "37fd9c3c971043c3fd00de73d98519215e5958221598a1a1da08d8713585377a",
    ("fib", 2, "skip-clear", "round-robin"):
        "64d5ce6ece44644e1ef969f4d59e9937b7f2841c87a212adf0015709aecb0ff0",
    ("fib", 2, "skip-clear", "random:0"):
        "52ceaad41c48fbf6b2381109922277c714dd7028ba61b0b555bdc4230037f06c",
    ("fib", 2, "skip-raise", "round-robin"):
        "3429ba8681002355dbcdb358d54206e14d4af63a28c4d19cc275bcd8a93722aa",
    ("fib", 2, "skip-raise", "random:0"):
        "686d029e93eb97cb122e2a2c98b36c9c2f335807358757e991fe47d03f413b0b",
    ("fib", 2, "wrong-successor", "round-robin"):
        "2d2766826e8fb45b05094206620fdc823d227db057e9dc78702017a83a333c2c",
    ("fib", 2, "wrong-successor", "random:0"):
        "2840a5d899d6e6806ae416c725db6637895c4c2eb9791bce9467a1e4f30e3cf5",
    ("fib", 3, "skip-clear", "round-robin"):
        "02a2c0c5ad6742899e9aaa3ace47dea26e3d197261e19c46db44803017345b41",
    ("fib", 3, "skip-clear", "random:0"):
        "3f6d21029a7d0c8b427f1b2e4d6cfc6ccd638b8fe9e08bd7e142aa9f4f029d75",
    ("fib", 3, "skip-raise", "round-robin"):
        "3429ba8681002355dbcdb358d54206e14d4af63a28c4d19cc275bcd8a93722aa",
    ("fib", 3, "skip-raise", "random:0"):
        "686d029e93eb97cb122e2a2c98b36c9c2f335807358757e991fe47d03f413b0b",
    ("fib", 3, "wrong-successor", "round-robin"):
        "d10264fa78eb3a0439b0851291653a7581feb8c1938e1fef97559669e37f20a8",
    ("fib", 3, "wrong-successor", "random:0"):
        "6d989ba79d9efb35d2b5fa6ce0e8e50ab3059684e19ae1b7f75d8ec3e21e88db",
    ("prime", 2, "skip-clear", "round-robin"):
        "199fbf613d819c578aaf99d2933f918410dbf218e6a52676c8244ef66e31c243",
    ("prime", 2, "skip-clear", "random:0"):
        "72d4f18edeccd7833d66bf4d28ce3e32839815ddbc0a684efd7f63be26e72e46",
    ("prime", 2, "skip-raise", "round-robin"):
        "3429ba8681002355dbcdb358d54206e14d4af63a28c4d19cc275bcd8a93722aa",
    ("prime", 2, "skip-raise", "random:0"):
        "686d029e93eb97cb122e2a2c98b36c9c2f335807358757e991fe47d03f413b0b",
    ("prime", 2, "wrong-successor", "round-robin"):
        "e05f156da37f051d63b2328277ebfe409fdb64b3cb60190f0d6fd513c813c0ec",
    ("prime", 2, "wrong-successor", "random:0"):
        "23adaffaeeba2b226453044d46424faedac84bfb1eee93c9cbb5006f431d756c",
    ("prime", 3, "skip-clear", "round-robin"):
        "b39350c29005b22f2c1154445e7810bf767ce85e0dc1b6284b37c02442cb76d8",
    ("prime", 3, "skip-clear", "random:0"):
        "7d0dac87ff4cb3c4d133a53592c6aa0da0586c9aca40dcc66d1eff4682717c95",
    ("prime", 3, "skip-raise", "round-robin"):
        "3429ba8681002355dbcdb358d54206e14d4af63a28c4d19cc275bcd8a93722aa",
    ("prime", 3, "skip-raise", "random:0"):
        "686d029e93eb97cb122e2a2c98b36c9c2f335807358757e991fe47d03f413b0b",
    ("prime", 3, "wrong-successor", "round-robin"):
        "b27c0045cfe8bee2202f5a4e0b4ed00b42e8b1bbf4b8d0c2c5d7905c1731ef19",
    ("prime", 3, "wrong-successor", "random:0"):
        "d1194ec6452f7e29ccdbff342ba205a32e05a276d2c6abb5f9a0f1e554afc148",
}


def test_mutated_runs_are_pinned():
    for name in KERNELS:
        cfg = kernel(name)
        budget = len(run_sequential(cfg).records)
        for m in (2, 3):
            prog = obfuscate(cfg, m, 0)
            for fault in faults.HANDOFF_FAULTS:
                for label in ("round-robin", "random:0"):
                    mode, _, seed = label.partition(":")
                    trace = faults.run_with_fault(
                        prog, fault, sched=Schedule(mode, int(seed or 0), budget))
                    got = hashlib.sha256(json.dumps(
                        [trace.records, trace.output, trace.reason, trace.flag_violations]
                    ).encode()).hexdigest()
                    assert got == MUTATION_DIGESTS[name, m, fault, label], (name, m, fault, label)


def test_random_schedule_deterministic_per_seed():
    prog = obfuscate(kernel("evens"), 3, seed=2)
    a = run_obfuscated(prog, sched=Schedule("random", 4))
    b = run_obfuscated(prog, sched=Schedule("random", 4))
    assert a.records == b.records


def test_guard_table_one_byte_per_block_plus_done():
    prog = obfuscate(kernel("prime"), 4, seed=42)
    core = _Guards(prog, None, budget=1)
    assert len(core.flags) == prog.source.n + 1
    assert core.done == prog.source.n
    # Exactly one flag is up before the first handoff: the entry's.
    assert [b for b, up in enumerate(core.flags) if up] == [prog.source.entry]


def test_empty_partition_worker_contributes_nothing():
    cfg = chain(3)
    part = Partition(2, [0, 0, 0], seed=0)
    threads = [build_thread_cfg(cfg, part, t) for t in range(2)]
    prog = ObfuscatedProgram(cfg, part, threads)
    trace = run_obfuscated(prog)
    assert trace.status == COMPLETED
    assert all(worker == 0 for _, worker, _ in trace.records)


def test_workers_recorded_by_owner():
    cfg = kernel("evens")
    prog = obfuscate(cfg, 3, seed=4)
    owner = {b: t for t, tcfg in enumerate(prog.threads) for b in tcfg.owned_blocks}
    trace = run_obfuscated(prog)
    assert trace.status == COMPLETED
    for _, worker, block in trace.records:
        assert worker == owner[block]
    steps = [s for s, _, _ in trace.records]
    assert steps == sorted(steps)


def test_concurrent_matches_sequential_output():
    for name in KERNELS:
        cfg = kernel(name)
        ref = run_sequential(cfg)
        prog = obfuscate(cfg, 2, seed=8)
        trace = run_obfuscated(prog, concurrent=True)
        assert trace.status == COMPLETED
        assert trace.output == ref.output


def test_concurrent_matches_sequential_block_for_block():
    for name in KERNELS:
        cfg = kernel(name)
        ref = run_sequential(cfg)
        for m in (2, 3):
            trace = run_obfuscated(obfuscate(cfg, m, seed=8), concurrent=True)
            assert (trace.status, trace.output, trace.block_sequence()) == (
                ref.status, ref.output, ref.block_sequence())
            assert trace.flag_violations == 0


def test_concurrent_matches_scheduled_record_for_record_on_random_cfgs():
    """A `conc` run is one more schedule of the program, so it must equal
    the round-robin run in (worker, block) records, output, stop reason
    and flag violations, on 200 generated graphs that complete within 200
    blocks. m=8 runs more workers than a small host has cores, and more
    than many of the graphs have blocks."""
    r, sched, cfgs = rng.Rng(11), Schedule(step_budget=200), []
    while len(cfgs) < 200:
        cfg = random_cfg(r)
        if run_sequential(cfg, max_steps=200).status == COMPLETED:
            cfgs.append(cfg)
    for cfg in cfgs:
        for m in (2, 3, 4, 8):
            for seed in range(3):
                prog = obfuscate(cfg, m, seed)
                runs = [run_obfuscated(prog, sched=sched, concurrent=conc)
                        for conc in (False, True)]
                want, got = ([[(w, b) for _, w, b in t.records], t.output, t.reason,
                              t.flag_violations] for t in runs)
                assert got == want, (m, seed, format_cfg(cfg))


PINNING = pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                             reason="no per-thread CPU pinning")


@PINNING
def test_concurrent_workers_run_on_one_cpu(monkeypatch):
    seen = set()
    real = runtime._exec_block

    def record(*args):
        seen.add((threading.get_ident(), frozenset(os.sched_getaffinity(0))))
        return real(*args)

    picked = []

    def highest(cpus):
        picked.append(max(cpus))  # not the lowest, where the caller has two CPUs
        return picked[-1]

    cfg = kernel("prime")
    ref, before = run_sequential(cfg), os.sched_getaffinity(0)
    monkeypatch.setattr(runtime, "_exec_block", record)
    monkeypatch.setattr(runtime, "_caller_cpu", highest)
    trace = run_obfuscated(obfuscate(cfg, 3, seed=8), concurrent=True)
    assert trace.block_sequence() == ref.block_sequence()
    # All three workers ran blocks, the caller as worker 0 among them,
    # and every block ran on the one CPU of the caller's set it picked.
    assert len({ident for ident, _ in seen}) == 3
    assert threading.get_ident() in {ident for ident, _ in seen}
    assert {cpus for _, cpus in seen} == {frozenset({max(before)})}
    assert picked == [max(before)]
    assert os.sched_getaffinity(0) == before


@PINNING
def test_caller_cpu_is_the_one_it_runs_on(monkeypatch):
    before = os.sched_getaffinity(0)
    try:
        for cpu in sorted(before):
            os.sched_setaffinity(0, {cpu})
            assert runtime._caller_cpu(before) == cpu
            # A CPU outside the caller's set, or none read, falls back to the lowest.
            assert runtime._caller_cpu({cpu + 1, cpu + 2}) == cpu + 1
    finally:
        os.sched_setaffinity(0, before)

    def unreadable(*args):
        raise FileNotFoundError(2, "No such file or directory")

    monkeypatch.setattr(runtime.os, "open", unreadable)
    assert runtime._caller_cpu({3, 5}) == 3


def test_concurrent_run_starts_m_minus_one_threads(monkeypatch):
    starts = []
    real = runtime._thread.start_new_thread

    def counted(*args):
        starts.append(args)
        return real(*args)

    monkeypatch.setattr(runtime._thread, "start_new_thread", counted)
    cfg = kernel("fib")
    ref = run_sequential(cfg)
    for m, started in ((1, 0), (2, 1), (3, 2)):
        trace = run_obfuscated(obfuscate(cfg, m, seed=3), concurrent=True)
        assert trace.block_sequence() == ref.block_sequence()
        assert len(starts) == started
        starts.clear()


def wait_for_thread_count(count: int) -> int:
    """`_thread._count()` once it reaches `count`, or after 5 s: a worker
    has released its lock before its thread finishes exiting."""
    deadline = time.monotonic() + 5
    while runtime._thread._count() != count and time.monotonic() < deadline:
        time.sleep(0.001)
    return runtime._thread._count()


def open_fds() -> int | None:
    """How many file descriptors this process has open, or None where
    /proc/self/fd does not list them."""
    try:
        return len(os.listdir("/proc/self/fd"))
    except FileNotFoundError:
        return None


PROC_FD = pytest.mark.skipif(open_fds() is None, reason="no /proc/self/fd")


def no_way_back(m: int):
    """Prime at m with NO_WAY_BACK's fault: the entry block's owner waits
    on nothing after any of its blocks, so the run stops as no-flag."""
    prog = obfuscate(kernel("prime"), m, 0)
    owner = prog.threads[prog.partition.assign[prog.source.entry]]
    for b in owner.per_block_wait:
        owner.per_block_wait[b] = WaitSet(())
    return prog


def test_concurrent_run_leaves_no_thread_behind():
    threads, registered, fds = runtime._thread._count(), threading.enumerate(), open_fds()
    for name in KERNELS:
        for m in (2, 4):
            run_obfuscated(obfuscate(kernel(name), m, seed=5), concurrent=True)
    for prog, sched, reason in [
            (obfuscate(program(DIV_ZERO), 2, seed=1), None, TRAP),
            (obfuscate(kernel("prime"), 2, seed=0), Schedule(step_budget=100), BUDGET),
            (no_way_back(3), None, NO_FLAG)]:
        assert run_obfuscated(prog, sched=sched, concurrent=True).reason == reason
    assert wait_for_thread_count(threads) == threads
    # The workers never called into `threading`, so none is registered.
    assert threading.enumerate() == registered
    # Each worker's pipe is closed, whatever stopped the run.
    assert open_fds() == fds


@pytest.mark.parametrize("in_caller", [True, False], ids=["caller", "started-worker"])
def test_concurrent_worker_error_stops_every_worker(monkeypatch, in_caller):
    threads, fds, caller = runtime._thread._count(), open_fds(), threading.get_ident()
    real = runtime._exec_block

    def fail(*args):
        if (threading.get_ident() == caller) == in_caller:
            raise RuntimeError("worker failed")
        return real(*args)

    monkeypatch.setattr(runtime, "_exec_block", fail)
    with pytest.raises(RuntimeError, match="worker failed"):
        run_obfuscated(obfuscate(kernel("prime"), 3, seed=8), concurrent=True)
    assert wait_for_thread_count(threads) == threads
    assert open_fds() == fds


@PROC_FD
def test_concurrent_run_whose_pipes_fail_to_open_starts_nothing(monkeypatch):
    threads, fds = runtime._thread._count(), open_fds()
    real, opened = runtime.os.pipe, []

    def second_fails():
        if len(opened) == 1:
            raise OSError(errno.EMFILE, "Too many open files")
        opened.append(real())
        return opened[-1]

    monkeypatch.setattr(runtime.os, "pipe", second_fails)
    with pytest.raises(OSError, match="Too many open files"):
        run_obfuscated(obfuscate(kernel("prime"), 3, seed=8), concurrent=True)
    assert len(opened) == 1
    assert runtime._thread._count() == threads
    assert open_fds() == fds


# Every worker's pipe starts full, as if wakes had piled up unread. A wake
# into a full pipe must be dropped, since that pipe already holds a pending
# wake; a waker that waited for room would stall on its own pipe at DONE,
# and the child's timeout fails the test.
FULL_PIPES = """
import os
from threadsplit.kernels import kernel_text
from threadsplit.obfuscate import obfuscate
from threadsplit.runtime import run_obfuscated, run_sequential
from threadsplit.textfmt import parse

real = os.pipe


def full_pipe():
    r, w = real()
    os.set_blocking(w, False)
    for size in (4096, 1):
        try:
            while True:
                os.write(w, bytes(size))
        except BlockingIOError:
            pass
    os.set_blocking(w, True)
    return r, w


os.pipe = full_pipe
cfg = parse(kernel_text("prime"))
ref = run_sequential(cfg)
for m in (2, 3):
    trace = run_obfuscated(obfuscate(cfg, m, 8), concurrent=True)
    print(trace.block_sequence() == ref.block_sequence())
"""


def test_concurrent_wake_into_a_full_pipe_is_not_waited_on():
    proc = run_child("-X", "dev", "-c", FULL_PIPES)
    assert proc.returncode == 0, proc.stderr
    assert (proc.stdout, proc.stderr) == ("True\nTrue\n", "")


# A fresh process that first widens its CPU set, which it inherits from
# the calling thread: a pin left behind by an earlier run would otherwise
# hide a missing restore. The no-flag run is NO_WAY_BACK's program.
AFFINITY_BY_REASON = """
import os
os.sched_setaffinity(0, range(os.cpu_count()))  # the kernel keeps only the allowed CPUs
from threadsplit.kernels import kernel_text
from threadsplit.obfuscate import WaitSet, obfuscate
from threadsplit.runtime import Schedule, run_obfuscated
from threadsplit.textfmt import parse

stuck = obfuscate(parse(kernel_text("prime")), 3, 0)
owner = stuck.threads[stuck.partition.assign[stuck.source.entry]]
for b in owner.per_block_wait:
    owner.per_block_wait[b] = WaitSet(())
trap = parse("func f {\\n  block a:\\n    q = x / zero\\n    halt\\n}\\n")
runs = [(obfuscate(parse(kernel_text("prime")), 3, 8), None),
        (obfuscate(trap, 2, 1), None),
        (obfuscate(parse(kernel_text("prime")), 2, 0), Schedule(step_budget=100)),
        (stuck, None)]
before = os.sched_getaffinity(0)
for prog, sched in runs:
    trace = run_obfuscated(prog, sched=sched, concurrent=True)
    print(trace.reason, os.sched_getaffinity(0) == before)
"""


@PINNING
def test_concurrent_run_restores_caller_affinity_for_every_reason():
    proc = run_child("-X", "dev", "-c", AFFINITY_BY_REASON)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == [
        f"{reason} True" for reason in (COMPLETED, TRAP, BUDGET, NO_FLAG)] + [""]


def test_concurrent_run_from_another_thread_matches_sequential():
    got = {}

    def run_all():
        before = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
        for name in KERNELS:
            for m in (1, 2, 3):
                trace = run_obfuscated(obfuscate(kernel(name), m, seed=6), concurrent=True)
                got[name, m] = (trace.status, trace.output, trace.block_sequence())
        got["affinity"] = before == (os.sched_getaffinity(0) if before else None)

    caller = threading.Thread(target=run_all)
    caller.start()
    caller.join(60)
    assert not caller.is_alive()
    assert got.pop("affinity")
    for (name, m), result in got.items():
        ref = run_sequential(kernel(name))
        assert result == (ref.status, ref.output, ref.block_sequence()), (name, m)
    assert len(got) == 3 * len(KERNELS)


# Where the OS refuses the pin, the workers run unpinned.
PIN_REFUSED = """
import os
from threadsplit.kernels import kernel_text
from threadsplit.obfuscate import obfuscate
from threadsplit.runtime import run_obfuscated, run_sequential
from threadsplit.textfmt import parse

def refuse(pid, cpus):
    raise PermissionError(1, "Operation not permitted")

os.sched_setaffinity = refuse
cfg = parse(kernel_text("prime"))
trace = run_obfuscated(obfuscate(cfg, 3, 8), concurrent=True)
print(trace.block_sequence() == run_sequential(cfg).block_sequence())
"""


def test_concurrent_runs_where_pinning_is_refused():
    proc = run_child("-X", "dev", "-c", PIN_REFUSED)
    assert proc.returncode == 0, proc.stderr
    assert (proc.stdout, proc.stderr) == ("True\n", "")


# More workers than cores, and a switch interval far below the default so
# the threads interleave at many more points; the child process exits
# with its switch interval. A no-flag stop decided while a waited flag
# was up would end a run early as a deadlock; a lost wake would leave a
# worker parked, and the child's timeout fails it.
CONC_STRESS = """
import sys
sys.setswitchinterval(1e-5)
from threadsplit.kernels import KERNELS, kernel_text
from threadsplit.obfuscate import obfuscate
from threadsplit.runtime import run_obfuscated, run_sequential
from threadsplit.textfmt import parse

for name in KERNELS:
    cfg = parse(kernel_text(name))
    ref = run_sequential(cfg)
    for m in (2, 3, 4, 5, 8):
        for seed in range(10):
            trace = run_obfuscated(obfuscate(cfg, m, seed), concurrent=True)
            if (trace.status, trace.output, trace.block_sequence()) != (
                    ref.status, ref.output, ref.block_sequence()):
                print(name, m, seed, trace.status, len(trace.records))
            if trace.flag_violations:
                print(name, m, seed, "flag_violations", trace.flag_violations)
"""


def test_concurrent_stress_never_stops_early():
    proc = run_child("-X", "dev", "-c", CONC_STRESS)
    assert proc.returncode == 0, proc.stderr
    assert (proc.stdout, proc.stderr) == ("", "")


# The flag owner's vain poll overlaps the raise of its flag: the owner w
# has polled in vain and waits, before it parks, until the entry block's
# owner v has raised w's flag, woken w and started its next poll. The wake
# reaches w before w parks, so w must take it as pending and poll again;
# a lost wake would leave w parked with its flag up, v would park after
# its own vain poll, and the child's timeout fails the test.
RAISE_RACE = """
import threading
from threadsplit import runtime
from threadsplit.kernels import kernel_text
from threadsplit.obfuscate import obfuscate
from threadsplit.textfmt import parse

cfg = parse(kernel_text("prime"))
ref = runtime.run_sequential(cfg)
first, second = ref.block_sequence()[:2]
prog = next(p for p in (obfuscate(cfg, 2, seed) for seed in range(100))
            if p.partition.assign[first] != p.partition.assign[second])
v = prog.partition.assign[first]
w = 1 - v
polled, raised = threading.Event(), threading.Event()


class Hooked:
    def __init__(self, flags, before=None, after=None):
        self.flags, self.before, self.after = flags, before, after

    def __iter__(self):
        if self.before:
            self.before()
        yield from self.flags
        if self.after:
            self.after()

    def __contains__(self, b):
        return b in self.flags  # the handoff's stop check, not a poll


class Guards(runtime._Guards):
    def __init__(self, *args):
        super().__init__(*args)
        waits, inner = self.waits, self.handoff
        waits[w] = Hooked(waits[w], after=lambda: (polled.set(), raised.wait()))

        def handoff(u, b, step):
            if step == 0:
                polled.wait()
            to = inner(u, b, step)
            if step == 0:
                waits[u] = Hooked(waits[u], before=raised.set)
            return to

        self.handoff = handoff


runtime._Guards = Guards
trace = runtime.run_obfuscated(prog, concurrent=True)
assert polled.is_set() and raised.is_set()
if (trace.reason, trace.block_sequence()) != (ref.reason, ref.block_sequence()):
    print(trace.reason, len(trace.records), len(ref.records))
"""


def test_concurrent_raise_during_owners_vain_poll_is_not_idle():
    proc = run_child("-X", "dev", "-c", RAISE_RACE)
    assert proc.returncode == 0, proc.stderr
    assert (proc.stdout, proc.stderr) == ("", "")


def mutated_prime_run(fault: str):
    """Prime at m=3 with `fault` applied, allowed as many blocks as the
    reference run executes, as in `faults.check_faults`."""
    cfg = kernel("prime")
    ref = run_sequential(cfg)
    prog = obfuscate(cfg, 3, seed=7)
    sched = Schedule(step_budget=len(ref.records))
    return ref, faults.run_with_fault(prog, fault, sched=sched)


def test_mutation_skip_raise_deadlocks():
    _, trace = mutated_prime_run(faults.SKIP_RAISE)
    assert trace.status == DEADLOCK


def test_mutation_skip_clear_violates_mutual_exclusion():
    _, trace = mutated_prime_run(faults.SKIP_CLEAR)
    assert trace.flag_violations > 0


def test_mutation_wrong_successor_detected():
    ref, trace = mutated_prime_run(faults.WRONG_SUCCESSOR)
    diverged = (trace.status != ref.status or trace.output != ref.output
                or trace.block_sequence() != ref.block_sequence())
    assert diverged


def test_mutation_runs_show_in_trace_json():
    _, stuck = mutated_prime_run(faults.SKIP_RAISE)
    doc = json.loads(trace_to_json(stuck))
    assert (doc["status"], doc["reason"]) == (DEADLOCK, NO_FLAG)
    _, doubled = mutated_prime_run(faults.SKIP_CLEAR)
    assert json.loads(trace_to_json(doubled))["flag_violations"] > 0


@pytest.mark.parametrize("name", KERNELS)
@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("fault", [faults.SKIP_RAISE, faults.WRONG_SUCCESSOR])
def test_concurrent_fault_run_matches_round_robin(name, m, fault):
    # With one flag up at a time, which block runs next does not depend on
    # the schedule, so `conc` stops where and why round-robin `sched` does.
    # Under skip-clear more than one flag is up, and the run depends on it.
    cfg = kernel(name)
    prog = obfuscate(cfg, m, 0)
    sched = Schedule(step_budget=len(run_sequential(cfg).records))
    want = faults.run_with_fault(prog, fault, sched=sched)
    got = faults.run_with_fault(prog, fault, sched=sched, concurrent=True)
    assert [r[1:] for r in got.records] == [r[1:] for r in want.records]
    assert (got.output, got.reason) == (want.output, want.reason)


def test_guard_flags_shim_sees_every_write():
    # The fault tests are vacuous unless `_Guards` builds its flags from
    # `runtime.bytearray`: with no fault, the shim must leave each run as
    # pinned and count one clear per executed block.
    for (name, m, label), digest in SCHEDULE_DIGESTS.items():
        mode, _, seed = label.partition(":")
        with faults.guard_flags() as shim:
            trace = run_obfuscated(obfuscate(kernel(name), m, 0),
                                   sched=Schedule(mode, int(seed or 0)))
        assert hashlib.sha256(json.dumps(trace.records).encode()).hexdigest() == digest
        assert len(shim.made) == 1, "the run did not build its flags from runtime.bytearray"
        assert shim.made[0].clears == len(trace.records), (name, m, label)


@pytest.mark.parametrize("mode", ["seq", "sched", "conc"])
def test_trace_names_why_the_run_stopped(mode):
    def run(cfg, budget):
        if mode == "seq":
            return run_sequential(cfg, max_steps=budget)
        return run_obfuscated(obfuscate(cfg, 2, seed=1), sched=Schedule(step_budget=budget),
                              concurrent=mode == "conc")

    for cfg, budget, reason, status in ((kernel("fib"), 10**6, COMPLETED, COMPLETED),
                                        (program(DIV_ZERO), 10**6, TRAP, TRAPPED),
                                        (kernel("fib"), 5, BUDGET, DEADLOCK)):
        trace = run(cfg, budget)
        assert (trace.reason, trace.status) == (reason, status)
        assert json.loads(trace_to_json(trace))["reason"] == reason


def test_schedule_validation():
    with pytest.raises(ValueError):
        Schedule("fifo")
    with pytest.raises(ValueError):
        Schedule(step_budget=0)


def test_trace_json_shape():
    trace = run_sequential(chain(2))
    doc = json.loads(trace_to_json(trace))
    assert (doc["status"], doc["reason"], doc["flag_violations"]) == (COMPLETED, COMPLETED, 0)
    assert doc["output"] == []
    assert doc["records"] == [
        {"step": 0, "thread": "seq", "block": 0},
        {"step": 1, "thread": "seq", "block": 1},
    ]
    trapped = run_sequential(program(DIV_ZERO))
    doc2 = json.loads(trace_to_json(trapped))
    assert doc2["trap_reason"] == "division by zero"

