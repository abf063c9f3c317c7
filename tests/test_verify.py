import json

import pytest

import faults
from helpers import chain, diamond, two_loop
from threadsplit import ir, rng, verify
from threadsplit.kernels import KERNELS, kernel_text
from threadsplit.obfuscate import build_thread_cfg, obfuscate, partition_blocks, wait_set_query
from threadsplit.runtime import COMPLETED, run_sequential
from threadsplit.textfmt import parse
from threadsplit.verify import (
    Alg1Report,
    CaseResult,
    VerifyConfig,
    VerifyReport,
    check_algorithm1,
    check_equivalence,
    oracle_first_inset_reachable,
    random_cfg,
    verify_files,
)


def test_oracle_matches_walk_on_canonical_shapes():
    cases = [
        (chain(5), 1, {1, 3}),
        (chain(2), 0, {0, 1}),
        (chain(5), 4, {0, 2}),
        (two_loop(), 0, {0}),
        (diamond(), 0, {0, 3}),
    ]
    for cfg, bcur, bbset in cases:
        want = oracle_first_inset_reachable(bcur, bbset, cfg)
        succs = ir.successor_map(cfg)
        got = wait_set_query(succs, sorted(bbset))(succs[bcur])
        assert got == tuple(sorted(want))


def test_oracle_single_block_graph():
    cfg = chain(1)
    succs = ir.successor_map(cfg)
    for bbset in (set(), {0}):
        assert oracle_first_inset_reachable(0, bbset, cfg) == set()
        assert wait_set_query(succs, sorted(bbset))(succs[0]) == ()


def test_exhaustive_chains_with_contiguous_subsets():
    # On a chain, the first in-set block past bcur is simply the
    # smallest subset member greater than bcur.
    for n in range(1, 13):
        cfg = chain(n)
        succs = ir.successor_map(cfg)
        for lo in range(n):
            for hi in range(lo + 1, n + 1):
                subset = frozenset(range(lo, hi))
                first_in_subset = wait_set_query(succs, sorted(subset))
                for bcur in range(n):
                    later = {b for b in subset if b > bcur}
                    want = {min(later)} if later else set()
                    assert oracle_first_inset_reachable(bcur, subset, cfg, succs) == want
                    assert first_in_subset(succs[bcur]) == tuple(want)


def test_random_cfg_always_valid():
    r = rng.Rng(123)
    for _ in range(200):
        cfg = random_cfg(r)
        assert 1 <= cfg.n <= 12
        assert ir.validate(cfg) == []


def _random_runs(graphs: int, cap: int = 200):
    """`random_cfg` graphs (seed 2024), each with its reference run
    stopped after `cap` blocks."""
    r = rng.Rng(2024)
    for _ in range(graphs):
        cfg = random_cfg(r)
        yield cfg, run_sequential(cfg, max_steps=cap)


def test_random_cfg_branches_take_both_arms():
    taken = {True: 0, False: 0}
    for cfg, trace in _random_runs(100):
        seq = trace.block_sequence()
        for a, b in zip(seq, seq[1:]):
            term = cfg.blocks[a].term
            if isinstance(term, ir.Branch) and term.iftrue != term.iffalse:
                taken[b == term.iftrue] += 1
    assert min(taken.values()) > sum(taken.values()) / 3


def test_random_cfgs_that_complete_pass_equivalence():
    config = VerifyConfig(m_values=(1, 2, 3), partition_seeds=3, schedule_seeds=2)
    completed = [cfg for cfg, trace in _random_runs(300) if trace.status == COMPLETED]
    assert len(completed) > 100
    for cfg in completed:
        report = check_equivalence(cfg, config)
        assert report.ok, report.summary()


def test_check_algorithm1_small_run():
    report = check_algorithm1(trials=50, max_n=8, seed=5)
    assert report.ok
    assert report.cfgs == 50
    assert report.comparisons > 0


def test_check_algorithm1_deterministic():
    a = check_algorithm1(trials=20, max_n=6, seed=3)
    b = check_algorithm1(trials=20, max_n=6, seed=3)
    assert a.comparisons == b.comparisons
    assert a.ok and b.ok


def test_check_equivalence_small_sweep():
    cfg = parse(kernel_text("evens"))
    config = VerifyConfig(m_values=(1, 2), partition_seeds=3, schedule_seeds=2)
    report = check_equivalence(cfg, config)
    # per (m, pseed): 1 structure + 1 round-robin + 2 random
    assert len(report.cases) == 2 * 3 * 4
    assert report.ok
    labels = {c.schedule for c in report.cases}
    assert labels == {"structure", "round-robin", "random:0", "random:1"}


def test_check_equivalence_rejects_trapping_reference():
    cfg = parse("func f {\n  block a:\n    q = x / zero\n    halt\n}\n")
    with pytest.raises(ValueError):
        check_equivalence(cfg, VerifyConfig(m_values=(1,), partition_seeds=1))


def _dangling() -> ir.Cfg:
    return ir.Cfg("dangling", [ir.BasicBlock(0, "a", [], ir.Jump(5))])


@pytest.mark.parametrize("cfg", [_dangling(), two_loop()], ids=["dangling-edge", "no-exit"])
def test_check_equivalence_rejects_invalid_cfg_before_running(cfg, monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("an invalid cfg was run")

    monkeypatch.setattr(verify, "run_sequential", must_not_run)
    with pytest.raises(ValueError, match="invalid cfg"):
        check_equivalence(cfg)


def test_check_faults_all_detected_on_prime():
    cfg = parse(kernel_text("prime"))
    report = faults.check_faults(cfg, m=3, seed=7)
    assert set(report) == set(faults.HANDOFF_FAULTS)
    for result in report.values():
        assert result["detected"]
        assert result["signals"]


@pytest.mark.parametrize("name", KERNELS)
@pytest.mark.parametrize("m", [2, 3])
def test_handoff_faults_detected_on_every_kernel(name, m):
    report = faults.check_faults(parse(kernel_text(name)), m, seed=0)
    assert [f for f, r in report.items() if not r["detected"]] == []


def test_block_run_off_its_owner_fails_equivalence(monkeypatch):
    # On fib at m=2, seed 3, worker 1 owns every block and worker 0 then
    # waits on block 0 at entry. Where worker 0 takes it first, it adopts
    # the wait lists that follow and runs the whole program, with the
    # status, output and block sequence all right.
    def obfuscate_with_foreign_block(cfg, m, seed):
        return faults.with_fault(obfuscate(cfg, m, seed), faults.FOREIGN_BLOCK)

    monkeypatch.setattr(verify, "obfuscate", obfuscate_with_foreign_block)
    config = VerifyConfig(m_values=(2,), partition_seeds=4, schedule_seeds=3)
    report = check_equivalence(parse(kernel_text("fib")), config)
    failed = {c.schedule: c for c in report.cases if c.partition_seed == 3 and not c.ok}
    assert sorted(failed) == ["random:2", "round-robin"]
    for case in failed.values():
        assert (case.status, case.flag_violations) == (COMPLETED, 0)
        assert case.detail == "step 0: worker 0 ran block 0, owned by worker 1"


def test_dropped_wait_list_member_is_detected():
    # On prime at m=3, seed 7, the run takes the dropped path.
    dropped = faults.DROPPED_MEMBER
    report = faults.check_faults(parse(kernel_text("prime")), 3, 7, [dropped])
    assert report[dropped]["signals"][0] == "status deadlock, expected completed"


def test_verify_files_with_oracle_trials():
    cfg = parse(kernel_text("evens"))
    config = VerifyConfig(m_values=(1, 2), partition_seeds=2, schedule_seeds=1)
    report = verify_files([("evens", cfg)], config, alg1_trials=10)
    assert report.ok
    assert report.alg1 is not None and report.alg1.ok
    assert report.failed == 0
    assert report.passed == len(report.cases)


def test_verify_config_validates_counts():
    with pytest.raises(ValueError):
        VerifyConfig(m_values=())
    with pytest.raises(ValueError):
        VerifyConfig(m_values=(0,))
    with pytest.raises(ValueError):
        VerifyConfig(partition_seeds=0)
    with pytest.raises(ValueError):
        VerifyConfig(schedule_seeds=0)


def test_report_serialization_and_summary():
    report = VerifyReport(cases=[
        CaseResult("p", 2, 0, "round-robin", True, status="completed"),
        CaseResult("p", 2, 1, "random:0", False, "output differs", "completed"),
    ], alg1=Alg1Report(cfgs=3, comparisons=30))
    assert report.passed == 1
    assert report.failed == 1
    assert not report.ok
    text = report.summary()
    assert "FAIL" in text
    assert "output differs" in text
    doc = json.loads(report.to_json())
    assert doc["failed"] == 1
    assert len(doc["cases"]) == 2
    assert doc["alg1"]["comparisons"] == 30


def test_report_all_green_is_pass():
    report = VerifyReport(cases=[CaseResult("p", 1, 0, "round-robin", True)])
    assert report.ok
    assert "PASS" in report.summary()


def test_build_thread_cfg_wait_sets_match_oracle():
    r = rng.Rng(99)
    for _ in range(150):
        cfg = random_cfg(r)
        succs = ir.successor_map(cfg)
        pre_entry = succs + [{cfg.entry}]
        for m in (1, 2, 3, 4, 8):
            for pseed in range(5):
                part = partition_blocks(cfg, m, pseed)
                for t in range(m):
                    tcfg = build_thread_cfg(cfg, part, t, succs)
                    owned = tcfg.owned_blocks
                    want = oracle_first_inset_reachable(cfg.n, owned, cfg, pre_entry)
                    assert tcfg.entry_wait.flags == tuple(sorted(want))
                    for b in owned:
                        want = oracle_first_inset_reachable(b, owned, cfg, succs)
                        assert tcfg.per_block_wait[b].flags == tuple(sorted(want))
