import json

import pytest

import faults
from helpers import chain, diamond, two_loop
from threadsplit import ir, rng, verify
from threadsplit.kernels import KERNELS, kernel_text
from threadsplit.obfuscate import build_thread_cfg, obfuscate, partition_blocks, wait_set_query
from threadsplit.runtime import COMPLETED, run_obfuscated, run_sequential
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
        yield cfg, run_sequential(cfg, budget=cap)


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


def _unshared_sweep(cfg, config, build=obfuscate):
    """The scheduled cases of `check_equivalence`, each judged on a run of
    its own: (m, partition seed, schedule, ok, detail, status, flag
    violations)."""
    ref = run_sequential(cfg)
    ref_blocks = ref.block_sequence()
    cases = []
    for m in config.m_values:
        for pseed in range(config.partition_seeds):
            prog = build(cfg, m, pseed)
            for seed in (None, *range(config.schedule_seeds)):
                trace = run_obfuscated(prog, budget=len(ref_blocks), seed=seed)
                found = verify._differences(trace, ref, ref_blocks, prog.partition.assign)
                cases.append((m, pseed, "round-robin" if seed is None else f"random:{seed}",
                              not found, found[0] if found else "",
                              trace.status, trace.flag_violations))
    return cases


def _scheduled_cases(report):
    return [(c.m, c.partition_seed, c.schedule, c.ok, c.detail, c.status, c.flag_violations)
            for c in report.cases if c.schedule != "structure"]


def _counted_runs(monkeypatch) -> list:
    """Set `verify.run_obfuscated` to one that lists each run it makes."""
    made = []

    def counted(*args, **kwargs):
        made.append(args[0])
        return run_obfuscated(*args, **kwargs)

    monkeypatch.setattr(verify, "run_obfuscated", counted)
    return made


def test_each_distinct_run_is_made_once(monkeypatch):
    cfg = parse(kernel_text("fib"))
    made = _counted_runs(monkeypatch)
    report = check_equivalence(cfg, VerifyConfig((1, 2, 3), 25, 10))
    drawn = {m: {tuple(partition_blocks(cfg, m, s).assign) for s in range(25)} for m in (2, 3)}
    assert (len(drawn[2]), len(drawn[3])) == (13, 21)
    # Four assignments are drawn at both m=2 and m=3, but the programs
    # differ in their worker count, so each m runs its own.
    assert len(drawn[2] & drawn[3]) == 4
    # At m=1 one run serves every partition seed and schedule.
    assert len(made) == report.runs == 1 + (13 + 21) * 11
    assert len(report.cases) == 3 * 25 * 12 and report.ok
    assert {c.reuses for c in report.cases if c.m == 1 and c.schedule != "structure"} == {
        "", "m=1 pseed=0 sched=round-robin"}
    # Partition seeds 1 and 12 draw the same assignment at m=2.
    shared = [c for c in report.cases if (c.m, c.partition_seed) == (2, 12)
              and c.schedule != "structure"]
    assert [c.reuses for c in shared] == [f"m=2 pseed=1 sched={c.schedule}" for c in shared]
    assert report.summary().splitlines()[0] == (
        f"equivalence cases: 900 passed, 0 failed, from {report.runs} scheduled runs")


def test_shared_verdicts_equal_a_run_per_case():
    kernels = VerifyConfig((1, 2, 3, 4), 6, 3)
    for name in KERNELS:
        cfg = parse(kernel_text(name))
        assert _scheduled_cases(check_equivalence(cfg, kernels)) == _unshared_sweep(cfg, kernels)
    small = VerifyConfig((1, 2, 3), 4, 2)
    completed = [cfg for cfg, trace in _random_runs(120) if trace.status == COMPLETED][:50]
    assert len(completed) == 50
    reused_at_m2_or_more = 0
    for cfg in completed:
        report = check_equivalence(cfg, small)
        assert _scheduled_cases(report) == _unshared_sweep(cfg, small)
        reused_at_m2_or_more += sum(1 for c in report.cases if c.reuses and c.m > 1)
    assert reused_at_m2_or_more > 0


def test_a_fault_on_some_partition_seeds_fails_the_same_cases_when_shared(monkeypatch):
    # fib at m=2: seeds 3 and 21 draw the same assignment, on which the
    # foreign-block fault shows; most other seeds pass under it. The fault
    # needs a block off worker 0, which some seeds do not draw.
    def faulty(cfg, m, seed):
        prog = obfuscate(cfg, m, seed)
        return faults.with_fault(prog, faults.FOREIGN_BLOCK) if any(prog.partition.assign) else prog

    cfg = parse(kernel_text("fib"))
    config = VerifyConfig((2,), 25, 3)
    want = _unshared_sweep(cfg, config, faulty)
    monkeypatch.setattr(verify, "obfuscate", faulty)
    report = check_equivalence(cfg, config)
    assert _scheduled_cases(report) == want
    failed = {(c.partition_seed, c.schedule): c.reuses for c in report.cases if not c.ok}
    assert 0 < len({pseed for pseed, _ in failed}) < 25
    assert failed[21, "round-robin"] == "m=2 pseed=3 sched=round-robin"


def test_foreign_block_fault_refuses_a_program_all_on_worker_0():
    # fib at m=2, partition seed 9, puts every block on worker 0.
    prog = obfuscate(parse(kernel_text("fib")), 2, 9)
    assert set(prog.partition.assign) == {0}
    with pytest.raises(ValueError, match="worker 0 owns every block"):
        faults.with_fault(prog, faults.FOREIGN_BLOCK)


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
    with pytest.raises(ValueError, match=r"^m_values must not repeat, got 1,2,1$"):
        VerifyConfig(m_values=(1, 2, 1))


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
