"""End-to-end acceptance suite.

Each test checks one headline property of the transformation and prints
a single `ACCEPTANCE <name>: PASS/FAIL` line (visible with `pytest -s`).
The shared sweep fixture runs the full differential matrix once: three
kernels x m in {1,2,3,4} x 25 partition seeds x (round-robin + 10
random schedules), with a structure check per generated partition.
"""

import time

import pytest

from dotcheck import parse_dot
from faults import check_faults
from threadsplit.kernels import KERNELS, kernel_text
from threadsplit.obfuscate import count_combinations, obfuscate
from threadsplit.runtime import run_obfuscated, run_sequential
from threadsplit.textfmt import emit_dot_cfg, emit_dot_thread, format_cfg, parse
from threadsplit.verify import (
    VerifyConfig,
    check_algorithm1,
    verify_files,
)

SWEEP_RUNS = 3 * 4 * 25 * 11
SWEEP_PARTITIONS = 3 * 4 * 25


def _report(name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def corpus():
    return [(name, parse(kernel_text(name))) for name in KERNELS]


@pytest.fixture(scope="module")
def sweep(corpus):
    start = time.perf_counter()
    report = verify_files(corpus, VerifyConfig(), alg1_trials=0)
    return report, time.perf_counter() - start


def test_wait_set_walk_matches_oracle():
    start = time.perf_counter()
    alg1 = check_algorithm1(trials=1000, max_n=12)
    elapsed = time.perf_counter() - start
    ok = not alg1.mismatches and alg1.cfgs == 1000 and elapsed < 10.0
    _report(
        "wait-set-oracle", ok,
        f"{alg1.comparisons} comparisons over {alg1.cfgs} cfgs, "
        f"{len(alg1.mismatches)} mismatches, {elapsed:.1f}s",
    )


def test_equivalence_sweep(sweep):
    report, elapsed = sweep
    runs = [c for c in report.cases if c.schedule != "structure"]
    bad = [c for c in runs if not c.ok]
    ok = not bad and len(runs) == SWEEP_RUNS and elapsed < 60.0
    _report(
        "equivalence-sweep", ok,
        f"{len(runs)} runs, {len(bad)} divergences, {elapsed:.1f}s",
    )


def test_mutual_exclusion(sweep):
    report, _ = sweep
    violations = sum(c.flag_violations for c in report.cases)
    _report("mutual-exclusion", violations == 0, f"{violations} violations")


def test_partition_bijection(sweep):
    report, _ = sweep
    checks = [c for c in report.cases if c.schedule == "structure"]
    bad = [c for c in checks if not c.ok]
    ok = not bad and len(checks) == SWEEP_PARTITIONS
    _report("partition-bijection", ok,
            f"{len(checks)} partitions, {len(bad)} violations")


def test_combination_count():
    oracle = 1
    for _ in range(16):
        oracle *= 4
    value = count_combinations(4, 16)
    ok = value == oracle == 4294967296
    _report("combination-count", ok, f"count_combinations(4, 16) = {value}")


def test_termination_and_mutation_detection(sweep, corpus):
    report, _ = sweep
    runs = [c for c in report.cases if c.schedule != "structure"]
    stuck = [c for c in runs if c.status != "completed"]
    mutations = check_faults(dict(corpus)["prime"], m=3, seed=7)
    undetected = [name for name, r in mutations.items() if not r["detected"]]
    ok = not stuck and not undetected
    _report(
        "termination-and-mutations", ok,
        f"{len(stuck)} non-completing runs; undetected mutations: {undetected or 'none'}",
    )


def test_concurrent_smoke(corpus):
    cfg = dict(corpus)["prime"]
    ref = run_sequential(cfg)
    prog = obfuscate(cfg, 4, seed=42)
    mismatches = 0
    for _ in range(5):
        trace = run_obfuscated(prog, concurrent=True)
        if trace.status != "completed" or trace.output != ref.output:
            mismatches += 1
    _report("concurrent-smoke", mismatches == 0, f"{mismatches} output mismatches in 5 runs")


def test_round_trip_and_dot(corpus):
    problems = []
    for name, cfg in corpus:
        text = format_cfg(cfg)
        again = parse(text)
        if again != cfg or format_cfg(again) != text:
            problems.append(f"{name}: round-trip not a fixed point")
        docs = [emit_dot_cfg(cfg)]
        prog = obfuscate(cfg, 4, seed=7)
        docs += [emit_dot_thread(tcfg, cfg) for tcfg in prog.threads]
        for doc in docs:
            try:
                parse_dot(doc)
            except ValueError as e:
                problems.append(f"{name}: {e}")
    _report("round-trip-and-dot", not problems, "; ".join(problems) or
            f"{len(corpus)} programs round-tripped, DOT checked")
