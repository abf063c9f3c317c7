"""The benchmark in benchmark/ drives threadsplit through its public
functions and checks every result; one short traced run keeps it
working as the package changes."""

import importlib.util
import json
import os
from pathlib import Path

import pytest

from helpers import run_child

RUN = Path(__file__).resolve().parents[1] / "benchmark" / "run.py"


def _layer_times() -> tuple[str, ...]:
    spec = importlib.util.spec_from_file_location("benchmark_run", RUN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYER_TIMES


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                    reason="the benchmark's concurrent runs need 2 cores")
def test_benchmark_traced_verify_sweep_is_correct():
    proc = run_child(str(RUN), "--workload", "verify-sweep", "--seed", "1",
                     "--seconds", "0.001", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
    # Every layer shows up in its own span: work routed around the
    # tracer's wrappers would read as zero.
    metrics = result["metrics"]
    for name in _layer_times():
        assert metrics[f"{name}_s"]["value"] > 0, name


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                    reason="the benchmark's concurrent runs need 2 cores")
def test_benchmark_untraced_compile_large_is_correct():
    # The one tier-1 path through the tampered loads and the wait-set
    # checks that compile-large runs on 2000-block programs.
    proc = run_child(str(RUN), "--workload", "compile-large", "--seed", "1",
                     "--seconds", "0.001", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                    reason="the benchmark's concurrent runs need 2 cores")
def test_benchmark_untraced_conc_handoff_is_correct():
    # The other two workloads run above; this one's input-driven loop
    # and its concurrent runs at m=2 are checked nowhere else in tier-1.
    proc = run_child(str(RUN), "--workload", "conc-handoff", "--seed", "1",
                     "--seconds", "0.001", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
