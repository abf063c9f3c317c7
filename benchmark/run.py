"""Benchmark for threadsplit: one command, three workloads.

    python3 benchmark/run.py --workload compile-large --seed 1 --seconds 10 --trace 0

Runs from the root of a source checkout with no install step: it puts
the checkout's `src` first on `sys.path`. With `--trace 0` it measures
the end-to-end metrics; with `--trace 1` it runs each round without and
then with spans, reports per-layer metrics and the tracing overhead,
and writes the spans to `benchmark/out/`. The last line of stdout is
one JSON object: correct, attempted, failed and metrics. The exit code
is 1 when an output check fails and 2 when the checkout is unusable.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 3

# Per-layer metrics: span totals and counts, each per round.
LAYER_TIMES = ("textfmt.parse", "ir.validate", "obfuscate.partition", "obfuscate.wait_sets",
               "obfuscate.to_json", "obfuscate.from_json", "runtime.seq", "runtime.sched",
               "runtime.conc", "verify.check_equivalence")
LAYER_COUNTS = {
    "obfuscate.wait_set_flags": "flags/round",
    "obfuscate.artifact_bytes": "B/round",
    "runtime.sched_steps": "steps/round",
    "runtime.sched_idle_polls": "polls/round",
    "runtime.conc_handoffs": "handoffs/round",
    "runtime.conc_self_transfers": "transfers/round",
    "verify.cases": "cases/round",
}


def _median_rate(samples: list) -> float:
    """Median over rounds of work per second, each scaled by the host
    slowness measured around it (see workloads.host_slowness)."""
    return statistics.median(n / s * slow for n, s, slow in samples)


def _round(wl, st, tr) -> None:
    t0 = time.perf_counter()
    with tr.span("bench.round"):
        wl.round(st.rounds, st, tr)
    st.wall_s += time.perf_counter() - t0
    st.rounds += 1


def end_to_end(st, setup_s: float) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "compile_blocks_per_s": (_median_rate(st.compile), "blocks/s"),
        "load_blocks_per_s": (_median_rate(st.load), "blocks/s"),
        "artifact_bytes_per_block": (st.artifact_bytes / st.artifact_blocks, "B/block"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "obf_run_blocks_per_s": (_median_rate(st.conc), "blocks/s"),
        "verify_cases_per_s": (_median_rate(st.verify), "cases/s"),
    }


def per_layer(tracer, st, untraced_wall_s: float) -> dict:
    r = st.rounds
    out = {f"{name}_s": (tracer.total(name) / r, "s/round") for name in LAYER_TIMES}
    out.update({name: (tracer.counts[name] / r, unit) for name, unit in LAYER_COUNTS.items()})
    handoffs = tracer.counts["runtime.conc_handoffs"]
    out["runtime.conc_us_per_handoff"] = (
        tracer.total("runtime.conc") / max(handoffs, 1) * 1e6, "us")
    out["runtime.conc_slowdown"] = (st.pair_conc_s / st.pair_seq_s, "x")
    out["trace.overhead_pct"] = ((st.wall_s / untraced_wall_s - 1) * 100, "%")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "threadsplit" / "__init__.py").is_file():
        print(f"error: no threadsplit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import workloads as W  # imports threadsplit
    from tracer import Tracer
    import_s = time.perf_counter() - t0

    if args.workload not in W.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(W.WORKLOADS)}", file=sys.stderr)
        return 2
    cores = len(os.sched_getaffinity(0))
    if cores < W.CONC_M:
        print(f"error: the concurrent runs start {W.CONC_M} threads, "
              f"but only {cores} cores are available", file=sys.stderr)
        return 2

    wl = W.WORKLOADS[args.workload](args.seed)
    st = W.Stats()
    metrics: dict = {}
    correct = True
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            with W.Timed() as t:
                wl.setup()
            setups.append((import_s + t.seconds) / t.slowness)
        start = time.perf_counter()
        if not args.trace:
            while time.perf_counter() - start < args.seconds:
                _round(wl, st, W.NoTrace())
            metrics = end_to_end(st, statistics.median(setups))
        else:
            # Each round runs untraced, then again traced, so the two
            # sides do the same work under the same conditions.
            traced = W.Stats()
            tracer = Tracer()
            while time.perf_counter() - start < args.seconds:
                _round(wl, st, W.NoTrace())
                tracer.install()
                try:
                    _round(wl, traced, tracer)
                finally:
                    tracer.uninstall()
            tracer.write(HERE / "out" / f"spans-{args.workload}-seed{args.seed}.json")
            metrics = per_layer(tracer, traced, st.wall_s)
            st.attempted += traced.attempted
            st.failed += traced.failed
    except W.CheckFailed as e:
        print(f"check failed: {e}", file=sys.stderr)
        correct = False

    slowness = [x[2] for x in st.compile + st.load + st.verify]
    print(f"{args.workload} seed={args.seed} rounds={st.rounds} cores={cores} "
          f"python={sys.version.split()[0]} "
          f"host_slowness={statistics.median(slowness) if slowness else float('nan'):.3f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    print(f"  attempted={st.attempted} failed={st.failed}")
    print(json.dumps({
        "correct": correct,
        "attempted": st.attempted,
        "failed": st.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
