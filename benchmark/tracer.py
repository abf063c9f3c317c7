"""Spans around calls into threadsplit's layers, recorded from outside.

`Tracer.install` replaces the public functions listed in `LAYER_CALLS`
with timing wrappers in every threadsplit module that holds them, so a
call made by the benchmark and a call one layer makes into another
(for example `obfuscate` into `build_thread_cfg`, or `check_equivalence`
into `run_obfuscated`) both get a span. `Tracer.uninstall` puts the
originals back. Spans and counts stay in memory until `write`.

Nothing here runs while end-to-end metrics are measured.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path


def _concurrent(args, kwargs) -> bool:
    return bool(kwargs.get("concurrent", args[3] if len(args) > 3 else False))


def _obf_span(args, kwargs) -> str:
    return "runtime.conc" if _concurrent(args, kwargs) else "runtime.sched"


def _count_artifact(counts: Counter, args, kwargs, result) -> None:
    counts["obfuscate.artifact_bytes"] += len(result)
    counts["obfuscate.wait_set_flags"] += sum(
        len(t.entry_wait.flags) + sum(len(ws.flags) for ws in t.per_block_wait.values())
        for t in args[0].threads)


def _count_run(counts: Counter, args, kwargs, result) -> None:
    records = result.records
    if not records:
        return
    if _concurrent(args, kwargs):
        # Handoffs are consecutive records on different workers.
        cross = sum(1 for a, b in zip(records, records[1:]) if a[1] != b[1])
        counts["runtime.conc_handoffs"] += cross
        counts["runtime.conc_self_transfers"] += len(records) - 1 - cross
    else:
        # Scheduled records carry the micro-step index, so the steps
        # between two executed blocks were idle polls.
        steps = records[-1][0] + 1
        counts["runtime.sched_steps"] += steps
        counts["runtime.sched_idle_polls"] += steps - len(records)


def _count_cases(counts: Counter, args, kwargs, result) -> None:
    counts["verify.cases"] += len(result.cases)


# (module, function, span name or a function of the call's arguments, counter)
LAYER_CALLS = (
    ("textfmt", "parse", "textfmt.parse", None),
    ("ir", "validate", "ir.validate", None),
    ("obfuscate", "partition_blocks", "obfuscate.partition", None),
    ("obfuscate", "build_thread_cfg", "obfuscate.wait_sets", None),
    ("obfuscate", "obfuscate", "obfuscate.obfuscate", None),
    ("obfuscate", "program_to_json", "obfuscate.to_json", _count_artifact),
    ("obfuscate", "program_from_json", "obfuscate.from_json", None),
    ("runtime", "run_sequential", "runtime.seq", None),
    ("runtime", "run_obfuscated", _obf_span, _count_run),
    ("verify", "check_equivalence", "verify.check_equivalence", _count_cases),
)

MODULES = ("ir", "textfmt", "obfuscate", "runtime", "verify")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name, counter):
        def traced(*args, **kwargs):
            with self.span(name if isinstance(name, str) else name(args, kwargs)):
                result = fn(*args, **kwargs)
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        modules = {m: importlib.import_module(f"threadsplit.{m}") for m in MODULES}
        for owner, attr, name, counter in LAYER_CALLS:
            orig = getattr(modules[owner], attr)
            traced = self._wrap(orig, name, counter)
            for mod in modules.values():
                if getattr(mod, attr, None) is orig:
                    self._restore.append((mod, attr, orig))
                    setattr(mod, attr, traced)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._restore):
            setattr(mod, attr, orig)
        self._restore.clear()

    def total(self, name: str) -> float:
        return sum(end - start for n, start, end, _ in self.spans if n == name)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "spans": [
                {"id": i, "name": n, "parent": p,
                 "start": s - self._t0, "end": e - self._t0}
                for i, (n, s, e, p) in enumerate(self.spans)
            ],
            "counts": dict(self.counts),
        }
        path.write_text(json.dumps(doc) + "\n")
