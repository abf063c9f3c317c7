"""Command-line interface.

Exit codes: 0 success, 1 verification failed, 2 usage, file, or parse
error, 3 program trapped, 4 deadlock.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

from . import ir, textfmt
from .ir import Cfg
from .obfuscate import (
    ObfuscatedProgram,
    count_combinations,
    obfuscate,
    program_from_json,
    program_to_json,
)
from .runtime import (
    BUDGET,
    COMPLETED,
    DEADLOCK,
    DEFAULT_STEP_BUDGET,
    TRAPPED,
    run_obfuscated,
    run_sequential,
    trace_to_json,
)
from .textfmt import ParseError, emit_dot_cfg, emit_dot_thread
from .verify import VerifyConfig, verify_files


class CliError(Exception):
    """`where`, when given, is the file position the message is about;
    the one-line report then reads "where: error: message"."""

    def __init__(self, message: str, code: int = 2, where: str | None = None):
        super().__init__(message)
        self.code = code
        self.where = where


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise CliError(f"file not found: {path}")
    except OSError as e:
        raise CliError(f"cannot read {path}: {e.strerror or e}")
    except UnicodeDecodeError as e:
        raise CliError(f"cannot read {path}: not UTF-8 text (byte offset {e.start})")


def _load_cfg(path: str) -> Cfg:
    try:
        return textfmt.parse(_read_text(path))
    except ParseError as e:
        raise CliError(e.message, where=f"{path}:{e.span}")


def _load_program(path: str, cfg: Cfg) -> ObfuscatedProgram:
    try:
        return program_from_json(_read_text(path), cfg)
    except ValueError as e:
        raise CliError(f"{path}: {e}")


def _parse_defines(pairs: list[str] | None) -> dict[str, int]:
    store: dict[str, int] = {}
    for pair in pairs or []:
        name, sep, text = pair.partition("=")
        if not sep or not ir.is_var_name(name):
            raise CliError(f"bad -D {pair!r}, expected name=value")
        try:
            value = int(text)
        except ValueError:
            raise CliError(f"bad -D {pair!r}, value must be an integer")
        if not ir.INT_MIN <= value <= ir.INT_MAX:
            raise CliError(f"bad -D {pair!r}, value out of 64-bit range")
        store[name] = value
    return store


def _write_text(path: str | Path, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as e:
        raise CliError(f"cannot write {path}: {e.strerror or e}")


def _format_count(m: int, n: int) -> str:
    """m**n in full, or `m^n` when it has more digits than Python turns
    into text (0: no limit, as before Python 3.10.7). The digit count
    comes from n*log10(m) before any power is built, so a huge n answers
    at once; capping n keeps it a float, and at m >= 2 the cap alone is
    past the limit."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and m > 1 and min(n, 4 * limit) * math.log10(m) >= limit:
        return f"{m}^{n} (more than {limit} digits, too long to print)"
    return str(count_combinations(m, n))


def cmd_obfuscate(args) -> int:
    cfg = _load_cfg(args.input)
    try:
        prog = obfuscate(cfg, args.m, args.seed)
    except ValueError as e:
        raise CliError(str(e))
    out = args.out or str(Path(args.input).with_suffix(".obf"))
    _write_text(out, program_to_json(prog))
    print(f"{cfg.name}: n={cfg.n} blocks, m={args.m} threads, seed={args.seed}")
    print(f"possible assignments for this (m, n): {_format_count(args.m, cfg.n)}")
    print(f"wrote {out}")
    return 0


def cmd_run(args) -> int:
    if args.budget < 1:
        raise CliError(f"bad --budget {args.budget}, expected >= 1")
    if args.schedule_seed is not None and args.mode != "sched":
        raise CliError(f"--schedule-seed applies to mode sched only, not {args.mode}")
    if args.obf and args.mode == "seq":
        raise CliError("--obf applies to modes sched and conc only, not seq")
    cfg = _load_cfg(args.input)
    inputs = _parse_defines(args.define)
    if args.mode == "seq":
        trace = run_sequential(cfg, inputs, budget=args.budget)
    else:
        if not args.obf:
            raise CliError(f"--obf is required for mode {args.mode}")
        prog = _load_program(args.obf, cfg)
        t0 = time.perf_counter()
        try:
            trace = run_obfuscated(prog, inputs, budget=args.budget, seed=args.schedule_seed,
                                   concurrent=args.mode == "conc")
        except OSError as e:  # a conc run needs the GIL, m pipes and m-1 threads
            raise CliError(f"cannot run {prog.m} workers: {e.strerror or e}")
        if args.mode == "conc":
            print(f"elapsed {time.perf_counter() - t0:.3f}s", file=sys.stderr)
    for value in trace.output:
        print(value)
    if args.trace_out:
        _write_text(args.trace_out, trace_to_json(trace))
    if trace.status == TRAPPED:
        print(f"trap: {trace.trap_reason}", file=sys.stderr)
        return 3
    if trace.status == DEADLOCK:
        why = "step budget exhausted" if trace.reason == BUDGET else "no worker can advance"
        print(f"deadlock: {why}", file=sys.stderr)
        return 4
    return 0


def cmd_verify(args) -> int:
    try:
        m_values = tuple(int(v) for v in args.m_values.split(","))
    except ValueError:
        raise CliError(f"bad --m-values {args.m_values!r}, expected e.g. 1,2,3,4")
    named = [(Path(p).stem, _load_cfg(p)) for p in args.inputs]
    try:
        config = VerifyConfig(
            m_values=m_values,
            partition_seeds=args.partition_seeds,
            schedule_seeds=args.schedule_seeds,
        )
    except ValueError as e:
        raise CliError(str(e))
    try:
        report = verify_files(named, config, alg1_trials=args.alg1_trials, seed=args.seed)
    except ValueError as e:  # a negative --alg1-trials, or a reference run that does not finish
        raise CliError(str(e))
    print(report.summary())
    if args.report_out:
        _write_text(args.report_out, report.to_json())
    return 0 if report.ok else 1


def cmd_dot(args) -> int:
    cfg = _load_cfg(args.input)
    # Load the artifact before writing anything, so a refused one leaves no file.
    prog = _load_program(args.obf, cfg) if args.obf else None
    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise CliError(f"cannot create {out_dir}: {e.strerror or e}")
    stem = Path(args.input).stem
    path = out_dir / f"{stem}.dot"
    _write_text(path, emit_dot_cfg(cfg))
    print(f"wrote {path}")
    if prog is not None:
        for tcfg in prog.threads:
            path = out_dir / f"{stem}.thread{tcfg.thread_index}.dot"
            _write_text(path, emit_dot_thread(tcfg, cfg))
            print(f"wrote {path}")
    return 0


def cmd_count(args) -> int:
    try:
        print(_format_count(args.m, args.n))
    except ValueError as e:
        raise CliError(str(e))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="threadsplit",
        allow_abbrev=False,
        description="Split a control-flow graph across cooperating threads "
                    "guarded by per-block flags, preserving sequential semantics.",
    )
    # Sub-parsers do not inherit allow_abbrev: each refuses option prefixes itself.
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("obfuscate", allow_abbrev=False,
                       help="partition a program and write the artifact")
    p.add_argument("-i", "--input", required=True, help="source .cfg file")
    p.add_argument("-m", type=int, default=4, help="number of threads (default 4)")
    p.add_argument("--seed", type=int, default=0, help="partition seed (default 0)")
    p.add_argument("-o", "--out", help="output path (default: input with .obf suffix)")
    p.set_defaults(func=cmd_obfuscate)

    p = sub.add_parser("run", allow_abbrev=False, help="execute a program")
    p.add_argument("-i", "--input", required=True, help="source .cfg file")
    p.add_argument("--obf", help="obfuscation artifact (required for sched/conc)")
    p.add_argument("--mode", choices=("seq", "sched", "conc"), default="seq")
    p.add_argument("--schedule-seed", type=int, metavar="N",
                   help="in sched mode, poll the workers in the random order drawn "
                        "from seed N (default: round-robin)")
    p.add_argument("-D", "--define", action="append", metavar="NAME=VALUE",
                   help="preset a variable in the store (repeatable)")
    p.add_argument("--trace-out", help="write the execution trace as JSON")
    p.add_argument("--budget", type=int, default=DEFAULT_STEP_BUDGET,
                   help="executed blocks before giving up, in every mode (default "
                        f"{DEFAULT_STEP_BUDGET}); a run no worker can advance stops at "
                        "once, also with exit 4")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("verify", allow_abbrev=False, help="differential verification sweep")
    p.add_argument("inputs", nargs="+", help="source .cfg files")
    p.add_argument("--m-values", default=",".join(map(str, VerifyConfig.m_values)))
    p.add_argument("--partition-seeds", type=int, default=VerifyConfig.partition_seeds,
                   help="assignments to build for each thread count, from seeds 0..N-1 "
                        f"(default {VerifyConfig.partition_seeds})")
    p.add_argument("--schedule-seeds", type=int, default=VerifyConfig.schedule_seeds,
                   help="random-schedule cases per assignment, from seeds 0..N-1 "
                        f"(default {VerifyConfig.schedule_seeds}); they share the "
                        "round-robin run of a program that passes its structure case")
    p.add_argument("--alg1-trials", type=int, default=100,
                   help="wait-set oracle trials to run alongside the sweep "
                        "(default 100; 0 skips them)")
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--report-out", help="write the full report as JSON")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("dot", allow_abbrev=False, help="render graphs in DOT format")
    p.add_argument("-i", "--input", required=True, help="source .cfg file")
    p.add_argument("--obf", help="also render each thread of this artifact")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_dot)

    p = sub.add_parser("count", allow_abbrev=False,
                       help="print the number of possible assignments")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_count)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except CliError as e:
        print(f"{e.where}: error: {e}" if e.where else f"error: {e}", file=sys.stderr)
        return e.code


if __name__ == "__main__":
    sys.exit(main())
