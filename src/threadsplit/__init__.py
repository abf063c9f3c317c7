"""Control-flow obfuscation by splitting a program's CFG across
cooperating threads that hand control to each other through per-block
guard flags, preserving the original sequential semantics."""

from .ir import BasicBlock, BinOp, Branch, Cfg, ConstAssign, Halt, Jump, Print, validate
from .obfuscate import (
    ObfuscatedProgram,
    Partition,
    ThreadCfg,
    WaitSet,
    check_bijection,
    count_combinations,
    obfuscate,
    partition_blocks,
    program_from_json,
    program_to_json,
)
from .runtime import (
    ExecutionTrace,
    Mutation,
    Schedule,
    run_obfuscated,
    run_sequential,
)
from .textfmt import ParseError, emit_dot_cfg, emit_dot_thread, format_cfg, parse
from .verify import VerifyConfig, VerifyReport, check_algorithm1, check_equivalence, verify_files

__all__ = [
    "BasicBlock", "BinOp", "Branch", "Cfg", "ConstAssign", "Halt", "Jump", "Print",
    "validate",
    "ObfuscatedProgram", "Partition", "ThreadCfg", "WaitSet",
    "check_bijection", "count_combinations", "obfuscate", "partition_blocks",
    "program_from_json", "program_to_json",
    "ExecutionTrace", "Mutation", "Schedule",
    "run_obfuscated", "run_sequential",
    "ParseError", "emit_dot_cfg", "emit_dot_thread", "format_cfg", "parse",
    "VerifyConfig", "VerifyReport", "check_algorithm1", "check_equivalence", "verify_files",
]

__version__ = "0.1.0"
