"""The lowered executor (`ir.lower`, `runtime._exec_block`) against the
one-op-at-a-time reference in `helpers.reference_binop`, in all three
engines, and the rule that each cfg object is lowered once."""

import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import faults
from helpers import reference_binop
from threadsplit import ir, verify
from threadsplit.cli import main
from threadsplit.ir import BINARY_OPS, INT_MAX, INT_MIN, Branch, Jump, Trap
from threadsplit.kernels import kernel_text
from threadsplit.obfuscate import obfuscate, program_to_json
from threadsplit.runtime import COMPLETED, TRAPPED, run_obfuscated, run_sequential, trace_to_json
from threadsplit.textfmt import parse

ENGINES = ("seq", "sched", "conc")


def run(cfg, inputs, engine, m=3, pseed=5):
    """One run of `cfg` in `engine`; the obfuscated engines run it split
    over `m` workers."""
    if engine == "seq":
        return run_sequential(cfg, inputs)
    prog = obfuscate(cfg, m, pseed)
    return run_obfuscated(prog, inputs, concurrent=engine == "conc")


def reference(blocks, inputs):
    """What a chain of straight-line blocks prints, and the trap that
    stops it, if any: each block a list of ("const", dest, value),
    ("op", dest, lhs, op, rhs) or ("print", src), run with a dict store
    in which a never-assigned name reads 0."""
    store, output = dict(inputs), []
    for body in blocks:
        for kind, *rest in body:
            if kind == "const":
                store[rest[0]] = rest[1]
            elif kind == "op":
                dest, lhs, op, rhs = rest
                try:
                    store[dest] = reference_binop(op, store.get(lhs, 0), store.get(rhs, 0))
                except Trap as t:
                    return output, str(t)
            else:
                output.append(store.get(rest[0], 0))
    return output, None


def chain_text(blocks) -> str:
    lines = ["func chain {"]
    for i, body in enumerate(blocks):
        lines.append(f"  block b{i}:")
        for kind, *rest in body:
            if kind == "const":
                lines.append(f"    {rest[0]} = {rest[1]}")
            elif kind == "op":
                lines.append("    {} = {} {} {}".format(*rest))
            else:
                lines.append(f"    print {rest[0]}")
        lines.append(f"    jump b{i + 1}" if i < len(blocks) - 1 else "    halt")
    lines.append("}")
    return "\n".join(lines) + "\n"


# (op, a, b): the wrap points of +, - and *, the one quotient that
# overflows, its remainder, and comparisons at the ends of the range.
EDGES = (
    ("+", INT_MAX, 1),
    ("-", INT_MIN, 1),
    ("*", INT_MIN, -1),
    ("/", INT_MIN, -1),
    ("%", INT_MIN, -1),
    ("*", INT_MAX, INT_MAX),
    ("<", INT_MIN, INT_MAX),
    ("<=", INT_MAX, INT_MIN),
    ("==", INT_MIN, INT_MIN),
    ("!=", INT_MIN, INT_MAX),
    ("/", -7, 2),
    ("%", -7, 2),
)


@pytest.mark.parametrize("engine", ENGINES)
def test_edges_match_the_reference_in_every_engine(engine):
    # Block i computes edge i from inputs a_i and b_i and prints it, so
    # every handoff carries a value across workers.
    blocks = [[("op", f"r{i}", f"a{i}", op, f"b{i}"), ("print", f"r{i}")]
              for i, (op, _, _) in enumerate(EDGES)]
    inputs = {}
    for i, (_, a, b) in enumerate(EDGES):
        inputs[f"a{i}"], inputs[f"b{i}"] = a, b
    want = [reference_binop(*edge) for edge in EDGES]
    assert want[:5] == [INT_MIN, INT_MAX, INT_MIN, INT_MIN, 0]
    trace = run(parse(chain_text(blocks)), inputs, engine)
    assert trace.status == COMPLETED
    assert trace.output == want
    assert all(type(v) is int for v in trace.output)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("op, trap", [("/", "division by zero"), ("%", "modulo by zero")])
def test_zero_divisor_traps_and_keeps_earlier_prints(engine, op, trap):
    # The trap comes in the third block, after prints in two blocks
    # and in its own.
    blocks = [[("const", "x", 7), ("print", "x")], [("print", "x")],
              [("print", "x"), ("op", "q", "x", op, "zero"), ("print", "q")],
              [("print", "x")]]
    assert reference(blocks, {}) == ([7, 7, 7], trap)
    trace = run(parse(chain_text(blocks)), {}, engine)
    assert trace.status == TRAPPED
    assert trace.trap_reason == trap
    assert trace.output == [7, 7, 7]
    assert trace.block_sequence() == [0, 1, 2]


@pytest.mark.parametrize("engine", ENGINES)
def test_comparisons_store_0_or_1_and_print_as_numbers(engine):
    blocks = [[("const", "x", 3), ("const", "y", 5), ("op", "lt", "x", "<", "y")],
              [("op", "ge", "y", "<=", "x"), ("print", "lt"), ("print", "ge")],
              [("op", "s", "lt", "+", "lt"), ("print", "s")]]
    trace = run(parse(chain_text(blocks)), {}, engine)
    assert trace.output == [1, 0, 2]
    assert [type(v) for v in trace.output] == [int, int, int]
    text = trace_to_json(trace)
    assert json.loads(text)["output"] == [1, 0, 2]
    assert "true" not in text and "false" not in text


GHOST = (
    "func ghost {\n"
    "  block top:\n"
    "    print ghost\n"
    "    br ghost, yes, no\n"
    "  block yes:\n"
    "    x = 1\n"
    "    jump end\n"
    "  block no:\n"
    "    x = 2\n"
    "    jump end\n"
    "  block end:\n"
    "    print x\n"
    "    halt\n"
    "}\n"
)


@pytest.mark.parametrize("engine", ENGINES)
def test_never_assigned_variable_reads_0_and_branches_false(engine):
    trace = run(parse(GHOST), {}, engine, m=2)
    assert trace.output == [0, 2]
    assert trace.block_sequence() == [0, 2, 3]
    # An input of that name takes the true arm.
    trace = run(parse(GHOST), {"ghost": -1}, engine, m=2)
    assert trace.output == [-1, 1]
    assert trace.block_sequence() == [0, 1, 3]


@pytest.mark.parametrize("engine", ENGINES)
def test_an_input_the_program_never_mentions_is_ignored(engine):
    cfg = parse(GHOST)
    plain = run(cfg, {}, engine, m=2)
    extra = run(cfg, {"nowhere": 5, "ghost": 0}, engine, m=2)
    assert (extra.output, extra.records) == (plain.output, plain.records)
    assert "nowhere" not in cfg.code.slots
    assert sorted(cfg.code.slots) == ["ghost", "x"]


@pytest.mark.parametrize("mode", ENGINES)
def test_run_define_of_an_unmentioned_name_is_ignored(mode, capsys, tmp_path):
    src, obf = tmp_path / "ghost.cfg", tmp_path / "ghost.obf"
    src.write_text(GHOST)
    obf.write_text(program_to_json(obfuscate(parse(GHOST), 2, 1)))
    args = ["run", "-i", str(src), "--mode", mode] + (["--obf", str(obf)] if mode != "seq" else [])
    assert main(args + ["-D", "nowhere=5"]) == 0
    assert capsys.readouterr().out.split() == ["0", "2"]
    assert main(args + ["-D", "nowhere=5", "-D", "ghost=3"]) == 0
    assert capsys.readouterr().out.split() == ["3", "1"]


NAMES = ("x", "y", "z", "w")
INSTRS = st.one_of(
    st.tuples(st.just("const"), st.sampled_from(NAMES),
              st.sampled_from([INT_MIN, INT_MAX, -1, 0, 1, 2, 3])
              | st.integers(INT_MIN, INT_MAX)),
    st.tuples(st.just("op"), st.sampled_from(NAMES), st.sampled_from(NAMES),
              st.sampled_from(BINARY_OPS), st.sampled_from(NAMES)),
    st.tuples(st.just("print"), st.sampled_from(NAMES)),
)
BLOCKS = st.lists(st.lists(INSTRS, max_size=4), min_size=1, max_size=6)
VALUES = st.sampled_from([INT_MIN, INT_MAX, -1, 0, 1]) | st.integers(INT_MIN, INT_MAX)


@settings(max_examples=40, deadline=None)
@given(blocks=BLOCKS, inputs=st.dictionaries(st.sampled_from(NAMES + ("v",)), VALUES),
       m=st.integers(1, 3), pseed=st.integers(0, 50))
def test_random_chains_match_the_reference_in_every_engine(blocks, inputs, m, pseed):
    # A small name pool makes equal lines, which the parser shares and
    # the lowering lowers once; "v" is an input no program mentions.
    want, trap = reference(blocks, inputs)
    cfg = parse(chain_text(blocks))
    for engine in ENGINES:
        trace = run(cfg, inputs, engine, m, pseed)
        assert trace.output == want, engine
        assert trace.status == (TRAPPED if trap else COMPLETED), engine
        assert trace.trap_reason == trap, engine


@pytest.fixture
def lowered(monkeypatch):
    """Every cfg that `ir.lower` is called on, in call order."""
    seen, real = [], ir.lower

    def counted(cfg):
        seen.append(cfg)
        return real(cfg)

    monkeypatch.setattr(ir, "lower", counted)
    return seen


def test_each_cfg_is_lowered_once(lowered):
    cfg = parse(kernel_text("fib"))
    ref = run_sequential(cfg)
    prog2, prog3 = obfuscate(cfg, 2, 1), obfuscate(cfg, 3, 4)
    for trace in (run_obfuscated(prog2), run_obfuscated(prog3, seed=7),
                  run_obfuscated(prog2, concurrent=True),
                  run_obfuscated(prog3, concurrent=True)):
        assert trace.records and trace.output == ref.output
    config = verify.VerifyConfig(m_values=(1, 2), partition_seeds=2, schedule_seeds=1)
    assert verify.check_equivalence(cfg, config).ok
    assert list(map(id, lowered)) == [id(cfg)]
    code = cfg.code
    assert run_sequential(cfg).output == ref.output and cfg.code is code


def test_a_derived_cfg_gets_its_own_lowering(lowered):
    cfg = parse(kernel_text("fib"))
    ref = run_sequential(cfg)
    prog = obfuscate(cfg, 2, 1)
    # The wrong-successor fault runs a shifted copy, whose jumps and
    # branches go elsewhere: it must not run the parent's lowering.
    faulty = faults.with_fault(prog, faults.WRONG_SUCCESSOR)
    bad = run_obfuscated(faulty, budget=len(ref.records))
    assert bad.block_sequence() != ref.block_sequence()
    assert faulty.source.code is not cfg.code
    for blk, (_, _, iftrue, iffalse) in zip(faulty.source.blocks, faulty.source.code.blocks):
        if isinstance(blk.term, Branch):
            assert (iftrue, iffalse) == (blk.term.iftrue, blk.term.iffalse)
        elif isinstance(blk.term, Jump):
            assert iftrue == blk.term.target
    same = replace(cfg)
    assert run_sequential(same).records == ref.records
    assert same.code is not cfg.code
    # Identity, not equality: `same == cfg` holds field by field.
    assert list(map(id, lowered)) == [id(cfg), id(faulty.source), id(same)]
    # Its first use lowered each one, and none of them again.
    assert run_sequential(cfg).records == ref.records
    assert len(lowered) == 3


def test_shared_instruction_objects_share_one_lowered_tuple():
    text = (
        "func shared {\n"
        "  block a:\n"
        "    t = t + one\n"
        "    print t\n"
        "    jump b\n"
        "  block b:\n"
        "    t = t + one\n"
        "    print t\n"
        "    halt\n"
        "}\n"
    )
    cfg = parse(text)
    a, b = cfg.blocks
    assert a.instrs[0] is b.instrs[0]  # the parser shares equal lines
    code = cfg.code
    assert code.blocks[0][0][0] is code.blocks[1][0][0]
    assert code.slots == {"t": 0, "one": 1}
    assert run_sequential(cfg, {"one": 2}).output == [2, 4]
