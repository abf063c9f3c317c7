from helpers import chain, diamond, two_loop
from threadsplit import ir
from threadsplit.ir import (
    BasicBlock,
    BinOp,
    Branch,
    Cfg,
    ConstAssign,
    Halt,
    Jump,
    Print,
    validate,
)
from threadsplit.kernels import kernel_text
from threadsplit.obfuscate import obfuscate
from threadsplit.textfmt import parse
from threadsplit.verify import VerifyConfig, check_equivalence


def test_wrap_two_complement():
    assert ir.wrap(0) == 0
    assert ir.wrap(ir.INT_MAX) == ir.INT_MAX
    assert ir.wrap(ir.INT_MAX + 1) == ir.INT_MIN
    assert ir.wrap(ir.INT_MIN - 1) == ir.INT_MAX
    assert ir.wrap(1 << 64) == 0
    assert ir.wrap(-(1 << 64)) == 0


def test_successors_of_halt_is_empty():
    cfg = chain(3)
    assert ir.successor_map(cfg)[2] == set()


def test_successors_of_jump_is_singleton():
    cfg = chain(3)
    assert ir.successor_map(cfg)[0] == {1}


def test_successors_of_branch_same_target_collapses():
    cfg = Cfg("b", [
        BasicBlock(0, "a", [], Branch("c", 1, 1)),
        BasicBlock(1, "b", [], Halt()),
    ])
    assert ir.successor_map(cfg)[0] == {1}


def test_successors_of_branch_two_targets():
    cfg = diamond()
    assert ir.successor_map(cfg)[0] == {1, 2}


def test_validate_minimal_single_block():
    cfg = Cfg("tiny", [BasicBlock(0, "only", [], Halt())])
    assert validate(cfg) == []


def test_validate_dangling_edge():
    cfg = Cfg("bad", [BasicBlock(0, "a", [], Jump(7))])
    errors = validate(cfg)
    assert any("dangling" in e for e in errors)


def test_validate_multiple_exits():
    cfg = Cfg("bad", [
        BasicBlock(0, "a", [], Branch("c", 1, 2)),
        BasicBlock(1, "b", [], Halt()),
        BasicBlock(2, "c", [], Halt()),
    ])
    errors = validate(cfg)
    assert any("multiple exits" in e for e in errors)


def test_validate_no_exit():
    errors = validate(two_loop())
    assert any("no exit" in e for e in errors)


def test_validate_unreachable_block():
    cfg = Cfg("bad", [
        BasicBlock(0, "a", [], Halt()),
        BasicBlock(1, "b", [], Jump(0)),
    ])
    errors = validate(cfg)
    assert any("unreachable" in e for e in errors)


def test_validate_duplicate_label():
    cfg = Cfg("bad", [
        BasicBlock(0, "same", [], Jump(1)),
        BasicBlock(1, "same", [], Halt()),
    ])
    errors = validate(cfg)
    assert any("label" in e for e in errors)


def test_validate_errors_name_their_block():
    def first_block(blocks):
        return validate(Cfg("bad", blocks))[0].block

    # The duplicate, not the first block to carry the label.
    assert first_block([BasicBlock(0, "same", [], Jump(1)),
                        BasicBlock(1, "same", [], Halt())]) == 1
    assert first_block([BasicBlock(0, "a", [], Halt()),
                        BasicBlock(1, "b", [], Jump(0))]) == 1  # unreachable
    assert first_block([BasicBlock(0, "a", [], Jump(1)),
                        BasicBlock(1, "b", [ConstAssign("x", 1 << 63)], Halt())]) == 1
    assert first_block([BasicBlock(0, "a", [], Jump(7))]) == 0  # dangling edge
    assert validate(two_loop())[0].block is None  # no exit
    assert validate(Cfg("empty", []))[0].block is None


def test_validate_const_out_of_range():
    cfg = Cfg("bad", [
        BasicBlock(0, "a", [ConstAssign("x", 1 << 63)], Halt()),
    ])
    errors = validate(cfg)
    assert any("64-bit" in e for e in errors)


def test_validate_unknown_operator():
    cfg = Cfg("bad", [
        BasicBlock(0, "a", [BinOp("x", "a", "@", "b")], Halt()),
    ])
    errors = validate(cfg)
    assert any("operator" in e for e in errors)


def test_validate_bad_variable_name():
    cfg = Cfg("bad", [
        BasicBlock(0, "a", [Print("7up")], Halt()),
    ])
    errors = validate(cfg)
    assert errors


def test_validate_reports_a_shared_invalid_instruction_in_every_block():
    # One object in two blocks, as the parser gives two equal lines.
    for bad, why in ((BinOp("x", "a", "@", "b"), "unknown operator '@'"),
                     (ConstAssign("x", 1 << 63), f"constant {1 << 63} outside 64-bit range")):
        cfg = Cfg("bad", [BasicBlock(0, "a", [bad], Jump(1)),
                          BasicBlock(1, "b", [bad], Halt())])
        assert validate(cfg) == [f"block 0: {why}", f"block 1: {why}"]
        assert [e.block for e in validate(cfg)] == [0, 1]


def test_validate_accepts_a_shared_valid_instruction():
    good = BinOp("x", "x", "+", "y")
    cfg = Cfg("ok", [BasicBlock(0, "a", [good, good], Jump(1)),
                     BasicBlock(1, "b", [good], Halt())])
    assert validate(cfg) == []
    # The id of an object found valid is not taken for another, invalid one.
    cfg.blocks[1].instrs.append(BinOp("x", "x", "@", "y"))
    assert validate(cfg) == ["block 1: unknown operator '@'"]


def test_validate_non_dense_ids():
    cfg = Cfg("bad", [
        BasicBlock(1, "a", [], Halt()),
    ])
    errors = validate(cfg)
    assert errors


def test_binary_ops_frozen_list():
    assert ir.BINARY_OPS == ("+", "-", "*", "/", "%", "<", "<=", "==", "!=")


def test_is_var_name():
    assert ir.is_var_name("x")
    assert ir.is_var_name("loop_cond")
    assert ir.is_var_name("_a1")
    assert not ir.is_var_name("7up")
    assert not ir.is_var_name("")
    assert not ir.is_var_name("a-b")


def test_cfg_problems_are_validated_once(monkeypatch):
    calls = []
    real = ir.validate
    monkeypatch.setattr(ir, "validate", lambda cfg: calls.append(cfg) or real(cfg))
    cfg = parse(kernel_text("prime"))
    obfuscate(cfg, 4, seed=1)
    obfuscate(cfg, 2, seed=2)
    assert check_equivalence(cfg, VerifyConfig(m_values=(2,), partition_seeds=1,
                                               schedule_seeds=1)).ok
    assert calls == [cfg]
    assert cfg.problems == ()
    broken = two_loop()
    assert broken.problems == tuple(validate(broken))
    assert broken.problems[0] == "no exit: no block has a halt terminator"
