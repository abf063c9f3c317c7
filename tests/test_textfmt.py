import pytest

from dotcheck import parse_dot
from helpers import chain, diamond
from threadsplit import ir
from threadsplit.ir import BinOp, Branch, ConstAssign, Halt, Jump, Print
from threadsplit.kernels import KERNELS, kernel_text
from threadsplit.obfuscate import Partition, build_program, obfuscate
from threadsplit.textfmt import ParseError, emit_dot_cfg, emit_dot_thread, format_cfg, parse


def test_minimal_one_liner():
    cfg = parse("func f { block a: halt }")
    assert cfg.name == "f"
    assert cfg.n == 1
    assert cfg.entry == 0


def test_block_ids_in_textual_order():
    cfg = parse(
        "func f {\n"
        "  block first:\n"
        "    jump second\n"
        "  block second:\n"
        "    halt\n"
        "}\n"
    )
    assert [b.label for b in cfg.blocks] == ["first", "second"]
    assert cfg.blocks[0].term == Jump(1)


def test_instructions_parse():
    cfg = parse(
        "func f {\n"
        "  block a:\n"
        "    x = 5\n"
        "    neg = -12\n"
        "    y = x + neg\n"
        "    c = y < x\n"
        "    print y\n"
        "    br c, a, b\n"
        "  block b:\n"
        "    halt\n"
        "}\n"
    )
    assert cfg.blocks[0].instrs == [
        ConstAssign("x", 5),
        ConstAssign("neg", -12),
        BinOp("y", "x", "+", "neg"),
        BinOp("c", "y", "<", "x"),
        Print("y"),
    ]
    assert cfg.blocks[0].term == Branch("c", 0, 1)
    assert cfg.blocks[1].term == Halt()


def test_comments_and_blank_lines_ignored():
    cfg = parse(
        "# leading comment\n"
        "\n"
        "func f {  # trailing comment\n"
        "  block a:\n"
        "    x = 1  # set x\n"
        "\n"
        "    halt\n"
        "}\n"
    )
    assert cfg.blocks[0].instrs == [ConstAssign("x", 1)]


def test_branch_missing_label_is_syntax_error():
    src = "func f {\n  block a:\n    x = 1\n    br x, a\n}\n"
    with pytest.raises(ParseError) as ei:
        parse(src)
    assert ei.value.span.line == 4


def test_unknown_label_reports_its_span():
    src = "func f {\n  block a:\n    jump nowhere\n}\n"
    with pytest.raises(ParseError) as ei:
        parse(src)
    assert "nowhere" in ei.value.message
    assert ei.value.span.line == 3


def test_duplicate_label_rejected():
    src = "func f {\n  block a:\n    jump a\n  block a:\n    halt\n}\n"
    with pytest.raises(ParseError) as ei:
        parse(src)
    assert "duplicate" in ei.value.message


def test_constant_out_of_range_rejected():
    src = f"func f {{\n  block a:\n    x = {1 << 63}\n    halt\n}}\n"
    with pytest.raises(ParseError) as ei:
        parse(src)
    assert "64-bit" in ei.value.message


def test_trailing_input_rejected():
    with pytest.raises(ParseError):
        parse("func f { block a: halt } func g { block b: halt }")


def test_missing_terminator_rejected():
    src = "func f {\n  block a:\n    x = 1\n}\n"
    with pytest.raises(ParseError):
        parse(src)


def test_invalid_graph_rejected_after_parse():
    src = "func f {\n  block a:\n    jump a\n}\n"
    with pytest.raises(ParseError) as ei:
        parse(src)
    assert "no exit" in ei.value.message


def test_span_string_format():
    with pytest.raises(ParseError) as ei:
        parse("func f {\n  block a:\n    x = y +\n    halt\n}\n")
    assert str(ei.value.span) == f"{ei.value.span.line}:{ei.value.span.column}"


def _dominators(cfg):
    """Iterative dominator sets; an edge u->v is a back edge iff v
    dominates u."""
    succs = ir.successor_map(cfg)
    n = cfg.n
    preds = [set() for _ in range(n)]
    for u in range(n):
        for v in succs[u]:
            preds[v].add(u)
    dom = [set(range(n)) for _ in range(n)]
    dom[cfg.entry] = {cfg.entry}
    changed = True
    while changed:
        changed = False
        for v in range(n):
            if v == cfg.entry:
                continue
            incoming = [dom[p] for p in preds[v]]
            new = {v} | set.intersection(*incoming) if incoming else {v}
            if new != dom[v]:
                dom[v] = new
                changed = True
    return dom


def test_prime_kernel_has_16_blocks_and_two_loops():
    cfg = parse(kernel_text("prime"))
    assert cfg.n == 16
    dom = _dominators(cfg)
    succs = ir.successor_map(cfg)
    back_edges = [(u, v) for u in range(cfg.n) for v in succs[u] if v in dom[u]]
    loop_heads = {v for _, v in back_edges}
    assert len(loop_heads) == 2


def test_round_trip_fixed_point_on_kernels():
    for name in KERNELS:
        cfg = parse(kernel_text(name))
        text = format_cfg(cfg)
        again = parse(text)
        assert again == cfg
        assert format_cfg(again) == text


def test_round_trip_preserves_negative_constants():
    cfg = parse("func f {\n  block a:\n    x = -9\n    print x\n    halt\n}\n")
    again = parse(format_cfg(cfg))
    assert again.blocks[0].instrs[0] == ConstAssign("x", -9)


# DOT rendering.

def test_dot_cfg_single_block():
    name, nodes, edges = parse_dot(emit_dot_cfg(chain(1)))
    assert len(nodes) == 1
    assert edges == []


def test_dot_cfg_linear_chain():
    _, nodes, edges = parse_dot(emit_dot_cfg(chain(3)))
    assert len(nodes) == 3
    assert len(edges) == 2


def test_dot_cfg_prime_edge_count_matches_successors():
    cfg = parse(kernel_text("prime"))
    _, nodes, edges = parse_dot(emit_dot_cfg(cfg))
    assert len(nodes) == 16
    assert len(edges) == sum(len(s) for s in ir.successor_map(cfg))


def test_dot_cfg_branch_edges_annotated():
    text = emit_dot_cfg(diamond())
    assert '[label="T"]' in text
    assert '[label="F"]' in text


def test_dot_thread_empty_partition_is_three_nodes():
    cfg = chain(2)
    tcfg = build_program(cfg, Partition(2, [0, 0], seed=0)).threads[1]
    _, nodes, edges = parse_dot(emit_dot_thread(tcfg))
    assert set(nodes) == {"entry", "exit", "wait0"}
    assert ("entry", "wait0", "") in edges
    assert ("wait0", "exit", "") in edges


def test_dot_thread_single_block_partition_is_five_nodes():
    cfg = chain(3)
    # Thread 1 owns only the entry block.
    tcfg = build_program(cfg, Partition(2, [1, 0, 0], seed=0)).threads[1]
    _, nodes, _ = parse_dot(emit_dot_thread(tcfg))
    assert set(nodes) == {"entry", "exit", "wait0", "switch0", "b0"}


def test_dot_thread_wait_labels_show_sets_and_done():
    prog = obfuscate(parse(kernel_text("prime")), 4, seed=7)
    for tcfg in prog.threads:
        text = emit_dot_thread(tcfg, prog.source)
        assert "DONE" in text
        parse_dot(text)


def test_dot_thread_four_way_prime_original_nodes_sum_to_16():
    prog = obfuscate(parse(kernel_text("prime")), 4, seed=42)
    total = 0
    for tcfg in prog.threads:
        _, nodes, _ = parse_dot(emit_dot_thread(tcfg))
        total += sum(1 for n in nodes if n.startswith("b"))
    assert total == 16
