import json

import pytest

from dotcheck import parse_dot
from helpers import run_child
from threadsplit.cli import main
from threadsplit.kernels import kernel_text

INPUT_ONLY = (
    "func inp {\n"
    "  block only:\n"
    "    print x\n"
    "    halt\n"
    "}\n"
)

SPIN = (
    "func spin {\n"
    "  block loop:\n"
    "    c = 0\n"
    "    br c, end, loop\n"
    "  block end:\n"
    "    halt\n"
    "}\n"
)

DIV_ZERO = (
    "func boom {\n"
    "  block a:\n"
    "    x = 1\n"
    "    q = x / zero\n"
    "    halt\n"
    "}\n"
)


@pytest.fixture
def kernels(tmp_path):
    paths = {}
    for name in ("evens", "fib", "prime"):
        p = tmp_path / f"{name}.cfg"
        p.write_text(kernel_text(name))
        paths[name] = str(p)
    return paths


def test_count_prime_example(capsys):
    assert main(["count", "4", "16"]) == 0
    assert capsys.readouterr().out.strip() == "4294967296"


def test_count_edge_cases(capsys):
    assert main(["count", "1", "100"]) == 0
    assert capsys.readouterr().out.strip() == "1"
    assert main(["count", "2", "0"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_count_rejects_bad_m(capsys):
    assert main(["count", "0", "5"]) == 2


def test_no_arguments_is_usage_error():
    assert main([]) == 2


def test_obfuscate_writes_artifact(kernels, capsys, tmp_path):
    out = str(tmp_path / "prime.obf")
    rc = main(["obfuscate", "-i", kernels["prime"], "-m", "4", "--seed", "42", "-o", out])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "n=16" in captured
    assert "4294967296" in captured
    doc = json.loads((tmp_path / "prime.obf").read_text())
    assert doc["m"] == 4 and doc["seed"] == 42


def test_obfuscate_default_output_path(kernels, tmp_path):
    assert main(["obfuscate", "-i", kernels["evens"], "-m", "2"]) == 0
    assert (tmp_path / "evens.obf").exists()


def test_obfuscate_missing_input(capsys, tmp_path):
    rc = main(["obfuscate", "-i", str(tmp_path / "nope.cfg")])
    assert rc == 2
    assert "file not found" in capsys.readouterr().err


def test_obfuscate_rejects_m_zero(kernels):
    assert main(["obfuscate", "-i", kernels["evens"], "-m", "0"]) == 2


def test_obfuscate_writes_version_2_without_stride(kernels, capsys, tmp_path):
    out = str(tmp_path / "s.obf")
    assert main(["obfuscate", "-i", kernels["evens"], "-m", "2", "-o", out]) == 0
    doc = json.loads((tmp_path / "s.obf").read_text())
    assert doc["version"] == 2 and "stride" not in doc
    assert "stride" not in capsys.readouterr().out


def test_obfuscate_rejects_stride_option(kernels):
    assert main(["obfuscate", "-i", kernels["evens"], "--stride", "8"]) == 2


def test_parse_error_reports_position(capsys, tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("func f {\n  block a:\n    jump nowhere\n}\n")
    rc = main(["run", "-i", str(bad)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{bad}:3:" in err
    assert "nowhere" in err


def test_run_seq_fib(kernels, capsys):
    assert main(["run", "-i", kernels["fib"]]) == 0
    assert capsys.readouterr().out.strip() == "55"


def test_run_sched_matches_seq(kernels, capsys, tmp_path):
    obf = str(tmp_path / "fib.obf")
    main(["obfuscate", "-i", kernels["fib"], "-m", "3", "-o", obf])
    capsys.readouterr()
    main(["run", "-i", kernels["fib"], "--mode", "seq"])
    seq_out = capsys.readouterr().out
    rc = main(["run", "-i", kernels["fib"], "--obf", obf, "--mode", "sched",
               "--schedule", "random", "--schedule-seed", "3"])
    assert rc == 0
    assert capsys.readouterr().out == seq_out


def test_run_conc_prints_timing_to_stderr(kernels, capsys, tmp_path):
    obf = str(tmp_path / "prime.obf")
    main(["obfuscate", "-i", kernels["prime"], "-m", "4", "-o", obf])
    capsys.readouterr()
    main(["run", "-i", kernels["prime"], "--mode", "seq"])
    seq_out = capsys.readouterr().out
    rc = main(["run", "-i", kernels["prime"], "--obf", obf, "--mode", "conc"])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out == seq_out
    assert "elapsed" in captured.err


def test_run_sched_requires_artifact(kernels):
    assert main(["run", "-i", kernels["fib"], "--mode", "sched"]) == 2


def test_run_rejects_mismatched_artifact(kernels, tmp_path):
    obf = str(tmp_path / "evens.obf")
    main(["obfuscate", "-i", kernels["evens"], "-m", "2", "-o", obf])
    assert main(["run", "-i", kernels["fib"], "--obf", obf, "--mode", "sched"]) == 2


def test_run_defines_seed_the_store(capsys, tmp_path):
    src = tmp_path / "inp.cfg"
    src.write_text(INPUT_ONLY)
    assert main(["run", "-i", str(src)]) == 0
    assert capsys.readouterr().out.strip() == "0"
    assert main(["run", "-i", str(src), "-D", "x=7"]) == 0
    assert capsys.readouterr().out.strip() == "7"


def test_run_rejects_bad_define(tmp_path):
    src = tmp_path / "inp.cfg"
    src.write_text(INPUT_ONLY)
    assert main(["run", "-i", str(src), "-D", "x"]) == 2
    assert main(["run", "-i", str(src), "-D", "x=maybe"]) == 2


def test_run_trap_exit_code(capsys, tmp_path):
    src = tmp_path / "boom.cfg"
    src.write_text(DIV_ZERO)
    rc = main(["run", "-i", str(src)])
    assert rc == 3
    assert "division by zero" in capsys.readouterr().err


def test_run_deadlock_exit_code(capsys, tmp_path):
    src = tmp_path / "spin.cfg"
    src.write_text(SPIN)
    rc = main(["run", "-i", str(src), "--budget", "1000"])
    assert rc == 4
    assert "deadlock" in capsys.readouterr().err


@pytest.mark.parametrize("m", [1, 2])
def test_run_conc_budget_stops_endless_loop(tmp_path, m):
    src, obf, trace = tmp_path / "spin.cfg", tmp_path / "spin.obf", tmp_path / "t.json"
    src.write_text(SPIN)
    assert main(["obfuscate", "-i", str(src), "-m", str(m), "-o", str(obf)]) == 0
    proc = run_child("-m", "threadsplit.cli", "run", "-i", str(src), "--obf", str(obf),
                     "--mode", "conc", "--budget", "1000", "--trace-out", str(trace))
    assert proc.returncode == 4
    assert "deadlock" in proc.stderr
    # The budget counts executed blocks, as in seq mode.
    assert len(json.loads(trace.read_text())["records"]) == 1000


def test_run_budget_means_executed_blocks_in_sched(kernels, capsys, tmp_path):
    obf = str(tmp_path / "prime.obf")
    main(["obfuscate", "-i", kernels["prime"], "-m", "2", "--seed", "0", "-o", obf])
    capsys.readouterr()
    assert main(["run", "-i", kernels["prime"], "--mode", "seq", "--budget", "100"]) == 4
    seq_out = capsys.readouterr().out
    rc = main(["run", "-i", kernels["prime"], "--obf", obf, "--mode", "sched",
               "--budget", "100"])
    captured = capsys.readouterr()
    assert rc == 4
    assert captured.out == seq_out
    assert "deadlock" in captured.err


@pytest.mark.parametrize("mode", ["seq", "sched", "conc"])
def test_run_rejects_nonpositive_budget(kernels, tmp_path, mode):
    obf = str(tmp_path / "fib.obf")
    assert main(["obfuscate", "-i", kernels["fib"], "-m", "2", "-o", obf]) == 0
    for budget in ("0", "-5"):
        assert main(["run", "-i", kernels["fib"], "--obf", obf, "--mode", mode,
                     "--budget", budget]) == 2


def test_run_writes_trace(kernels, tmp_path):
    trace_path = tmp_path / "t.json"
    assert main(["run", "-i", kernels["fib"], "--trace-out", str(trace_path)]) == 0
    doc = json.loads(trace_path.read_text())
    assert doc["status"] == "completed"
    assert doc["records"][0]["block"] == 0


def test_verify_small_sweep(kernels, capsys, tmp_path):
    report_path = tmp_path / "report.json"
    rc = main(["verify", kernels["evens"], "--m-values", "1,2",
               "--partition-seeds", "2", "--schedule-seeds", "2",
               "--alg1-trials", "10", "--report-out", str(report_path)])
    captured = capsys.readouterr().out
    assert rc == 0
    assert "PASS" in captured
    assert json.loads(report_path.read_text())["ok"] is True


def test_verify_rejects_bad_m_values(kernels):
    assert main(["verify", kernels["evens"], "--m-values", "one,two"]) == 2
    assert main(["verify", kernels["evens"], "--m-values", "0,1"]) == 2


def test_verify_requires_corpus():
    assert main(["verify"]) == 2


def test_dot_counts_and_validity(kernels, capsys, tmp_path):
    obf = str(tmp_path / "prime.obf")
    main(["obfuscate", "-i", kernels["prime"], "-m", "4", "-o", obf])
    out_dir = tmp_path / "dots"
    capsys.readouterr()
    rc = main(["dot", "-i", kernels["prime"], "--obf", obf, "--out-dir", str(out_dir)])
    assert rc == 0
    files = sorted(out_dir.glob("*.dot"))
    assert len(files) == 5  # original + one per thread
    owned_total = 0
    for f in files:
        name, nodes, edges = parse_dot(f.read_text())
        assert nodes
        if "thread" in f.name:
            owned_total += sum(1 for n in nodes if n.startswith("b"))
    assert owned_total == 16


def test_dot_original_only(kernels, tmp_path):
    out_dir = tmp_path / "d1"
    assert main(["dot", "-i", kernels["fib"], "--out-dir", str(out_dir)]) == 0
    assert len(list(out_dir.glob("*.dot"))) == 1


def test_dot_m1_writes_two_files(kernels, tmp_path):
    obf = str(tmp_path / "fib.obf")
    main(["obfuscate", "-i", kernels["fib"], "-m", "1", "-o", obf])
    out_dir = tmp_path / "d2"
    assert main(["dot", "-i", kernels["fib"], "--obf", obf, "--out-dir", str(out_dir)]) == 0
    assert len(list(out_dir.glob("*.dot"))) == 2


def test_bench_rejects_zero_repeats(kernels):
    assert main(["bench", "-i", kernels["fib"], "--repeats", "0"]) == 2


def test_bench_reports_slowdown(kernels, capsys):
    rc = main(["bench", "-i", kernels["fib"], "-m", "2", "--repeats", "1",
               "--mode", "sched"])
    captured = capsys.readouterr().out
    assert rc == 0
    assert "slowdown" in captured
    assert "10x-100x" in captured
