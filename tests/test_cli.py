import errno
import json
import os
import re
import shlex
import sys
from pathlib import Path

import pytest

from dotcheck import parse_dot
from helpers import chain, run_child
from threadsplit import cli, runtime
from threadsplit.cli import build_parser, main
from threadsplit.kernels import kernel_text
from threadsplit.runtime import NO_FLAG, ExecutionTrace
from threadsplit.textfmt import format_cfg

README = Path(__file__).resolve().parents[1] / "README.md"

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


@pytest.mark.parametrize("n", [5000, 10_000_000])
def test_count_too_long_to_print_is_m_caret_n(capsys, n):
    assert main(["count", "10", str(n)]) == 0
    assert capsys.readouterr().out.startswith(f"10^{n} (")


def test_count_prints_in_full_up_to_the_digit_limit(capsys):
    limit = sys.get_int_max_str_digits()
    assert main(["count", "10", str(limit - 1)]) == 0
    assert capsys.readouterr().out.strip() == "1" + "0" * (limit - 1)
    assert main(["count", "10", str(limit)]) == 0
    assert capsys.readouterr().out.startswith(f"10^{limit} (")


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


def test_obfuscate_with_count_too_long_to_print(capsys, tmp_path):
    src = tmp_path / "long.cfg"
    src.write_text(format_cfg(chain(4301)))
    assert main(["obfuscate", "-i", str(src), "-m", "10"]) == 0
    assert "possible assignments for this (m, n): 10^4301 (" in capsys.readouterr().out
    assert (tmp_path / "long.obf").exists()


def test_parse_error_reports_position(capsys, tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("func f {\n  block a:\n    jump nowhere\n}\n")
    rc = main(["run", "-i", str(bad)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{bad}:3:" in err
    assert "nowhere" in err


def test_validation_error_names_the_block_line(capsys, tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("func f {\n  block a:\n    jump c\n  block b:\n    halt\n"
                   "  block c:\n    halt\n}\n")
    assert main(["run", "-i", str(bad)]) == 2
    assert capsys.readouterr().err == f"{bad}:4:9: error: multiple exits: blocks [1, 2] all halt\n"


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
    assert "deadlock: step budget exhausted" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "verify", "dot", "obfuscate"])
def test_a_cfg_that_is_not_utf8_is_a_file_error(capsys, tmp_path, command):
    src = tmp_path / "fib.cfg"
    src.write_bytes(kernel_text("fib").encode() + b"\xff\n")
    offset = len(kernel_text("fib").encode())
    argv = {"run": ["run", "-i", str(src)],
            "verify": ["verify", str(src)],
            "dot": ["dot", "-i", str(src), "--out-dir", str(tmp_path)],
            "obfuscate": ["obfuscate", "-i", str(src)]}[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: cannot read {src}: not UTF-8 text (byte offset {offset})"]


def test_run_conc_that_cannot_open_its_pipes_is_an_error(kernels, capsys, monkeypatch,
                                                          tmp_path):
    obf = str(tmp_path / "fib.obf")
    assert main(["obfuscate", "-i", kernels["fib"], "-m", "4", "-o", obf]) == 0
    capsys.readouterr()
    real, opened = runtime.os.pipe, []

    def second_fails():
        if opened:
            raise OSError(errno.EMFILE, "Too many open files")
        opened.append(real())
        return opened[-1]

    monkeypatch.setattr(runtime.os, "pipe", second_fails)
    assert main(["run", "-i", kernels["fib"], "--obf", obf, "--mode", "conc"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: cannot run 4 workers: Too many open files"]


def test_run_conc_that_cannot_start_its_threads_is_an_error(kernels, capsys, monkeypatch,
                                                            tmp_path):
    obf = str(tmp_path / "fib.obf")
    assert main(["obfuscate", "-i", kernels["fib"], "-m", "4", "-o", obf]) == 0
    capsys.readouterr()
    real, opened = runtime.os.pipe, []

    def recorded():
        opened.extend(real())
        return opened[-2:]

    def refused(*args):
        raise RuntimeError("can't start new thread")

    monkeypatch.setattr(runtime.os, "pipe", recorded)
    monkeypatch.setattr(runtime._thread, "start_new_thread", refused)
    cpus = os.sched_getaffinity(0)
    assert main(["run", "-i", kernels["fib"], "--obf", obf, "--mode", "conc"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: cannot run 4 workers: cannot start worker 1: can't start new thread"]
    assert len(opened) == 8
    for fd in opened:
        with pytest.raises(OSError):
            os.fstat(fd)
    assert os.sched_getaffinity(0) == cpus


def test_run_conc_without_the_gil_is_an_error(kernels, capsys, monkeypatch, tmp_path):
    obf = str(tmp_path / "fib.obf")
    assert main(["obfuscate", "-i", kernels["fib"], "-m", "4", "-o", obf]) == 0
    capsys.readouterr()
    real, opened, started = runtime.os.pipe, [], []

    def recorded():
        opened.extend(real())
        return opened[-2:]

    def refused(*args):
        started.append(args)
        raise RuntimeError("can't start new thread")

    monkeypatch.setattr(sys, "_is_gil_enabled", lambda: False, raising=False)
    monkeypatch.setattr(runtime.os, "pipe", recorded)
    monkeypatch.setattr(runtime._thread, "start_new_thread", refused)
    assert main(["run", "-i", kernels["fib"], "--obf", obf, "--mode", "conc"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: cannot run 4 workers: concurrent mode needs the GIL, "
        "and this Python runs without it"]
    assert (opened, started) == ([], [])
    # Only `conc` runs threads; the scheduled engine needs no GIL.
    assert main(["run", "-i", kernels["fib"], "--obf", obf, "--mode", "sched"]) == 0


def test_run_conc_lets_a_worker_error_through(kernels, capsys, monkeypatch, tmp_path):
    obf = str(tmp_path / "fib.obf")
    assert main(["obfuscate", "-i", kernels["fib"], "-m", "2", "-o", obf]) == 0

    def fail(*args):
        raise RuntimeError("worker failed")

    monkeypatch.setattr(runtime, "_exec_block", fail)
    with pytest.raises(RuntimeError, match="worker failed"):
        main(["run", "-i", kernels["fib"], "--obf", obf, "--mode", "conc"])


def test_run_names_a_stop_before_the_budget(kernels, capsys, monkeypatch, tmp_path):
    obf = str(tmp_path / "fib.obf")
    assert main(["obfuscate", "-i", kernels["fib"], "-m", "2", "-o", obf]) == 0
    capsys.readouterr()
    stopped = ExecutionTrace(records=[(0, 0, 0)], reason=NO_FLAG)
    monkeypatch.setattr(cli, "run_obfuscated", lambda *args, **kwargs: stopped)
    rc = main(["run", "-i", kernels["fib"], "--obf", obf, "--mode", "sched",
               "--budget", "1000"])
    assert rc == 4
    err = capsys.readouterr().err
    assert "deadlock: no worker can advance" in err
    assert "budget" not in err


@pytest.mark.parametrize("m", [1, 2])
def test_run_conc_budget_stops_endless_loop(tmp_path, m):
    src, obf, trace = tmp_path / "spin.cfg", tmp_path / "spin.obf", tmp_path / "t.json"
    src.write_text(SPIN)
    assert main(["obfuscate", "-i", str(src), "-m", str(m), "-o", str(obf)]) == 0
    proc = run_child("-m", "threadsplit.cli", "run", "-i", str(src), "--obf", str(obf),
                     "--mode", "conc", "--budget", "1000", "--trace-out", str(trace))
    assert proc.returncode == 4
    assert "deadlock: step budget exhausted" in proc.stderr
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


def test_verify_rejects_a_reference_run_that_traps(capsys, tmp_path):
    src = tmp_path / "boom.cfg"
    src.write_text("func boom {\n  block a:\n    z = 0\n    y = x / z\n    halt\n}\n")
    assert main(["verify", str(src), "--alg1-trials", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "error: reference run of boom did not complete: trapped"]


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


def test_bench_is_not_a_command(kernels):
    assert main(["bench", "-i", kernels["fib"]]) == 2


def test_readme_commands_parse():
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.DOTALL)
    lines = [line for block in blocks for line in block.splitlines()
             if line.startswith("threadsplit ")]
    assert lines
    parser = build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")
