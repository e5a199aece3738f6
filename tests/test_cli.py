"""CLI subcommands and exit codes."""

import csv
import os

import pytest

from gprm import lang
from gprm.cli import EXIT_COMPILE, EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PROGRAMS = os.path.join(ROOT, "programs")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out.strip(), out.err.strip()


def test_compile_three_tasks_example(tmp_path, capsys):
    out = tmp_path / "p41.gprm"
    code, stdout, _ = run_cli(capsys, "compile",
                              os.path.join(PROGRAMS, "three_tasks.gpir"),
                              "-o", str(out), "-t", "4")
    assert code == EXIT_OK
    assert "3 code entries" in stdout
    assert out.exists()


def test_run_equals_oracle(tmp_path, capsys):
    src = os.path.join(PROGRAMS, "three_tasks.gpir")
    img = tmp_path / "p.gprm"
    assert run_cli(capsys, "compile", src, "-o", str(img))[0] == EXIT_OK
    code, ran, _ = run_cli(capsys, "run", str(img), "--threads", "4")
    assert code == EXIT_OK
    code, orc, _ = run_cli(capsys, "oracle", src)
    assert code == EXIT_OK
    assert ran == orc == "42"


def test_oracle_on_a_deep_program(tmp_path, capsys):
    depth = 5000
    src = tmp_path / "deep.gpir"
    src.write_text("(+ '1 " * depth + "'2" + ")" * depth + "\n")
    assert run_cli(capsys, "oracle", str(src)) == (EXIT_OK, str(depth + 2), "")


def test_run_with_args_and_trace(tmp_path, capsys):
    src = tmp_path / "add.gpir"
    src.write_text("(+ (ctrl.arg '0) (ctrl.arg '1))\n")
    img = tmp_path / "add.gprm"
    assert run_cli(capsys, "compile", str(src), "-o", str(img), "-t", "2")[0] == EXIT_OK
    trace = tmp_path / "t.log"
    code, out, _ = run_cli(capsys, "run", str(img), "--arg", "30", "--arg", "12",
                           "--trace", str(trace))
    assert code == EXIT_OK
    assert out == "42"
    assert trace.exists() and trace.read_text().count("REQ") >= 1


def test_run_prints_a_lambda_result(tmp_path, capsys):
    src = tmp_path / "lam.gpir"
    src.write_text("(lambda 'x '(+ x '1))\n")
    img = tmp_path / "lam.gprm"
    assert run_cli(capsys, "compile", str(src), "-o", str(img))[0] == EXIT_OK
    assert run_cli(capsys, "run", str(img)) == (EXIT_OK, "<lambda>", "")


def test_compile_gpc_source(tmp_path, capsys):
    img = tmp_path / "c.gprm"
    code, _, _ = run_cli(capsys, "compile", os.path.join(PROGRAMS, "compute.gpc"),
                         "-o", str(img), "-t", "4")
    assert code == EXIT_OK
    code, out, _ = run_cli(capsys, "run", str(img), "--arg", "7")
    assert code == EXIT_OK
    # stub kernels sum integer args: m1(7)=7, m1'(7)=7... t1.m2(7,7)=14
    assert out == "14"


def test_compile_dump(tmp_path, capsys):
    img = tmp_path / "d.gprm"
    code, out, _ = run_cli(capsys, "compile", os.path.join(PROGRAMS, "three_tasks.gpir"),
                           "-o", str(img), "--dump")
    assert code == EXIT_OK
    assert "r0 => (t1.m2" in out


def test_usage_errors(capsys):
    assert run_cli(capsys, "frobnicate")[0] == EXIT_USAGE
    assert run_cli(capsys, "run")[0] == EXIT_USAGE
    assert run_cli(capsys)[0] == EXIT_USAGE


def test_compile_error_exit(tmp_path, capsys):
    bad = tmp_path / "bad.gpir"
    bad.write_text("('42)\n")
    code, _, err = run_cli(capsys, "compile", str(bad))
    assert code == EXIT_COMPILE
    assert "compile error" in err


def test_runtime_error_exit(tmp_path, capsys):
    src = tmp_path / "arg.gpir"
    src.write_text("(ctrl.arg '5)\n")
    img = tmp_path / "arg.gprm"
    run_cli(capsys, "compile", str(src), "-o", str(img))
    code, _, err = run_cli(capsys, "run", str(img))
    assert code == EXIT_RUNTIME
    assert "out of range" in err


def test_missing_file_exit(capsys):
    assert run_cli(capsys, "compile", "/nonexistent/x.gpir")[0] == EXIT_RUNTIME


def test_help_exits_zero(capsys):
    assert run_cli(capsys, "-h")[0] == EXIT_OK


def test_bench_cli_rows(tmp_path, capsys):
    out = tmp_path / "lc.csv"
    code, stdout, _ = run_cli(capsys, "bench", "listchase", "--size", "20",
                              "--threads", "1,2", "--reps", "3", "--work", "0,3",
                              "--csv", str(out))
    assert code == EXIT_OK
    with open(out) as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 2
    assert rows[0]["benchmark"] == "listchase"
    assert stdout.splitlines()[0].startswith("benchmark,")


def test_env_config(tmp_path, capsys, monkeypatch):
    src = tmp_path / "p.gpir"
    src.write_text("(+ '1 '2)\n")
    img = tmp_path / "p.gprm"
    monkeypatch.setenv("GPRM_THREADS", "2")
    code, out, _ = run_cli(capsys, "compile", str(src), "-o", str(img))
    assert code == EXIT_OK and "2 tiles" in out
    trace = tmp_path / "env.log"
    monkeypatch.setenv("GPRM_TRACE", str(trace))
    code, out, _ = run_cli(capsys, "run", str(img))
    assert code == EXIT_OK and out == "3"
    assert trace.exists()


def test_bench_mergesort_cli(tmp_path, capsys):
    out = tmp_path / "ms.csv"
    code, _, _ = run_cli(capsys, "bench", "mergesort", "--size", "2048",
                         "--threads", "1,2,4", "--reps", "3", "--csv", str(out))
    assert code == EXIT_OK
    with open(out) as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 3  # one row per thread count


def test_compile_of_an_oversized_entry_exits_2_and_writes_nothing(tmp_path, capsys):
    # an entry's word count is a u16 in the image
    src = tmp_path / "wide.gpir"
    src.write_text("(t1.m1" + " '1" * 70000 + ")\n")
    img = tmp_path / "wide.gprm"
    code, _, err = run_cli(capsys, "compile", str(src), "-o", str(img))
    assert code == EXIT_COMPILE
    assert "at most 65535" in err
    assert not img.exists()


@pytest.mark.parametrize("command", ["compile", "oracle"])
def test_cli_parses_each_source_once(tmp_path, capsys, monkeypatch, command):
    src = tmp_path / "p.gpir"
    src.write_text("(t1.m2 (t2.m3 '42) (+ '1 '2))\n")
    calls = []
    parse = lang.parse
    monkeypatch.setattr(lang, "parse", lambda text: calls.append(text) or parse(text))
    argv = [command, str(src)] + (["-o", str(tmp_path / "p.gprm")] if command == "compile" else [])
    assert run_cli(capsys, *argv)[0] == EXIT_OK
    assert len(calls) == 1
