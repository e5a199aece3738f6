"""CLI subcommands and exit codes."""

import csv
import os
import struct
import subprocess
import sys

import pytest

from gprm import lang, words as W
from gprm.cli import EXIT_COMPILE, EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, main
from gprm.compiler import compile_text, write_image
from gprm.kernels import standard_registry

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
    n = 1500
    cases = [(os.path.join(PROGRAMS, "three_tasks.gpir"), "42")]
    for k, (text, want) in enumerate([  # a short list, a long one, heads nested n deep
            ("(cons '1 (cons '2 (emptylist)))", "[1, 2]"),
            ("".join(f"(cons '{i} " for i in range(n)) + "(emptylist)" + ")" * n,
             repr(list(range(n)))),
            ("(cons " * n + "'1" + " (emptylist))" * n, "[" * n + "1" + "]" * n)]):
        src = tmp_path / f"list{k}.gpir"
        src.write_text(text + "\n")
        cases.append((str(src), want))
    for src, want in cases:
        img = tmp_path / "p.gprm"
        assert run_cli(capsys, "compile", src, "-o", str(img))[0] == EXIT_OK
        code, ran, _ = run_cli(capsys, "run", str(img), "--threads", "4")
        assert code == EXIT_OK
        code, orc, _ = run_cli(capsys, "oracle", src)
        assert code == EXIT_OK
        assert ran == orc == want


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


@pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
def test_a_bad_gprm_threads_is_a_usage_error(capsys, monkeypatch, value):
    # every command reads the default, so even `oracle` of a .gpir refuses it
    monkeypatch.setenv("GPRM_THREADS", value)
    code, _, err = run_cli(capsys, "oracle", os.path.join(PROGRAMS, "three_tasks.gpir"))
    assert code == EXIT_USAGE
    assert err == f"usage error: GPRM_THREADS must be a positive integer, got {value!r}"


@pytest.mark.parametrize("argv, flag, want", [
    (["--threads", "abc"], "--threads", "comma-separated positive integers"),
    (["--threads", "1,0"], "--threads", "comma-separated positive integers"),
    (["--work", "1,2,3"], "--work", "two comma-separated non-negative integers"),
    (["--work", "1,-1"], "--work", "two comma-separated non-negative integers"),
    (["--size", "-5"], "--size", "a non-negative integer"),
    (["--size", "1.5"], "--size", "a non-negative integer"),
])
def test_a_bad_bench_argument_is_a_usage_error(capsys, argv, flag, want):
    # each of these used to end in a raw traceback, a compile error or a
    # verification failure
    code, out, err = run_cli(capsys, "bench", "listchase", *argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"usage error: argument {flag}: expects {want}, got {argv[1]!r}"


def test_python_dash_m_gprm_runs_the_cli(tmp_path):
    # the package's entry point, in its own process: compile, run and
    # oracle-check an example, then a usage error
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")])))
    env.pop("GPRM_THREADS", None)
    env.pop("GPRM_TRACE", None)

    def gprm(*argv):
        done = subprocess.run([sys.executable, "-m", "gprm", *argv], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=60)
        return done.returncode, done.stdout.strip(), done.stderr.strip()

    src = os.path.join(PROGRAMS, "square_minus_one.gpir")
    code, out, _ = gprm("compile", src, "-o", "sq.gprm", "-t", "2")
    assert code == EXIT_OK and "2 tiles" in out
    assert gprm("run", "sq.gprm") == (EXIT_OK, "24", "")
    assert gprm("oracle", src) == (EXIT_OK, "24", "")
    code, out, err = gprm("frobnicate")
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("usage error: argument command: invalid choice: 'frobnicate'")


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



@pytest.mark.parametrize("words, exit_code, message", [
    ((W.mk_oper(0, 0), W.mk_const(2), W.mk_handle(0)), EXIT_RUNTIME,
     "runtime error: bad argument word kind 5 in r1"),  # refused at boot
    ((), EXIT_COMPILE, "compile error: entry r1 has no words"),  # refused at load
])
def test_run_of_a_corrupt_image_prints_one_error_line(tmp_path, capsys, words, exit_code,
                                                      message):
    img = compile_text("(+ '1 (+ '2 '3))", 1, standard_registry())
    img.code[1] = words
    path = tmp_path / "corrupt.gprm"
    write_image(img, path)
    assert run_cli(capsys, "run", str(path)) == (exit_code, "", message)


def test_run_of_a_version_1_image_prints_one_error_line(tmp_path, capsys):
    # the header of the layout that listed every entry's address and a root word
    path = tmp_path / "v1.gprm"
    path.write_bytes(b"GPRM" + struct.pack("<HHH", 1, 1, 0))
    assert run_cli(capsys, "run", str(path)) == (
        EXIT_COMPILE, "", "compile error: unsupported image version 1")
