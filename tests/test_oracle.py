"""The sequential oracle vs hand values and vs the parallel machine."""

import random
import sys

import numpy as np
import pytest

from gprm import lang, oracle
from gprm.compiler import compile_text
from gprm.kernels import KernelError, UnknownServiceError, is_list, materialize
from gprm.oracle import OracleError, evaluate
from gprm.vm import Machine, TaskError

from conftest import ProgramGen, execute, fresh_registry


def norm(v):
    return materialize(v) if is_list(v) else v


def seq(text, args=(), data=()):
    return norm(evaluate(text, fresh_registry(), host_args=args, data=data))


def agree(text, want, args=(), data=()):
    """The oracle, and the machine on 1 and 2 threads, all give `want`."""
    assert seq(text, args, data) == want
    for threads in (1, 2):
        assert norm(execute(text, threads=threads, args=args, data=data)) == want


@pytest.mark.parametrize("text,want", [
    ("(+ '2 '3)", 5),
    ("(* (- '5 '1) (+ '5 '1))", 24),
    ("(beta (lambda 'x '(* (- x '1) (+ x '1))) '5)", 24),
    ("(if (>= '3 '3) ''1 ''0)", 1),
    ("(if '0 '(+ '1 '2) '(* '2 '2))", 4),
    ("(head (cons '7 (emptylist)))", 7),
    ("(isempty (tail (cons '7 (emptylist))))", 1),
    ("(cons '1 (cons '2 (emptylist)))", [1, 2]),
    ("(ctrl.run '(+ '2 '2) '3)", 4),
    ("(begin (+ '1 '1) (+ '2 '2))", 4),
    ("(let (assign 'x (+ '1 '2)) '(* x x))", 9),
    ("(return '5)", 5),
    # a quoted variable bound to a lambda value is a lambda operator
    ("(beta (lambda 'f '(beta 'f '4)) (lambda 'y '(+ y '1)))", 5),
    # a formal shadowing an outer one binds only inside its own lambda
    ("(beta (lambda 'x '(+ (beta (lambda 'x 'x) '1) x)) '5)", 6),
    ("(label L (+ '2 '3))", 5),  # a label at the root
    ("(beta '(lambda 'x '(+ x '1)) '2)", 3),  # a quoted lambda as the operator
])
def test_oracle_hand_values(text, want):
    agree(text, want)


def test_oracle_host_args_and_data():
    agree("(+ (ctrl.arg '0) (ctrl.arg '1))", 42, args=(30, 12))
    agree("(ctrl.reg '0)", [1, 2], data=([1, 2],))
    agree("(+ (ctrl.arg '0) '1)", 10, args=(9,))


def test_oracle_quoted_beta_operand_reevaluates():
    o = oracle.Oracle(fresh_registry(log_jitter=0.0))
    assert o.eval_program(lang.parse("(beta (lambda 'x '(+ x x)) '(log.rec '3))")) == 6
    assert o.ctx.shared("log")[0]["events"] == [3, 3]


def test_oracle_unquoted_beta_operand_evaluates_once():
    o = oracle.Oracle(fresh_registry(log_jitter=0.0))
    assert o.eval_program(lang.parse("(beta (lambda 'x '(+ x x)) (log.rec '3))")) == 6
    assert o.ctx.shared("log")[0]["events"] == [3]


def test_oracle_errors_match_machine_classes():
    for text in [
        "(beta (lambda 'x 'x) '1 '2)",
        "(beta '5 '1)",
        "(head (emptylist))",
        "(if (emptylist) '1 '2)",
        "(if '(+ '1 '2) '1 '2)",  # a quoted condition is code, not an integer
        "(ctrl.run (+ '1 '2) '0)",
        "(ctrl.run '(+ '1 '2) '0 '1)",  # the registry's arity error on both routes
        "(ctrl.run '(+ '1 '2) (emptylist))",
        "(t? '1)".replace("?", "9.m"),  # unknown service
    ]:
        with pytest.raises((OracleError, KernelError)) as orc:
            seq(text)
        want = UnknownServiceError if "t9.m" in text else TaskError
        for threads in (1, 2):
            with pytest.raises(want) as run:
                execute(text, threads=threads)
            assert str(run.value).startswith(str(orc.value)), text


def test_oracle_refuses_the_integers_the_machine_refuses():
    # a kernel's value must fit in 32 bits on both routes, a host argument's
    # (ctrl.arg) too, before any arithmetic could wrap it
    reg = fresh_registry()
    reg.register("k", [("big", 0, lambda c: 2**40)])
    for text, args, bad in [("(ctrl.arg '0)", (2**31,), 2**31),
                            ("(+ (ctrl.arg '0) '0)", (2**31,), 2**31),
                            ("(k.big)", (), 2**40)]:
        message = f"kernel returned out-of-range integer {bad}"
        with pytest.raises(OracleError, match=f"^{message}$"):
            evaluate(text, reg, host_args=args)
        for threads in (1, 2):
            with pytest.raises(TaskError) as run:
                execute(text, threads=threads, args=args, registry=reg)
            assert run.value.message == message, text


def test_oracle_reads_none_bools_and_numpy_integers_as_the_machine_does():
    reg = fresh_registry()
    reg.register("k", [("yes", 0, lambda c: True), ("n", 0, lambda c: np.int64(-7)),
                       ("none", 0, lambda c: None)])
    for text, want in [("(k.yes)", 1), ("(+ (k.n) '1)", -6),
                       ("(k.none)", 0), ("(+ (k.none) '1)", 1)]:
        got = evaluate(text, reg)
        assert got == want and type(got) is int, text
        assert execute(text, threads=2, registry=reg) == want


def test_label_evaluation():
    agree("(+ (label L (* '2 '3)) L)", 12)


@pytest.mark.parametrize("text,want", [
    ("(+ L (label L (* '2 '3)))", 12),  # used before its definition
    ("(beta (lambda 'x '(+ x L)) (label L (beta (lambda 'x '(* x x)) '3)))", 18),
])
def test_labels_agree_across_routes(text, want):
    agree(text, want)


def test_lambda_result_is_opaque():
    # ctrl.run restarts a lambda value like any other quoted reference
    for text in ("(lambda 'x 'x)", "(ctrl.run (lambda 'x 'x) '0)"):
        assert repr(evaluate(text, fresh_registry())) == "<lambda>"
        assert repr(execute(text, threads=2)) == "<lambda>"


def test_deep_programs_agree_with_machine():
    depth = 5000
    assert depth > sys.getrecursionlimit()  # a recursive evaluator would fail
    chain = "(+ '1 " * depth + "'2" + ")" * depth
    body = "(+ x " * 3000 + "'2" + ")" * 3000
    agree(chain, depth + 2)
    agree(f"(beta (lambda 'x '{body}) '1)", 3002)


def test_oracle_agrees_with_machine_on_generated_programs():
    rng = random.Random(4242)
    gen = ProgramGen(rng)
    for i in range(25):
        text = gen.program(depth=6)
        want = seq(text)
        for threads in (1, 2, 4):
            assert execute(text, threads=threads, fuzz_seed=10 * i + threads) == want, \
                (text, threads)


def closure_program(rng, family):
    """A higher-order program of the family, its constants drawn from rng."""
    a, b, c = (rng.randrange(-9, 10) for _ in range(3))
    op = rng.choice("+-*")
    q = rng.choice(("", "'"))  # a lambda operand or branch evaluated, or deferred
    if family == "curried":
        return (f"(beta (beta (beta (lambda 'x '(lambda 'y '(lambda 'z '({op} (- x y) z))))"
                f" '{a}) '{b}) '{c})")
    if family == "passed":
        # made where k is a, applied in a body that binds its own k to b
        return (f"(beta (lambda 'k 'g '(beta g (beta g k))) '{b}"
                f" {q}(beta (lambda 'k '(lambda 'y '({op} y k))) '{a}))")
    if family == "chosen":
        return (f"(beta (lambda 'k '(beta (if (< k '{b}) {q}(lambda 'x '(+ x k))"
                f" {q}(lambda 'x '({op} x k))) '{c})) '{a})")
    # self-application with deferred operands: each call closes two of them
    return ("(beta (lambda 'f 'n '(beta f f n))"
            f" (lambda 'f 'n '(if (< n '2) '(+ n '{a}) '({op} (beta f f '(- n '1))"
            f" (beta f f '(- n '2))))) '{rng.randrange(7)})")


@pytest.mark.parametrize("family", ["curried", "passed", "chosen", "deferred"])
def test_closures_agree_with_the_oracle(family):
    # 7 programs, each run 10 times on a fuzzed machine of 1, 2 and 4 tiles
    rng = random.Random(family)
    for _ in range(7):
        text = closure_program(rng, family)
        want = seq(text)
        reg = fresh_registry()
        for threads in (1, 2, 4):
            image = compile_text(text, threads, reg)
            with Machine(image, reg, threads, fuzz_seed=threads) as m:
                for _ in range(10):
                    assert m.run_value() == want, (text, threads)
