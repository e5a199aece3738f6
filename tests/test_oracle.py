"""The sequential oracle vs hand values and vs the parallel machine."""

import random
import sys

import pytest

from gprm import lang, oracle
from gprm.kernels import KernelError, UnknownServiceError, is_list, materialize
from gprm.oracle import OracleError, evaluate
from gprm.vm import TaskError

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
        "(t? '1)".replace("?", "9.m"),  # unknown service
    ]:
        with pytest.raises((OracleError, KernelError)) as orc:
            seq(text)
        want = UnknownServiceError if "t9.m" in text else TaskError
        for threads in (1, 2):
            with pytest.raises(want) as run:
                execute(text, threads=threads)
            assert str(run.value).startswith(str(orc.value)), text


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
    for _ in range(25):
        text = gen.program(depth=6)
        want = seq(text)
        for threads in (1, 2, 4):
            assert execute(text, threads=threads) == want
