"""Sequential interpreters vs hand values and vs the parallel machine."""

import random

import pytest

from gprm import compiler, lang, oracle
from gprm.kernels import is_list, materialize
from gprm.oracle import OracleError, eval_flat, evaluate

from conftest import ProgramGen, execute, fresh_registry


def norm(v):
    return materialize(v) if is_list(v) else v


def seq(text, args=(), data=()):
    return norm(evaluate(text, fresh_registry(), host_args=args, data=data))


def flat(text, args=(), data=(), tiles=4):
    fp = compiler.assign_tiles(compiler.flatten(lang.desugar(lang.parse(text))), tiles)
    return norm(eval_flat(fp, fresh_registry(), host_args=args, data=data))


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
])
def test_oracle_hand_values(text, want):
    assert seq(text) == want
    assert flat(text) == want


def test_oracle_host_args_and_data():
    assert seq("(+ (ctrl.arg '0) (ctrl.arg '1))", args=(30, 12)) == 42
    assert seq("(ctrl.reg '0)", data=([1, 2],)) == [1, 2]
    assert flat("(+ (ctrl.arg '0) '1)", args=(9,)) == 10


def test_oracle_quoted_beta_operand_reevaluates():
    reg = fresh_registry(log_jitter=0.0)
    v = evaluate("(beta (lambda 'x '(+ x x)) '(log.rec '3))", reg)
    assert v == 6
    events = reg  # events live in the oracle context, count via a fresh run
    o = oracle.Oracle(fresh_registry(log_jitter=0.0))
    o.eval_program(lang.parse("(beta (lambda 'x '(+ x x)) '(log.rec '3))"))
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
        "(ctrl.run (+ '1 '2) '0)",
        "(t? '1)".replace("?", "9.m"),  # unknown service
    ]:
        with pytest.raises(Exception):
            seq(text)


def test_label_evaluation():
    assert seq("(+ (label L (* '2 '3)) L)") == 12
    assert flat("(+ (label L (* '2 '3)) L)") == 12


@pytest.mark.parametrize("text,want", [
    ("(+ L (label L (* '2 '3)))", 12),  # used before its definition
    ("(beta (lambda 'x '(+ x L)) (label L (beta (lambda 'x '(* x x)) '3)))", 18),
])
def test_labels_agree_across_routes(text, want):
    assert seq(text) == want
    assert flat(text) == want
    for threads in (1, 2):
        assert execute(text, threads=threads) == want


def test_lambda_result_is_opaque():
    v = evaluate("(lambda 'x 'x)", fresh_registry())
    assert repr(v) == "<lambda>"


def test_oracle_agrees_with_machine_on_generated_programs():
    rng = random.Random(4242)
    gen = ProgramGen(rng)
    for _ in range(25):
        text = gen.program(depth=6)
        want = seq(text)
        assert flat(text) == want
        for threads in (1, 4):
            assert execute(text, threads=threads) == want
