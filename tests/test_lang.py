"""Parser, printer and desugarer."""

import dataclasses
import gc
import random

import pytest

from gprm import compiler, lang, words as W
from gprm.lang import (
    ConstInt,
    GpirSyntaxError,
    Label,
    LabelRef,
    Operation,
    Quoted,
    SExpr,
    Var,
    desugar,
    parse,
    to_text,
)

from conftest import ProgramGen, collections_during


def test_parse_composition_example():
    ast = parse("(t1.m2 (t2.m3 '42) (t3.m4))")
    assert ast == SExpr(
        Operation("t1.m2"),
        (
            SExpr(Operation("t2.m3"), (Quoted(ConstInt(42)),)),
            SExpr(Operation("t3.m4"), ()),
        ),
    )


def test_parse_lambda_shape():
    ast = parse("(lambda 'x '(* (- x '1) (+ x '1)))")
    assert ast.op == Operation("lambda")
    assert ast.args[0] == Quoted(Var("x"))
    body = ast.args[1]
    assert isinstance(body, Quoted)
    assert body.inner.op == Operation("*")


def test_lambda_body_auto_quoted():
    bare = parse("(lambda 'x (* x x))")
    quoted = parse("(lambda 'x '(* x x))")
    assert bare == quoted


def test_greek_and_ascii_aliases():
    a = parse("(beta (lambda 'x 'x) '1)")
    b = parse("(β (λ 'x 'x) '1)")
    c = parse("(& (\\ 'x 'x) '1)")
    assert a == b == c


def test_quoted_literal_is_not_a_program():
    with pytest.raises(GpirSyntaxError, match="quoted literal is not a program"):
        parse("'42")


def test_bare_literal_is_not_a_program():
    with pytest.raises(GpirSyntaxError, match="operation-rooted"):
        parse("42")


def test_unbound_variable():
    with pytest.raises(GpirSyntaxError, match="unbound variable 'x'"):
        parse("(+ x '1)")


def test_list_head_must_be_operation():
    with pytest.raises(GpirSyntaxError, match="list head is not an operation"):
        parse("(42 '1)")
    with pytest.raises(GpirSyntaxError, match="list head is not an operation"):
        parse("((t1.m1) '2)")
    with pytest.raises(GpirSyntaxError, match="lambda variable"):
        parse("(lambda 'f '(f '1))")


def test_nested_quote_rejected_on_sexprs():
    with pytest.raises(GpirSyntaxError, match="nested quote"):
        parse("(t1.m1 ''(t2.m2 '1))")


def test_double_quote_collapses_on_atoms():
    assert parse("(if '1 ''1 ''0)") == parse("(if '1 '1 '0)")


# (source, line, col, message), each as the multi-pass parser reported it
SYNTAX_ERRORS = [
    ("(+ '1 '2", 1, 1, "unclosed '('"),
    ("(+ '1 '2))", 1, 10, "one top-level expression per program"),
    (")", 1, 1, "unexpected ')'"),
    ("(t1.m1\n  ''(f))", 2, 3, "nested quote"),
    ("(+ x '1)", 1, 4, "unbound variable 'x'"),
    ("(+ '2147483648 '0)", 1, 5, "integer literal out of 32-bit range: 2147483648"),
    ("; header\n; second\n(+ '1\n   y)", 4, 4, "unbound variable 'y'"),
    ("(β (λ 'x 'x '(+ x x)) '1)", 1, 11, "duplicate lambda formal 'x'"),
    ("(λ 'f '(f '1))", 1, 9, "list head is not an operation: 'f' is a lambda variable here"),
    ("(if '1 '2)", 1, 1, "if expects condition and two branches"),
    ("(lambda (f) 'x)", 1, 9, "lambda formal must be a quoted identifier"),
    ("(let (f) 'x)", 1, 6, "let expects an (assign 'x <expr>) form"),
    ("\t(+ '1 ')", 1, 9, "unexpected ')'"),
    ("(f '", 1, 4, "nothing to quote"),
    ("(label L)", 1, 1, "label expects a name and one expression"),
    ("(t1.m1 (label L (t2.m2 '1)) (label L (t2.m2 '2)))", 1, 36, "duplicate label 'L'"),
    ("(+ '1 '2) '3", 1, 11, "one top-level expression per program"),
    ("'(f)", 1, 1, "quoted literal is not a program"),
    ("42", 1, 1, "program must be an operation-rooted S-expression"),
    ("()", 1, 1, "empty list"),
    ("(assign 'x '1)", 1, 1, "assign outside let"),
    ("(42 '1)", 1, 2, "list head is not an operation"),
    ("(label 'L (f))", 1, 8, "label name must be an identifier"),
    ("(let (assign x '1) 'x)", 1, 6, "assign expects a quoted identifier and one expression"),
    ("(+ '1\r\n\t(* ''(g) '2))", 2, 5, "nested quote"),
]


def test_syntax_error_carries_position():
    try:
        parse("(t1.m1\n  ''(f))")
    except GpirSyntaxError as e:
        assert (e.line, e.col) == (2, 3)
    else:
        pytest.fail("expected a syntax error")


@pytest.mark.parametrize("text,line,col,message", SYNTAX_ERRORS)
def test_syntax_error_position_table(text, line, col, message):
    with pytest.raises(GpirSyntaxError) as ei:
        parse(text)
    e = ei.value
    assert (e.line, e.col, str(e)) == (line, col, f"{message} (line {line}, col {col})")


def test_comments_and_whitespace():
    ast = parse("; a program\n(+ '1 ; one\n   '2)\n")
    assert ast == SExpr(Operation("+"), (Quoted(ConstInt(1)), Quoted(ConstInt(2))))


def test_integer_range_checked():
    parse(f"(+ '{2**31 - 1} '{-2**31})")
    with pytest.raises(GpirSyntaxError, match="32-bit"):
        parse(f"(+ '{2**31} '0)")


def test_if_arity():
    with pytest.raises(GpirSyntaxError, match="two branches"):
        parse("(if '1 '2)")


def test_duplicate_lambda_formal():
    with pytest.raises(GpirSyntaxError, match="duplicate lambda formal"):
        parse("(lambda 'x 'x '(+ x x))")


def test_label_machinery():
    ast = parse("(t1.m1 (label L (t2.m2 '1)) L)")
    assert isinstance(ast.args[0], Label)
    assert ast.args[1] == LabelRef("L")
    with pytest.raises(GpirSyntaxError, match="duplicate label"):
        parse("(t1.m1 (label L (t2.m2 '1)) (label L (t2.m2 '2)))")
    with pytest.raises(GpirSyntaxError, match="cycle"):
        parse("(t1.m1 (label L (t2.m2 L)))")
    with pytest.raises(GpirSyntaxError, match="lambda variables"):
        parse("(beta (lambda 'x '(t1.m1 (label L (t2.m2 x)))) '1)")


def test_assign_outside_let():
    with pytest.raises(GpirSyntaxError, match="assign outside let"):
        parse("(assign 'x '1)")


# ── desugaring ───────────────────────────────────────────────────────


def test_desugar_return():
    got = desugar(parse("(return (+ '1 '2))"))
    assert got == parse("(if '1 '(+ '1 '2) '0)")


def test_desugar_return_quoted_atom():
    # (return '5) would print as (if '1 ''5 '0); quotes collapse on atoms
    got = desugar(parse("(return '5)"))
    assert got == parse("(if '1 '5 '0)")


def test_desugar_begin_single():
    got = desugar(parse("(begin (+ '1 '2))"))
    assert got == parse("(beta (lambda 'x1 '(if '1 'x1 '0)) (+ '1 '2))")


def test_desugar_begin_n():
    got = desugar(parse("(begin (t1.m1) (t1.m2) (t1.m3))"))
    want = parse(
        "(beta (lambda 'x1 'x2 'x3 '(if '1 'x3 '0)) (t1.m1) (t1.m2) (t1.m3))"
    )
    assert got == want


def test_desugar_let():
    got = desugar(parse("(let (assign 'x (+ '1 '2)) '(* x x))"))
    assert got == parse("(beta (lambda 'x '(* x x)) (+ '1 '2))")


def _sugar_free(e):
    if isinstance(e, SExpr):
        assert e.op.name not in lang.SUGAR_FORMS
        for a in e.args:
            _sugar_free(a)
    elif isinstance(e, Quoted):
        _sugar_free(e.inner)
    elif isinstance(e, Label):
        _sugar_free(e.body)


@pytest.mark.parametrize("text", [
    "(return (begin (t1.m1) (t1.m2)))",
    "(let (assign 'x (begin (t1.m1))) '(return x))",
    "(begin (let (assign 'y '1) 'y))",
])
def test_desugar_idempotent_and_minimal(text):
    one = desugar(parse(text))
    assert desugar(one) == one
    _sugar_free(one)


def test_roundtrip_generated_programs():
    rng = random.Random(2024)
    gen = ProgramGen(rng)
    for _ in range(40):
        text = gen.program(depth=5)
        ast = parse(text)
        assert parse(to_text(ast)) == ast
        des = desugar(ast)
        assert parse(to_text(des)) == des


def test_desugar_returns_sugar_free_subtrees_unchanged():
    clean = parse("(t1.m1 (+ '1 '2) '(t2.m2 (label L (* '3 '4)) L))")
    assert desugar(clean) is clean
    mixed = parse("(t1.m1 (+ '1 '2) (return (t2.m2 '3)))")
    out = desugar(mixed)
    assert out.args[0] is mixed.args[0]  # the sugar-free sibling is shared
    assert out.args[1] == parse("(if '1 '(t2.m2 '3) '0)")


def test_one_operation_per_name():
    ast = parse("(+ (+ '1 '2) (+ '3 (* '4 '5)))")
    assert ast.op is ast.args[0].op is ast.args[1].op
    assert Var("x") != LabelRef("x") and Var("x") == Var("x")
    assert repr(Quoted(ConstInt(7))) == "Quoted(inner=ConstInt(value=7))"


def test_deep_nesting_has_no_limit():
    depth = 5000
    text = "(+ '1 " * depth + "'2" + ")" * depth
    ast = parse(text)
    assert to_text(ast) == text
    assert desugar(ast) is ast


def _mutate(rng, text):
    alphabet = "()' ;\n\tx1-λβ&\\" + text
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        edit = rng.choice(("insert", "delete", "swap"))
        if edit == "insert":
            text = text[:i] + rng.choice(alphabet) + text[i:]
        elif edit == "delete":
            text = text[:i] + text[i + 1:]
        elif i + 1 < len(text):
            text = text[:i] + text[i + 1] + text[i] + text[i + 2:]
    return text


def test_mutated_programs_parse_or_raise_gpir_error():
    """Random small edits of valid programs: every result either compiles to a
    flat program or raises a GpirError, never a raw Python exception."""
    from gprm import compiler

    rng = random.Random(5150)
    gen = ProgramGen(rng)
    extra = [
        "(t1.m1 (label L (+ '1 '2)) L (beta (lambda 'x 'y '(+ x y)) L '3))",
        "(begin (let (assign 'x (+ '1 '2)) '(return (* x x))) (return '5))",
    ]
    outcomes = {"ok": 0, "error": 0}
    for k in range(500):
        text = _mutate(rng, extra[k % 2] if k % 10 == 0 else gen.program(depth=4))
        try:
            compiler.assign_tiles(compiler.flatten(desugar(parse(text))), 2)
        except lang.GpirError:
            outcomes["error"] += 1
        else:
            outcomes["ok"] += 1
    assert outcomes["ok"] > 0 and outcomes["error"] > 0


@pytest.mark.parametrize("text", [
    "(t1.m2 (t2.m3 '42) (t3.m4))",
    "(+ '1\t'-2)\r\n",
    "(+ '1 '2) ; a comment\n",
    "(t1.m1\f'1)",  # a form feed is part of a word, as _TOKEN reads it
    "(t1.m1\x1c'1\x0b)",
    "(t1.m1\xa0'1)",
    "(λ 'x 'x)",
])
def test_tokens_are_the_token_pattern_words(text):
    assert lang._tokens(text) == [t for t in lang._TOKEN.findall(text) if t[0] != ";"]


def test_tokens_of_generated_programs():
    gen = ProgramGen(random.Random(11))
    for _ in range(50):
        text = gen.program(depth=5)
        assert lang._tokens(text) == lang._TOKEN.findall(text)


_PLUS = Operation("+")


@pytest.mark.parametrize("make, text", [
    (lambda: ConstInt(7), "ConstInt(value=7)"),
    (lambda: Operation("+"), "Operation(name='+')"),
    (lambda: Var("x"), "Var(name='x')"),
    (lambda: Quoted(ConstInt(7)), "Quoted(inner=ConstInt(value=7))"),
    (lambda: SExpr(_PLUS, (ConstInt(1),)),
     "SExpr(op=Operation(name='+'), args=(ConstInt(value=1),))"),
    (lambda: Label("F", LabelRef("G")), "Label(name='F', body=LabelRef(name='G'))"),
    (lambda: LabelRef("F"), "LabelRef(name='F')"),
    (lambda: compiler.FlatEntry("+", (W.mk_ref(2),)), "FlatEntry(op='+', args=(2,))"),
])
def test_node_contract(make, text):
    # immutable, compared and hashed by value, printed in dataclass form
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b)
    assert repr(a) == text
    for f in dataclasses.fields(a):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(a, f.name, getattr(b, f.name))
    assert not hasattr(a, "__dict__")
    assert a != ConstInt(-1) and a != (text,)


def _plus_tree(depth, leaf=0):
    if depth == 0:
        return f"'{leaf}"
    return f"(+ {_plus_tree(depth - 1, 2 * leaf)} {_plus_tree(depth - 1, 2 * leaf + 1)})"


def test_parse_of_a_large_tree_starts_no_collection():
    # a depth-14 `+` tree allocates some 100,000 nodes, all live until parse
    # returns; at the default thresholds the collector would walk them
    # again and again
    text = _plus_tree(14)
    assert gc.isenabled()
    assert collections_during(lambda: parse(text)) == []
    assert gc.isenabled()
