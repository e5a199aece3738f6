"""64-bit byteword encode/decode."""

import random

import pytest

from gprm import words as W


def test_reference_roundtrip():
    w = W.mk_ref(0xDEADBEEF, 0xABCD, quoted=True)
    assert W.kind_of(w) == W.KIND_REF
    assert W.ref_addr(w) == 0xDEADBEEF
    assert W.ref_tile(w) == 0xABCD
    assert W.is_quoted(w)
    assert not W.is_quoted(W.clear_quote(w))


def test_tile_rewrite_is_field_store():
    w = W.mk_ref(123, 4, quoted=True)
    w2 = W.ref_with_tile(w, 9)
    assert W.ref_addr(w2) == 123 and W.ref_tile(w2) == 9 and W.is_quoted(w2)


@pytest.mark.parametrize("v", [0, 1, -1, 42, -(2**31), 2**31 - 1])
def test_const_roundtrip(v):
    for quoted in (False, True):
        w = W.mk_const(v, quoted)
        assert W.kind_of(w) == W.KIND_CONST
        assert W.const_value(w) == v
        assert W.is_quoted(w) == quoted


def test_const_range_checked():
    with pytest.raises(ValueError):
        W.mk_const(2**31)
    with pytest.raises(ValueError):
        W.mk_const(-(2**31) - 1)


def test_operation_and_builtin_roundtrip():
    w = W.mk_oper(7, 11)
    assert W.oper_ids(w) == (7, 11)
    b = W.mk_builtin(W.FORM_CODE_BETA)
    assert W.kind_of(b) == W.KIND_BUILTIN
    assert W.builtin_form(b) == W.FORM_CODE_BETA


def test_var_handle_error_roundtrip():
    v = W.mk_var(12345, quoted=True)
    assert W.var_slot(v) == 12345 and W.is_quoted(v)
    h = W.mk_handle(99)
    assert W.kind_of(h) == W.KIND_HANDLE and W.handle_index(h) == 99
    e = W.mk_error(3)
    assert W.kind_of(e) == W.KIND_ERROR and W.handle_index(e) == 3


def test_error_is_the_highest_word_kind():
    # a record finds an error among its slots with max(slots): a word of a
    # higher kind would pass for one
    kinds = {name: v for name, v in vars(W).items()
             if name.startswith("KIND_") and name != "KIND_SHIFT"}
    assert max(kinds.values()) == W.KIND_ERROR
    assert [n for n, v in kinds.items() if v == W.KIND_ERROR] == ["KIND_ERROR"]
    assert min(W.mk_error(0), W.mk_error(1)) > max(W.mk_handle(W.PAYLOAD_MASK),
                                                  W.mk_const(-1, quoted=True))


def test_quote_only_on_quotable_kinds():
    with pytest.raises(ValueError):
        W.set_quote(W.mk_oper(1, 2))
    with pytest.raises(ValueError):
        W.set_quote(W.mk_handle(1))


def test_random_roundtrip():
    rng = random.Random(5)
    for _ in range(500):
        kind = rng.randrange(5)
        if kind == W.KIND_REF:
            w = W.mk_ref(rng.randrange(2**32), rng.randrange(2**16), rng.random() < 0.5)
            assert (W.ref_addr(w), W.ref_tile(w)) == (W.ref_addr(w), W.ref_tile(w))
        elif kind == W.KIND_CONST:
            v = rng.randrange(-(2**31), 2**31)
            assert W.const_value(W.mk_const(v, rng.random() < 0.5)) == v
        elif kind == W.KIND_OPER:
            s, m = rng.randrange(2**16), rng.randrange(2**16)
            assert W.oper_ids(W.mk_oper(s, m)) == (s, m)
        elif kind == W.KIND_VAR:
            s = rng.randrange(2**32)
            assert W.var_slot(W.mk_var(s)) == s
        else:
            f = rng.randrange(1, 4)
            assert W.builtin_form(W.mk_builtin(f)) == f
