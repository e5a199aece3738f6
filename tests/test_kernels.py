"""Kernel registry, builtins, list ops, workload kernels."""

import re

import numpy as np
import pytest

from gprm import kernels
from gprm.kernels import (
    EMPTY,
    Cons,
    DuplicateServiceError,
    KernelError,
    KernelRegistry,
    UnknownServiceError,
    ackermann,
    add_ctrl_service,
    int32,
    materialize,
    tree_segment,
)
from gprm.oracle import evaluate


class _Ctx:
    """Minimal kernel context for direct invoke tests."""

    def __init__(self, host_args=(), data=()):
        self.host_args = host_args
        self.data = list(data)
        self._shared = {}
        import threading
        self._lock = threading.RLock()
        import random
        self.random = random.Random(0)

    def shared(self, name):
        return self._shared.setdefault(name, {}), self._lock


def invoke(reg, opname, *args, ctx=None):
    sid, mid, _ = reg.resolve(opname)
    service, _ = reg.spec(sid, mid)
    return reg.invoke(service, mid, ctx or _Ctx(), list(args))


def test_register_and_resolve():
    reg = KernelRegistry()
    sid = reg.register("ms", [("leaf", 2, lambda c, n, a: n), ("stem", 3, lambda c, a, b, x: a)])
    assert reg.resolve("ms.leaf")[0] == sid
    assert reg.op_name(*reg.resolve("ms.stem")[:2]) == "ms.stem"


def test_duplicate_service_rejected():
    reg = KernelRegistry()
    reg.register("ms", [("leaf", 1, lambda c, n: n)])
    with pytest.raises(DuplicateServiceError):
        reg.register("ms", [("leaf", 1, lambda c, n: n)])


def test_unknown_service_and_method():
    reg = KernelRegistry()
    with pytest.raises(UnknownServiceError, match="unknown service"):
        reg.resolve("nope.m")
    with pytest.raises(UnknownServiceError, match="unknown method"):
        reg.resolve("cons2")


def test_builtin_arithmetic_and_comparisons():
    reg = KernelRegistry()
    assert invoke(reg, "+", 2, 3) == 5
    assert invoke(reg, ">=", 1, 4) == 0
    assert invoke(reg, "<", 1, 4) == 1
    assert invoke(reg, "==", 4, 4) == 1
    assert invoke(reg, "!=", 4, 4) == 0


def test_arithmetic_wraps_to_32_bits():
    reg = KernelRegistry()
    assert invoke(reg, "+", 2**31 - 1, 1) == -(2**31)
    assert invoke(reg, "*", 2**15, 2**16) == -(2**31)
    assert invoke(reg, "*", 2**16, 2**16) == 0
    assert int32(2**31) == -(2**31)


@pytest.mark.parametrize("op", ["+", "-", "<"])
def test_builtins_refuse_what_is_not_an_int(op):
    reg = KernelRegistry()
    for bad, name in [(True, "bool"), (np.int64(3), "int64"), (Cons(1, EMPTY), "Cons")]:
        for args in ((bad, 1), (1, bad)):
            with pytest.raises(KernelError, match=f"^{re.escape(op)} expects integers, got {name}$"):
                invoke(reg, op, *args)


def test_builtins_take_an_int_subclass():
    class Count(int):
        pass

    reg = KernelRegistry()
    assert invoke(reg, "+", Count(2), 3) == 5
    assert invoke(reg, "-", 2, Count(3)) == -1
    assert invoke(reg, "<", Count(2), Count(3)) == 1


def test_builtins_wrap_at_the_int32_edges_through_the_oracle():
    # the builtins wrap inline; int32 is the same wrap, for host-side checks
    reg = KernelRegistry()
    for text, exact, want in [("(+ '2147483647 '1)", 2**31, -2147483648),
                              ("(* '65536 '65536)", 2**32, 0),
                              ("(- '-2147483648 '1)", -(2**31) - 1, 2147483647),
                              ("(* '-2147483648 '-1)", 2**31, -2147483648)]:
        assert evaluate(text, reg) == int32(exact) == want, text


def test_arity_mismatch():
    reg = KernelRegistry()
    with pytest.raises(KernelError, match="expects 2 arguments"):
        invoke(reg, "+", 1)


def test_cons_laws():
    reg = KernelRegistry()
    l = invoke(reg, "cons", 7, EMPTY)
    assert invoke(reg, "head", l) == 7
    assert invoke(reg, "tail", l) is EMPTY
    assert invoke(reg, "isempty", l) == 0
    assert invoke(reg, "isempty", EMPTY) == 1
    assert materialize(Cons(1, Cons(2, EMPTY))) == [1, 2]


def test_list_errors():
    reg = KernelRegistry()
    with pytest.raises(KernelError, match="head of empty list"):
        invoke(reg, "head", EMPTY)
    with pytest.raises(KernelError, match="tail of empty list"):
        invoke(reg, "tail", EMPTY)
    with pytest.raises(KernelError, match="expects a list"):
        invoke(reg, "cons", 1, 2)
    with pytest.raises(KernelError, match="expects integers"):
        invoke(reg, "+", EMPTY, 1)


def test_ctrl_arg_reg():
    reg = KernelRegistry()
    add_ctrl_service(reg)
    ctx = _Ctx(host_args=(7,), data=("blob",))
    assert invoke(reg, "ctrl.arg", 0, ctx=ctx) == 7
    assert invoke(reg, "ctrl.reg", 0, ctx=ctx) == "blob"
    with pytest.raises(KernelError, match="out of range"):
        invoke(reg, "ctrl.arg", 5, ctx=ctx)


def naive_ackermann(m, x):
    if m == 0:
        return x + 1
    if x == 0:
        return naive_ackermann(m - 1, 1)
    return naive_ackermann(m - 1, naive_ackermann(m, x - 1))


def test_ackermann_against_recursive_definition():
    assert ackermann(2, 3) == 9
    assert ackermann(3, 3) == 61
    for m in range(4):
        for x in range(4):
            assert ackermann(m, x) == naive_ackermann(m, x)


def test_tree_segment_partitions():
    # leaves of the halving recursion tile [0, length) exactly
    for length in (1, 7, 64, 1000):
        for nmax in (1, 2, 3, 4, 8):
            leaves = []

            def rec(n):
                if n >= nmax:
                    leaves.append(tree_segment(n, length))
                else:
                    rec(2 * n)
                    rec(2 * n + 1)

            rec(1)
            covered = []
            for lo, hi in leaves:
                covered.extend(range(lo, hi))
            assert sorted(covered) == list(range(length))


def test_mergesort_kernels_direct():
    reg = KernelRegistry()
    kernels.add_mergesort_service(reg)
    rng = np.random.default_rng(3)
    a = rng.integers(-100, 100, size=41, dtype=np.int32)
    want = np.sort(a.copy())
    ctx = _Ctx()
    invoke(reg, "ms.leaf", 2, a, ctx=ctx)
    invoke(reg, "ms.leaf", 3, a, ctx=ctx)
    invoke(reg, "ms.stem", 2, 3, a, ctx=ctx)
    assert np.array_equal(a, want)


def test_stub_service_sums_integers():
    reg = KernelRegistry()
    kernels.add_stub_service(reg, "t1", ["m1"])
    assert invoke(reg, "t1.m1", 2, 3, EMPTY) == 5
    assert invoke(reg, "t1.m1") == 0
