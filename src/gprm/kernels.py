"""Kernel services: registration, wrapper dispatch, and the stock kernels.

A kernel is a named service exposing numbered sequential methods.  The engine
never looks inside kernel values; anything that is not a 32-bit integer
travels as an opaque handle.  Methods flagged `control` receive the raw
(possibly quoted) bytewords plus an engine context instead of evaluated
values; `ctrl.run` is the stock control method.

Arithmetic, comparison and list operations live in the reserved service 0
("builtin", bare operation names like `+` or `cons`) so that every operation
goes through the same wrapper dispatch path.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from . import words as W


class KernelError(Exception):
    """Raised by kernels; the engine turns it into an error result."""


class UnknownServiceError(KernelError):
    pass


class DuplicateServiceError(KernelError):
    pass


#: returned by control methods that forward the computation instead of
#: producing a value (the restarted computation answers the caller directly)
NO_RESULT = object()

BUILTIN_SERVICE = "builtin"


@dataclass(frozen=True)
class MethodSpec:
    name: str
    method_id: int
    arity: int | None  # None = variadic
    fn: object
    control: bool = False


@dataclass
class KernelService:
    name: str
    service_id: int
    methods: dict = field(default_factory=dict)  # method_id -> MethodSpec
    by_name: dict = field(default_factory=dict)  # name -> method_id


class KernelRegistry:
    """Name/id mapping for services and methods; shared by compiler, VM and oracle."""

    def __init__(self):
        self._by_name = {}
        self._by_id = {}
        self._install(BUILTIN_SERVICE, _builtin_methods())

    def _install(self, name, methods):
        sid = len(self._by_id)
        service = KernelService(name, sid)
        for i, (mname, arity, fn, *flags) in enumerate(methods):
            spec = MethodSpec(mname, i, arity, fn, control=bool(flags and flags[0]))
            service.methods[i] = spec
            service.by_name[mname] = i
        self._by_name[name] = service
        self._by_id[sid] = service
        return sid

    def register(self, name, methods):
        """Register a service; methods are (name, arity, fn[, control]) tuples.

        Returns the service id.  Raises DuplicateServiceError on a reused name.
        """
        if name in self._by_name:
            raise DuplicateServiceError(f"duplicate service name '{name}'")
        if "." in name or not name:
            raise KernelError(f"bad service name '{name}'")
        seen = set()
        for m in methods:
            if m[0] in seen:
                raise KernelError(f"duplicate method '{name}.{m[0]}'")
            seen.add(m[0])
        return self._install(name, methods)

    def resolve(self, opname):
        """Operation name -> (service_id, method_id, MethodSpec)."""
        if "." in opname:
            sname, mname = opname.split(".", 1)
        else:
            sname, mname = BUILTIN_SERVICE, opname
        service = self._by_name.get(sname)
        if service is None:
            raise UnknownServiceError(f"unknown service '{sname}'")
        mid = service.by_name.get(mname)
        if mid is None:
            raise UnknownServiceError(f"unknown method '{sname}.{mname}'")
        return service.service_id, mid, service.methods[mid]

    def spec(self, service_id, method_id):
        service = self._by_id.get(service_id)
        if service is None or method_id not in service.methods:
            raise UnknownServiceError(f"unknown operation id {service_id}.{method_id}")
        return service, service.methods[method_id]

    def op_name(self, service_id, method_id):
        service, spec = self.spec(service_id, method_id)
        if service.name == BUILTIN_SERVICE:
            return spec.name
        return f"{service.name}.{spec.name}"

    def has(self, opname):
        try:
            self.resolve(opname)
            return True
        except UnknownServiceError:
            return False

    def arity_error(self, service, spec, nargs):
        return KernelError(f"{self.op_name(service.service_id, spec.method_id)} expects "
                           f"{spec.arity} arguments, got {nargs}")

    def invoke(self, service, method_id, ctx, args):
        """Call a non-control method with its arity checked; returns its value."""
        spec = service.methods[method_id]
        if spec.arity is not None and len(args) != spec.arity:
            raise self.arity_error(service, spec, len(args))
        return spec.fn(ctx, *args)


# ── Values ───────────────────────────────────────────────────────────


class EmptyList:
    __slots__ = ()

    def __repr__(self):
        return "()"


EMPTY = EmptyList()


@dataclass(frozen=True)
class Cons:
    head: object
    tail: object


def is_list(v):
    return v is EMPTY or isinstance(v, Cons)


def materialize(v):
    """Cons chain -> python list (for printing and test comparison)."""
    out = []
    while isinstance(v, Cons):
        h = v.head
        out.append(materialize(h) if is_list(h) and h is not EMPTY else h)
        v = v.tail
    if v is not EMPTY:
        raise KernelError("improper list")
    return out


def int32(v):
    """Wrap to 32-bit two's complement; arithmetic and the oracle share this."""
    v &= 0xFFFFFFFF
    return v - (1 << 32) if v & 0x80000000 else v


# ── Builtin service (reserved id 0) ──────────────────────────────────


def _want_int(v, op):
    if isinstance(v, bool) or not isinstance(v, int):
        raise KernelError(f"{op} expects integers, got {type(v).__name__}")
    return v


def _want_list(v, op):
    if not is_list(v):
        raise KernelError(f"{op} expects a list, got {type(v).__name__}")
    return v


def _builtin_methods():
    def arith(name, fn):
        return (name, 2, lambda ctx, a, b: int32(fn(_want_int(a, name), _want_int(b, name))))

    def cmp(name, fn):
        return (name, 2, lambda ctx, a, b: int(fn(_want_int(a, name), _want_int(b, name))))

    def head(ctx, l):
        if _want_list(l, "head") is EMPTY:
            raise KernelError("head of empty list")
        return l.head

    def tail(ctx, l):
        if _want_list(l, "tail") is EMPTY:
            raise KernelError("tail of empty list")
        return l.tail

    def cons(ctx, h, t):
        return Cons(h, _want_list(t, "cons"))

    return [
        arith("+", lambda a, b: a + b),
        arith("-", lambda a, b: a - b),
        arith("*", lambda a, b: a * b),
        cmp(">=", lambda a, b: a >= b),
        cmp(">", lambda a, b: a > b),
        cmp("<=", lambda a, b: a <= b),
        cmp("<", lambda a, b: a < b),
        cmp("==", lambda a, b: a == b),
        cmp("!=", lambda a, b: a != b),
        ("cons", 2, cons),
        ("head", 1, head),
        ("tail", 1, tail),
        ("emptylist", 0, lambda ctx: EMPTY),
        ("isempty", 1, lambda ctx, l: int(_want_list(l, "isempty") is EMPTY)),
    ]


# ── ctrl service ─────────────────────────────────────────────────────


def _ctrl_arg(ctx, i):
    return ctx.host_arg(_want_int(i, "ctrl.arg"))


def _ctrl_reg(ctx, i):
    return ctx.data(_want_int(i, "ctrl.reg"))


def _ctrl_run(ctx, ws):
    """Control method: rewrite a quoted reference's tile id and restart it."""
    if len(ws) != 2:
        raise KernelError("ctrl.run expects a quoted reference and a thread id")
    ref = ws[0]
    if W.kind_of(ref) != W.KIND_REF or not W.is_quoted(ref):
        raise KernelError("ctrl.run: first argument is not a quoted reference")
    tw = ws[1]
    if W.kind_of(tw) != W.KIND_CONST:
        raise KernelError("ctrl.run: thread id is not an integer")
    ctx.restart(ref, W.const_value(tw))
    return NO_RESULT


def add_ctrl_service(registry):
    return registry.register(
        "ctrl",
        [
            ("arg", 1, _ctrl_arg),
            ("reg", 1, _ctrl_reg),
            ("run", 2, _ctrl_run, True),
        ],
    )


# ── Merge sort kernels ───────────────────────────────────────────────


def tree_segment(node, length):
    """[lo, hi) slice for binary-tree node `node` over an array of `length`.

    Node 1 is the whole array; node n splits into 2n (left) and 2n+1 (right)
    at the midpoint, so the slice follows the bits of n below its leading 1.
    """
    lo, hi = 0, length
    for b in bin(node)[3:]:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if b == "0" else (mid, hi)
    return lo, hi


def _ms_leaf(ctx, n, a):
    lo, hi = tree_segment(_want_int(n, "ms.leaf"), len(a))
    # stable, though a leaf needs no stability: with a default-kind (SIMD)
    # leaf, 1 thread's one 4M leaf beats 2 threads' two 2M leaves plus the
    # 4M stem (0.37-0.46x measured), and the 2-thread gate would fail
    a[lo:hi].sort(kind="stable")
    return n


def _ms_stem(ctx, nl, nr, a):
    node = _want_int(nl, "ms.stem") // 2
    lo, hi = tree_segment(node, len(a))
    # the two sorted runs sit side by side in a[lo:hi]: a stable sort there,
    # which finds the two runs, is the merge
    a[lo:hi].sort(kind="stable")
    return node


def add_mergesort_service(registry):
    return registry.register("ms", [("leaf", 2, _ms_leaf), ("stem", 3, _ms_stem)])


# ── List-chase kernels ───────────────────────────────────────────────


def ackermann(m, x):
    """Ackermann function, explicit stack (deep recursion workload)."""
    stack = [m]
    while stack:
        m = stack.pop()
        if m == 0:
            x += 1
        elif x == 0:
            x = 1
            stack.append(m - 1)
        else:
            stack.append(m - 1)
            stack.append(m)
            x -= 1
    return x


class ChaseList:
    """Linked list of work items; every node carries Ackermann parameters."""

    def __init__(self, n, m=3, x=3):
        self.n = n
        self.m = m
        self.x = x
        self.next = list(range(1, n)) + [-1]  # index-chained
        self.counts = [0] * n
        self.owners = [[] for _ in range(n)]
        self.claimed = [False] * n
        self.lock = threading.Lock()

    def reset(self):
        self.counts = [0] * self.n
        self.owners = [[] for _ in range(self.n)]
        self.claimed = [False] * self.n


def _chase_strided(ctx, k, nth, lst):
    """Thread k owns elements k, nth+k, 2*nth+k, ... -- no contention."""
    done = 0
    i = _want_int(k, "chase.strided")
    while 0 <= i < lst.n:
        ackermann(lst.m, lst.x)
        lst.counts[i] += 1
        lst.owners[i].append(k)
        done += 1
        i += nth
    return done


def _chase_contended(ctx, k, nth, lst):
    """Naive strategy: every worker traverses the whole list and claims nodes."""
    done = 0
    i = 0
    while 0 <= i < lst.n:
        with lst.lock:
            mine = not lst.claimed[i]
            if mine:
                lst.claimed[i] = True
        if mine:
            ackermann(lst.m, lst.x)
            lst.counts[i] += 1
            lst.owners[i].append(k)
            done += 1
        i = lst.next[i]
    return done


def add_listchase_service(registry):
    return registry.register(
        "chase", [("strided", 3, _chase_strided), ("contended", 3, _chase_contended)]
    )


# ── Effect-logging kernel (evaluation-order experiments) ─────────────


def add_effectlog_service(registry, jitter=0.0):
    def rec(ctx, tag):
        if jitter:
            time.sleep(ctx.random.random() * jitter)
        state, lock = ctx.shared("log")
        with lock:
            state.setdefault("events", []).append(tag)
        return tag

    return registry.register("log", [("rec", 1, rec)])


# ── Stub kernels ─────────────────────────────────────────────────────


def add_stub_service(registry, name, method_names):
    """Echo-style stub: every method returns the sum of its integer arguments."""

    def stub(ctx, *args):
        return int32(sum(a for a in args if isinstance(a, int) and not isinstance(a, bool)))

    return registry.register(name, [(m, None, stub) for m in sorted(method_names)])


def standard_registry():
    """builtin + ctrl + ms + chase: what the CLI and benchmarks start from."""
    registry = KernelRegistry()
    add_ctrl_service(registry)
    add_mergesort_service(registry)
    add_listchase_service(registry)
    return registry
