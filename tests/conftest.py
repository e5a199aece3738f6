"""Shared helpers: registries, one-shot program execution, program generator."""

import gc
import random

import pytest

from gprm import compiler, kernels, lang, vm


def fresh_registry(*, ctrl=True, log_jitter=0.0, stubs=()):
    reg = kernels.KernelRegistry()
    if ctrl:
        kernels.add_ctrl_service(reg)
    if log_jitter is not None:
        kernels.add_effectlog_service(reg, jitter=log_jitter)
    for name, methods in stubs:
        kernels.add_stub_service(reg, name, methods)
    return reg


def collections_during(call):
    """The generations of the collections the cyclic collector starts while
    call() runs.  A full collection first leaves no allocation owed, so a
    call that allocates less than the young threshold before it pauses the
    collector cannot start one; and nothing is allocated between call()'s
    return and the callback's removal, so the collection the call leaves
    owed is not counted."""
    gc.collect()
    seen = []

    def on_gc(phase, info):
        if phase == "start":
            seen.append(info["generation"])

    remove = gc.callbacks.remove
    gc.callbacks.append(on_gc)
    try:
        call()
    finally:
        remove(on_gc)
    return seen


@pytest.fixture
def registry():
    return fresh_registry()


class RunOutcome:
    def __init__(self, value, machine, image, flat):
        self.value = value
        self.machine = machine
        self.image = image
        self.flat = flat

    @property
    def trace(self):
        return self.machine.trace_packets()

    def requests(self):
        return [p for p in self.trace if p.kind == vm.REQ]


def execute(text, threads=4, args=(), data=(), registry=None, trace=False,
            fuzz_seed=None, keep=False, timeout=60.0, **machine_kw):
    """Compile and run one program; returns the decoded value (or a RunOutcome
    with the machine still open when keep=True)."""
    reg = registry if registry is not None else fresh_registry()
    ast = lang.desugar(lang.parse(text))
    flat = compiler.assign_tiles(compiler.flatten(ast), threads)
    image = compiler.encode(flat, threads, reg)
    machine = vm.Machine(image, reg, threads, trace=trace, fuzz_seed=fuzz_seed,
                         **machine_kw)
    try:
        for d in data:
            machine.register_data(d)
        value = machine.run_value(args, timeout=timeout)
    except BaseException:
        machine.shutdown()
        raise
    if keep:
        return RunOutcome(value, machine, image, flat)
    machine.shutdown()
    return value


# ── random program generator (ints and lists, depth-limited) ─────────


class ProgramGen:
    """Programs over arithmetic, comparisons, if, beta/lambda and list ops.

    Expressions are typed int or list; list expressions track a static
    minimum length so head/tail never fault.  Roots are int- or list-valued.
    """

    def __init__(self, rng):
        self.rng = rng
        self.counter = 0

    def fresh(self):
        self.counter += 1
        return f"g{self.counter}"

    def program(self, depth=6):
        # the grammar requires an operation-rooted S-expression
        kind = self.rng.choice(("int", "int", "int", "list"))
        text, _ = self.sexpr(kind, depth, ())
        return text

    def expr(self, kind, depth, scope):
        r = self.rng.random()
        atoms = [v for v in scope if v[1] == kind]
        if depth <= 0 or r < 0.25:
            if atoms and r < 0.5:
                name, _, min_len = atoms[self.rng.randrange(len(atoms))]
                return name, min_len
            if kind == "int":
                return f"'{self.rng.randrange(-50, 50)}", 0
            return self.sexpr("list", 0, scope)
        return self.sexpr(kind, depth, scope)

    def sexpr(self, kind, depth, scope):
        d = depth - 1
        if kind == "int":
            ops = ["arith", "arith", "cmp", "if", "beta"]
            if any(v[1] == "list" for v in scope) or d > 0:
                ops += ["head", "isempty"]
            choice = self.rng.choice(ops)
            if choice == "arith" or (choice in ("head", "isempty") and d <= 0):
                op = self.rng.choice("+-*")
                a, _ = self.expr("int", d, scope)
                b, _ = self.expr("int", d, scope)
                return f"({op} {a} {b})", 0
            if choice == "cmp":
                op = self.rng.choice((">=", ">", "<=", "<", "==", "!="))
                a, _ = self.expr("int", d, scope)
                b, _ = self.expr("int", d, scope)
                return f"({op} {a} {b})", 0
            if choice == "if":
                c, _ = self.expr("int", d, scope)
                t, _ = self.expr("int", d, scope)
                f, _ = self.expr("int", d, scope)
                return f"(if {c} '{t} '{f})", 0
            if choice == "head":
                l, _ = self.nonempty_list(d, scope)
                return f"(head {l})", 0
            if choice == "isempty":
                l, _ = self.expr("list", d, scope)
                return f"(isempty {l})", 0
            return self.beta("int", d, scope)
        # list-typed
        if d <= 0:
            return "(emptylist)", 0
        choice = self.rng.choice(("cons", "cons", "tail", "beta", "empty"))
        if choice == "cons":
            h, _ = self.expr("int", d, scope)
            t, n = self.expr("list", d, scope)
            return f"(cons {h} {t})", n + 1
        if choice == "tail":
            l, n = self.nonempty_list(d, scope)
            return f"(tail {l})", n - 1
        if choice == "beta":
            return self.beta("list", d, scope)
        return "(emptylist)", 0

    def nonempty_list(self, depth, scope):
        candidates = [v for v in scope if v[1] == "list" and v[2] >= 1]
        if candidates and self.rng.random() < 0.4:
            name, _, n = candidates[self.rng.randrange(len(candidates))]
            return name, n
        h, _ = self.expr("int", depth - 1, scope)
        t, n = self.expr("list", depth - 1, scope)
        return f"(cons {h} {t})", n + 1

    def beta(self, kind, depth, scope):
        d = depth - 1
        nvars = self.rng.randrange(1, 3)
        binds = []
        for _ in range(nvars):
            vkind = self.rng.choice(("int", "int", "list"))
            text, min_len = self.expr(vkind, d, scope)
            quoted = self.rng.random() < 0.3
            binds.append((self.fresh(), vkind, min_len, text, quoted))
        inner = scope + tuple((n, k, m) for n, k, m, _, _ in binds)
        body, n = self.expr(kind, d, inner)
        formals = " ".join(f"'{b[0]}" for b in binds)
        operands = " ".join(f"'{b[3]}" if b[4] and b[3].startswith("(") else b[3]
                            for b in binds)
        return f"(beta (lambda {formals} '{body}) {operands})", n
