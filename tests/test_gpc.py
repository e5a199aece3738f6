"""The single-assignment front-end."""

import hashlib
import itertools
import random
from pathlib import Path

import numpy as np
import pytest

from gprm import compiler, kernels, lang, vm
from gprm.bench import MERGESORT_GPC
from gprm.gpc import MAX_NESTING, GpcError, compile_gpc
from gprm.lang import GpirError
from gprm.oracle import evaluate

from conftest import execute, fresh_registry
from test_compiler import FIB_GPC

COMPUTE_GPC = """
GPRM::Kernel::Task1 t1;
GPRM::Kernel::Task2 t2;

int GPRM::compute(int v0) {
  int v1 = t1.m1(v0);
  int v2 = t2.m1(v1);
  int v3 = t2.m2(v1);
  return t1.m2(v2, v3);
}
"""


def test_compute_compiles_to_exact_sharing_form():
    got = compile_gpc(COMPUTE_GPC)
    assert got == ("(beta (lambda 'v1 '(t1.m2 (t2.m1 v1) (t2.m2 v1)))"
                   " (t1.m1 (ctrl.arg '0)))")


def test_single_call_no_sharing():
    src = "Task1 t1;\nint GPRM::f() { return t1.m1(5); }"
    assert compile_gpc(src) == "(t1.m1 '5)"


def test_compute_runs_end_to_end():
    reg = fresh_registry()
    reg.register("t1", [("m1", 1, lambda c, v: v + 1), ("m2", 2, lambda c, a, b: a + b)])
    reg.register("t2", [("m1", 1, lambda c, v: v * 2), ("m2", 1, lambda c, v: v + 3)])
    gpir = compile_gpc(COMPUTE_GPC)
    assert execute(gpir, threads=4, args=(7,), registry=reg) == 27
    assert evaluate(gpir, reg, host_args=(7,)) == 27


def test_mergesort_gpir_structure():
    gpir = compile_gpc(MERGESORT_GPC, num_threads=4)
    ast = lang.parse(gpir)
    # (begin (beta (lambda 'f 'n 'nmax 'a '(beta f f n nmax a)) F '1 '4 (ctrl.reg '0)) ...)
    assert ast.op.name == "begin"
    outer = ast.args[0]
    assert outer.op.name == "beta"
    wrapper = outer.args[0]
    assert wrapper.op.name == "lambda" and len(wrapper.args) == 5
    seed = wrapper.args[-1].inner
    assert seed.op.name == "beta" and len(seed.args) == 5
    helper = outer.args[1]
    assert helper.op.name == "lambda" and len(helper.args) == 5
    guard = helper.args[-1].inner
    assert guard.op.name == "if"
    assert guard.args[0].op.name == ">="
    leaf_branch = guard.args[1].inner
    assert leaf_branch.op.name == "ctrl.run"
    assert leaf_branch.args[0].inner.op.name == "ms.leaf"
    stem_branch = guard.args[2].inner
    assert stem_branch.op.name == "ctrl.run"
    assert stem_branch.args[0].inner.op.name == "ms.stem"
    assert "(ctrl.reg '0)" in gpir


def test_mergesort_image_root_is_beta_entry():
    reg = kernels.standard_registry()
    gpir = compile_gpc(MERGESORT_GPC, num_threads=4)
    img = compiler.compile_text(gpir, 4, reg)
    fp = compiler.decode(img)
    assert fp.entries[fp.root].op == "beta"


def test_mergesort_gpc_sorts():
    reg = kernels.standard_registry()
    gpir = compile_gpc(MERGESORT_GPC, num_threads=4)
    img = compiler.compile_text(gpir, 4, reg)
    rng = np.random.default_rng(11)
    arr = rng.integers(-(2**31), 2**31, size=100, dtype=np.int32)
    want = np.sort(arr.copy())
    with vm.Machine(img, reg, 4) as m:
        m.register_data(arr)
        m.run()
    assert np.array_equal(arr, want)


def test_shared_variable_producer_runs_once():
    reg = fresh_registry()
    reg.register("t1", [("m1", 1, lambda c, v: v + 1), ("m2", 2, lambda c, a, b: a + b)])
    reg.register("t2", [("m1", 1, lambda c, v: v * 2), ("m2", 1, lambda c, v: v + 3)])
    gpir = compile_gpc(COMPUTE_GPC)
    out = execute(gpir, threads=4, args=(1,), registry=reg, trace=True, keep=True)
    try:
        producer = next(a for a, e in out.flat.entries.items() if e.op == "t1.m1")
        reqs = [p for p in out.requests()
                if p.payload[0] & 0xFFFFFFFF == producer and p.payload[0] >> 60 == 0]
        assert len(reqs) == 1
    finally:
        out.machine.shutdown()


def test_pointer_params_use_reg_int_params_use_arg():
    src = """
    Worker w;
    int GPRM::f(int x, int* buf, int y) { return w.go(x, buf, y); }
    """
    assert compile_gpc(src) == "(w.go (ctrl.arg '0) (ctrl.reg '0) (ctrl.arg '1))"


def test_if_else_compiles_lazy():
    src = "Task1 t1;\nint GPRM::f(int x) { if (x >= 1) { return t1.m1(x); } else { return 0; } }"
    assert compile_gpc(src) == "(if (>= (ctrl.arg '0) '1) '(t1.m1 (ctrl.arg '0)) '0)"


def test_independent_defs_share_one_binding_layer():
    src = """
    Task1 t1;
    int GPRM::f(int x) {
      int a = t1.m1(x);
      int b = t1.m1(2);
      return t1.m2(a, a, b, b);
    }
    """
    out = compile_gpc(src)
    assert out == ("(beta (lambda 'a 'b '(t1.m2 a a b b)) (t1.m1 (ctrl.arg '0))"
                   " (t1.m1 '2))")


def test_dependent_defs_nest():
    src = """
    Task1 t1;
    int GPRM::f(int x) {
      int a = t1.m1(x);
      int b = t1.m1(a);
      return t1.m2(a, b, b);
    }
    """
    out = compile_gpc(src)
    assert out == ("(beta (lambda 'a '(beta (lambda 'b '(t1.m2 a b b)) (t1.m1 a)))"
                   " (t1.m1 (ctrl.arg '0)))")


def test_errors():
    with pytest.raises(GpcError, match="reassigned"):
        compile_gpc("T t;\nint GPRM::f() { int a = t.m(1); a = t.m(2); return a; }")
    with pytest.raises(GpcError, match="unassigned"):
        compile_gpc("T t;\nint GPRM::f() { return t.m(zz); }")
    with pytest.raises(GpcError, match="use recursion"):
        compile_gpc("T t;\nint GPRM::f() { for (;;) {} return 0; }")
    with pytest.raises(GpcError, match="use recursion"):
        compile_gpc("T t;\nint GPRM::f() { while (1) {} }")
    with pytest.raises(GpcError, match="undeclared kernel instance"):
        compile_gpc("int GPRM::f() { return t9.m(1); }")
    with pytest.raises(GpcError, match="unused variable"):
        compile_gpc("T t;\nint GPRM::f() { int a = t.m(1); return 0; }")
    with pytest.raises(GpcError, match="mutual recursion"):
        compile_gpc("""
        T t;
        int f(int x) { return g(x); }
        int g(int x) { return f(x); }
        int GPRM::h() { return f(1); }
        """)
    with pytest.raises(GpcError, match="NUM_THREADS"):
        compile_gpc("T t;\nint GPRM::f() { return t.m(NUM_THREADS); }")


def _simulate_gpc(defs, ret, kernels_fn, arg0):
    """Independent straight-line evaluator: dict env, python arithmetic."""
    env = {"x": arg0}

    def ev(e):
        kind = e[0]
        if kind == "int":
            return e[1]
        if kind == "var":
            return env[e[1]]
        if kind == "call":
            return kernels_fn(e[1], [ev(a) for a in e[2]])
        op, l, r = e[1], ev(e[2]), ev(e[3])
        table = {
            "+": l + r, "-": l - r, "*": l * r,
            ">=": int(l >= r), ">": int(l > r), "<=": int(l <= r),
            "<": int(l < r), "==": int(l == r), "!=": int(l != r),
        }
        return kernels.int32(table[op])

    for name, e in defs:
        env[name] = ev(e)
    return ev(ret)


def test_generated_straight_line_semantics():
    rng = random.Random(99)

    def gen_expr(env_names, depth):
        r = rng.random()
        if depth <= 0 or r < 0.3:
            if env_names and r < 0.15:
                return ("var", rng.choice(env_names))
            return ("int", rng.randrange(1, 20))
        if r < 0.6:
            return ("bin", rng.choice(["+", "-", "*"]),
                    gen_expr(env_names, depth - 1), gen_expr(env_names, depth - 1))
        return ("call", "t1.m1", [gen_expr(env_names, depth - 1)])

    def render(e):
        if e[0] == "int":
            return str(e[1])
        if e[0] == "var":
            return e[1]
        if e[0] == "call":
            return f"{e[1]}({', '.join(render(a) for a in e[2])})"
        return f"({render(e[2])} {e[1]} {render(e[3])})"

    for _ in range(15):
        names = []
        defs = []
        for i in range(rng.randrange(1, 4)):
            e = gen_expr(["x"] + names, 3)
            defs.append((f"v{i}", e))
            names.append(f"v{i}")
        ret = ("bin", "+", gen_expr(["x"] + names, 2),
               ("var", names[-1]) if names else ("int", 1))
        body = "".join(f"  int {n} = {render(e)};\n" for n, e in defs)
        # reference every def at least once so none is flagged unused
        uses = " + ".join([render(ret)] + names)
        src = f"Task1 t1;\nint GPRM::f(int x) {{\n{body}  return {uses};\n}}\n"
        reg = fresh_registry()
        reg.register("t1", [("m1", 1, lambda c, v: (v * 7 + 1) & 0xFFFF)])
        gpir = compile_gpc(src)
        arg0 = rng.randrange(0, 10)
        want = _simulate_gpc(
            defs, ret, lambda _, a: (a[0] * 7 + 1) & 0xFFFF, arg0)
        for n, _e in defs:
            want += _simulate_gpc(defs, ("var", n),
                                  lambda _, a: (a[0] * 7 + 1) & 0xFFFF, arg0)
        got = execute(gpir, threads=4, args=(arg0,), registry=reg)
        assert got == kernels.int32(want)
        reg2 = fresh_registry()
        reg2.register("t1", [("m1", 1, lambda c, v: (v * 7 + 1) & 0xFFFF)])
        assert evaluate(gpir, reg2, host_args=(arg0,)) == kernels.int32(want)


# ── robustness: only GpcError/GpirError, whatever the source ─────────

SAMPLES = [(Path(__file__).resolve().parent.parent / "programs" / "compute.gpc").read_text(),
           MERGESORT_GPC, FIB_GPC]


def _compiles_or_refuses(src):
    try:
        compile_gpc(src, num_threads=4)
    except (GpcError, GpirError):
        pass


def test_every_prefix_of_the_samples_compiles_or_refuses():
    for src in SAMPLES:
        for i in range(len(src) + 1):
            _compiles_or_refuses(src[:i])


def test_seeded_edits_of_the_samples_compile_or_refuse():
    rng = random.Random(5)
    for _ in range(500):
        src = rng.choice(SAMPLES)
        for _ in range(rng.randrange(1, 4)):
            i = rng.randrange(len(src))
            ch = rng.choice("(){};,=+-*<>.:x1 ")
            src = rng.choice([src[:i] + src[i + 1:], src[:i] + ch + src[i:],
                              src[:i] + ch + src[i + 1:]])
        _compiles_or_refuses(src)


def test_long_plus_chain_compiles_and_agrees_with_the_oracle():
    terms = " + ".join(["a"] * 2 + [str(i % 7) for i in range(4998)])
    gpir = compile_gpc(f"int GPRM::f(int x) {{ int a = x * 2; return {terms}; }}")
    want = evaluate(gpir, fresh_registry(), host_args=(5,))
    assert want == 20 + sum(i % 7 for i in range(4998))
    for threads in (1, 2):
        assert execute(gpir, threads=threads, args=(5,)) == want


def test_recursion_errors():
    with pytest.raises(GpcError, match="entry function 'f' calls itself: move the recursion"):
        compile_gpc("int f(int n) { return f(n); }")
    with pytest.raises(GpcError, match="entry function 'main' calls itself"):
        compile_gpc("int fib(int n) { return n; }\nint GPRM::main() { return main(); }")
    with pytest.raises(GpcError, match="mutual recursion is not supported: f -> g -> f"):
        compile_gpc("int f(int x) { return g(x); }\nint g(int x) { return f(x); }\n"
                    "int GPRM::h() { return f(1); }")


def test_duplicate_function_is_refused():
    # a second definition used to replace the first without a word
    with pytest.raises(GpcError, match="duplicate definition of function 'f'"):
        compile_gpc("T t;\nint f(int x) { return t.a(x); }\nint f(int x) { return t.b(x); }\n"
                    "int GPRM::main() { return f(1); }")
    with pytest.raises(GpcError, match="duplicate definition of function 'main'"):
        compile_gpc("int main() { return 1; }\nint GPRM::main() { return 2; }")


def _nested(parens=0, calls=0, ifs=0):
    e = "(" * parens + "t.m(" * calls + "1" + ")" * (calls + parens)
    body = f"return {e};"
    for _ in range(ifs):
        body = f"if (1) {{ {body} }} else {{ return 0; }}"
    return f"T t;\nint GPRM::f() {{\n{body}\n}}"


@pytest.mark.parametrize("shape", [dict(parens=1), dict(calls=1), dict(ifs=1),
                                   dict(parens=40, calls=30, ifs=30)])
def test_nesting_bound(shape):
    scale = {k: v * MAX_NESTING // sum(shape.values()) for k, v in shape.items()}
    compile_gpc(_nested(**scale))
    scale[next(iter(scale))] += 1
    with pytest.raises(GpcError, match=f"nesting deeper than {MAX_NESTING} at line 3"):
        compile_gpc(_nested(**scale))
    scale[next(iter(scale))] += 10 * MAX_NESTING
    with pytest.raises(GpcError, match="nesting deeper"):
        compile_gpc(_nested(**scale))


def _helper_chain(n):
    """n helpers, each calling the next, and an entry that calls the first."""
    links = "".join(f"int f{i}(int x) {{ return f{i + 1}(x) + 1; }}\n" for i in range(n))
    return f"{links}int f{n}(int x) {{ return x; }}\nint GPRM::main() {{ return f0(1); }}\n"


def test_helper_chain_too_long_to_generate_is_refused():
    assert evaluate(compile_gpc(_helper_chain(300)), fresh_registry()) == 301
    with pytest.raises(GpcError, match="helper calls nest too deeply"):
        compile_gpc(_helper_chain(1000))


# ── the generated GPIR, byte for byte ────────────────────────────────


def _random_program(rng):
    """A .gpc program that compiles: helpers (some self-recursive), an entry,
    definitions read once or more, bare statements and nested `if`."""
    count = itertools.count()

    def expr(names, helpers, read, depth):
        r = rng.random()
        if depth <= 0 or r < 0.3:
            if names and r < 0.2:
                name = rng.choice(names)
                read.add(name)
                return name
            return "NUM_THREADS" if r > 0.29 else str(rng.randrange(9))
        if r < 0.6:
            return (f"({expr(names, helpers, read, depth - 1)} {rng.choice('+-*')} "
                    f"{expr(names, helpers, read, depth - 1)})")
        if r < 0.7 and helpers:
            name, arity = rng.choice(helpers)
        else:
            name, arity = f"t.m{rng.randrange(3)}", rng.randrange(1, 3)
        return f"{name}({', '.join(expr(names, helpers, read, depth - 1) for _ in range(arity))})"

    def block(names, helpers, depth):
        lines, read, fresh = [], set(), []
        for _ in range(rng.randrange(4)):
            name = f"v{next(count)}"
            lines.append(f"int {name} = {expr(names + fresh, helpers, read, 2)};")
            fresh.append(name)
        for _ in range(rng.randrange(2)):
            lines.append(f"t.m0({expr(names + fresh, helpers, read, 2)});")
        unread = " + ".join(n for n in fresh if n not in read) or "0"
        if depth > 0 and rng.random() < 0.4:
            then = block(names + fresh, helpers, depth - 1)
            if rng.random() < 0.2:  # a constant read once, as a whole branch
                const = f"v{next(count)}"
                lines.append(f"int {const} = {rng.randrange(9)};")
                then = f"return {const};"
            other = block(names + fresh, helpers, depth - 1)
            lines.append(f"if ({unread} < {expr(names + fresh, helpers, read, 1)}) "
                         f"{{ {then} }} else {{ {other} }}")
        elif unread == "0" and names + fresh and rng.random() < 0.5:
            lines.append(f"return {rng.choice(names + fresh)};")
        else:
            lines.append(f"return {unread} + {expr(names + fresh, helpers, read, 2)};")
        return " ".join(lines)

    helpers, funcs = [], ["T t;"]
    for i in range(rng.randrange(3)):
        name, params = f"h{i}", [f"a{i}", f"b{i}"][:rng.randrange(1, 3)]
        own = helpers + [(name, len(params))] * (rng.random() < 0.5)
        body = block(params, own, 2)
        funcs.append(f"int {name}({', '.join('int ' + p for p in params)}) {{ {body} }}")
        helpers.append((name, len(params)))
    funcs.append(f"int GPRM::main(int x, int* p) {{ {block(['x', 'p'], helpers, 3)} }}")
    return "\n".join(funcs)


def test_generated_programs_match_the_recorded_gpir():
    # SHA-256 of the GPIR texts, recorded with the quadratic, recursive
    # generator this one replaced
    rng = random.Random(9)
    texts = [compile_gpc(_random_program(rng), num_threads=4) for _ in range(300)]
    assert sum("''" in t for t in texts) > 0  # inlined constants as whole branches
    digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
    assert digest == "26e16a94cbdad78ac09451fb1f83194a1646e5a913786ab99f161336315a0dda"
