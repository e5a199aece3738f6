"""The four benchmark workloads.

Each workload makes its inputs from the seed, compiles its program, boots a
machine per thread count, runs one unit of work (one ``Machine.run``) and
checks the output.  Only generated inputs reach the program: the mergesort
array, the tree leaves and the tiny workload's arguments.

The mergesort program depends on the thread count (one leaf per thread), so
it is compiled once per thread count, as ``gprm bench mergesort`` does.  The
other programs are compiled once for ``TILES`` tiles and run on 1 and on 2
worker threads.
"""

from __future__ import annotations

import contextlib
import io
import threading

import numpy as np

from gprm import bench, cli, compiler, lang, oracle
from gprm.gpc import compile_gpc
from gprm.kernels import int32, standard_registry, tree_segment
from gprm.vm import Machine

THREADS = (1, 2)
TILES = 2
RUN_TIMEOUT = 120.0
BUILTIN_CALLS = 20000


class CheckFailed(Exception):
    pass


def compile_image(text, tiles, registry, spans):
    """compile_text stage by stage, then the image file round trip."""
    with spans.span("lang.parse"):
        ast = lang.parse(text)
    with spans.span("lang.desugar"):
        ast = lang.desugar(ast)
    with spans.span("compiler.flatten"):
        fp = compiler.flatten(ast)
    with spans.span("compiler.assign_tiles"):
        fp = compiler.assign_tiles(fp, tiles)
    with spans.span("compiler.encode"):
        image = compiler.encode(fp, tiles, registry)
    with spans.span("compiler.image_io"):
        return compiler.image_from_bytes(compiler.image_to_bytes(image))


def _invoker(registry, opname):
    sid, mid, _ = registry.resolve(opname)
    service, _ = registry.spec(sid, mid)
    return lambda ctx, args: registry.invoke(service, mid, ctx, args)


class Workload:
    name = ""
    block = 1  # units run back to back on one thread count before switching
    elements = 0  # input elements one unit processes, where that is a rate users read

    def __init__(self, seed, small):
        self.seed = seed
        self.registry = standard_registry()
        self.text = ""

    def compile(self, spans):
        """{threads: image}."""
        image = compile_image(self.text, TILES, self.registry, spans)
        return {p: image for p in THREADS}

    def boot(self, image, threads, trace=False):
        return Machine(image, self.registry, threads, trace=trace)

    def prepare(self):
        """Untimed step before each unit."""

    def run(self, machine):
        return machine.run_value(self.host_args(), timeout=RUN_TIMEOUT)

    def check(self, out):
        want = self.want()
        if out != want:
            raise CheckFailed(f"{self.name}: got {out!r}, want {want!r}")

    def corrupt(self, out):
        return int32(out + 1)

    def layer_calls(self, spans, images, out_dir):
        """Calls into the layers the machine run does not cover, each in a
        span: here the oracle on the same program, and the builtin `+`."""
        with spans.span("lang.parse", use="oracle"):
            ast = lang.parse(self.text)
        self.prepare()
        with spans.span("oracle.evaluate"):
            out = oracle.evaluate(ast, self.registry, self.host_args())
        self.check(out)
        plus = _invoker(self.registry, "+")
        with spans.span("kernels.invoke", op="+", calls=BUILTIN_CALLS):
            for i in range(BUILTIN_CALLS):
                plus(None, [i, 7])

    def host_args(self):
        return ()

    def model_speedup_2t(self, wall_s_1t):
        """The paper's recursive-halving model; 0 where it does not apply."""
        return 0.0


# ── mergesort ───────────────────────────────────────────────────────


class _KernelCtx:
    """The part of the machine's kernel context that the ms kernels use."""

    def __init__(self):
        self._state = {}
        self._lock = threading.Lock()

    def shared(self, name):
        return self._state.setdefault(name, {}), self._lock


class MergeSort(Workload):
    name = "mergesort"

    def __init__(self, seed, small):
        super().__init__(seed, small)
        self.n = self.elements = 1 << (12 if small else 22)
        self.base = np.random.default_rng(seed).integers(
            -(2**31), 2**31, size=self.n, dtype=np.int32)
        self.checksum = bench._checksum(self.base)
        self.work = np.empty_like(self.base)

    def compile(self, spans):
        images = {}
        for p in THREADS:
            with spans.span("gpc.compile_gpc"):
                text = bench.mergesort_gpir(p)
            images[p] = compile_image(text, p, self.registry, spans)
        return images

    def boot(self, image, threads, trace=False):
        m = super().boot(image, threads, trace)
        m.register_data(self.work)
        return m

    def prepare(self):
        self.work[:] = self.base

    def run(self, machine):
        machine.run(timeout=RUN_TIMEOUT)
        return self.work

    def check(self, out):
        try:
            bench._verify_sorted(out, self.checksum)
        except bench.VerificationError as e:
            raise CheckFailed(f"mergesort: {e}") from None

    def corrupt(self, out):
        out[[0, -1]] = out[[-1, 0]]
        return out

    def model_speedup_2t(self, wall_s_1t):
        k = bench.fit_k(wall_s_1t, self.n, 1)
        return bench.model_seconds(k, self.n, 1) / bench.model_seconds(k, self.n, 2)

    def layer_calls(self, spans, images, out_dir):
        """Each kernel on the slices the 2-thread program gives it: leaves
        are tree nodes 2 and 3 (half the array each), the stem is node 1."""
        leaf = _invoker(self.registry, "ms.leaf")
        stem = _invoker(self.registry, "ms.stem")
        ctx = _KernelCtx()
        self.prepare()
        for node in (2, 3):
            with spans.span("kernels.invoke", op="ms.leaf"):
                leaf(ctx, [node, self.work])
        with spans.span("kernels.invoke", op="ms.stem"):
            stem(ctx, [2, 3, self.work])
        self.check(self.work)
        lo, hi = tree_segment(2, self.n)
        floor = self.base[lo:hi].copy()
        with spans.span("kernels.sort_floor"):
            floor.sort()


# ── fib ─────────────────────────────────────────────────────────────

FIB_GPC = """
int fib(int n) {
  if (n < 2) {
    return n;
  } else {
    return fib(n - 1) + fib(n - 2);
  }
}

int GPRM::main() {
  return fib(%d);
}
"""


class Fib(Workload):
    name = "fib"

    def __init__(self, seed, small):
        super().__init__(seed, small)
        self.n = 8 if small else 15

    def compile(self, spans):
        with spans.span("gpc.compile_gpc"):
            self.text = compile_gpc(FIB_GPC % self.n)
        return super().compile(spans)

    def want(self):
        phi = (1 + 5**0.5) / 2
        return int32(round(phi**self.n / 5**0.5))


# ── tree ────────────────────────────────────────────────────────────


def _plus_tree(leaves):
    if len(leaves) == 1:
        return f"'{leaves[0]}"
    mid = len(leaves) // 2
    return f"(+ {_plus_tree(leaves[:mid])} {_plus_tree(leaves[mid:])})"


class Tree(Workload):
    name = "tree"

    def __init__(self, seed, small):
        super().__init__(seed, small)
        depth = 4 if small else 14
        self.leaves = np.random.default_rng(seed).integers(
            -(2**31), 2**31, size=1 << depth).tolist()
        self.text = _plus_tree(self.leaves)

    def want(self):
        return int32(sum(self.leaves))


# ── tiny ────────────────────────────────────────────────────────────

TINY_GPIR = "(beta (lambda 'x '(* (- x '1) (+ x '1))) (ctrl.arg '0))"
CLI_CALLS = 10


class Tiny(Workload):
    name = "tiny"
    block = 100

    def __init__(self, seed, small):
        super().__init__(seed, small)
        self.text = TINY_GPIR
        self.xs = np.random.default_rng(seed).integers(
            -(2**31), 2**31, size=64 if small else 4096).tolist()
        self.i = -1

    def prepare(self):
        self.i = (self.i + 1) % len(self.xs)

    def host_args(self):
        return (self.xs[self.i],)

    def want(self):
        x = self.xs[self.i]
        return int32(x * x - 1)

    def layer_calls(self, spans, images, out_dir):
        super().layer_calls(spans, images, out_dir)
        path = str(out_dir / "tiny.gprm")
        compiler.write_image(images[TILES], path)
        for _ in range(CLI_CALLS):
            self.prepare()
            buf = io.StringIO()
            argv = ["run", path, "--threads", str(TILES), "--arg", str(self.xs[self.i])]
            with contextlib.redirect_stdout(buf), spans.span("cli.main"):
                code = cli.main(argv)
            if code != cli.EXIT_OK:
                raise CheckFailed(f"tiny: gprm run exited {code}")
            self.check(int(buf.getvalue()))


WORKLOADS = {w.name: w for w in (MergeSort, Fib, Tree, Tiny)}
