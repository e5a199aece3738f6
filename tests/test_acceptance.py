"""Acceptance suite: every criterion at its stated tolerance.

Run `pytest tests/test_acceptance.py -v -s` for one pass/fail line per
criterion.  Criterion 7 (speedup trend) requires a host with at least 4
physical cores and skips, with a message, on smaller machines.
"""

import os
import random
import time

import numpy as np
import pytest

from gprm import compiler, kernels, lang, oracle, vm, words as W
from gprm.bench import BenchConfig, mergesort_gpir, model_seconds, run_mergesort
from gprm.gpc import compile_gpc
from gprm.kernels import ChaseList, ackermann, is_list, materialize, standard_registry
from gprm.compiler import ROOT, compile_text, flat_lines

from conftest import ProgramGen, fresh_registry


def report(n, msg):
    print(f"\nACCEPTANCE CRITERION {n}: PASS — {msg}")


def norm(v):
    return materialize(v) if is_list(v) else v


# ── 1. golden compilation ────────────────────────────────────────────


def test_criterion_1_golden_compilation():
    """The canonical composition/lambda/front-end examples flatten to known shapes."""
    t0 = time.perf_counter()
    fp = compiler.flatten(lang.desugar(lang.parse("(t1.m2 (t2.m3 '42) (t3.m4))")))
    assert fp.entries[ROOT].op == "t1.m2"
    assert flat_lines(fp) == [
        "r0 => (t1.m2 r1@t0 r2@t0)",
        "r1 => (t2.m3 '42)",
        "r2 => (t3.m4)",
    ]

    fp = compiler.flatten(lang.desugar(lang.parse("(lambda 'x '(* (- x '1) (+ x '1)))")))
    assert flat_lines(fp) == [
        "r0 => (lambda 'v0 'r1@t0)",
        "r1 => (* r2@t0 r3@t0)",
        "r2 => (- v0 '1)",
        "r3 => (+ v0 '1)",
    ]

    source = """
    GPRM::Kernel::Task1 t1;
    GPRM::Kernel::Task2 t2;
    int GPRM::compute(int v0) {
      int v1 = t1.m1(v0);
      int v2 = t2.m1(v1);
      int v3 = t2.m2(v1);
      return t1.m2(v2, v3);
    }
    """
    gpir = compile_gpc(source)
    assert gpir == ("(beta (lambda 'v1 '(t1.m2 (t2.m1 v1) (t2.m2 v1)))"
                    " (t1.m1 (ctrl.arg '0)))")
    reg = fresh_registry(stubs=(("t1", ["m1", "m2"]), ("t2", ["m1", "m2"])))
    image = compile_text(gpir, 4, reg)
    assert compiler.decode(image).entries  # image round-trips
    assert compiler.image_to_bytes(
        compiler.image_from_bytes(compiler.image_to_bytes(image))
    ) == compiler.image_to_bytes(image)
    dt = time.perf_counter() - t0
    assert dt < 1.0
    report(1, f"golden shapes and front-end round-trip in {dt:.2f}s")


# ── 2. determinism (Church-Rosser) ───────────────────────────────────


def test_criterion_2_determinism():
    """100 fuzzed runs of 50 generated programs at 1/2/4/8 threads == oracle."""
    t0 = time.perf_counter()
    rng = random.Random(20240601)
    gen = ProgramGen(rng)
    runs = 0
    for i in range(50):
        text = gen.program(depth=6)
        want = norm(oracle.evaluate(text, fresh_registry()))
        ast = lang.desugar(lang.parse(text))
        for threads in (1, 2, 4, 8):
            flat = compiler.assign_tiles(compiler.flatten(ast), threads)
            reg = fresh_registry()
            image = compiler.encode(flat, threads, reg)
            with vm.Machine(image, reg, threads, fuzz_seed=1000 * i + threads) as m:
                for _ in range(25):
                    got = m.run_value()
                    runs += 1
                    assert got == want, f"program {i} at {threads} threads: {text}"
    dt = time.perf_counter() - t0
    assert dt < 120.0
    report(2, f"{runs} fuzzed runs over 50 programs agree with the oracle ({dt:.1f}s)")


# ── 3. laziness ──────────────────────────────────────────────────────


def _reachable(flat, addr):
    seen, stack = {addr}, [addr]
    while stack:
        for a in flat.entries[stack.pop()].args:
            if W.kind_of(a) == W.KIND_REF and W.ref_addr(a) not in seen:
                seen.add(W.ref_addr(a))
                stack.append(W.ref_addr(a))
    return seen


def test_criterion_3_laziness():
    """20 if-programs: zero requests for the unselected branch."""
    t0 = time.perf_counter()
    rng = random.Random(33)
    gen = ProgramGen(rng)
    for i in range(20):
        truth = i % 2 == 0
        cond = f"(>= '{7 if truth else 1} '5)"
        t_branch, _ = gen.sexpr("int", 3, ())
        f_branch, _ = gen.sexpr("int", 3, ())
        text = f"(if {cond} '{t_branch} '{f_branch})"
        want = norm(oracle.evaluate(text, fresh_registry()))
        ast = lang.desugar(lang.parse(text))
        flat = compiler.assign_tiles(compiler.flatten(ast), 4)
        reg = fresh_registry()
        image = compiler.encode(flat, 4, reg)
        with vm.Machine(image, reg, 4, trace=True) as m:
            assert m.run_value() == want
            unselected = flat.entries[ROOT].args[1 if not truth else 2]
            dead = _reachable(flat, W.ref_addr(unselected))
            for pkt in m.trace_packets():
                if pkt.kind == vm.REQ:
                    assert W.ref_addr(pkt.payload[0]) not in dead
    dt = time.perf_counter() - t0
    assert dt < 10.0
    report(3, f"20 if-programs, no unselected-branch packets ({dt:.1f}s)")


# ── 4. placement ─────────────────────────────────────────────────────


def test_criterion_4_placement(monkeypatch):
    """ctrl.run pins work to the requested tile; merge-sort leaf n on n mod tiles."""
    t0 = time.perf_counter()
    for tiles in (4, 8):
        reg = fresh_registry(stubs=(("t1", ["m1"]),))
        for t in range(tiles):
            text = f"(ctrl.run '(t1.m1) '{t})"
            flat = compiler.assign_tiles(
                compiler.flatten(lang.desugar(lang.parse(text))), tiles)
            image = compiler.encode(flat, tiles, reg)
            target = next(a for a, e in enumerate(flat.entries) if e.op == "t1.m1")
            with vm.Machine(image, reg, tiles, trace=True) as m:
                m.run_value()
                req = next(p for p in m.trace_packets()
                           if p.kind == vm.REQ and W.ref_addr(p.payload[0]) == target)
                assert req.dst == t, f"tiles={tiles} t={t}: landed on {req.dst}"

    # merge sort: every ms.leaf call for node n runs on tile n mod tiles
    leaves = []
    ms_leaf = kernels._ms_leaf

    def leaf(ctx, n, a):
        leaves.append((n, ctx.tile_id))
        return ms_leaf(ctx, n, a)

    monkeypatch.setattr(kernels, "_ms_leaf", leaf)
    tiles = 4
    registry = standard_registry()
    image = compile_text(mergesort_gpir(tiles), tiles, registry)
    arr = np.random.default_rng(4).integers(0, 1000, size=64, dtype=np.int32)
    with vm.Machine(image, registry, tiles) as m:
        m.register_data(arr)
        m.run()
    assert {n for n, _ in leaves} == {4, 5, 6, 7}  # nodes n in [nmax, 2*nmax)
    for node, tile in leaves:
        assert tile == node % tiles
    dt = time.perf_counter() - t0
    assert dt < 30.0
    report(4, f"ctrl.run placement exact on 4 and 8 tiles; leaves on n mod tiles ({dt:.1f}s)")


# ── 5. sequentialization ─────────────────────────────────────────────

NESTED = ("(beta (lambda 'x1 '(beta (lambda 'x2 '(+ x1 x2)) (log.rec '2)))"
          " (log.rec '1))")
FLAT = "(beta (lambda 'x1 'x2 '(+ x1 x2)) (log.rec '1) (log.rec '2))"


def _orders(text, seeds, jitter=2e-3):
    orders = []
    for seed in seeds:
        reg = fresh_registry(log_jitter=jitter)
        image = compile_text(text, 4, reg)
        with vm.Machine(image, reg, 4, fuzz_seed=seed) as m:
            assert m.run_value() == 3
            orders.append(tuple(m.shared_state("log")["events"]))
    return orders


def test_criterion_5_sequentialization():
    """Nested lambdas force strict order; the n-ary form evaluates in parallel."""
    t0 = time.perf_counter()
    seeds = range(100)
    nested_orders = _orders(NESTED, seeds)
    assert set(nested_orders) == {(1, 2)}, "nested encoding must be strictly ordered"
    flat_orders = _orders(FLAT, seeds)
    assert all(sorted(o) == [1, 2] for o in flat_orders)
    distinct = set(flat_orders)
    assert len(distinct) >= 2, f"expected both interleavings, saw {distinct}"
    dt = time.perf_counter() - t0
    assert dt < 60.0
    report(5, f"nested: 100/100 ordered; flat: {len(distinct)} distinct orders ({dt:.1f}s)")


# ── 6. merge-sort correctness ────────────────────────────────────────


def test_criterion_6_mergesort_correctness():
    """200 random arrays, n in [8, 65536], threads cycling 1/2/4/8."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(6)
    images = {}
    for i in range(200):
        threads = (1, 2, 4, 8)[i % 4]
        n = int(rng.integers(max(8, threads), 65537))
        if threads not in images:
            registry = standard_registry()
            images[threads] = (compile_text(mergesort_gpir(threads), threads, registry),
                               registry)
        image, registry = images[threads]
        arr = rng.integers(-(2**31), 2**31, size=n, dtype=np.int32)
        want = np.sort(arr.copy())
        with vm.Machine(image, registry, threads) as m:
            m.register_data(arr)
            m.run()
        assert np.array_equal(arr, want), f"run {i}: n={n} threads={threads}"
    dt = time.perf_counter() - t0
    assert dt < 120.0
    report(6, f"200 arrays sorted bit-identically to the trusted sort ({dt:.1f}s)")


# ── 7. merge-sort trend vs model ─────────────────────────────────────


def test_criterion_7_speedup_trend():
    """At 4M elements: speedup(2) within +-30% of the 1.91x model, monotone to 4."""
    cores = os.cpu_count() or 1
    if cores < 4:
        print(f"\nACCEPTANCE CRITERION 7: SKIP — host has {cores} core(s); "
              "the criterion requires >= 4 physical cores")
        pytest.skip(f"requires >= 4 physical cores, host has {cores}")
    t0 = time.perf_counter()
    n = 1 << 22
    cfg = BenchConfig("mergesort", size=n, threads=(1, 2, 4), reps=3, seed=7)
    rows = {r["threads"]: r for r in run_mergesort(cfg)}
    s2 = rows[2]["speedup"]
    s4 = rows[4]["speedup"]
    model2 = model_seconds(1.0, n, 1) / model_seconds(1.0, n, 2)  # 1.913x
    assert abs(s2 - model2) <= 0.30 * model2, f"speedup(2)={s2:.2f} vs model {model2:.2f}"
    assert s4 > s2 > 1.0, f"speedup(4)={s4:.2f} speedup(2)={s2:.2f}"
    dt = time.perf_counter() - t0
    assert dt < 300.0
    report(7, f"speedup(2)={s2:.2f} (model {model2:.2f}), speedup(4)={s4:.2f} ({dt:.0f}s)")


# ── 8. list-chase partitioning ───────────────────────────────────────


def test_criterion_8_listchase_partitioning():
    """Exactly-once, stride ownership for n x threads grid; Ackermann spots."""
    t0 = time.perf_counter()

    def naive_ackermann(m, x):
        if m == 0:
            return x + 1
        if x == 0:
            return naive_ackermann(m - 1, 1)
        return naive_ackermann(m - 1, naive_ackermann(m, x - 1))

    assert ackermann(2, 3) == naive_ackermann(2, 3) == 9
    assert ackermann(3, 3) == naive_ackermann(3, 3) == 61

    from gprm.bench import listchase_gpir

    for n in (10, 1000, 100000):
        data = ChaseList(n, 0, 3)  # trivial per-element work for the grid
        for threads in (1, 2, 4, 8):
            registry = standard_registry()
            image = compile_text(listchase_gpir(threads), threads, registry)
            data.reset()
            with vm.Machine(image, registry, threads) as m:
                m.register_data(data)
                total = m.run_value()
            assert total == n
            for i in range(n):
                assert data.counts[i] == 1, f"element {i} count {data.counts[i]}"
                assert data.owners[i] == [i % threads]
    dt = time.perf_counter() - t0
    assert dt < 120.0
    report(8, f"exactly-once + stride ownership on the full grid; A(2,3)=9, A(3,3)=61 ({dt:.1f}s)")


# ── 9. resource conservation ─────────────────────────────────────────


def test_criterion_9_resource_conservation():
    """run() quiesces and verifies full stacks and empty FIFOs after every run."""
    t0 = time.perf_counter()
    reg = fresh_registry()
    image = compile_text("(beta (lambda 'x '(* (- x '1) (+ x '1))) (+ '2 '3))", 4, reg)
    with vm.Machine(image, reg, 4) as m:
        for _ in range(10):
            assert m.run_value() == 24
            m.check_conservation()  # the hook run() already applied, explicitly
        leaked = m.tiles[1].subtask_stack.pop()  # a leaked record must be detected
        with pytest.raises(vm.ResourceLeakError):
            m.check_conservation()
        m.tiles[1].subtask_stack.append(leaked)
    dt = time.perf_counter() - t0
    report(9, f"quiescence hook verifies conservation after every run ({dt:.1f}s)")
