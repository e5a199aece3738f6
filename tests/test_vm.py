"""The reduction machine: dispatch, beta, if, placement, errors, conservation."""

import queue
import random
import re
import sys
import threading
import time

import pytest

from gprm import bench, compiler, kernels, lang, vm, words as W
from gprm.compiler import ROOT
from gprm.gpc import compile_gpc
from gprm.kernels import NO_RESULT, KernelError
from gprm.oracle import Oracle, OracleError, evaluate
from gprm.vm import (
    REQ,
    RES,
    Machine,
    Packet,
    ProtocolError,
    ResourceLeakError,
    StuckReductionError,
    TaskError,
    VmError,
)

from conftest import execute, fresh_registry
from test_compiler import FIB_GPC as FIB15_GPC, with_crc


def compile_for(text, tiles, registry):
    return compiler.compile_text(text, tiles, registry)


def reg_with_stubs():
    reg = fresh_registry()
    kernels.add_stub_service(reg, "t1", ["m1", "m2"])
    kernels.add_stub_service(reg, "t2", ["m1", "m3"])
    kernels.add_stub_service(reg, "t3", ["m4"])
    return reg


# ── basics ───────────────────────────────────────────────────────────


def test_arithmetic_forced():
    assert execute("(+ '2 '3)", threads=2) == 5
    assert execute("(* (- '5 '1) (+ '5 '1))", threads=4) == 24


def test_boot_zero_threads_rejected():
    reg = fresh_registry()
    img = compile_for("(+ '1 '2)", 2, reg)
    with pytest.raises(VmError, match="no kernel thread for task kernels"):
        Machine(img, reg, 0)


def test_boot_refuses_a_tile_count_a_reference_cannot_name():
    # a reference's tile field has TILE_MASK + 1 values; boot refuses any
    # other count before it makes a tile or a thread
    reg = fresh_registry()
    img = compile_for("(+ '1 '2)", 1, reg)
    for tiles in (0, W.TILE_MASK + 2):
        img.tile_count = tiles
        with pytest.raises(VmError, match=rf"^tile count must be in 1\.\.{W.TILE_MASK + 1}$"):
            Machine(img, reg, 1)


def test_same_value_across_thread_counts():
    text = "(beta (lambda 'x '(* (- x '1) (+ x '1))) (+ '2 '3))"
    values = {execute(text, threads=t) for t in (1, 2, 4, 8)}
    assert values == {24}


def test_boot_twice_independent_machines():
    reg = fresh_registry()
    img = compile_for("(+ (ctrl.arg '0) '1)", 2, reg)
    with Machine(img, reg, 2) as a, Machine(img, reg, 2) as b:
        assert a.run_value((1,)) == 2
        assert b.run_value((10,)) == 11
        assert a.run_value((5,)) == 6


def test_symbol_mismatch_rejected():
    reg = reg_with_stubs()
    img = compile_for("(t1.m1 '1)", 2, reg)
    other = fresh_registry()
    kernels.add_stub_service(other, "zZ", ["m9"])  # shifts service ids
    kernels.add_stub_service(other, "t1", ["m1"])
    with pytest.raises(VmError, match="symbol mismatch"):
        Machine(img, other, 2)


def test_dataflow_example_with_stub_kernels():
    # stage kernels: +1, *2, +3, then sum
    reg = fresh_registry()
    reg.register("t1", [("m1", 1, lambda c, v: v + 1), ("m2", 2, lambda c, a, b: a + b)])
    reg.register("t2", [("m1", 1, lambda c, v: v * 2), ("m2", 1, lambda c, v: v + 3)])
    text = "(beta (lambda 'v1 '(t1.m2 (t2.m1 v1) (t2.m2 v1))) (t1.m1 (ctrl.arg '0)))"
    assert execute(text, threads=4, args=(7,), registry=reg) == 27


def test_multiplexed_tiles_on_fewer_threads():
    reg = reg_with_stubs()
    img = compile_for("(t1.m2 (t2.m3 '42) (t3.m4))", 8, reg)
    with Machine(img, reg, 3) as m:
        assert m.run_value() == 42
    with Machine(img, reg, 1) as m:
        assert m.run_value() == 42


# ── packet behaviour (trace) ─────────────────────────────────────────


def test_leaf_entry_no_argument_requests():
    out = execute("(t2.m3 '42)", threads=2, registry=reg_with_stubs(),
                  trace=True, keep=True)
    try:
        assert out.value == 42
        assert len(out.requests()) == 1  # only the root reference itself
    finally:
        out.machine.shutdown()


def test_two_reference_arguments_two_requests():
    out = execute("(t1.m2 (t2.m3 '42) (t3.m4))", threads=4,
                  registry=reg_with_stubs(), trace=True, keep=True)
    try:
        addr_reqs = [p for p in out.requests()
                     if W.ref_addr(p.payload[0]) in (1, 2)]
        assert len(addr_reqs) == 2
    finally:
        out.machine.shutdown()


def test_ctrl_run_quoted_argument_not_dispatched_at_parse():
    reg = reg_with_stubs()
    out = execute("(ctrl.run '(t1.m1) (+ '1 '2))", threads=4, registry=reg,
                  trace=True, keep=True)
    try:
        target = next(a for a, e in enumerate(out.flat.entries) if e.op == "t1.m1")
        reqs = [p for p in out.requests() if W.ref_addr(p.payload[0]) == target]
        assert len(reqs) == 1  # only the restart, not the parse
        assert reqs[0].dst == 3 % out.machine.tile_count
    finally:
        out.machine.shutdown()


def test_trace_file_format(tmp_path):
    out = execute("(+ '1 '2)", threads=2, trace=True, keep=True)
    try:
        path = tmp_path / "trace.log"
        out.machine.write_trace(path)
        lines = path.read_text().splitlines()
        assert lines
        for i, line in enumerate(lines):
            seq, kind, src, dst, caller_addr, arg_idx, payload = line.split()
            assert int(seq) == i
            assert kind in ("REQ", "RES")
            int(src), int(dst), int(caller_addr), int(arg_idx)
            int(payload.split(",")[0], 16)
    finally:
        out.machine.shutdown()


def test_write_trace_untraced_machine_raises(tmp_path):
    reg = fresh_registry()
    path = tmp_path / "trace.log"
    with Machine(compile_for("(+ '1 '2)", 1, reg), reg, 1) as m:
        assert m.run_value() == 3
        with pytest.raises(VmError, match="booted without trace=True"):
            m.write_trace(path)
    assert not path.exists()


def test_clear_trace_starts_the_next_run_from_an_empty_trace():
    reg = fresh_registry()
    with Machine(compile_for("(+ (+ '1 '2) (+ '3 '4))", 2, reg), reg, 2, trace=True) as m:
        assert m.run_value() == 10
        packets = len(m.trace_packets())
        m.clear_trace()
        assert m.trace_packets() == []
        assert m.run_value() == 10
        assert len(m.trace_packets()) == packets


def test_write_trace_lines_give_the_packet_fields(tmp_path):
    reg = fresh_registry()
    with Machine(compile_for("(+ (+ '1 '2) (+ '3 '4))", 2, reg), reg, 2, trace=True) as m:
        assert m.run_value() == 10
        path = tmp_path / "trace.log"
        m.write_trace(path)
        packets = m.trace_packets()
    assert all(type(p) is Packet for p in packets)
    kinds = [p.kind for p in packets]
    assert (kinds.count(REQ), kinds.count(RES)) == (3, 3)
    lines = path.read_text().splitlines()
    assert len(lines) == len(packets)
    for seq, (line, p) in enumerate(zip(lines, packets)):
        assert line.split() == [str(seq), "REQ" if p.kind == REQ else "RES", str(p.src),
                                str(p.dst), str(p.caller_addr), str(p.caller_arg),
                                ",".join(f"{w:016x}" for w in p.payload)]


# ── beta reduction ───────────────────────────────────────────────────


def test_beta_square_identity():
    assert execute("(beta (lambda 'x '(* (- x '1) (+ x '1))) '5)") == 24


def test_beta_atom_bodies():
    assert execute("(beta (lambda 'x 'x) '7)") == 7
    assert execute("(beta (lambda 'x '3) '9)") == 3
    assert execute("(beta (lambda 'x 'x) (+ '1 '2))") == 3


def test_beta_quoted_operand_deferred():
    # quoted operand: evaluated at each unquoted occurrence, in its own env
    assert execute("(beta (lambda 'x '(+ x x)) '(+ '1 '2))") == 6


def test_beta_handle_substituted_into_body_position():
    # inner lambda's body is a free variable of the outer lambda; once the
    # outer application binds a handle to it, the inner application must
    # return that handle, not treat it as code
    text = "(beta (lambda 'x '(beta (lambda 'y 'x) '1)) (emptylist))"
    assert execute(text, threads=4, timeout=10.0) == []
    text2 = "(beta (lambda 'x '(beta (lambda 'y 'x) '1)) (cons '9 (emptylist)))"
    assert execute(text2, threads=2, timeout=10.0) == [9]


def test_beta_lambda_value_flows():
    text = "(beta (beta (lambda 'f 'f) (lambda 'y '(+ y '1))) '4)"
    assert execute(text) == 5


def test_beta_arity_mismatch():
    with pytest.raises(TaskError, match="arity mismatch"):
        execute("(beta (lambda 'x 'x) '1 '2)")


def test_beta_non_lambda_operator():
    with pytest.raises(TaskError, match="not a lambda value"):
        execute("(beta (+ '1 '2) '3)")
    with pytest.raises(TaskError, match="not a lambda value"):
        execute("(beta '5 '1)")


def test_recursion_fresh_code_per_application():
    # triangular numbers by self-application
    text = """
    (beta (lambda 'f 'n '(beta f f n))
          (lambda 'f 'n '(if (>= n '1) '(+ n (beta f f (- n '1))) '0))
          '10)
    """
    out = execute(text, threads=4, keep=True)
    try:
        assert out.value == 55
        # the two lambdas' closures only: an application binds, it makes no entry
        assert sum(t.arena_next for t in out.machine.tiles) == 2
    finally:
        out.machine.shutdown()


def test_runtime_arena_reset_between_runs():
    reg = fresh_registry()
    img = compile_for("(beta (lambda 'x '(+ x x)) (ctrl.arg '0))", 2, reg)
    with Machine(img, reg, 2) as m:
        assert m.run_value((3,)) == 6
        used_first = sum(t.arena_next for t in m.tiles)
        assert m.run_value((5,)) == 10
        assert sum(t.arena_next for t in m.tiles) == used_first


def test_runtime_region_exhaustion_is_a_task_error(monkeypatch):
    # a beta whose closure would run past the 32-bit address space replies an
    # error; the machine stays sound, and the next run starts from an empty
    # arena.  fib with deferred operands closes two of them per call
    monkeypatch.setattr(vm, "RUNTIME_BASE", (1 << 32) - 64)
    reg = fresh_registry()
    src = ("(beta (lambda 'f 'n '(beta f f n))"
           " (lambda 'f 'n '(if (< n '2) 'n '(+ (beta f f '(- n '1)) (beta f f '(- n '2)))))"
           " (ctrl.arg '0))")
    with Machine(compile_for(src, 1, reg), reg, 1) as m:
        with pytest.raises(TaskError) as ei:
            m.run_value((10,))
        assert ei.value.message == "address space exhausted (runtime code region)"
        assert ei.value.frames[:2] == ("beta", "+")
        m.check_conservation()
        assert 0 < m.tiles[0].arena_next <= 64
        assert m.run_value((4,)) == 3
        m.check_conservation()


def test_beta_nullary_lambda():
    assert execute("(beta (lambda '(+ '1 '2)))") == 3


def test_lambda_root_returns_opaque_value():
    out = execute("(lambda 'x '(+ x '1))", threads=2)
    assert repr(out) == "<lambda>"


def test_label_shared_entry_evaluated_per_request():
    assert execute("(+ (label L (* '2 '3)) L)", threads=4) == 12
    assert execute("(+ (label L (* '2 '3)) (+ L L))", threads=4) == 18


# ── if ───────────────────────────────────────────────────────────────


def test_if_selects_and_never_requests_unselected():
    out = execute("(if (>= '3 '3) '(+ '1 '2) '(* '3 '4))", threads=4,
                  trace=True, keep=True)
    try:
        assert out.value == 3
        false_addr = W.ref_addr(out.flat.entries[ROOT].args[2])
        reachable = {false_addr}
        stack = [false_addr]
        while stack:
            for a in out.flat.entries[stack.pop()].args:
                if W.kind_of(a) == W.KIND_REF and W.ref_addr(a) not in reachable:
                    reachable.add(W.ref_addr(a))
                    stack.append(W.ref_addr(a))
        assert all(W.ref_addr(p.payload[0]) not in reachable for p in out.requests())
    finally:
        out.machine.shutdown()


def test_if_zero_is_false_nonzero_true():
    assert execute("(if '0 '1 '2)") == 2
    assert execute("(if '-7 '1 '2)") == 1


def test_if_constant_branches():
    assert execute("(if (>= '3 '3) ''1 ''0)") == 1


def test_if_unquoted_branch_evaluated_eagerly():
    # documented hazard: unquoted reference branches are requested at parse
    reg = fresh_registry(log_jitter=0.0)
    out = execute("(if '1 (log.rec '10) (log.rec '20))", threads=1,
                  registry=reg, keep=True)
    try:
        assert out.value == 10
        events = out.machine.shared_state("log").get("events", [])
        assert sorted(events) == [10, 20]
    finally:
        out.machine.shutdown()


def test_if_condition_must_be_integer():
    with pytest.raises(TaskError, match="condition"):
        execute("(if (emptylist) '1 '2)")
    with pytest.raises(TaskError, match="condition"):
        execute("(if '(+ '1 '2) '1 '2)")


# ── ctrl.run / restart ───────────────────────────────────────────────


def test_ctrl_run_places_on_requested_tile():
    reg = reg_with_stubs()
    for t in range(4):
        out = execute(f"(ctrl.run '(t1.m1) '{t})", threads=4, registry=reg,
                      trace=True, keep=True)
        try:
            target = next(a for a, e in enumerate(out.flat.entries) if e.op == "t1.m1")
            req = next(p for p in out.requests()
                       if W.ref_addr(p.payload[0]) == target)
            assert req.dst == t
        finally:
            out.machine.shutdown()


def test_ctrl_run_single_tile():
    assert execute("(ctrl.run '(+ '2 '2) '0)", threads=1) == 4


def test_ctrl_run_wraps_out_of_range_tile():
    out = execute("(ctrl.run '(+ '2 '2) '13)", threads=4, trace=True, keep=True)
    try:
        assert out.value == 4
        target = next(a for a, e in enumerate(out.flat.entries) if e.op == "+")
        req = next(p for p in out.requests() if W.ref_addr(p.payload[0]) == target)
        assert req.dst == 13 % 4
    finally:
        out.machine.shutdown()


def test_ctrl_run_requires_quoted_reference():
    with pytest.raises(TaskError, match="quoted reference"):
        execute("(ctrl.run (+ '1 '2) '0)")


# ── kernels and errors ───────────────────────────────────────────────


def test_error_carries_subtask_chain():
    reg = reg_with_stubs()
    with pytest.raises(TaskError) as ei:
        execute("(t1.m2 (head (emptylist)) '1)", registry=reg)
    assert "head of empty list" in str(ei.value)
    assert ei.value.frames == ("head", "t1.m2")


def test_kernel_panic_becomes_error_result():
    reg = fresh_registry()
    reg.register("boom", [("go", 0, lambda c: 1 // 0)])
    with pytest.raises(TaskError, match="ZeroDivisionError"):
        execute("(boom.go)", registry=reg)


def test_quoted_code_rejected_by_non_control_kernel():
    reg = reg_with_stubs()
    with pytest.raises(TaskError, match="non-control"):
        execute("(t1.m1 '(t2.m1 '1))", registry=reg)


def test_ctrl_arg_out_of_range():
    with pytest.raises(TaskError, match="out of range"):
        execute("(ctrl.arg '5)", args=(1,))


def test_host_args_reach_kernels():
    assert execute("(+ (ctrl.arg '0) (ctrl.arg '1))", args=(30, 12)) == 42


def test_register_data_and_ctrl_reg():
    reg = fresh_registry()
    blob = [9, 9, 9]
    out = execute("(ctrl.reg '0)", registry=reg, data=(blob,))
    assert out == [9, 9, 9]  # lists materialize through the handle


def test_per_tile_kernel_instance_state():
    # a counting kernel pinned per tile: state does not leak across tiles
    reg = fresh_registry()

    def bump(ctx, _):
        state = ctx.local("cnt")
        state["n"] = state.get("n", 0) + 1
        return state["n"] * 10 + ctx.tile_id

    reg.register("cnt", [("bump", 1, bump)])
    out = execute("(+ (ctrl.run '(cnt.bump '0) '0) (ctrl.run '(cnt.bump '0) '1))",
                  threads=2, registry=reg)
    # each tile saw its own first call: 10+tile0 and 10+tile1
    assert out == (10 + 0) + (10 + 1)


def test_stuck_reduction_detected():
    reg = fresh_registry()
    reg.register("sink", [("hole", 1, lambda ctx, ws: NO_RESULT, True)])
    start = time.perf_counter()
    with pytest.raises(StuckReductionError, match="stuck reduction"):
        execute("(sink.hole '1)", registry=reg, timeout=10.0)
    # exact quiescence: no polling window, let alone the timeout
    assert time.perf_counter() - start < 1.0


def test_timed_out_run_poisons_machine():
    # the first run's result arrives after its timeout; it must not be
    # taken for the second run's answer
    reg = fresh_registry()
    calls = []

    def slow(ctx, x):
        if not calls:
            time.sleep(0.4)
        calls.append(x)
        return x * 10

    reg.register("k", [("slow", 1, slow)])
    img = compile_for("(k.slow (ctrl.arg '0))", 1, reg)
    with Machine(img, reg, 1) as m:
        with pytest.raises(StuckReductionError, match="timed out"):
            m.run_value((1,), timeout=0.1)
        with pytest.raises(StuckReductionError, match="timed out"):
            m.run_value((2,))


def test_machine_timed_out_mid_reduction_shuts_down():
    # the stop token waits in the inbox until the work list is empty; a
    # poisoned loop drops what is left, so shutdown still stops it
    reg = fresh_registry()
    img = compile_for(compile_gpc(FIB_GPC.replace("fib(10)", "fib(18)")), 1, reg)
    m = Machine(img, reg, 1)
    with pytest.raises(StuckReductionError, match="timed out"):
        m.run_value(timeout=0.02)
    m.shutdown()
    assert not m._loop.is_alive()


def test_second_root_result_is_fatal():
    # a control kernel that both restarts and replies answers its caller
    # twice; at the root, the spare answer must not wait for the next run
    reg = fresh_registry()

    def twice(ctx, ws):
        ctx.restart(ws[0], 0)
        return 5

    reg.register("k", [("twice", 1, twice, True)])
    img = compile_for("(k.twice '(+ '1 '2))", 1, reg)
    with Machine(img, reg, 1) as m:
        with pytest.raises(ProtocolError, match="second result"):
            m.run_value()
        with pytest.raises(ProtocolError, match="second result"):
            m.run_value()


def test_poisoned_machine_counts_out_running_kernels():
    # k.twice answers the + record's slot twice, which poisons the machine
    # while k.slow still runs; its completion must still be counted out, so
    # the run ends once k.slow returns, not at the timeout
    reg = fresh_registry()

    def twice(ctx, ws):
        ctx.restart(ws[0], 0)
        ctx.restart(ws[0], 1)
        return NO_RESULT

    reg.register("k", [("slow", 0, lambda ctx: time.sleep(0.3) or 1),
                       ("twice", 1, twice, True)])
    img = compile_for("(+ (k.slow) (k.twice '(+ '1 '2)))", 2, reg)
    with Machine(img, reg, 2) as m:
        start = time.perf_counter()
        with pytest.raises(ProtocolError, match="unexpected record"):
            m.run_value(timeout=30.0)
        assert time.perf_counter() - start < 10.0
        assert m.kernel_jobs == 0


def test_run_after_shutdown_is_refused():
    reg = fresh_registry()
    m = Machine(compile_for("(+ '1 '2)", 1, reg), reg, 1)
    assert m.run_value() == 3
    m.shutdown()
    with pytest.raises(VmError, match="machine is shut down"):
        m.run()


def test_second_concurrent_run_is_refused():
    reg = fresh_registry()
    started, go = threading.Event(), threading.Event()

    def wait(ctx):
        started.set()
        go.wait(10.0)
        return 4

    reg.register("k", [("wait", 0, wait)])
    with Machine(compile_for("(k.wait)", 1, reg), reg, 1) as m:
        results = []
        t = threading.Thread(target=lambda: results.append(m.run_value(timeout=30.0)))
        t.start()
        try:
            assert started.wait(10.0)
            with pytest.raises(VmError, match="not reentrant"):
                m.run()
        finally:
            go.set()
            t.join(10.0)
        assert results == [4]


def test_inflight_count_exact_under_contention():
    # more kernel threads than cores and a short switch interval: every leaf
    # is a stub task kernel placed on tile n % 8, so 8 kernel threads post
    # completions to the inbox while the loop serves its work list.  A
    # miscounted kernel job would end a run early (no result, or a leak) or
    # never (timeout), or leave the work list or job count off empty between
    # runs
    def tree(depth, n):
        if depth == 0:
            return f"(ctrl.run '(k.leaf '{n}) '{n % 8})", n + 1
        a, n = tree(depth - 1, n)
        b, n = tree(depth - 1, n)
        return f"(+ {a} {b})", n

    text, n = tree(6, 0)
    reg = fresh_registry(stubs=[("k", ["leaf"])])
    img = compile_for(text, 8, reg)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with Machine(img, reg, 8) as m:
            for _ in range(50):
                assert m.run_value(timeout=10.0) == n * (n - 1) // 2
                assert not m.work and m.kernel_jobs == 0
            assert all(k.thread is not None for k in m.kernel_threads)
    finally:
        sys.setswitchinterval(old)


def test_one_loop_and_kernel_threads_by_tile():
    # tile t's task kernels run on kernel thread t % threads; one loop
    # serves every tile, and a kernel thread starts only on first use
    reg = fresh_registry()
    ran_on = {}

    def where(ctx):
        ran_on[ctx.tile_id] = threading.current_thread().name
        return 1

    reg.register("k", [("where", 0, where)])
    on = [f"(ctrl.run '(k.where) '{t})" for t in range(4)]
    img = compile_for(f"(+ (+ {on[0]} {on[1]}) (+ {on[2]} {on[3]}))", 4, reg)
    before = set(threading.enumerate())
    with Machine(img, reg, 2) as m:
        assert len(m.kernel_threads) == 2
        assert [t.name for t in set(threading.enumerate()) - before] == ["gprm-loop"]
        assert m.run_value() == 4
        assert ran_on == {t: f"gprm-kernels-{t % 2}" for t in range(4)}
        assert len(set(threading.enumerate()) - before) == 3
    img = compile_for("(+ '1 (* '2 '3))", 4, reg)
    with Machine(img, reg, 4) as m:  # no task kernel: no kernel thread
        assert m.run_value() == 7
        assert len(m.kernel_threads) == 4
        assert all(k.thread is None for k in m.kernel_threads)
    with Machine(img, reg) as m:  # threads omitted: one kernel thread per tile
        assert m.run_value() == 7
        assert len(m.kernel_threads) == 4


def test_run_latency_floor():
    # one reused machine, many small runs: fails if a sleep creeps back
    # into the end-of-run detection
    reg = fresh_registry()
    img = compile_for("(beta (lambda 'x '(* (- x '1) (+ x '1))) (ctrl.arg '0))",
                      2, reg)
    with Machine(img, reg, 2) as m:
        start = time.perf_counter()
        for x in range(1000):
            assert m.run_value((x,)) == x * x - 1
        assert time.perf_counter() - start < 2.0


# ── subtask record pool ──────────────────────────────────────────────

FIB_GPC = """
int fib(int n) {
  if (n < 2) {
    return n;
  } else {
    return fib(n - 1) + fib(n - 2);
  }
}

int GPRM::main() {
  return fib(10);
}
"""


def test_record_pool_grows_on_demand_and_is_reused():
    reg = fresh_registry()
    img = compile_for("(+ (+ '1 (+ '2 '3)) (+ '4 (+ '5 '6)))", 1, reg)
    with Machine(img, reg, 1) as m:
        assert [len(t.subtask_list) for t in m.tiles] == [0]
        assert m.run_value() == 21
        # grew past one record, never past one per entry (5 entries)
        assert 1 < len(m.tiles[0].subtask_list) <= 5
    # 2 tiles on 1 thread: one work list, so every run has the same live peak
    img = compile_for(compile_gpc(FIB_GPC, num_threads=2), 2, reg)
    with Machine(img, reg, 1) as m:
        assert [len(t.subtask_list) for t in m.tiles] == [0, 0]
        assert m.run_value() == 55
        after_first = [list(t.subtask_list) for t in m.tiles]
        for _ in range(49):
            assert m.run_value() == 55
        # the same record objects, neither regrown nor remade
        assert [t.subtask_list for t in m.tiles] == after_first


# ── depth-first order ────────────────────────────────────────────────


def test_leftmost_argument_is_served_first():
    # one tile and one kernel thread, unfuzzed: the log kernels run in the
    # order the loop hands them off.  The middle argument waits on a record;
    # its kernel must go before the later sibling's, as the oracle evaluates
    reg = fresh_registry()
    text = ("(beta (lambda 'a 'b 'c '(+ a (+ b c)))"
            " (log.rec '1) (+ (log.rec '2) '0) (log.rec '3))")
    o = Oracle(fresh_registry())
    assert o.eval_program(lang.parse(text)) == 6
    assert o.ctx.shared("log")[0]["events"] == [1, 2, 3]
    with Machine(compile_for(text, 1, reg), reg, 1) as m:
        assert m.run_value() == 6
        assert m.shared_state("log")["events"] == [1, 2, 3]


def _record_handoffs(m):
    """The arguments of each task kernel call the loop hands off, in order."""
    handed = []
    for k in m.kernel_threads:
        def submit(job, submit=k.submit):
            handed.append(job[4])
            submit(job)
        k.submit = submit
    return handed


@pytest.mark.parametrize("text, want, events", [
    ("(beta (lambda 'x '(+ x (log.rec '2))) '(log.rec '1))", 3, [1, 2]),
    ("(beta (lambda 'x 'y '(+ (+ x (log.rec '2)) y)) '(log.rec '1) '(log.rec '3))", 6,
     [1, 2, 3]),
])
def test_a_deferred_variable_and_a_literal_reference_are_served_leftmost_first(
        text, want, events):
    # x and y are bound to deferred operands, so an entry that reads one
    # requests it along with its literal reference, last slot first.  On two
    # kernel threads the log kernels may run in either order, so the order
    # the loop hands them off in is compared there
    o = Oracle(fresh_registry())
    assert o.eval_program(lang.parse(text)) == want
    assert o.ctx.shared("log")[0]["events"] == events
    for tiles, threads in ((1, 1), (2, 1), (2, 2)):
        reg = fresh_registry()
        with Machine(compile_for(text, tiles, reg), reg, threads) as m:
            handed = _record_handoffs(m)
            assert m.run_value() == want
            assert handed == [[e] for e in events], (tiles, threads)
            logged = m.shared_state("log")["events"]
            assert (logged if threads == 1 else sorted(logged)) == events, (tiles, threads)


@pytest.mark.parametrize("n, want", [(12, 144), (15, 610), (18, 2584), (24, 46368)])
def test_fib_records_bounded_by_depth(n, want):
    # served depth-first, a run holds records for the path it is on; a call
    # binds its operands and makes no closure, so the arena holds the two
    # lambdas' closures whatever n is
    reg = fresh_registry()
    img = compile_for(compile_gpc(FIB_GPC.replace("fib(10)", f"fib({n})")), 1, reg)
    with Machine(img, reg, 1) as m:
        assert m.run_value(timeout=30.0) == want
        m.check_conservation()
        assert len(m.tiles[0].subtask_list) == n
        assert m.tiles[0].arena_next == 2


def test_plus_tree_records_bounded_by_depth():
    # a depth-10 tree of 1,023 entries
    reg = fresh_registry()
    with Machine(compile_for(_plus_tree(10, iter(range(1024))), 1, reg), reg, 1) as m:
        assert m.run_value() == 1023 * 1024 // 2
        m.check_conservation()
        assert len(m.tiles[0].subtask_list) <= 10


class Manual:
    """The loop stopped; packets and task kernel jobs are handled by hand in a
    chosen order."""

    def __init__(self, text, registry, tiles=2):
        img = compiler.compile_text(text, tiles, registry)
        self.machine = Machine(img, registry, tiles)
        self.machine.shutdown()
        for k in self.machine.kernel_threads:
            # never started: handed-off kernel jobs wait in k.jobs for run_jobs
            k.thread = threading.Thread()

    def send_root(self):
        gw = self.machine.gateway_tile
        self.machine.post((REQ, gw, W.ref_tile(ROOT), gw, 0, 0, (ROOT, None)))

    def inject_root(self):
        self.send_root()
        self.step_all()

    @staticmethod
    def drain(q):
        out = []
        while True:
            try:
                out.append(q.get_nowait())
            except queue.Empty:
                return out

    def pending(self):
        """Take every waiting packet, as `Packet` views: the work list, oldest
        first, then the inbox."""
        work = self.machine.work
        out = list(work)
        work.clear()
        return [Packet._make(p) for p in out + self.drain(self.machine.queue)]

    def jobs(self):
        """Take every queued kernel job, as (kernel thread, job) pairs."""
        return [(k, job) for k in self.machine.kernel_threads for job in self.drain(k.jobs)]

    def run_jobs(self):
        """Run the queued kernel jobs, each posting its completion packet;
        returns how many ran."""
        jobs = self.jobs()
        for k, job in jobs:
            k.run_job(job)
        return len(jobs)

    def serve(self, pkt):
        """Handle one packet to the end, as a loop running its kernel inline
        would: a kernel it hands off is run and its completion handled.  The
        work list is left as it is, ahead of what the completions send."""
        self.handle(pkt)
        self.run_jobs()
        for p in self.drain(self.machine.queue):  # completions only
            self.handle(p)

    def handle(self, pkt):
        """Handle one packet as the loop's handler table would: a host-bound
        packet goes to the host's row."""
        m = self.machine
        pkt = Packet._make(pkt)
        if pkt.dst == m.gateway_tile:
            m.on_root_result(pkt)
        else:
            t = m.tiles[pkt.dst]
            (t.on_request, t.on_result, t.on_done)[pkt.kind](pkt)

    def step_all(self):
        while True:
            pkts = self.pending()
            for p in pkts:
                self.handle(p)
            if not self.run_jobs() and not pkts:
                return

    def result(self):
        """Take the root result the host's handler kept."""
        pkt, self.machine._result = self.machine._result, None
        assert pkt is not None, "no root result"
        return Packet._make(pkt)


def test_result_arrival_order_does_not_matter():
    calls = []
    reg = fresh_registry()
    reg.register("k", [
        ("pair", 2, lambda c, a, b: calls.append((a, b)) or (a * 100 + b)),
        ("a", 0, lambda c: 1),
        ("b", 0, lambda c: 2),
    ])
    for flip in (False, True):
        calls.clear()
        h = Manual("(k.pair (k.a) (k.b))", reg, tiles=4)
        gw = h.machine.gateway_tile
        h.machine.post((REQ, gw, W.ref_tile(ROOT), gw, 0, 0, (ROOT, None)))
        (rootpkt,) = h.pending()
        h.handle(rootpkt)
        kids = h.pending()
        assert len(kids) == 2 and all(p.kind == REQ for p in kids)
        if flip:
            kids.reverse()
        for p in kids:  # each produces a RES; deliver in this order
            h.serve(p)
        h.step_all()
        res = h.result()
        assert res.kind == RES
        assert h.machine.decode_word(res.payload[0]) == 102
        assert calls == [(1, 2)]  # same argument vector either way
        h.machine.check_conservation()


def test_freed_address_reused_by_next_request():
    reg = fresh_registry()
    # the root waits on its first argument, so it takes a record
    h = Manual("(+ (+ '1 '2) '3)", reg, tiles=1)
    tile = h.machine.tiles[0]
    h.inject_root()
    assert h.machine.decode_word(h.result().payload[0]) == 6
    top = tile.subtask_stack[-1]
    h.inject_root()
    assert h.machine.decode_word(h.result().payload[0]) == 6
    assert tile.subtask_stack[-1] == top  # freed back to the top of the stack
    assert len(tile.subtask_list) == 1  # and reused, not regrown


def test_result_for_freed_record_is_fatal():
    reg = fresh_registry()
    h = Manual("(+ '1 '2)", reg, tiles=1)
    h.inject_root()
    res = h.result()
    assert h.machine.decode_word(res.payload[0]) == 3
    # deliver a stale result for the (now freed) root record
    stale = Packet(RES, 0, 0, 0, 0, 0, (W.mk_const(9),))
    h.handle(stale)
    assert isinstance(h.machine._fatal, ProtocolError)


def test_conservation_check_detects_leaks():
    reg = fresh_registry()
    # the root waits on its first argument, so tile 0 holds a freed record
    img = compiler.compile_text("(+ (+ '1 '2) '3)", 2, reg)
    with Machine(img, reg, 2) as m:
        m.run_value()
        m.check_conservation()
        m.tiles[0].subtask_stack.pop()  # simulate a leak
        with pytest.raises(ResourceLeakError):
            m.check_conservation()


def test_result_for_running_kernel_record_is_fatal():
    reg = fresh_registry()
    reg.register("k", [("id", 1, lambda c, x: x), ("zero", 0, lambda c: 0)])
    for text in ("(k.id '7)", "(k.zero)"):  # the slot filled, or none at all
        h = Manual(text, reg, tiles=1)
        h.send_root()
        (rootpkt,) = h.pending()
        h.handle(rootpkt)
        assert len(h.jobs()) == 1  # handed off, its record 0 still live
        h.handle(Packet(RES, 0, 0, 0, 0, 0, (W.mk_const(9),)))
        assert isinstance(h.machine._fatal, ProtocolError)


def test_conservation_check_detects_kernel_jobs():
    reg = fresh_registry()
    reg.register("k", [("id", 1, lambda c, x: x)])
    h = Manual("(k.id '7)", reg, tiles=1)
    h.send_root()
    (rootpkt,) = h.pending()
    h.handle(rootpkt)
    with pytest.raises(ResourceLeakError, match="kernel jobs queued or running"):
        h.machine.check_conservation()  # queued
    ((k, job),) = h.jobs()
    with pytest.raises(ResourceLeakError, match="kernel jobs queued or running"):
        h.machine.check_conservation()  # taken by the kernel thread, running
    k.run_job(job)
    with pytest.raises(ResourceLeakError, match="kernel jobs queued or running"):
        h.machine.check_conservation()  # done, completion not yet handled
    h.step_all()
    assert h.machine.decode_word(h.result().payload[0]) == 7
    h.machine.check_conservation()


# ── entries with nothing to wait for ─────────────────────────────────


def _live_records(m):
    return [len(t.subtask_list) - len(t.subtask_stack) for t in m.tiles]


def test_ready_entry_takes_no_record():
    # no argument word is an unquoted reference: reduced straight from the
    # code words, so no tile ever allocates a record
    reg = fresh_registry()
    for text, want in [("(+ '1 '2)", 3), ("(lambda 'x 'x)", vm.LAMBDA_VALUE)]:
        with Machine(compile_for(text, 2, reg), reg, 2) as m:
            assert m.run_value() == want
            assert [t.subtask_list for t in m.tiles] == [[], []], text


def test_ready_entry_errors_keep_their_messages_and_frames():
    reg = fresh_registry()
    cases = [(_with_root("(+ '1 '2)", "+", 1, reg), "+ expects 2 arguments, got 1", ("+",)),
             (compile_for("(head '3)", 1, reg), "head expects a list, got int", ("head",))]
    for img, message, frames in cases:
        with Machine(img, reg, 1) as m:
            with pytest.raises(TaskError) as ei:
                m.run_value()
            m.check_conservation()
            assert m.tiles[0].subtask_list == []
        assert (ei.value.message, ei.value.frames) == (message, frames)


def test_ready_control_method_restarts_with_its_callers_continuation():
    reg = fresh_registry()
    sid, mid, _ = reg.resolve("ctrl.run")
    plus = W.mk_oper(*reg.resolve("+")[:2])
    for text, want in [("(+ '1 (ctrl.run '(+ '2 '3) '1))", 6),
                       ("(ctrl.run '(+ '2 '3) '1)", 5)]:
        img = compile_for(text, 2, reg)
        run_at = next(a for a, ws in enumerate(img.code) if ws[0] == W.mk_oper(sid, mid))
        inner = next(a for a, ws in enumerate(img.code)
                     if ws[0] == plus and W.const_value(ws[1]) == 2)
        with Machine(img, reg, 2, trace=True) as m:
            assert m.run_value() == want
            reqs = [p for p in m.trace_packets() if p.kind == REQ]
        (asked,) = [p for p in reqs if W.ref_addr(p.payload[0]) == run_at]
        (restarted,) = [p for p in reqs if W.ref_addr(p.payload[0]) == inner]
        assert restarted.dst == 1
        assert restarted[3:6] == asked[3:6], text  # the result goes where ctrl.run's would


def test_ready_task_kernel_is_counted_not_recorded():
    # a kernel in flight is one count in kernel_jobs and holds no record
    seen = []
    reg = fresh_registry()
    reg.register("k", [("zero", 0,
                        lambda c: seen.append((m.kernel_jobs, _live_records(m))) or 0)])
    h = Manual("(k.zero)", reg, tiles=1)
    m = h.machine
    h.send_root()
    (rootpkt,) = h.pending()
    h.handle(rootpkt)
    assert (m.kernel_jobs, _live_records(m)) == (1, [0])  # queued
    assert h.run_jobs() == 1
    assert seen == [(1, [0])]  # running
    assert (m.kernel_jobs, _live_records(m)) == (1, [0])  # ran, DONE not yet handled
    (done,) = h.drain(m.queue)
    h.handle(done)
    assert (m.kernel_jobs, _live_records(m)) == (0, [0])
    h.step_all()
    assert m.decode_word(h.result().payload[0]) == 0
    m.check_conservation()


# ── task kernels off the tile loop ───────────────────────────────────


def test_task_kernel_does_not_block_its_tile():
    # the 2-thread merge sort's shape: leaf 2 runs on tile 0, and leaf 3 is
    # reached through node 3's if/ctrl.run bookkeeping, which also sits on
    # tile 0 behind leaf 2.  Leaf 2 waits for leaf 3, so the run succeeds
    # only if tile 0's loop goes on while leaf 2's kernel runs.
    sibling = threading.Event()
    ran = {}

    def leaf(ctx, n, a):
        ran[n] = ctx.tile_id
        if n == 3:
            sibling.set()
        elif not sibling.wait(timeout=5):
            raise KernelError(f"leaf {n} timed out waiting for leaf 3")
        return n

    reg = fresh_registry()
    reg.register("ms", [("leaf", 2, leaf), ("stem", 3, lambda c, nl, nr, a: nl // 2)])
    img = compile_for(bench.mergesort_gpir(2), 2, reg)
    data = object()
    with Machine(img, reg, 2) as m:
        m.register_data(data)
        assert m.run_value(timeout=10.0) is data
        assert ran == {2: 0, 3: 1}


def test_task_kernel_errors_keep_subtask_chain():
    reg = reg_with_stubs()

    def fail(ctx, x):
        raise KernelError(f"bad input {x}")

    reg.register("k", [("fail", 1, fail), ("boom", 0, lambda c: 1 // 0)])
    for threads in (1, 2):
        with pytest.raises(TaskError, match="bad input 4") as ei:
            execute("(t1.m2 (k.fail '4) '1)", threads=threads, registry=reg)
        assert ei.value.frames == ("k.fail", "t1.m2")
        with pytest.raises(TaskError, match="ZeroDivisionError") as ei:
            execute("(+ '1 (k.boom))", threads=threads, registry=reg)
        assert ei.value.frames == ("k.boom", "+")


def test_restart_from_task_kernel_is_refused():
    # only the tile loop sends packets: a task kernel that tries to restart
    # gets an error, and the restart never goes out
    reg = fresh_registry()
    target = []

    def sneaky(ctx):
        ctx.restart(target[0], 0)
        return NO_RESULT

    reg.register("k", [("sneaky", 0, sneaky)])
    img = compile_for("(+ (k.sneaky) (* '2 '3))", 1, reg)
    sid, mid, _ = reg.resolve("*")
    addr = next(a for a, code in enumerate(img.code) if code[0] == W.mk_oper(sid, mid))
    target.append(W.mk_ref(addr, 0, quoted=True))
    with Machine(img, reg, 1, trace=True) as m:
        with pytest.raises(TaskError, match="restart") as ei:
            m.run_value()
        assert ei.value.frames == ("k.sneaky", "+")
        reqs = [p for p in m.trace_packets()
                if p.kind == REQ and W.ref_addr(p.payload[0]) == addr]
        assert len(reqs) == 1  # the argument request only


# ── corrupt images ───────────────────────────────────────────────────


def _set_entry(addr, *words):
    """An image edit that makes entry addr the given words."""
    def edit(img):
        img.code[addr] = words
    return edit


def _set_lambda_body(word):
    """An image edit that makes the body of the image's lambda the given word."""
    def edit(img):
        lam = next(a for a, ws in enumerate(img.code) if ws[0] == W.mk_builtin(W.FORM_CODE_LAMBDA))
        img.code[lam] = img.code[lam][:-1] + (word,)
    return edit


_PLUS = W.mk_oper(0, 0)  # `+`, the first builtin method
_CORRUPT_IMAGES = {
    "special-form-7": ("(+ '1 '2)", _set_entry(0, W.mk_builtin(7), W.mk_const(1)),
                       "entry r0 starts with form7, not a special form or an operation of "
                       "the image"),
    "constant-first-word": ("(+ '1 '2)", _set_entry(0, W.mk_const(5), W.mk_const(1)),
                            "entry r0 starts with 5, not a special form or an operation of "
                            "the image"),
    "no-words": ("(+ '1 '2)", _set_entry(0), "entry r0 has no words"),
    "no-entries": ("(+ '1 '2)", lambda img: img.code.clear(), "the image has no entries"),
    "closure-reference-to-unknown-code": (
        "(beta (lambda 'x '(+ x '1)) '2)", _set_lambda_body(W.mk_ref(999, 0, quoted=True)),
        "reference 'r999@t0 names no entry"),
    "handle-word": ("(+ '1 '2)", _set_entry(0, _PLUS, W.mk_const(1), W.mk_handle(0)),
                    f"bad argument word kind {W.KIND_HANDLE} in r0"),
    "error-word": ("(+ '1 '2)", _set_entry(0, _PLUS, W.mk_const(1), W.mk_error(1)),
                   f"bad argument word kind {W.KIND_ERROR} in r0"),
    "operation-word": ("(+ '1 '2)", _set_entry(0, _PLUS, W.mk_const(1), W.mk_oper(1, 1)),
                       f"bad argument word kind {W.KIND_OPER} in r0"),
    "form-word": ("(+ '1 '2)",
                  _set_entry(0, _PLUS, W.mk_const(1), W.mk_builtin(W.FORM_CODE_IF)),
                  f"bad argument word kind {W.KIND_BUILTIN} in r0"),
    "constant-past-int32": ("(+ '1 '2)",
                            _set_entry(0, _PLUS, W.mk_const(1), W.CONST_WORD | 1 << 40),
                            "constant 1099511627776 in r0 is out of 32-bit range"),
    "negative-constant-past-int32": (
        "(+ '1 '2)",
        _set_entry(0, _PLUS, W.mk_const(1), W.CONST_WORD | (-(1 << 31) - 1) & W.PAYLOAD_MASK),
        "constant -2147483649 in r0 is out of 32-bit range"),
    "reference-to-tile-past-tile-count": ("(+ '1 (+ '2 '3))",
                                          _set_entry(0, _PLUS, W.mk_const(1), W.mk_ref(1, 1)),
                                          "reference r1@t1 names a tile past the image's 1"),
    "two-entry-cycle": ("(+ '1 (+ '2 '3))",
                        _set_entry(1, _PLUS, W.mk_ref(0, 0), W.mk_const(3)),
                        "reference cycle r0 -> r1 -> r0"),
    "quoted-self-reference": ("(+ '1 '2)",
                              _set_entry(0, _PLUS, W.mk_ref(0, 0, quoted=True), W.mk_const(1)),
                              "reference cycle r0 -> r0"),
}


@pytest.mark.parametrize("case", list(_CORRUPT_IMAGES))
def test_boot_refuses_a_corrupt_image(case):
    # each of these used to reach the running engine: a task or protocol
    # error, a raw IndexError, or (the cycles) a run that grew until the timeout
    text, edit, message = _CORRUPT_IMAGES[case]
    reg = fresh_registry()
    img = compile_for(text, 1, reg)
    edit(img)
    with pytest.raises(VmError, match=f"^{re.escape(message)}$"):
        Machine(img, reg, 1)


def test_boot_accepts_the_int32_bounds():
    assert execute("(+ '2147483647 '-2147483648)", threads=1) == -1


def test_boot_accepts_a_reference_to_the_last_tile():
    reg = fresh_registry()
    img = compile_for("(+ '1 (+ '2 '3))", 2, reg)
    img.code[0] = (_PLUS, W.mk_const(1), W.mk_ref(1, 1))
    with Machine(img, reg, 2) as m:
        assert m.run_value() == 6


def _corruptions(name, seed):
    """The registry, the 2-tile image and 400 seeded copies of its bytes with
    1-3 bytes each set to random values."""
    text = ("(beta (lambda 'x '(* (- x '1) (+ x '1))) '5)" if name == "beta"
            else compile_gpc(FIB_GPC.replace("fib(10)", "fib(6)"), num_threads=2))
    reg = fresh_registry()
    blob = compiler.image_to_bytes(compile_for(text, 2, reg))
    rng = random.Random(seed)
    copies = []
    for _ in range(400):
        data = bytearray(blob)
        for _ in range(rng.randint(1, 3)):
            data[rng.randrange(len(data))] = rng.randrange(256)
        copies.append(bytes(data))
    return reg, blob, copies


@pytest.mark.parametrize("name", ["beta", "fib6"])
def test_raw_corruptions_are_refused_at_load(name):
    # the image's CRC32 covers every byte before it: 2,000 corruptions over
    # seeds 1-5 give no value, no boot and no run; a copy whose chosen
    # bytes all kept their values is no corruption
    for seed in range(1, 6):
        _, blob, copies = _corruptions(name, seed)
        for data in copies:
            if data != blob:
                with pytest.raises(compiler.CompileError):
                    compiler.image_from_bytes(data)


@pytest.mark.parametrize("name", ["beta", "fib6"])
def test_corrupt_images_fail_with_the_package_errors(name):
    # the seed-2 corruptions with their CRC stamped again, so that they reach
    # the parser, the boot check and the run: each gives a value, a
    # CompileError at load, a VmError at boot or a TaskError from the run; a
    # raw exception or a ProtocolError fails the test.  A wrong value passes:
    # a corrupted constant is still a valid program, which only the checksum
    # refuses.  Such a program can also outlive the timeout (fib(33542) in
    # place of fib(6), three of fib's 400): a timeout passes only if the run,
    # made again with a trace, sends more packets than the intact program's
    # whole run, so that it is a longer program still reducing, not a machine
    # that stopped.
    reg, blob, copies = _corruptions(name, 2)
    with Machine(compiler.image_from_bytes(blob), reg, 2, trace=True) as m:
        m.run_value()
        intact = len(m.trace_packets())
    outcomes = set()
    for data in copies:
        try:
            img = compiler.image_from_bytes(with_crc(data[:-4]))
        except compiler.CompileError:
            outcomes.add("load")
            continue
        try:
            m = Machine(img, reg, 2)
        except VmError:
            outcomes.add("boot")
            continue
        with m:
            try:
                m.run_value(timeout=2.0)
                outcomes.add("value")
            except TaskError:
                outcomes.add("run")
            except StuckReductionError:
                with Machine(img, reg, 2, trace=True) as again:
                    with pytest.raises(StuckReductionError, match="timed out"):
                        again.run_value(timeout=0.5)
                    assert len(again.trace_packets()) > intact
    assert outcomes == {"load", "boot", "run", "value"}


def test_reference_to_runtime_address_of_missing_tile():
    reg = fresh_registry()
    img = compile_for("(+ '1 '2)", 1, reg)
    bad = W.mk_ref(vm.RUNTIME_BASE + 99, 0)
    img.code[ROOT] = (img.code[ROOT][0], bad, W.mk_const(1))
    with pytest.raises(VmError, match=f"^reference r{vm.RUNTIME_BASE + 99}"
                                      "@t0 names no entry$"):
        Machine(img, reg, 1)


def test_an_operation_the_image_does_not_list_is_refused_at_boot():
    # `*` is in the registry, but the image's symbol table names only `+`
    reg = fresh_registry()
    img = compile_for("(+ '1 '2)", 1, reg)
    sid, mid, _ = reg.resolve("*")
    img.code[0] = (W.mk_oper(sid, mid),) + img.code[0][1:]
    with pytest.raises(VmError, match=rf"^entry r0 starts with {sid}\.{mid}, not a special form"):
        Machine(img, reg, 1)
    img.symbols[(sid, mid)] = "*"
    with Machine(img, reg, 1) as m:
        assert m.run_value() == 2


def test_restart_of_a_reference_that_names_no_entry_is_a_task_error():
    # a control method can hand restart a word the image never held
    reg = fresh_registry()
    reg.register("k", [("jump", 0, lambda ctx, args: ctx.restart(W.mk_ref(999, quoted=True), 0),
                        True)])
    with Machine(compile_for("(+ '1 (k.jump))", 1, reg), reg, 1) as m:
        with pytest.raises(TaskError, match=r"restart of 'r999@t0, which names no entry") as ei:
            m.run_value()
        assert ei.value.frames == ("k.jump", "+")


def test_unbound_variable_in_an_if_branch_is_a_task_error():
    # boot checks a variable word's kind only; a variable no lambda binds
    # stays unbound, and the selected branch used to reach the host as a raw
    # variable word
    reg = fresh_registry()
    img = compile_for("(if '1 '2 '0)", 1, reg)
    img.code[0] = (img.code[0][0], W.mk_const(1), W.mk_var(9, quoted=True), W.mk_const(0))
    with Machine(img, reg, 1) as m:
        with pytest.raises(TaskError, match="^unbound variable in if branch") as ei:
            m.run_value()
    assert ei.value.frames == ("if",)


@pytest.mark.parametrize("root", [False, True])
def test_reference_to_missing_tile_fails_at_boot(root):
    # a reference in the root's entry (or in a child's) naming tile 7 of 2
    # used to leave a packet counted in flight forever: a 60 s hang, then a
    # raw IndexError
    reg = fresh_registry()
    img = compile_for("(+ '1 (+ '2 (+ '3 '4)))", 2, reg)
    addr = ROOT if root else ROOT + 1
    code = img.code[addr]
    i = next(i for i, w in enumerate(code) if W.kind_of(w) == W.KIND_REF)
    img.code[addr] = code[:i] + (W.ref_with_tile(code[i], 7),) + code[i + 1:]
    start = time.perf_counter()
    with pytest.raises(VmError, match="names a tile past the image's 2"):
        Machine(img, reg, 2)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("edit", ["variable", "body"])
def test_a_body_never_reads_a_sibling_lambdas_binding(edit):
    # fib(6)'s `(- n '1)` edited to read the outer lambda's `n`, or to
    # evaluate the outer lambda's body `(beta fib fib n)`: those variables are
    # bound only in the sibling lambda, so the run ends in a TaskError, not
    # a value read from the caller's bindings and not a timeout
    reg = fresh_registry()
    img = compile_for(compile_gpc(FIB_GPC.replace("fib(10)", "fib(6)")), 2, reg)
    outer = min(a for a, ws in enumerate(img.code) if ws[0] == W.mk_builtin(W.FORM_CODE_LAMBDA))
    sid, mid, _ = reg.resolve("-")
    minus = next(a for a, ws in enumerate(img.code)
                 if ws[0] == W.mk_oper(sid, mid) and ws[2] == W.mk_const(1, quoted=True))
    sibling = img.code[outer][2 if edit == "variable" else -1]  # 'n, or '(beta fib fib n)
    img.code[minus] = img.code[minus][:2] + (W.clear_quote(sibling),)
    with Machine(img, reg, 2) as m:
        with pytest.raises(TaskError):
            m.run_value(timeout=2.0)


@pytest.mark.parametrize("threads", [1, 2])
def test_deep_lambda_body_is_copied_without_recursion(threads):
    depth = 3000
    body = "(+ x " * depth + "'2" + ")" * depth
    assert execute(f"(beta (lambda 'x '{body}) '1)", threads=threads) == depth + 2


# ── environments ─────────────────────────────────────────────────


def test_a_shared_entry_of_a_lambda_body_takes_no_closure():
    reg = fresh_registry()
    img = compile_for("(beta (lambda 'x '(+ x (+ (label L (* '2 '3)) L))) '3)", 1, reg)
    with Machine(img, reg, 1) as m:
        assert m.run_value() == 15
        assert m.tiles[0].arena_next == 1  # the lambda's closure only


def test_a_quoted_variable_stays_deferred():
    # the unselected branch is a quoted occurrence of x; its deferred
    # argument must be bound still quoted there, so it is never requested
    calls = []
    reg = fresh_registry()
    reg.register("k", [("boom", 0, lambda c: calls.append(1) or 9)])
    for text, value in (("(beta (lambda 'x '(if '0 'x '5)) '(k.boom))", 5),
                        ("(beta (lambda 'x '(if '1 'x '5)) '(k.boom))", 9)):
        calls.clear()
        img = compile_for(text, 1, reg)
        with Machine(img, reg, 1) as m:
            assert m.run_value() == value
        assert calls == [1] * (value == 9)


def test_a_runtime_lambda_closes_over_its_own_run():
    # the curried application makes the inner lambda's closure at the same
    # arena address in both runs, with a different x; the second run must
    # not see the first run's x
    reg = fresh_registry()
    text = "(beta (beta (lambda 'x '(lambda 'y '(+ x y))) (ctrl.arg '0)) '1)"
    img = compile_for(text, 1, reg)
    with Machine(img, reg, 1) as m:
        assert m.run_value((10,)) == 11
        assert m.run_value((20,)) == 21


# ── handle table and error frames ────────────────────────────────────


def test_handle_table_stays_flat_across_runs():
    reg = fresh_registry()
    img = compile_for("(cons '1 (cons '2 (emptylist)))", 1, reg)
    with Machine(img, reg, 1) as m:
        data = [4, 5]
        assert m.register_data(data) == 0
        assert m.run_value() == [1, 2]
        held = len(m._handles)
        for _ in range(999):
            assert m.run_value() == [1, 2]
        assert len(m._handles) == held


def test_registering_data_between_runs_keeps_the_handle_table_flat():
    reg = fresh_registry()
    img = compile_for("(cons '1 (emptylist))", 1, reg)
    with Machine(img, reg, 1) as m:
        sizes = set()
        for i in range(100):
            assert m.register_data([i]) == i
            assert m.run_value() == [1]
            sizes.add(len(m._handles))
        assert len(sizes) == 1


def test_an_error_holds_one_handle_whatever_its_depth():
    # each record the error crosses appends its frame to the one error
    # record and forwards the same word, so the handle table does not grow
    # with the depth the error is raised at
    reg = fresh_registry()
    held = {}
    for depth in (10, 16000):
        text = "(+ '1 " * depth + "(head (emptylist))" + ")" * depth
        with Machine(compile_for(text, 1, reg), reg, 1) as m:
            with pytest.raises(TaskError) as ei:
                m.run_value()
            held[depth] = len(m._handles)
        assert ei.value.message == "head of empty list"
        assert ei.value.frames == ("head",) + ("+",) * depth
    assert held[16000] == held[10]


def _same_nested(a, b):
    """a == b for nested lists, without the recursion of list ==."""
    pairs = [(a, b)]
    while pairs:
        x, y = pairs.pop()
        if type(x) is list and type(y) is list and len(x) == len(y):
            pairs.extend(zip(x, y))
        elif type(x) is list or type(y) is list or x != y:
            return False
    return True


@pytest.mark.parametrize("threads", [1, 2])
def test_a_list_nested_past_the_recursion_limit_is_a_value(threads):
    # heads nested 3,000 deep: [[...[1]...]]
    depth = 3000
    text = "(cons " * depth + "'1" + " (emptylist))" * depth
    want = [1]
    for _ in range(depth - 1):
        want = [want]
    got = execute(text, threads=threads)
    oracle = kernels.materialize(evaluate(lang.parse(text), fresh_registry()))
    assert _same_nested(got, want) and _same_nested(oracle, want)
    assert not _same_nested(got, [want])


def test_conservation_check_covers_arena_and_handles():
    reg = fresh_registry()
    img = compile_for("(beta (lambda 'x '(cons x (emptylist))) '1)", 1, reg)
    with Machine(img, reg, 1) as m:
        assert m.run_value() == [1]
        m.check_conservation()
        m.arena.append((W.mk_const(0),))  # stray entry
        with pytest.raises(ResourceLeakError, match="arena entries"):
            m.check_conservation()
        assert m.run_value() == [1]
        m._handle_ids[-1] = 0  # an id left behind by a truncated handle
        with pytest.raises(ResourceLeakError, match="handle table"):
            m.check_conservation()


def test_unknown_operation_id_in_an_error_chain_is_a_vm_error():
    # an operation id the registry does not know used to reach the error
    # chain, which named it by id; boot now refuses it
    reg = fresh_registry()
    img = compile_for("(+ (head (emptylist)) '1)", 1, reg)
    sid, mid, _ = reg.resolve("+")
    addr = next(a for a, code in enumerate(img.code) if code[0] == W.mk_oper(sid, mid))
    img.code[addr] = (W.mk_oper(77, 0),) + img.code[addr][1:]
    with pytest.raises(VmError, match=f"^entry r{addr} starts with 77.0, not a special form "
                                      "or an operation of the image$") as ei:
        Machine(img, reg, 1)
    assert not isinstance(ei.value, KernelError)


def _error_word_image(text, reg):
    """The image of text with its constant 5 replaced by an error word whose
    index names no error record."""
    img = compile_for(text, 1, reg)
    for a, ws in enumerate(img.code):
        img.code[a] = tuple(W.mk_error(7) if W.kind_of(w) == W.KIND_CONST
                            and W.const_value(w) == 5 else w for w in ws)
    return img


@pytest.mark.parametrize("text", ["(beta (lambda 'x '5) '1)",
                                  "(+ '1 (beta (lambda 'x '5) '1))"])
def test_error_word_naming_no_error_record_is_a_protocol_error(text):
    # an image holds no error word: boot refuses it where it would have been
    # the root's result or an argument's; the host API still checks its own
    reg = fresh_registry()
    with pytest.raises(VmError, match=f"^bad argument word kind {W.KIND_ERROR} in r"):
        Machine(_error_word_image(text, reg), reg, 1)
    with Machine(compile_for("(+ '1 '2)", 1, reg), reg, 1) as m:
        m.wrap_handle([1])  # handle 0 is no error record either
        for w in (W.mk_error(0), W.mk_error(7)):
            with pytest.raises(ProtocolError, match="names no error record"):
                m.decode_word(w)


# ── the packet path ──────────────────────────────────────────────────


def _plus_tree(depth, leaves):
    if depth == 0:
        return f"'{next(leaves)}"
    return f"(+ {_plus_tree(depth - 1, leaves)} {_plus_tree(depth - 1, leaves)})"


@pytest.mark.parametrize("name, packets, reqs", [("fib15", 22692, 12826),
                                                 ("tree10", 2046, 1023)])
def test_traced_packet_counts(name, packets, reqs):
    # every packet the loop sends is traced: the per-packet path may get
    # cheaper, but it sends the same packets
    reg = fresh_registry()
    text = compile_gpc(FIB15_GPC) if name == "fib15" else _plus_tree(10, iter(range(1024)))
    with Machine(compile_for(text, 2, reg), reg, 2, trace=True) as m:
        assert m.run_value() == (610 if name == "fib15" else 1023 * 1024 // 2)
        trace = m.trace_packets()
        m.check_conservation()
    assert (len(trace), sum(p.kind == REQ for p in trace)) == (packets, reqs)


def _with_root(text, op, nargs, reg):
    """The image of text with its root entry replaced by op applied to nargs
    constants: arity mismatches the compiler would refuse."""
    img = compile_for(text, 1, reg)
    sid, mid, _ = reg.resolve(op)
    img.code[ROOT] = (W.mk_oper(sid, mid),) + (W.mk_const(1),) * nargs
    img.symbols[(sid, mid)] = op
    return img


def test_builtin_errors_keep_their_messages_and_frames():
    reg = fresh_registry()
    reg.register("k", [("two", 2, lambda c, a, b: a + b), ("big", 0, lambda c: 1 << 40)])
    cases = [
        ("(+ '1 (emptylist))", "+ expects integers, got EmptyList", ("+",)),
        ("(+ '1 '(+ '2 '3))", "quoted reference passed to non-control method '+'", ("+",)),
        ("(k.two '1 '(+ '2 '3))", "quoted reference passed to non-control method 'two'",
         ("k.two",)),
        ("(k.big)", "kernel returned out-of-range integer 1099511627776", ("k.big",)),
        (_with_root("(+ '1 '2)", "+", 1, reg), "+ expects 2 arguments, got 1", ("+",)),
        (_with_root("(+ '1 '2)", "k.two", 3, reg), "k.two expects 2 arguments, got 3",
         ("k.two",)),
        (_with_root("(+ '1 '2)", "ctrl.run", 3, reg), "ctrl.run expects 2 arguments, got 3",
         ("ctrl.run",)),
        (_with_root("(+ '1 '2)", "ctrl.arg", 0, reg), "ctrl.arg expects 1 arguments, got 0",
         ("ctrl.arg",)),
    ]
    for program, message, frames in cases:
        img = compile_for(program, 1, reg) if isinstance(program, str) else program
        with Machine(img, reg, 1) as m:
            with pytest.raises(TaskError) as ei:
                m.run_value()
            m.check_conservation()
        assert (ei.value.message, ei.value.frames) == (message, frames), program


def _handle_word_image(text, reg):
    """The image of text with its constant 5 replaced by a handle word whose
    index names no handle."""
    img = compile_for(text, 1, reg)
    for a, ws in enumerate(img.code):
        img.code[a] = tuple(W.mk_handle(99) if W.kind_of(w) == W.KIND_CONST
                            and W.const_value(w) == 5 else w for w in ws)
    return img


@pytest.mark.parametrize("text", ["(if '1 '5 '0)", "(+ '5 '1)"])
def test_handle_word_naming_no_handle_is_a_protocol_error(text):
    # an image holds no handle word: boot refuses it where it would have been
    # the root's result or a kernel's argument; the host API still checks its own
    reg = fresh_registry()
    with pytest.raises(VmError, match=f"^bad argument word kind {W.KIND_HANDLE} in r0$"):
        Machine(_handle_word_image(text, reg), reg, 1)
    with Machine(compile_for("(+ '1 '2)", 1, reg), reg, 1) as m:
        with pytest.raises(ProtocolError, match="h99 names no handle"):
            m.decode_word(W.mk_handle(99))


# ── fuzzed schedules ─────────────────────────────────────────────────

PURE = "(+ (beta (lambda 'x '(* x (- x '1))) (+ '3 '4)) (if (> '2 '1) '(* '5 '6) '0))"


def test_fuzz_seeds_permute_the_packet_order_of_a_pure_program():
    orders, values = set(), set()
    for seed in range(20):
        out = execute(PURE, threads=4, trace=True, keep=True, fuzz_seed=seed)
        try:
            values.add(out.value)
            orders.add(tuple((p.kind, p.src, p.dst, p.caller_arg, p.payload)
                             for p in out.trace))
        finally:
            out.machine.shutdown()
    assert values == {72}
    assert len(orders) >= 2


def test_the_leftmost_error_wins_in_any_schedule():
    # the oracle stops at the first error, left to right; the machine waits
    # for every slot and reports the leftmost, whichever arrived first
    reg = fresh_registry()

    def fail(ctx, x):
        raise KernelError(f"fail {x}")

    reg.register("k", [("fail", 1, fail)])
    cases = [("(+ (head '1) (tail '2))", "head expects a list, got int", ("head", "+")),
             ("(+ (k.fail '1) (k.fail '2))", "fail 1", ("k.fail", "+"))]
    for text, message, frames in cases:
        with pytest.raises(KernelError, match=f"^{message}$"):
            evaluate(text, reg)
        for seed in range(20):
            with pytest.raises(TaskError) as ei:
                execute(text, threads=2, registry=reg, fuzz_seed=seed)
            assert (ei.value.message, ei.value.frames) == (message, frames), (text, seed)


# ── quickened entries ────────────────────────────────────────────────
# each entry's first request picks its handler by the entry's shape; every
# handler must answer as the oracle does, in any schedule


def _schedules(img, reg):
    """Machines for img: unfuzzed on 1 and 2 kernel threads, and fuzzed."""
    for threads, seed in ((1, None), (2, None), (2, 3), (2, 11)):
        yield Machine(img, reg, threads, trace=True, fuzz_seed=seed)


def _outcome(run):
    """A run's value, or its error as (message, frames)."""
    try:
        return run()
    except TaskError as e:
        return e.message, e.frames


def _agree_with_oracle(text, want, frames=None, reg=None):
    """The oracle gives want (a value, or an error message); the machine
    gives it too, with these frames, on every schedule.  Returns the
    machines' traces."""
    reg = reg or fresh_registry()
    try:
        value = evaluate(text, reg)
        assert (kernels.materialize(value) if kernels.is_list(value) else value) == want, text
    except (KernelError, OracleError) as e:
        assert (str(e), frames) == (want, frames), text
        want = (want, frames)
    traces = []
    for m in _schedules(compile_for(text, 2, reg), reg):
        with m:
            assert _outcome(m.run_value) == want, (text, m.fuzz_seed)
            m.check_conservation()
            traces.append(m.trace_packets())
    return traces


def _requests_to_closures(trace):
    return sum(p.kind == REQ and W.ref_addr(p.payload[0]) >= vm.RUNTIME_BASE for p in trace)


def test_a_variable_bound_to_a_list_reaching_a_builtin_keeps_its_message():
    _agree_with_oracle("(beta (lambda 'x '(+ x '1)) (cons '1 (emptylist)))",
                       "+ expects integers, got Cons", ("+",))
    _agree_with_oracle("(beta (lambda 'x '(- '7 x)) (emptylist))",
                       "- expects integers, got EmptyList", ("-",))


def test_a_variable_bound_to_a_deferred_operand_takes_the_record_path():
    # x is bound to a closure of '(+ '2 '3): the `+` entry must request it
    for trace in _agree_with_oracle("(beta (lambda 'x '(+ x '1)) '(+ '2 '3))", 6):
        assert _requests_to_closures(trace) == 1


def test_an_unbound_variable_reaching_a_kernel_is_a_task_error():
    # the compiler binds every variable; a variable of an edited image is
    # unbound at the root (no environment) and inside a lambda body (an
    # environment without its slot)
    reg = fresh_registry()
    root = compile_for("(+ '1 '2)", 1, reg)
    root.code[ROOT] = (root.code[ROOT][0], W.mk_var(9), W.mk_const(1))
    body = compile_for("(beta (lambda 'x '(* x '2)) '3)", 1, reg)
    times = next(a for a, ws in enumerate(body.code) if ws[0] == W.mk_oper(*reg.resolve("*")[:2]))
    body.code[times] = (body.code[times][0], W.mk_var(9), W.mk_const(2))
    for img, frames in ((root, ("+",)), (body, ("*",))):
        for m in _schedules(img, reg):
            with m:
                assert _outcome(m.run_value) == ("unbound lambda variable reached a kernel",
                                                 frames)
                m.check_conservation()


@pytest.mark.parametrize("text, want", [
    ("(+ '2147483647 '1)", -2147483648),
    ("(- '-2147483648 '1)", 2147483647),
    ("(* '2147483647 '2)", -2),
    ("(* '-2147483648 '-1)", -2147483648),
    # through a variable, and through a record's finish
    ("(beta (lambda 'x '(+ x '1)) '2147483647)", -2147483648),
    ("(beta (lambda 'x '(- x '1)) '-2147483648)", 2147483647),
    ("(beta (lambda 'x 'y '(* x y)) '65536 '65536)", 0),
    ("(+ (+ '2147483647 '0) '1)", -2147483648),
    ("(- (- '-2147483648 '0) '1)", 2147483647),
    ("(* (+ '-2147483648 '0) '-1)", -2147483648),
])
def test_builtins_wrap_at_the_int32_bounds(text, want):
    _agree_with_oracle(text, want)


def test_a_quoted_variable_as_a_builtin_argument():
    _agree_with_oracle("(beta (lambda 'x '(+ 'x '1)) '2)", 3)
    _agree_with_oracle("(beta (lambda 'x '(+ 'x '1)) '(+ '1 '2))",
                       "quoted reference passed to non-control method '+'", ("+",))


def test_arity_mismatches_keep_their_messages_in_any_schedule():
    reg = fresh_registry()
    reg.register("k", [("two", 2, lambda c, a, b: a + b)])
    cases = [(("+", 1), "+ expects 2 arguments, got 1"),
             (("+", 3), "+ expects 2 arguments, got 3"),
             (("-", 0), "- expects 2 arguments, got 0"),
             (("k.two", 3), "k.two expects 2 arguments, got 3"),
             (("ctrl.run", 3), "ctrl.run expects 2 arguments, got 3")]
    for (op, nargs), message in cases:
        for m in _schedules(_with_root("(+ '1 '2)", op, nargs, reg), reg):
            with m:
                assert _outcome(m.run_value) == (message, (op,))
                m.check_conservation()


def test_a_literal_lambda_and_one_reached_through_a_closure():
    reg = fresh_registry()
    assert repr(evaluate("(lambda 'x '(+ x '1))", reg)) == "<lambda>"
    for m in _schedules(compile_for("(lambda 'x '(+ x '1))", 2, reg), reg):
        with m:
            assert m.run_value() is vm.LAMBDA_VALUE
            assert sum(t.arena_next for t in m.tiles) == 1
    # f is bound to the operand's closure; `(beta f '3)` requests it, and
    # the lambda replies with that closure: the two requested lambdas make
    # one closure each, the request through f none
    text = "(beta (lambda 'f '(beta f '3)) (lambda 'y '(* y '2)))"
    for trace in _agree_with_oracle(text, 6):
        assert _requests_to_closures(trace) == 1
    with Machine(compile_for(text, 1, reg), reg, 1) as m:
        assert m.run_value() == 6
        assert m.tiles[0].arena_next == 2


def test_a_lambda_with_an_unquoted_reference_is_served_as_before():
    # the compiler quotes every word of a lambda; in an edited image an
    # unquoted body is requested first, and here fails unbound
    reg = fresh_registry()
    img = compile_for("(lambda 'x '(+ x '1))", 1, reg)
    img.code[ROOT] = img.code[ROOT][:-1] + (W.clear_quote(img.code[ROOT][-1]),)
    for m in _schedules(img, reg):
        with m:
            assert _outcome(m.run_value) == ("unbound lambda variable reached a kernel",
                                             ("+", "lambda"))
            m.check_conservation()


def test_runtime_region_exhaustion_in_the_lambda_handler(monkeypatch):
    # room for two closures: the third requested lambda finds it full
    monkeypatch.setattr(vm, "RUNTIME_BASE", (1 << 32) - 2)
    reg = fresh_registry()
    img = compile_for("(beta (lambda 'a 'b 'c '(+ '1 '2)) (lambda 'x 'x) (lambda 'y 'y)"
                      " (lambda 'z 'z))", 2, reg)
    for m in _schedules(img, reg):
        with m:
            for _ in range(2):  # and again, from an empty arena
                assert _outcome(m.run_value) == (
                    "address space exhausted (runtime code region)", ("lambda", "beta"))
                m.check_conservation()
                assert sum(t.arena_next for t in m.tiles) == 2


def test_entries_of_one_shape_share_one_handler():
    # a `+` tree has two shapes, the leaf (+ 'a 'b) and the inner (+ r r),
    # both specialised: each tile holds their two handlers and its
    # first-request selector for the other tile's entries, whatever the
    # tree's size, and an inner entry's record applies `+` by its shape's
    # own reducer, not through the kernel dispatch path
    counts = set()
    for depth in (8, 12):
        reg = fresh_registry()
        img = compile_for(_plus_tree(depth, iter(range(1 << depth))), 2, reg)
        with Machine(img, reg, 2) as m:
            assert m.run_value() == kernels.int32((1 << depth) * ((1 << depth) - 1) // 2)
            counts.add(tuple(len({id(h) for h in t.entries}) for t in m.tiles))
            records = [(t, rec) for t in m.tiles for rec in t.subtask_list]
            assert records and all(rec.finish != t.finish for t, rec in records)
    assert counts == {(3, 3)}
