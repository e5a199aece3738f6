"""The reduction machine: dispatch, beta, if, placement, errors, conservation."""

import queue
import sys
import threading
import time

import pytest

from gprm import bench, compiler, kernels, lang, vm, words as W
from gprm.gpc import compile_gpc
from gprm.kernels import NO_RESULT, KernelError
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
from test_compiler import FIB_GPC as FIB15_GPC


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
        target = next(a for a, e in out.flat.entries.items() if e.op == "t1.m1")
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


# ── beta reduction ───────────────────────────────────────────────────


def test_beta_square_identity():
    assert execute("(beta (lambda 'x '(* (- x '1) (+ x '1))) '5)") == 24


def test_beta_atom_bodies():
    assert execute("(beta (lambda 'x 'x) '7)") == 7
    assert execute("(beta (lambda 'x '3) '9)") == 3
    assert execute("(beta (lambda 'x 'x) (+ '1 '2))") == 3


def test_beta_quoted_operand_deferred():
    # quoted operand: evaluated at the occurrence, after substitution
    assert execute("(beta (lambda 'x '(+ x x)) '(+ '1 '2))") == 6


def test_beta_handle_substituted_into_body_position():
    # inner lambda's body is a free variable of the outer lambda; once the
    # outer application substitutes a handle there, the inner application
    # must return that handle, not treat it as code
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
        # every application copied the body into the runtime region
        assert sum(t.arena_next for t in out.machine.tiles) > 10
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
        false_addr = out.flat.entries[out.flat.root].args[2].addr
        reachable = {false_addr}
        stack = [false_addr]
        while stack:
            for a in out.flat.entries[stack.pop()].args:
                if isinstance(a, compiler.WRef) and a.addr not in reachable:
                    reachable.add(a.addr)
                    stack.append(a.addr)
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
            target = next(a for a, e in out.flat.entries.items() if e.op == "t1.m1")
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
        target = next(a for a, e in out.flat.entries.items() if e.op == "+")
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
    # 2 tiles on 1 thread: one FIFO, so every run has the same live peak
    img = compile_for(compile_gpc(FIB_GPC, num_threads=2), 2, reg)
    with Machine(img, reg, 1) as m:
        assert [len(t.subtask_list) for t in m.tiles] == [0, 0]
        assert m.run_value() == 55
        after_first = [list(t.subtask_list) for t in m.tiles]
        for _ in range(49):
            assert m.run_value() == 55
        # the same record objects, neither regrown nor remade
        assert [t.subtask_list for t in m.tiles] == after_first


def test_unknown_special_form_code_is_a_task_error():
    reg = fresh_registry()
    img = compile_for("(+ '1 '2)", 1, reg)
    img.code[W.ref_addr(img.root)] = (W.mk_builtin(7), W.mk_const(1))
    with Machine(img, reg, 1) as m:
        with pytest.raises(TaskError, match="unknown special form code 7"):
            m.run_value()


# ── controllable interleaving harness ────────────────────────────────


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
        root = self.machine.image.root
        gw = self.machine.gateway_tile
        self.machine.send(REQ, gw, W.ref_tile(root), (gw, 0, 0), (root,))

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
        """Take every waiting packet: the work list, then the inbox, as the
        loop would serve them."""
        work = self.machine.work
        out = list(work)
        work.clear()
        return out + self.drain(self.machine.queue)

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
        if pkt.dst == m.gateway_tile:
            m.on_root_result(pkt)
        else:
            m.tiles[pkt.dst].handle(pkt)

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
        return pkt


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
        root = h.machine.image.root
        gw = h.machine.gateway_tile
        h.machine.send(REQ, gw, W.ref_tile(root), (gw, 0, 0), (root,))
        (rootpkt,) = h.pending()
        h.machine.tiles[rootpkt.dst].handle(rootpkt)
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
    h = Manual("(+ '1 '2)", reg, tiles=1)
    tile = h.machine.tiles[0]
    h.inject_root()
    assert h.machine.decode_word(h.result().payload[0]) == 3
    top = tile.subtask_stack[-1]
    h.inject_root()
    assert h.machine.decode_word(h.result().payload[0]) == 3
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
    h.machine.tiles[0].handle(stale)
    assert isinstance(h.machine._fatal, ProtocolError)


def test_conservation_check_detects_leaks():
    reg = fresh_registry()
    img = compiler.compile_text("(+ '1 '2)", 2, reg)
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
        h.machine.tiles[0].handle(rootpkt)
        assert len(h.jobs()) == 1  # handed off, its record 0 still live
        h.machine.tiles[0].handle(Packet(RES, 0, 0, 0, 0, 0, (W.mk_const(9),)))
        assert isinstance(h.machine._fatal, ProtocolError)


def test_conservation_check_detects_kernel_jobs():
    reg = fresh_registry()
    reg.register("k", [("id", 1, lambda c, x: x)])
    h = Manual("(k.id '7)", reg, tiles=1)
    h.send_root()
    (rootpkt,) = h.pending()
    h.machine.tiles[0].handle(rootpkt)
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
    addr = next(a for a, code in img.code.items() if code[0] == W.mk_oper(sid, mid))
    target.append(W.mk_ref(addr, 0, quoted=True))
    with Machine(img, reg, 1, trace=True) as m:
        with pytest.raises(TaskError, match="restart") as ei:
            m.run_value()
        assert ei.value.frames == ("k.sneaky", "+")
        reqs = [p for p in m.trace_packets()
                if p.kind == REQ and W.ref_addr(p.payload[0]) == addr]
        assert len(reqs) == 1  # the argument request only


# ── corrupt images ───────────────────────────────────────────────────


def test_reference_to_runtime_address_of_missing_tile():
    reg = fresh_registry()
    img = compile_for("(+ '1 '2)", 1, reg)
    bad = W.mk_ref(vm.RUNTIME_BASE + 99 * vm.RUNTIME_STRIDE, 0)
    img.code[W.ref_addr(img.root)] = (img.code[W.ref_addr(img.root)][0], bad, W.mk_const(1))
    with Machine(img, reg, 1) as m:
        with pytest.raises(ProtocolError, match="unknown code address"):
            m.run_value()


def test_non_operation_first_word_names_itself_in_the_frame():
    reg = fresh_registry()
    img = compile_for("(+ '1 '2)", 1, reg)
    img.code[W.ref_addr(img.root)] = (W.mk_const(5), W.mk_const(1))
    with Machine(img, reg, 1) as m:
        with pytest.raises(TaskError, match="does not start with an operation") as ei:
            m.run_value()
    assert ei.value.frames == ("5",)


def test_closure_reference_to_unknown_code_is_a_task_error():
    reg = fresh_registry()
    img = compile_for("(beta (lambda 'x '(+ x '1)) '2)", 1, reg)
    lam = next(a for a, ws in img.code.items() if W.kind_of(ws[0]) == W.KIND_BUILTIN
               and W.builtin_form(ws[0]) == W.FORM_CODE_LAMBDA)
    img.code[lam] = img.code[lam][:-1] + (W.mk_ref(999, 0, quoted=True),)
    with Machine(img, reg, 1) as m:
        with pytest.raises(TaskError, match="unknown code address 999") as ei:
            m.run_value()
    assert ei.value.frames == ("beta",)


@pytest.mark.parametrize("root", [False, True])
def test_reference_to_missing_tile_fails_at_boot(root):
    # a child reference (or the root) naming tile 7 of 2 used to leave a
    # packet counted in flight forever: a 60 s hang, then a raw IndexError
    reg = fresh_registry()
    img = compile_for("(+ '1 (+ '2 '3))", 2, reg)
    if root:
        img.root = W.ref_with_tile(img.root, 7)
    else:
        code = img.code[W.ref_addr(img.root)]
        i = next(i for i, w in enumerate(code) if W.kind_of(w) == W.KIND_REF)
        img.code[W.ref_addr(img.root)] = code[:i] + (W.ref_with_tile(code[i], 7),) + code[i + 1:]
    start = time.perf_counter()
    with pytest.raises(VmError, match="names a tile past the image's 2"):
        Machine(img, reg, 2)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("threads", [1, 2])
def test_deep_lambda_body_is_copied_without_recursion(threads):
    depth = 3000
    body = "(+ x " * depth + "'2" + ")" * depth
    assert execute(f"(beta (lambda 'x '{body}) '1)", threads=threads) == depth + 2


# ── closure templates ────────────────────────────────────────────────


def test_template_copies_a_shared_entry_once():
    reg = fresh_registry()
    img = compile_for("(beta (lambda 'x '(+ x (+ (label L (* '2 '3)) L))) '3)", 1, reg)
    with Machine(img, reg, 1) as m:
        assert m.run_value() == 15
        # the body is a DAG of three entries: both references of the copied
        # (+ L L) name the one copy of L
        assert m.tiles[0].arena_next == 3
        inner = m.code_words(W.ref_addr(m.code_words(vm.RUNTIME_BASE)[2]))
        assert W.ref_addr(inner[1]) == W.ref_addr(inner[2])
        assert vm.RUNTIME_BASE <= W.ref_addr(inner[1]) < vm.RUNTIME_BASE + 3
        (template,) = m._templates.values()
        assert len(template) == 3


def test_template_keeps_a_quoted_variable_deferred():
    # the unselected branch is a quoted occurrence of x; its deferred
    # argument must be substituted still quoted, so it is never requested
    calls = []
    reg = fresh_registry()
    reg.register("k", [("boom", 0, lambda c: calls.append(1) or 9)])
    for text, value in (("(beta (lambda 'x '(if '0 'x '5)) '(k.boom))", 5),
                        ("(beta (lambda 'x '(if '1 'x '5)) '(k.boom))", 9)):
        calls.clear()
        img = compile_for(text, 1, reg)
        with Machine(img, reg, 1) as m:
            assert m.run_value() == value
            assert W.is_quoted(m.code_words(vm.RUNTIME_BASE)[2])
        assert calls == [1] * (value == 9)


def test_runtime_lambda_template_is_never_memoised():
    # the curried application copies the inner lambda to the same runtime
    # address in both runs, with a different x; a template cached under
    # that address would answer the second run with the first run's x
    reg = fresh_registry()
    text = "(beta (beta (lambda 'x '(lambda 'y '(+ x y))) (ctrl.arg '0)) '1)"
    img = compile_for(text, 1, reg)
    with Machine(img, reg, 1) as m:
        assert m.run_value((10,)) == 11
        assert m.run_value((20,)) == 21
        assert m._templates and all(a < vm.RUNTIME_BASE for a in m._templates)


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
        assert m.handle_object(0) is data  # the registered handle is kept


def test_conservation_check_covers_arena_and_handles():
    reg = fresh_registry()
    img = compile_for("(beta (lambda 'x '(cons x (emptylist))) '1)", 1, reg)
    with Machine(img, reg, 1) as m:
        assert m.run_value() == [1]
        m.check_conservation()
        m.tiles[0].arena[vm.RUNTIME_BASE + 99] = (W.mk_const(0),)  # stray entry
        with pytest.raises(ResourceLeakError, match="arena entries"):
            m.check_conservation()
        assert m.run_value() == [1]
        m._handle_ids[-1] = 0  # an id left behind by a truncated handle
        with pytest.raises(ResourceLeakError, match="handle table"):
            m.check_conservation()


def test_unknown_operation_id_in_an_error_chain_is_a_vm_error():
    # the chain names every frame it crosses; an operation id the registry
    # does not know names itself instead of raising a raw KernelError
    reg = fresh_registry()
    img = compile_for("(+ (head (emptylist)) '1)", 1, reg)
    sid, mid, _ = reg.resolve("+")
    addr = next(a for a, code in img.code.items() if code[0] == W.mk_oper(sid, mid))
    img.code[addr] = (W.mk_oper(77, 0),) + img.code[addr][1:]
    with Machine(img, reg, 1) as m:
        with pytest.raises(VmError) as ei:
            m.run_value()
    assert not isinstance(ei.value, KernelError)
    assert isinstance(ei.value, TaskError) and ei.value.frames[-1] == "77.0"


def _error_word_image(text, reg):
    """The image of text with its constant 5 replaced by an error word whose
    index names no error record."""
    img = compile_for(text, 1, reg)
    for a, ws in img.code.items():
        img.code[a] = tuple(W.mk_error(7) if W.kind_of(w) == W.KIND_CONST
                            and W.const_value(w) == 5 else w for w in ws)
    return img


@pytest.mark.parametrize("text", ["(beta (lambda 'x '5) '1)",
                                  "(+ '1 (beta (lambda 'x '5) '1))"])
def test_error_word_naming_no_error_record_is_a_protocol_error(text):
    # the root's result (run), or an argument's (the error chain on the loop)
    reg = fresh_registry()
    with Machine(_error_word_image(text, reg), reg, 1) as m:
        with pytest.raises(ProtocolError, match="err7 names no error record"):
            m.run_value()
    with Machine(compile_for("(+ '1 '2)", 1, reg), reg, 1) as m:
        m.register_data([1])  # handle 0 is no error record either
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
    img.code[W.ref_addr(img.root)] = (W.mk_oper(sid, mid),) + (W.mk_const(1),) * nargs
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
        # operations the image has no symbol for name themselves by id
        (_with_root("(+ '1 '2)", "k.two", 3, reg), "k.two expects 2 arguments, got 3",
         ("3.0",)),
        (_with_root("(+ '1 '2)", "ctrl.run", 3, reg), "ctrl.run expects 2 arguments, got 3",
         ("1.2",)),
        (_with_root("(+ '1 '2)", "ctrl.arg", 0, reg), "ctrl.arg expects 1 arguments, got 0",
         ("1.0",)),
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
    for a, ws in img.code.items():
        img.code[a] = tuple(W.mk_handle(99) if W.kind_of(w) == W.KIND_CONST
                            and W.const_value(w) == 5 else w for w in ws)
    return img


@pytest.mark.parametrize("text", ["(if '1 '5 '0)", "(+ '5 '1)"])
def test_handle_word_naming_no_handle_is_a_protocol_error(text):
    # the root's result (decode_word), or a kernel's argument (unwrap)
    reg = fresh_registry()
    with Machine(_handle_word_image(text, reg), reg, 1) as m:
        with pytest.raises(ProtocolError, match="h99 names no handle"):
            m.run_value()
