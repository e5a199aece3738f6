"""The parallel reduction machine.

A machine is a set of tiles served by one reduction loop, which handles
every tile-bound packet newest first (a fuzzed machine takes a random one).
So a run goes depth-first, and the records it holds grow with the depth of
the program, not with its calls.  A record posts its requests last slot
first, so its leftmost argument is served first, as the oracle evaluates.

A request packet asks a tile to evaluate one flat S-expression; its payload
is (reference, environment), and the trace shows only the reference.  The
tile resolves a closure to its code's address and calls that address's
handler in its handler table (`Tile.entries`): handler(address, caller,
reference, environment).  An entry's first request on a tile chooses the
handler for the entry's shape, its op word and each argument word's kind
and quote bit (`w >> QUOTE_SHIFT`), and stores it in the table; the tile
builds one handler per shape, shared by the entries of that shape, and a
handler reads the entry's words from the code.  This is quickening
(Brunthaler, "Inline Caching Meets Quickening", ECOOP 2010).  What the shape
decides is fixed when its handler is built (closure generation: Feeley &
Lapalme, "Using Closures for Code Generation", Computer Languages 1987):
which argument positions are variables, which are literal unquoted
references and which unquoted variables may hold a reference once filled,
and the entry's reducer: `eval_if`, `beta_reduce`, the lambda's reply, a
builtin binary operation applied inline to two constants, or `Tile.finish`,
the one dispatch path for task and control kernels.  Two shapes have a
faster handler in front: a builtin binary operation whose arguments are
constants or unquoted variables is applied at once, and hands an entry
whose variable is bound to anything but a constant, or unbound, to its
shape's entry handler; and a lambda whose words are all quoted replies with
its closure and never reads its formals.

An entry none of whose argument words is an unquoted reference has nothing
to wait for: the tile reduces it at once, from its words and the packet's
caller.  Any other entry gets a subtask record: the tile stores present
arguments, requests referenced arguments from their tiles, and reduces the
entry once every slot is filled.  Results travel back to the requesting
record's slot.  So a record is only ever an entry waiting on a referenced
argument, and it keeps no error state: error is the highest word kind, so
`max` over the filled slots tells whether one failed.

Beta reduction binds, it does not copy.  An environment is a dict from
variable slot to word, or None at the root, and an entry's handler fills
its variable words from it, reading each slot from the variable's word and
keeping a quoted occurrence quoted.  A beta binds each formal to its
operand, quote cleared, over the operator's environment, and requests the
body in that environment.  Every reference value is a closure:
one entry (reference, environment) of the machine's closure arena
(`Machine.arena`, one list whose entry i is the closure at address
RUNTIME_BASE + i).  A `lambda` replies with a closure of itself
over its environment, or with the closure it was requested through; a beta
closes its literal quoted operands over its entry's environment.  So a
compile-time reference in a slot is always a literal of the entry being
reduced, and runs in the entry's environment (an `if` branch, a literal
beta operator, `ctrl.run`'s target); a closure runs in its own.

A machine checks its image once, at boot (`check_image`), and the loop
trusts what the check guarantees: the image has an entry, and every entry
starts with a special form or an operation of the image's symbol table;
every argument word is a reference, a 32-bit constant or a variable; every
reference names a tile of the machine and an entry of the image; and no
chain of references is a cycle.  The code is a tuple indexed by address,
and the root is always its entry 0 on tile 0 (`compiler.ROOT`): no image can
hold an entry in the runtime code region or a root that names no entry.  So
the packet path has no branch for an unknown address, form or operation.
What the loop builds at run time (closures, handle and error words) it
builds from checked words.  An error is one record (`ErrorInfo`) under one
handle: each record it crosses on the way to the host appends its frame and
forwards the same error word, which has exactly one consumer, the record
waiting on it.  Two things boot cannot see are checked where they arrive: a
reference a control method restarts (`Machine.restart_evaluation`), and a
variable no beta bound, which is an error result where it is used.

Kernel dispatch follows the paper's split between communication code and
task code.  Boot resolves each operation word of the image to its kernel
(`Machine.ops`).  The engine's own services (`builtin` and
`ctrl`) and control methods are O(1) bookkeeping and run inline on the
loop.  Every other (task) kernel call is handed, its arity checked and its
arguments unwrapped on the loop, to one of the machine's
`min(threads, tile_count)` kernel threads: tile t's go to kernel thread
t % n, each started on its first task kernel.  A kernel in flight takes no
record: its job carries the entry's op word and caller, and the kernel
thread runs the kernel and posts one completion packet (kind DONE, never
traced) to the loop's inbox, addressed to the caller, with the op word,
value and error as payload; the loop then replies.  So a long kernel does
not hold up the packets queued behind it.

The reduction is pure Python, so under the GIL a second loop could never
reduce at the same time as the first; only task kernels that release the
GIL run in parallel, and they do on the kernel threads.

Ownership rules (the whole concurrency argument):
  - subtask records, the closure arena and the tiles' counts of the
    closures they made, error records, the count of outstanding kernel jobs
    and the kept root result are touched only by the loop thread, never by
    a kernel thread;
  - each tile's handler table and its handlers by shape are the loop's:
    the table starts with every address on the first-request selector, and
    only the loop replaces an address's selector with its shape's handler;
  - the code is immutable after boot;
  - only the loop's handlers send packets, and they append every packet,
    the host's result too, to the work list (`Machine.work`), a deque that
    only the loop touches, through `Machine.post`.  A packet is a plain
    tuple; `Packet` names its fields for the trace.  The inbox
    (`Machine.queue`) carries what the loop did not send: the host's root
    packet, kernel threads' completions and the stop token.  The loop moves
    waiting inbox packets onto the work list while a task kernel is out,
    and blocks on the inbox only when the work list is empty;
  - a kernel thread holds only its job queue and the loop's inbox: it runs
    a job's kernel with the tile's task context and puts one completion in
    the inbox;
  - `KernelContext.restart` is refused off the loop;
  - only the loop appends to the packet trace during a run.  The host
    appends the root packet before putting it in the inbox, while the loop
    is idle, so no lock is needed.

Quiescence is exact and needs no lock: the machine is quiet once the loop
has finished handling a packet, the work list is empty and no task kernel is
outstanding.  The count of outstanding kernel jobs is owned by the loop: a
job is counted at its hand-off and counted out when its completion packet is
handled, both on the loop.  An inbox packet cannot be missed: a completion
waits on a counted job, the host sends the root only while the machine is
quiet, and the stop token waits until the work list is empty.  The host is
one more row of the loop's handler table (id == tile_count):
`Machine.on_root_result` keeps the root's result, and a second one poisons
the machine.  When quiet, the loop puts exactly one message on the gateway
queue: the kept result, or None.
"""

from __future__ import annotations

import graphlib
import queue
import random
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

from . import words as W
from .compiler import ROOT
from .kernels import BUILTIN_SERVICE, KernelError, NO_RESULT, int_result, is_list, materialize
from .words import (ADDR_MASK, CONST_MAX, CONST_MIN, CONST_WORD, KIND_CONST, KIND_ERROR,
                    KIND_OPER, KIND_REF, KIND_SHIFT, KIND_VAR, PAYLOAD_MASK, QUOTE_BIT,
                    QUOTE_SHIFT, SIGN_BIT_48, TILE_MASK, TILE_SHIFT)

RUNTIME_BASE = 1 << 31

REQ = 0
RES = 1
DONE = 2  # a task kernel's completion, from its kernel thread; never traced
_KIND_NAMES = {REQ: "REQ", RES: "RES"}

# services whose non-control methods run inline on the loop
_ENGINE_SERVICES = frozenset((BUILTIN_SERVICE, "ctrl"))

_STOP = object()


class VmError(Exception):
    pass


class StuckReductionError(VmError):
    pass


class ProtocolError(VmError):
    pass


class ResourceLeakError(VmError):
    pass


class TaskError(VmError):
    """A kernel or reduction error, with the subtask chain it crossed."""

    def __init__(self, message, frames=()):
        self.message = message
        self.frames = tuple(frames)
        chain = " <- ".join(self.frames)
        super().__init__(f"{message} [{chain}]" if chain else message)


class Packet(NamedTuple):
    """The outside view of a packet (`Machine.trace_packets`).  On the loop a
    packet is a plain tuple of these seven fields, read by position."""

    kind: int
    src: int
    dst: int
    caller_tile: int
    caller_addr: int
    caller_arg: int
    payload: tuple


@dataclass(frozen=True, eq=False)
class ErrorInfo:
    """One error of a run: its message and the names of the entries it
    crossed, innermost first, a list that each hop appends to."""

    message: str
    frames: list


class LambdaValue:
    """Opaque stand-in when a run returns a lambda."""

    __slots__ = ()

    def __repr__(self):
        return "<lambda>"


LAMBDA_VALUE = LambdaValue()


class SubtaskRecord:
    """An entry that waits on a referenced argument, with the environment it
    was requested in.  A requested slot holds None until its result arrives;
    a free record has no slots."""

    __slots__ = ("op_word", "self_ref", "env", "caller", "slots", "pending", "finish")

    def __init__(self):
        self.op_word = 0
        self.self_ref = 0
        self.env = None
        self.caller = (0, 0, 0)
        self.slots = ()
        self.pending = 0
        self.finish = None  # reduces the entry once every slot is filled


class KernelContext:
    """What a kernel method may see of the engine.

    Each tile has two: one for the methods run on its loop, whose `_caller`
    (and `_env`) are set for each control method it runs, and one for its
    task kernels on the kernel thread, whose `_caller` is always None."""

    def __init__(self, tile):
        self._tile = tile
        self._machine = tile.machine
        self._caller = None  # the running control method's caller
        self._env = None  # and the environment of its entry

    @property
    def tile_id(self):
        return self._tile.tile_id

    @property
    def random(self):
        return self._tile.rng

    @property
    def host_args(self):
        """This run's host arguments, for ctrl.arg."""
        return self._machine.host_args

    @property
    def data(self):
        """The registered host objects, for ctrl.reg."""
        return self._machine._data

    def shared(self, name):
        return self._machine.shared_state(name), self._machine._shared_lock

    def local(self, name):
        """Per-tile instance state for the named service.  Task kernels need
        no lock for it: a tile's task kernels run one at a time on its one
        kernel thread.  A control method runs on the loop, alongside them,
        so state it shares with them needs a lock."""
        return self._tile.local_state.setdefault(name, {})

    def restart(self, ref_word, tile_id):
        """Rewrite the reference's tile field, drop the quote, re-dispatch.

        The restarted computation answers this entry's caller directly, in
        this entry's environment unless the reference is a closure.  Only a
        control method may restart: it runs on the loop, the one place that
        may send packets."""
        if self._caller is None:
            raise KernelError("restart is only allowed in a control method")
        self._machine.restart_evaluation(ref_word, tile_id, self._caller, self._env,
                                         src=self._tile.tile_id)


class Tile:
    def __init__(self, machine, tile_id):
        self.machine = machine
        self.tile_id = tile_id
        self.code = machine.code
        self.post = machine.post
        self.subtask_list = []
        self.subtask_stack = []  # free addresses, reused LIFO
        self.arena = machine.arena
        self.arena_next = 0  # the closures this tile made this run
        self.local_state = {}
        seed = machine.fuzz_seed
        self.rng = random.Random(None if seed is None else seed + 7919 * tile_id)
        self.ctx = KernelContext(self)
        self.task_ctx = KernelContext(self)
        self.kernel_thread = machine.kernel_threads[tile_id % len(machine.kernel_threads)]
        self.shapes = {}  # shape -> its handler, built once per shape
        self.entries = [self.select] * len(self.code)  # address -> its entry's handler

    # ── packet handlers ──────────────────────────────────────

    def on_request(self, pkt):
        ref, env = pkt[6]
        a = ref & ADDR_MASK
        if a >= RUNTIME_BASE:  # a closure: its code runs in its own environment
            code_ref, env = self.arena[a - RUNTIME_BASE]
            a = code_ref & ADDR_MASK
        self.entries[a](a, pkt[3:6], ref, env)  # caller: (tile, addr, arg)

    def on_result(self, pkt):
        _, _, _, _, addr, arg, (w,) = pkt
        rec = self.subtask_list[addr] if addr < len(self.subtask_list) else None
        if rec is None or arg >= len(rec.slots) or rec.slots[arg] is not None:
            self.machine.set_fatal(ProtocolError(
                f"result for freed or unexpected record t{self.tile_id}/{addr} arg {arg}"))
            return
        slots = rec.slots
        slots[arg] = w
        rec.pending -= 1
        if rec.pending == 0:
            rec.slots = ()
            self.subtask_stack.append(addr)
            if max(slots) >= _ERROR_WORD:  # error is the highest word kind
                # an error short-circuits the reduction but waited for every
                # slot; the leftmost error wins whatever order they came in
                err = next(w for w in slots if w >> KIND_SHIFT == KIND_ERROR)
                self.reply_error_word(rec.op_word, rec.caller, err)
            else:
                rec.finish(rec.op_word, slots, rec.caller, rec.self_ref, rec.env)

    def on_done(self, pkt):
        """A task kernel's completion packet, addressed to the entry's
        caller: count the job out and reply, on the loop."""
        self.machine.kernel_jobs -= 1
        op_word, value, error = pkt[6]
        self.conclude(op_word, pkt[3:6], value, error)

    # ── entry handlers ───────────────────────────────────────
    # A request goes to its entry's handler: handler(a, caller, ref, env),
    # which reads the entry's words from the code.  An entry's shape is its
    # op word and each argument word's kind and quote bit, `w >> QUOTE_SHIFT`;
    # a tile builds one handler per shape, and the entries of that shape
    # share it.

    def select(self, a, caller, ref, env):
        """An entry's first request on this tile: put its shape's handler in
        the table, building it on the shape's first entry, and run it."""
        ws = self.code[a]
        shape = (ws[0], *[w >> QUOTE_SHIFT for w in ws[1:]])
        handler = self.shapes.get(shape)
        if handler is None:
            handler = self.shapes[shape] = self.handler_for(shape)
        self.entries[a] = handler
        handler(a, caller, ref, env)

    def handler_for(self, shape):
        """A shape's handler: `entry`'s, with the reducer the shape's op word
        picks, behind `ready_binary` for a builtin binary operation on
        constants and unquoted variables; `reply_lambda` for a lambda whose
        words are all quoted."""
        op_word, args = shape[0], shape[1:]
        fn = None
        if op_word >> KIND_SHIFT == KIND_OPER:
            service, spec, _ = self.machine.ops[op_word]
            if service.name == BUILTIN_SERVICE and spec.arity == 2 and len(args) == 2:
                fn = spec.fn
            reduce = self.binary_finish(fn) if fn else self.finish
        elif op_word == _LAMBDA_WORD:
            if all(s & 1 for s in args):
                return self.reply_lambda
            reply_lambda = self.reply_lambda
            reduce = lambda op_word, slots, caller, ref, env: reply_lambda(None, caller, ref, env)
        else:  # boot admits only the three special forms
            reduce = self.eval_if if op_word == _IF_WORD else self.beta_reduce
        handler = self.entry(op_word, args, reduce)
        if fn and all(s in _READY_ARGS for s in args):
            return self.ready_binary(op_word, fn, args, handler)
        return handler

    def entry(self, op_word, args, reduce):
        """The handler of a shape's entries: it fills their variables from
        the environment, then reduces the entry at once if no word is an
        unquoted reference, or else gives it a record that requests them."""
        fills = tuple((i, (s & 1) << QUOTE_SHIFT) for i, s in enumerate(args)
                      if s >> 1 == KIND_VAR)
        # unquoted references, and unquoted variables, which may fill with one,
        # last slot first: the work list is served LIFO, so the leftmost goes first
        asks = [i for i in range(len(args) - 1, -1, -1) if args[i] in (_REF_ARG, _VAR_ARG)]
        at_once = _REF_ARG not in args
        code, stack, records = self.code, self.subtask_stack, self.subtask_list
        post, tid = self.post, self.tile_id

        def handler(a, caller, ref, env):
            slots = list(code[a][1:])
            if env:
                for i, quoted in fills:
                    w = env.get(slots[i] & PAYLOAD_MASK)
                    if w is not None:  # else a lambda's own formal, or unbound
                        # a quoted occurrence stays deferred
                        slots[i] = w | quoted if w >> KIND_SHIFT in W.QUOTABLE_KINDS else w
            if at_once:
                # an unquoted reference is the only word below QUOTE_BIT
                for i in asks:
                    if slots[i] < QUOTE_BIT:
                        break
                else:
                    reduce(op_word, slots, caller, ref, env)
                    return
            # a record is freed by emptying its slots and pushing its address, so
            # the most recently freed one is reused first; else the pool grows
            if stack:
                addr = stack.pop()
            else:
                addr = len(records)
                records.append(SubtaskRecord())
            rec = records[addr]
            rec.op_word = op_word
            rec.self_ref = ref
            rec.env = env
            rec.caller = caller
            rec.slots = slots
            rec.finish = reduce
            for i in asks:
                w = slots[i]
                if w < QUOTE_BIT:
                    slots[i] = None
                    post((REQ, tid, (w >> TILE_SHIFT) & TILE_MASK, tid, addr, i, (w, env)))
            rec.pending = slots.count(None)
        return handler

    def ready_binary(self, op_word, fn, args, entry):
        """The handler of a builtin binary operation on constants and
        unquoted variables: it applies the builtin to the constants, a
        variable read from the environment.  A variable bound to anything
        but a constant, or unbound, goes to the shape's `entry` handler,
        which gives it its message or its record."""
        x_var, y_var = (s == _VAR_ARG for s in args)
        code, ctx, post, tid, conclude = self.code, self.ctx, self.post, self.tile_id, self.conclude

        def handler(a, caller, ref, env):
            _, x, y = code[a]
            if x_var:
                x = env.get(x & PAYLOAD_MASK) if env else None
                if x is None or x >> KIND_SHIFT != KIND_CONST:
                    entry(a, caller, ref, env)
                    return
            if y_var:
                y = env.get(y & PAYLOAD_MASK) if env else None
                if y is None or y >> KIND_SHIFT != KIND_CONST:
                    entry(a, caller, ref, env)
                    return
            # as finish() and conclude() would, inline
            try:
                value = fn(ctx, ((x & PAYLOAD_MASK) ^ SIGN_BIT_48) - SIGN_BIT_48,
                           ((y & PAYLOAD_MASK) ^ SIGN_BIT_48) - SIGN_BIT_48)
            except Exception as e:
                conclude(op_word, caller, None, kernel_failure(e))
                return
            if type(value) is int and CONST_MIN <= value <= CONST_MAX:
                ct, ca, cg = caller
                post((RES, tid, ct, ct, ca, cg, (CONST_WORD | (value & PAYLOAD_MASK),)))
            else:
                conclude(op_word, caller, value, None)
        return handler

    def binary_finish(self, fn):
        """A record's `finish` for a builtin binary operation: it applies the
        builtin to two constants as ready_binary() does, and hands any other
        pair to `finish`."""
        finish, ctx, post, tid, conclude = (self.finish, self.ctx, self.post, self.tile_id,
                                            self.conclude)

        def finish_binary(op_word, slots, caller, self_ref, env):
            x, y = slots
            if x >> KIND_SHIFT != KIND_CONST or y >> KIND_SHIFT != KIND_CONST:
                finish(op_word, slots, caller, self_ref, env)
                return
            try:
                value = fn(ctx, ((x & PAYLOAD_MASK) ^ SIGN_BIT_48) - SIGN_BIT_48,
                           ((y & PAYLOAD_MASK) ^ SIGN_BIT_48) - SIGN_BIT_48)
            except Exception as e:
                conclude(op_word, caller, None, kernel_failure(e))
                return
            if type(value) is int and CONST_MIN <= value <= CONST_MAX:
                ct, ca, cg = caller
                post((RES, tid, ct, ct, ca, cg, (CONST_WORD | (value & PAYLOAD_MASK),)))
            else:
                conclude(op_word, caller, value, None)
        return finish_binary

    def reply_lambda(self, a, caller, ref, env):
        """A lambda replies with a closure of itself over its environment,
        or with the closure it was requested through; it never reads its
        formals."""
        try:
            if ref & ADDR_MASK < RUNTIME_BASE:
                ref = self.closure(ref, env)
        except VmError as e:  # closure() found the address space full
            self.reply_error(_LAMBDA_WORD, caller, str(e))
            return
        self.reply(caller, ref | QUOTE_BIT)

    # ── reduction ────────────────────────────────────────────
    # An entry's fields: its op word, its filled slots (no error among them),
    # the caller its result goes to, the reference it was requested by and
    # its environment.

    def op_name(self, op_word):
        """The frame name of an entry: its special form's or operation's name."""
        return W.word_str(op_word, self.machine.image.symbols)

    def finish(self, op_word, slots, caller, self_ref, env):
        """Reduce an operation whose slots are all filled.  This is the one
        kernel dispatch path: every method's arity is checked here, then a
        task kernel goes, its arguments unwrapped, to the kernel thread,
        counted in `kernel_jobs` until on_done, and any other method is
        called here."""
        machine = self.machine
        service, spec, task = machine.ops[op_word]
        ctx = self.ctx
        error = None
        try:
            if spec.control:
                ctx._caller, ctx._env = caller, env
                args = list(slots)
            else:
                args = []  # a loop: on Python 3.11 a comprehension is one more call
                for w in slots:
                    args.append(((w & PAYLOAD_MASK) ^ SIGN_BIT_48) - SIGN_BIT_48
                                if w >> KIND_SHIFT == KIND_CONST else self.unwrap(w, spec))
            if spec.arity is not None and len(args) != spec.arity:
                raise machine.registry.arity_error(service, spec, len(args))
            if task:
                machine.kernel_jobs += 1
                self.kernel_thread.submit((self, op_word, caller, spec.fn, args))
                return  # on_done concludes it
            value = spec.fn(ctx, args) if spec.control else spec.fn(ctx, *args)
        except Exception as e:
            value, error = None, kernel_failure(e)
        finally:
            ctx._caller = None
        self.conclude(op_word, caller, value, error)

    def reply(self, caller, word):
        ct, ca, cg = caller
        self.post((RES, self.tile_id, ct, ct, ca, cg, (word,)))

    def reply_error(self, op_word, caller, message):
        info = ErrorInfo(message, [self.op_name(op_word)])
        self.reply(caller, W.mk_error(self.machine.wrap_handle(info)))

    def reply_error_word(self, op_word, caller, err_word):
        """Add this entry's frame to the error and pass its word on: an
        error word has one consumer, so no other hop sees the frame."""
        self.machine.error_info(err_word).frames.append(self.op_name(op_word))
        self.reply(caller, err_word)

    def eval_if(self, op_word, slots, caller, self_ref, env):
        if len(slots) != 3:
            self.reply_error(op_word, caller, "if expects a condition and two branches")
            return
        cw = slots[0]
        if W.kind_of(cw) != W.KIND_CONST:
            self.reply_error(op_word, caller, "if condition did not evaluate to an integer")
            return
        selected = slots[1] if W.const_value(cw) != 0 else slots[2]
        if W.kind_of(selected) == W.KIND_REF:
            # deferred branch: drop the quote, restart with our caller as
            # continuation; the unselected branch is never dispatched
            w = W.clear_quote(selected)
            self.post((REQ, self.tile_id, W.ref_tile(w), *caller, (w, env)))
        elif W.kind_of(selected) == W.KIND_VAR:  # no beta bound it
            self.reply_error(op_word, caller, "unbound variable in if branch")
        else:
            self.reply(caller, W.clear_quote(selected))

    def beta_reduce(self, op_word, slots, caller, self_ref, env):
        opw = slots[0] if slots else 0
        if W.kind_of(opw) != W.KIND_REF or not W.is_quoted(opw):
            self.reply_error(op_word, caller, "operator is not a lambda value")
            return
        a, lam_env = W.ref_addr(opw), env  # a literal lambda closes over this entry's env
        if a >= RUNTIME_BASE:
            code_ref, lam_env = self.arena[a - RUNTIME_BASE]
            a = W.ref_addr(code_ref)
        lam = self.code[a]
        if lam[0] != _LAMBDA_WORD:
            self.reply_error(op_word, caller, "operator is not a lambda value")
            return
        formals, body_w = lam[1:-1], lam[-1]
        operands = slots[1:]
        if len(operands) != len(formals):
            self.reply_error(
                op_word, caller, f"lambda arity mismatch: {len(formals)} formals, "
                                 f"{len(operands)} operands")
            return
        # the quote is removed in binding, so a deferred operand is evaluated
        # at each unquoted use; a literal one is closed over this entry's env
        bound = dict(lam_env) if lam_env else {}
        try:
            for f, v in zip(formals, operands):
                v = W.clear_quote(v)
                if v < _REF_END and v & ADDR_MASK < RUNTIME_BASE:
                    v = self.closure(v, env)
                bound[W.var_slot(f)] = v
        except VmError as e:  # closure() found the address space full
            self.reply_error(op_word, caller, str(e))
            return
        bk = W.kind_of(body_w)
        if bk == W.KIND_VAR:
            body_w = bound.get(W.var_slot(body_w))
            if body_w is None:
                self.reply_error(op_word, caller, "unbound variable in lambda body")
                return
            bk = W.kind_of(body_w)
        if bk == W.KIND_REF:
            w = W.clear_quote(body_w)
            self.post((REQ, self.tile_id, W.ref_tile(w), *caller, (w, bound)))
        else:
            self.reply(caller, W.clear_quote(body_w) if bk in W.QUOTABLE_KINDS else body_w)

    def closure(self, ref, env):
        """A closure of ref's code over env: the next entry of the machine's
        arena.  Returns its unquoted reference, on ref's tile."""
        a = RUNTIME_BASE + len(self.arena)
        if a > ADDR_MASK:
            raise VmError("address space exhausted (runtime code region)")
        self.arena.append((ref, env))
        self.arena_next += 1
        return ref & _TILE_FIELD | a

    # ── kernel dispatch ──────────────────────────────────────

    def conclude(self, op_word, caller, value, error):
        """Reply with a kernel's value or error."""
        if error is not None:
            self.reply_error(op_word, caller, error)
        elif type(value) is int and CONST_MIN <= value <= CONST_MAX:
            ct, ca, cg = caller  # reply() inline: the per-entry hot path
            self.post((RES, self.tile_id, ct, ct, ca, cg,
                       (CONST_WORD | (value & PAYLOAD_MASK),)))
        elif value is not NO_RESULT:
            try:
                self.reply(caller, self.machine.wrap_value(value))
            except KernelError as e:
                self.reply_error(op_word, caller, str(e))

    def unwrap(self, w, spec):
        """Evaluated non-constant word -> kernel value; only control methods
        may see code."""
        k = W.kind_of(w)
        if k == W.KIND_HANDLE:
            return self.machine.handle_object(W.handle_index(w))
        if k == W.KIND_REF:
            raise KernelError(
                f"quoted reference passed to non-control method '{spec.name}'")
        if k == W.KIND_VAR:
            raise KernelError("unbound lambda variable reached a kernel")
        raise KernelError(f"word kind {k} is not a kernel value")


def kernel_failure(e):
    """Error message for an exception raised in a kernel: a KernelError's
    own message, or the type and message of any other (a kernel panic)."""
    return str(e) if isinstance(e, KernelError) else f"{type(e).__name__}: {e}"


class _KernelThread:
    """Runs the task kernels of the tiles mapped to it, one at a time, and
    posts each completion to the loop's inbox.  Its thread starts on first
    use."""

    def __init__(self, inbox, index):
        self.inbox = inbox
        self.name = f"gprm-kernels-{index}"
        self.jobs = queue.SimpleQueue()
        self.thread = None

    def submit(self, job):
        """Hand a task kernel call over, on the loop."""
        if self.thread is None:
            self.thread = threading.Thread(target=self.run, name=self.name, daemon=True)
            self.thread.start()
        self.jobs.put(job)

    def run(self):
        while (job := self.jobs.get()) is not _STOP:
            self.run_job(job)

    def run_job(self, job):
        """Run one task kernel and post its completion, addressed to the
        entry's caller, to the loop."""
        tile, op_word, caller, fn, args = job
        try:
            value, error = fn(tile.task_ctx, *args), None
        except Exception as e:
            value, error = None, kernel_failure(e)
        t = tile.tile_id
        self.inbox.put((DONE, t, t, *caller, (op_word, value, error)))


_REF_END = 1 << KIND_SHIFT  # a word below it is a reference, quoted or not
_ERROR_WORD = KIND_ERROR << KIND_SHIFT  # a word at or above it is an error
_TILE_FIELD = TILE_MASK << TILE_SHIFT
_CONST_NEG = PAYLOAD_MASK + 1 + CONST_MIN  # the payload of the constant CONST_MIN
_FORM_WORDS = frozenset(W.mk_builtin(form) for form in W.FORM_NAMES)
_LAMBDA_WORD = W.mk_builtin(W.FORM_CODE_LAMBDA)
_IF_WORD = W.mk_builtin(W.FORM_CODE_IF)
# an argument's kind and quote bit, `w >> QUOTE_SHIFT`, in an entry's shape
_REF_ARG = KIND_REF << 1  # an unquoted reference, requested
_VAR_ARG = KIND_VAR << 1  # an unquoted variable; | 1 is a quoted one
_READY_ARGS = frozenset((KIND_CONST << 1, KIND_CONST << 1 | 1, _VAR_ARG))


def check_image(image):
    """Refuse, with VmError, an image that breaks what the loop trusts (see
    the module docstring).  A reference cycle needs a reference at or before
    its own entry, so only an image with one has its reference graph
    searched."""
    code, past = image.code, image.tile_count << TILE_SHIFT  # the tile field compared in place
    size = len(code)
    if not size:
        raise VmError("the image has no entries")
    first_words = _FORM_WORDS | {W.mk_oper(sid, mid) for sid, mid in image.symbols}
    back = False
    for addr, ws in enumerate(code):
        if not ws:
            raise VmError(f"entry r{addr} has no words")
        if ws[0] not in first_words:
            raise VmError(f"entry r{addr} starts with {W.word_str(ws[0])}, "
                          f"not a special form or an operation of the image")
        for w in ws[1:]:
            if w < _REF_END:
                target = w & ADDR_MASK
                if target <= addr:
                    back = True
                if w & _TILE_FIELD >= past:
                    raise VmError(f"reference {W.word_str(w)} names a tile past "
                                  f"the image's {image.tile_count}")
                if target >= size:
                    raise VmError(f"reference {W.word_str(w)} names no entry")
            elif w >> KIND_SHIFT == KIND_CONST:
                if CONST_MAX < w & PAYLOAD_MASK < _CONST_NEG:  # not a sign-extended int32
                    raise VmError(f"constant {W.word_str(w)} in r{addr} is out of 32-bit range")
            elif w >> KIND_SHIFT != KIND_VAR:
                raise VmError(f"bad argument word kind {W.kind_of(w)} in r{addr}")
    if back:
        graph = {a: [w & ADDR_MASK for w in ws[1:] if w < _REF_END]
                 for a, ws in enumerate(code)}
        try:
            graphlib.TopologicalSorter(graph).prepare()
        except graphlib.CycleError as e:  # the path runs against the reference edges
            path = " -> ".join(f"r{a}" for a in reversed(e.args[1]))
            raise VmError(f"reference cycle {path}") from None


class Machine:
    """A booted reduction machine; reusable across run() calls.

    `threads` is the number of kernel threads (at most one per tile); one
    reduction loop serves every tile whatever its value."""

    def __init__(self, image, registry, threads=None, *, trace=False,
                 fuzz_seed=None):
        if threads is None:
            threads = image.tile_count
        if threads < 1:
            raise VmError("thread count must be >= 1 (no kernel thread for task kernels)")
        if not 1 <= image.tile_count <= TILE_MASK + 1:  # a reference's tile field
            raise VmError(f"tile count must be in 1..{TILE_MASK + 1}")
        self.ops = {}  # operation word -> (service, spec, task); task: run on a kernel thread
        for (sid, mid), name in image.symbols.items():
            try:
                rsid, rmid, _ = registry.resolve(name)
            except KernelError as e:
                raise VmError(f"image/registry symbol mismatch: {e}") from None
            if (rsid, rmid) != (sid, mid):
                raise VmError(
                    f"image/registry symbol mismatch: '{name}' is "
                    f"{rsid}.{rmid} in the registry, {sid}.{mid} in the image")
            service, spec = registry.spec(sid, mid)
            task = not spec.control and service.name not in _ENGINE_SERVICES
            self.ops[W.mk_oper(sid, mid)] = service, spec, task
        check_image(image)
        self.image = image
        self.registry = registry
        self.fuzz_seed = fuzz_seed
        self.tile_count = image.tile_count
        self.gateway_tile = image.tile_count
        self.code = tuple(image.code)
        self.host_args = ()
        self._data = []
        self._handles = []
        self._handle_ids = {}
        self._handle_lock = threading.Lock()
        self._shared = {}
        self._shared_lock = threading.RLock()
        self._fatal = None
        self._running = threading.Lock()
        self._gateway = queue.SimpleQueue()
        self._trace = [] if trace else None
        self._result = None  # the root's result packet, kept by the loop until quiet
        self.arena = []  # closures; entry i is the closure at RUNTIME_BASE + i
        self.work = deque()  # packets the loop's handlers sent, served LIFO
        # a handler's send: a traced machine also records the packet
        self.post = self.work.append if trace is False else self._post_traced
        self.kernel_jobs = 0  # task kernels handed off, completion not yet handled
        self.queue = queue.SimpleQueue()  # the loop's inbox
        self.kernel_threads = [_KernelThread(self.queue, i)
                               for i in range(min(threads, self.tile_count))]
        self.tiles = [Tile(self, t) for t in range(self.tile_count)]
        self._loop = threading.Thread(target=self._serve, name="gprm-loop", daemon=True)
        self._closed = False
        self._loop.start()

    # ── host-side data and handles ───────────────────────────

    def register_data(self, obj):
        """Pre-register a host object for ctrl.reg; returns its index."""
        self._data.append(obj)
        return len(self._data) - 1

    def wrap_handle(self, obj):
        with self._handle_lock:
            idx = self._handle_ids.get(id(obj))
            if idx is None:
                idx = len(self._handles)
                self._handles.append(obj)
                self._handle_ids[id(obj)] = idx
            return idx

    def handle_object(self, idx):
        """The object a handle word's index names; ProtocolError if it names none."""
        if idx < len(self._handles):
            return self._handles[idx]
        raise ProtocolError(f"handle word h{idx} names no handle")

    def error_info(self, w):
        """The ErrorInfo an error word names; ProtocolError if it names none."""
        i = W.handle_index(w)
        info = self._handles[i] if i < len(self._handles) else None
        if not isinstance(info, ErrorInfo):
            raise ProtocolError(f"error word {W.word_str(w)} names no error record")
        return info

    def shared_state(self, name):
        with self._shared_lock:
            return self._shared.setdefault(name, {})

    def wrap_value(self, v):
        i = int_result(v)
        if i is None:
            return W.mk_handle(self.wrap_handle(v))
        return CONST_WORD | (i & PAYLOAD_MASK)

    def decode_word(self, w):
        """Result word -> host value (lists materialized)."""
        k = W.kind_of(w)
        if k == W.KIND_CONST:
            return W.const_value(w)
        if k == W.KIND_HANDLE:
            obj = self.handle_object(W.handle_index(w))
            return materialize(obj) if is_list(obj) else obj
        if k == W.KIND_REF:
            return LAMBDA_VALUE
        if k == W.KIND_ERROR:  # the one place an error becomes a TaskError
            info = self.error_info(w)
            raise TaskError(info.message, info.frames)
        raise VmError(f"cannot decode word kind {k}")

    # ── packet plumbing ──────────────────────────────────────

    def _post_traced(self, pkt):
        self._trace.append(pkt)
        self.work.append(pkt)

    def on_root_result(self, pkt):
        """The host's handler: keep the root's result until the machine is quiet."""
        if self._result is not None:
            raise ProtocolError("second result for the root")
        self._result = pkt

    def restart_evaluation(self, ref_word, tile_id, caller, env, src=0):
        if W.kind_of(ref_word) != W.KIND_REF or not W.is_quoted(ref_word):
            raise KernelError("restart requires a quoted reference")
        # a control method's word, unlike an image's, was not checked at boot
        a = W.ref_addr(ref_word)
        if a >= len(self.code) and not 0 <= a - RUNTIME_BASE < len(self.arena):
            raise KernelError(f"restart of {W.word_str(ref_word)}, which names no entry")
        tile = tile_id % self.tile_count  # out-of-range thread ids wrap
        w = W.clear_quote(W.ref_with_tile(ref_word, tile))
        self.post((REQ, src, tile, *caller, (w, env)))

    def set_fatal(self, exc):
        if self._fatal is None:
            self._fatal = exc

    # ── running ──────────────────────────────────────────────

    def _serve(self):
        """The reduction loop: handles every packet, the host's results
        included, newest first or, on a fuzzed machine, in random order.
        During a run only a completion can arrive in the inbox."""
        handlers = [(t.on_request, t.on_result, t.on_done) for t in self.tiles]
        handlers.append((None, self.on_root_result, None))  # the host receives only results
        work = self.work
        inbox = self.queue
        take = work.pop  # the one place scheduling policy lives
        if self.fuzz_seed is not None:
            rng = random.Random(self.fuzz_seed)

            def take():
                """A random waiting packet, now and then after a short pause
                that lets a kernel completion land at another point."""
                if rng.random() < 0.25:
                    time.sleep(rng.random() * 1e-4)
                i = rng.randrange(len(work))
                work.rotate(-i)
                pkt = work.popleft()
                work.rotate(i)
                return pkt

        while True:
            if work:
                if self.kernel_jobs:
                    while not inbox.empty():
                        work.append(inbox.get())
                pkt = take()
            else:
                pkt = inbox.get()
            if pkt is _STOP:
                return
            try:
                if self._fatal is None:
                    handlers[pkt[2]][pkt[0]](pkt)
                elif pkt[0] == DONE:
                    self.kernel_jobs -= 1  # a poisoned machine still drains its jobs
            except Exception as e:  # engine invariant broken: poison the machine
                self.set_fatal(e)
            if not work and not self.kernel_jobs:
                self._gateway.put(self._result)
                self._result = None

    def run(self, host_args=(), timeout=60.0):
        """Evaluate the program root; blocks until its result reaches the host.

        Returns the result payload words.  Raises TaskError for kernel or
        reduction errors, StuckReductionError if no packet is left in flight
        and no answer came.  A run that times out poisons the machine: its
        packets may still be in flight, so every later run raises too."""
        if self._closed:
            raise VmError("machine is shut down")
        if self._fatal is not None:
            raise self._fatal
        if not self._running.acquire(blocking=False):
            raise VmError("run() is not reentrant; one evaluation at a time")
        try:
            self.host_args = tuple(host_args)
            self.arena.clear()
            for t in self.tiles:
                t.arena_next = 0
            with self._handle_lock:  # a handle lives for one run
                self._handles.clear()
                self._handle_ids.clear()
            gw = self.gateway_tile
            deadline = time.monotonic() + timeout
            pkt = (REQ, gw, W.ref_tile(ROOT), gw, 0, 0, (ROOT, None))
            if self._trace is not None:
                self._trace.append(pkt)
            self.queue.put(pkt)
            pkt = self._await_quiet(deadline)
            self.check_conservation()
        finally:
            self._running.release()
        words = pkt[6]
        if words and W.kind_of(words[0]) == W.KIND_ERROR:
            self.decode_word(words[0])  # raises the TaskError
        return words

    def run_value(self, host_args=(), timeout=60.0):
        words = self.run(host_args, timeout)
        return self.decode_word(words[0])

    def _await_quiet(self, deadline):
        """Block until the machine is quiet; returns the root result.  The
        loop puts one message on the gateway at quiet: the kept result, or
        None."""
        try:
            result = self._gateway.get(timeout=max(0.0, deadline - time.monotonic()))
        except queue.Empty:
            self.set_fatal(StuckReductionError("stuck reduction: timed out"))
            raise self._fatal from None
        if self._fatal is not None:
            raise self._fatal
        if result is None:
            raise StuckReductionError(
                "stuck reduction: no packet in flight and no result")
        return result

    def check_conservation(self):
        """Quiescence hook: no kernel job left, no leaked records, no queued
        packets, and the closure arena and handle table within this run's
        bounds."""
        if self.kernel_jobs:
            raise ResourceLeakError(
                f"{self.kernel_jobs} kernel jobs queued or running")
        allocated = 0
        for t in self.tiles:
            if len(t.subtask_stack) != len(t.subtask_list):
                raise ResourceLeakError(
                    f"tile {t.tile_id} leaked "
                    f"{len(t.subtask_list) - len(t.subtask_stack)} subtask records")
            allocated += t.arena_next
        if len(self.arena) != allocated:
            raise ResourceLeakError(
                f"the arena holds {len(self.arena)} arena entries, "
                f"{allocated} allocated this run")
        if len(self._handle_ids) != len(self._handles):
            raise ResourceLeakError(
                f"handle table holds {len(self._handles)} handles and "
                f"{len(self._handle_ids)} ids")
        if self.work or not self.queue.empty():
            raise ResourceLeakError("packets left in the work list or inbox after the run")

    # ── introspection ────────────────────────────────────────

    def trace_packets(self):
        """The traced packets, a request's payload shown as its reference only."""
        if self._trace is None:
            raise VmError("machine was booted without trace=True")
        return [Packet._make(p[:6] + (p[6][:1],)) for p in self._trace]

    def write_trace(self, path):
        packets = self.trace_packets()
        with open(path, "w") as f:
            for seq, pkt in enumerate(packets):
                payload = ",".join(f"{w:016x}" for w in pkt.payload)
                f.write(f"{seq} {_KIND_NAMES[pkt.kind]} {pkt.src} {pkt.dst} "
                        f"{pkt.caller_addr} {pkt.caller_arg} {payload}\n")

    def clear_trace(self):
        if self._trace is not None:
            self._trace.clear()

    # ── lifecycle ────────────────────────────────────────────

    def shutdown(self):
        if self._closed:
            return
        self._closed = True
        self.queue.put(_STOP)
        self._loop.join(timeout=5.0)
        for k in self.kernel_threads:
            if k.thread is not None:
                k.jobs.put(_STOP)
                k.thread.join(timeout=5.0)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.shutdown()
        return False
