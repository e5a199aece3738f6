"""The parallel reduction machine.

A machine is a set of tiles served by one reduction loop, which handles
every tile-bound packet in FIFO order.  A reference packet asks a tile to
evaluate one flat S-expression: the tile allocates a subtask record, stores
present arguments, requests referenced arguments from their tiles, and
invokes the kernel once every slot is filled.  Results travel back to the
requesting record's slot.  Beta reduction is string reduction: the lambda
body's entries are copied into a per-tile runtime code region with argument
words substituted for variable words, and the fresh root is dispatched.
The copy instantiates a closure template: the body's entries in copy order,
their internal references stored as offsets into the block and their
variable positions marked, so a beta fills one block of consecutive arena
addresses in one flat loop.

Kernel dispatch follows the paper's split between communication code and
task code.  A machine resolves each operation word to its kernel once, on
the operation's first call.  The engine's own services (`builtin` and
`ctrl`) and control methods are O(1) bookkeeping and run inline on the
loop.  Every other (task) kernel call is handed, its arity checked and its
arguments unwrapped on the loop, to one of the machine's
`min(threads, tile_count)` kernel threads: tile t's go to kernel thread
t % n, each started on its first task kernel.  The kernel thread runs the
kernel and posts one completion packet (kind DONE, never traced) to the
loop's inbox; the loop then replies and frees the record.  So a long kernel
does not hold up the packets queued behind it.

The reduction is pure Python, so under the GIL a second loop could never
reduce at the same time as the first; only task kernels that release the
GIL run in parallel, and they do on the kernel threads.

Ownership rules (the whole concurrency argument):
  - subtask records, runtime code arenas, the closure-template cache and
    the kept root result are touched only by the loop thread, never by a
    kernel thread;
  - the compile-time code region is immutable after boot, so a template
    built from it is memoised; a template that reads a runtime entry is
    built afresh for each beta, because arena addresses are reused by the
    next run;
  - only the loop's handlers send packets, and they append every packet,
    the host's result too, to the work list (`Machine.work`), a deque that
    only the loop touches.  The inbox (`Machine.queue`) carries what the
    loop did not send: the host's root packet, kernel threads' completions
    and the stop token.  The loop moves waiting inbox packets onto the tail
    of the work list and blocks on the inbox only when the work list is
    empty;
  - `KernelContext.restart` is refused off the loop;
  - only the loop appends to the packet trace during a run.  The host
    appends the root packet before putting it in the inbox, while the loop
    is idle, so no lock is needed.

Quiescence is exact and needs no lock: the machine is quiet once the loop
has finished handling a packet, the work list is empty and no task kernel is
outstanding.  The count of outstanding kernel jobs is owned by the loop: a
job is counted at its hand-off and counted out when its completion packet is
handled, both on the loop.  An inbox packet cannot be missed: a completion
waits on a counted job, and the host sends the root only while the machine
is quiet.  The host is one more row of the loop's handler table (id ==
tile_count): `Machine.on_root_result` keeps the root's result, and a second
one poisons the machine.  When quiet, the loop puts exactly one message on
the gateway queue: the kept result, or None.
"""

from __future__ import annotations

import itertools
import operator
import queue
import random
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

from . import words as W
from .kernels import BUILTIN_SERVICE, KernelError, NO_RESULT, is_list, materialize
from .words import (ADDR_MASK, CONST_MAX, CONST_MIN, CONST_WORD, KIND_BUILTIN, KIND_CONST,
                    KIND_ERROR, KIND_OPER, KIND_SHIFT, PAYLOAD_MASK, QUOTE_SHIFT, SIGN_BIT_48,
                    TILE_MASK, TILE_SHIFT)

RUNTIME_BASE = 1 << 31
RUNTIME_STRIDE = 1 << 20
MAX_TILES = ((1 << 32) - RUNTIME_BASE) // RUNTIME_STRIDE

REQ = 0
RES = 1
DONE = 2  # a task kernel's completion, from its kernel thread; never traced
_KIND_NAMES = {REQ: "REQ", RES: "RES"}

# services whose non-control methods run inline on the loop
_ENGINE_SERVICES = frozenset((BUILTIN_SERVICE, "ctrl"))
_new_packet = tuple.__new__  # a Packet without the NamedTuple's Python-level __new__

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
    kind: int
    src: int
    dst: int
    caller_tile: int
    caller_addr: int
    caller_arg: int
    payload: tuple


@dataclass(frozen=True)
class ErrorInfo:
    message: str
    frames: tuple


class LambdaValue:
    """Opaque stand-in when a run returns a lambda."""

    __slots__ = ()

    def __repr__(self):
        return "<lambda>"


LAMBDA_VALUE = LambdaValue()


class SubtaskRecord:
    """A requested slot holds None until its result arrives; a free record
    has no slots."""

    __slots__ = ("op_word", "self_ref", "caller", "slots", "pending", "err")

    def __init__(self):
        self.op_word = 0
        self.self_ref = 0
        self.caller = (0, 0, 0)
        self.slots = ()
        self.pending = 0
        self.err = None


class KernelContext:
    """What a kernel method may see of the engine.

    Each tile has two: one for the methods run on its loop, whose `_rec` is
    set while a control method runs, and one for its task kernels on the
    kernel thread, whose `_rec` is always None."""

    def __init__(self, tile):
        self._tile = tile
        self._machine = tile.machine
        self._rec = None

    @property
    def tile_id(self):
        return self._tile.tile_id

    @property
    def random(self):
        return self._tile.rng

    def host_arg(self, i):
        args = self._machine.host_args
        if not 0 <= i < len(args):
            raise KernelError(f"ctrl.arg index {i} out of range ({len(args)} supplied)")
        return args[i]

    def data(self, i):
        data = self._machine._data
        if not 0 <= i < len(data):
            raise KernelError(f"ctrl.reg index {i} out of range ({len(data)} registered)")
        return data[i]

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

        The restarted computation answers this record's caller directly.
        Only a control method may restart: it runs on the loop, the one
        place that may send packets."""
        if self._rec is None:
            raise KernelError("restart is only allowed in a control method")
        self._machine.restart_evaluation(ref_word, tile_id, self._rec.caller,
                                         src=self._tile.tile_id)


class Tile:
    def __init__(self, machine, tile_id):
        self.machine = machine
        self.tile_id = tile_id
        self.code = machine.code
        self.send = machine.send
        self.subtask_list = []
        self.subtask_stack = []  # free addresses, reused LIFO
        self.arena = {}
        self.arena_next = 0
        self.local_state = {}
        seed = machine.fuzz_seed
        self.rng = random.Random(None if seed is None else seed + 7919 * tile_id)
        self.ctx = KernelContext(self)
        self.task_ctx = KernelContext(self)
        self.kernel_thread = machine.kernel_threads[tile_id % len(machine.kernel_threads)]

    # ── record allocation ────────────────────────────────────

    def alloc_record(self):
        if self.subtask_stack:
            return self.subtask_stack.pop()
        self.subtask_list.append(SubtaskRecord())
        return len(self.subtask_list) - 1

    def free_record(self, addr, rec):
        rec.slots = ()
        self.subtask_stack.append(addr)

    # ── packet handlers ──────────────────────────────────────

    def handle(self, pkt):
        """Handle one packet; the loop indexes the same table by pkt.kind."""
        (self.on_request, self.on_result, self.on_done)[pkt.kind](pkt)

    def on_request(self, pkt):
        ref = pkt.payload[0]
        a = ref & ADDR_MASK
        try:
            code = self.code[a] if a < RUNTIME_BASE else self.machine.code_words(a)
        except KeyError:
            self.machine.set_fatal(ProtocolError(f"reference to unknown code address {a}"))
            return
        addr = self.alloc_record()
        rec = self.subtask_list[addr]
        rec.err = None
        rec.self_ref = ref
        rec.caller = pkt[3:6]  # (caller_tile, caller_addr, caller_arg)
        rec.op_word = code[0]
        rec.slots = slots = list(code[1:])
        pending = 0
        tid = self.tile_id
        for i, w in enumerate(slots):
            if w >> QUOTE_SHIFT == 0:  # an unquoted reference
                slots[i] = None
                pending += 1
                self.send(REQ, tid, (w >> TILE_SHIFT) & TILE_MASK, (tid, addr, i), (w,))
        rec.pending = pending
        if not pending:
            self.finish(addr, rec)

    def on_result(self, pkt):
        addr, arg = pkt.caller_addr, pkt.caller_arg
        rec = self.subtask_list[addr] if addr < len(self.subtask_list) else None
        if rec is None or arg >= len(rec.slots) or rec.slots[arg] is not None:
            self.machine.set_fatal(ProtocolError(
                f"result for freed or unexpected record t{self.tile_id}/{addr} arg {arg}"))
            return
        w = pkt.payload[0]
        rec.slots[arg] = w
        rec.pending -= 1
        if w >> KIND_SHIFT == KIND_ERROR and rec.err is None:
            rec.err = w
        if rec.pending == 0:
            self.finish(addr, rec)

    def on_done(self, pkt):
        """A task kernel's completion packet: reply and free on the loop."""
        self.machine.kernel_jobs -= 1
        addr = pkt.caller_addr
        self.conclude(addr, self.subtask_list[addr], *pkt.payload)

    # ── reduction ────────────────────────────────────────────

    def op_name(self, op_word):
        """The frame name of an entry: its operation's name, or the word
        itself when that is no operation of the image."""
        return W.word_str(op_word, self.machine.image.symbols)

    def finish(self, addr, rec):
        if rec.err is not None:
            # error short-circuits the kernel but waited for all slots
            self.reply_error_word(rec, rec.err)
            self.free_record(addr, rec)
            return
        k = rec.op_word >> KIND_SHIFT
        if k == KIND_OPER:
            self.invoke_kernel(addr, rec)
            return  # invoke_kernel frees
        if k == KIND_BUILTIN:
            form = rec.op_word & PAYLOAD_MASK
            if form == W.FORM_CODE_LAMBDA:
                self.reply(rec, W.set_quote(W.clear_quote(rec.self_ref)))
            elif form == W.FORM_CODE_IF:
                self.eval_if(rec)
            elif form == W.FORM_CODE_BETA:
                self.beta_reduce(rec)
            else:
                self.reply_error(rec, f"unknown special form code {form}")
        else:
            self.reply_error(rec, "entry does not start with an operation")
        self.free_record(addr, rec)

    def reply(self, rec, word):
        self.send(RES, self.tile_id, rec.caller[0], rec.caller, (word,))

    def reply_error(self, rec, message):
        info = ErrorInfo(message, (self.op_name(rec.op_word),))
        self.reply(rec, W.mk_error(self.machine.wrap_handle(info)))

    def reply_error_word(self, rec, err_word):
        info = self.machine.error_info(err_word)
        chained = ErrorInfo(info.message, info.frames + (self.op_name(rec.op_word),))
        self.reply(rec, W.mk_error(self.machine.wrap_handle(chained)))

    def eval_if(self, rec):
        if len(rec.slots) != 3:
            self.reply_error(rec, "if expects a condition and two branches")
            return
        cw = rec.slots[0]
        if W.kind_of(cw) != W.KIND_CONST:
            self.reply_error(rec, "if condition did not evaluate to an integer")
            return
        selected = rec.slots[1] if W.const_value(cw) != 0 else rec.slots[2]
        if W.kind_of(selected) == W.KIND_REF:
            # deferred branch: drop the quote, restart with our caller as
            # continuation; the unselected branch is never dispatched
            w = W.clear_quote(selected)
            self.machine.send(REQ, self.tile_id, W.ref_tile(w), rec.caller, (w,))
        else:
            self.reply(rec, W.clear_quote(selected))

    def beta_reduce(self, rec):
        if not rec.slots:
            self.reply_error(rec, "operator is not a lambda value")
            return
        opw = rec.slots[0]
        if W.kind_of(opw) != W.KIND_REF or not W.is_quoted(opw):
            self.reply_error(rec, "operator is not a lambda value")
            return
        try:
            lam = self.machine.code_words(W.ref_addr(opw))
        except KeyError:
            self.reply_error(rec, "operator references unknown code")
            return
        if W.kind_of(lam[0]) != W.KIND_BUILTIN or \
                W.builtin_form(lam[0]) != W.FORM_CODE_LAMBDA:
            self.reply_error(rec, "operator is not a lambda value")
            return
        formals, body_w = lam[1:-1], lam[-1]
        operands = rec.slots[1:]
        if len(operands) != len(formals):
            self.reply_error(
                rec, f"lambda arity mismatch: {len(formals)} formals, "
                     f"{len(operands)} operands")
            return
        # the quote is removed during substitution so deferred references
        # get evaluated where they land
        subst = {W.var_slot(f): W.clear_quote(v) for f, v in zip(formals, operands)}
        bk = W.kind_of(body_w)
        if bk == W.KIND_REF:
            try:
                new_root = self.copy_closure(
                    self.machine.template(W.ref_addr(body_w)), subst)
            except VmError as e:
                self.reply_error(rec, str(e))
                return
            w = W.mk_ref(new_root, W.ref_tile(body_w))
            self.machine.send(REQ, self.tile_id, W.ref_tile(w), rec.caller, (w,))
        elif bk == W.KIND_VAR:
            w = subst.get(W.var_slot(body_w))
            if w is None:
                self.reply_error(rec, "unbound variable in lambda body")
            elif W.kind_of(w) == W.KIND_REF:
                self.machine.send(REQ, self.tile_id, W.ref_tile(w), rec.caller, (w,))
            else:
                self.reply(rec, w)
        else:
            # constant body, or any value substituted into a copied lambda's
            # body position (a handle is not a reference: return it)
            self.reply(rec, W.clear_quote(body_w) if bk in W.QUOTABLE_KINDS else body_w)

    def copy_closure(self, template, subst):
        """String reduction: instantiate a closure template in one block of
        consecutive arena addresses, substituting argument words for variable
        words; returns the block's first address, the body root."""
        start = self.arena_next
        if start + len(template) > RUNTIME_STRIDE:
            raise VmError("address space exhausted (runtime code region)")
        self.arena_next = start + len(template)
        base = RUNTIME_BASE + self.tile_id * RUNTIME_STRIDE + start
        arena = self.arena
        addr = base
        for words, refs, variables in template:
            if refs or variables:
                out = list(words)
                for i in refs:
                    out[i] += base  # the address field holds the offset
                for i, slot, quoted in variables:
                    s = subst.get(slot)
                    if s is None:
                        continue  # someone else's formal
                    if quoted and W.kind_of(s) in W.QUOTABLE_KINDS:
                        s = W.set_quote(s)  # deferred occurrence stays deferred
                    out[i] = s
                words = tuple(out)
            arena[addr] = words
            addr += 1
        return base

    # ── kernel dispatch ──────────────────────────────────────

    def invoke_kernel(self, addr, rec):
        """The one dispatch path: every method's arity is checked here, then
        a task kernel goes, its arguments unwrapped, to the kernel thread and
        any other method is called here."""
        machine = self.machine
        op = machine.ops.get(rec.op_word)
        if op is None:  # the first call on this machine resolves it, once
            sid, mid = W.oper_ids(rec.op_word)
            try:
                service, spec = machine.registry.spec(sid, mid)
            except KernelError:
                machine.set_fatal(ProtocolError(f"undispatchable operation id {sid}.{mid}"))
                self.free_record(addr, rec)
                return
            task = not spec.control and service.name not in _ENGINE_SERVICES
            op = machine.ops[rec.op_word] = service, spec, task
        service, spec, task = op
        ctx = self.ctx
        error = None
        try:
            if spec.control:
                ctx._rec = rec
                args = list(rec.slots)
            else:
                args = [((w & PAYLOAD_MASK) ^ SIGN_BIT_48) - SIGN_BIT_48
                        if w >> KIND_SHIFT == KIND_CONST else self.unwrap(w, spec)
                        for w in rec.slots]
            if spec.arity is not None and len(args) != spec.arity:
                raise machine.registry.arity_error(service, spec, len(args))
            if task:
                self.kernel_thread.submit((self, addr, spec.fn, args))
                return  # on_done concludes it
            value = spec.fn(ctx, args) if spec.control else spec.fn(ctx, *args)
        except ProtocolError:
            raise  # a malformed word, not a kernel failure: the machine is poisoned
        except Exception as e:
            value, error = None, kernel_failure(e)
        finally:
            ctx._rec = None
        self.conclude(addr, rec, value, error)

    def conclude(self, addr, rec, value, error):
        """Reply with a kernel's value or error, then free its record."""
        if error is not None:
            self.reply_error(rec, error)
        elif type(value) is int and CONST_MIN <= value <= CONST_MAX:
            self.reply(rec, CONST_WORD | (value & PAYLOAD_MASK))
        elif value is not NO_RESULT:
            try:
                self.reply(rec, self.machine.wrap_value(value))
            except KernelError as e:
                self.reply_error(rec, str(e))
        self.free_record(addr, rec)

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
            raise KernelError("unsubstituted lambda variable reached a kernel")
        raise KernelError(f"word kind {k} is not a kernel value")


def kernel_failure(e):
    """Error message for an exception raised in a kernel: a KernelError's
    own message, or the type and message of any other (a kernel panic)."""
    return str(e) if isinstance(e, KernelError) else f"{type(e).__name__}: {e}"


class _KernelThread:
    """Runs the task kernels of the tiles mapped to it, one at a time, and
    posts each completion to the loop.  Its thread starts on first use."""

    def __init__(self, machine, index):
        self.machine = machine
        self.name = f"gprm-kernels-{index}"
        self.jobs = queue.SimpleQueue()
        self.thread = None

    def submit(self, job):
        """Hand a task kernel call over, on the loop; it stays outstanding
        until its completion packet has been handled."""
        self.machine.kernel_jobs += 1
        if self.thread is None:
            self.thread = threading.Thread(target=self.run, name=self.name, daemon=True)
            self.thread.start()
        self.jobs.put(job)

    def run(self):
        while (job := self.jobs.get()) is not _STOP:
            self.run_job(job)

    def run_job(self, job):
        """Run one task kernel and post its completion to the loop."""
        tile, addr, fn, args = job
        try:
            outcome = fn(tile.task_ctx, *args), None
        except Exception as e:
            outcome = None, kernel_failure(e)
        t = tile.tile_id
        self.machine.queue.put(Packet(DONE, t, t, t, addr, 0, outcome))


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
        if not 1 <= image.tile_count <= MAX_TILES:
            raise VmError(f"tile count must be in 1..{MAX_TILES}")
        for (sid, mid), name in image.symbols.items():
            try:
                rsid, rmid, _ = registry.resolve(name)
            except KernelError as e:
                raise VmError(f"image/registry symbol mismatch: {e}") from None
            if (rsid, rmid) != (sid, mid):
                raise VmError(
                    f"image/registry symbol mismatch: '{name}' is "
                    f"{rsid}.{rmid} in the registry, {sid}.{mid} in the image")
        # once here, not per packet: no reference (kind 0) may name a missing
        # tile; the tile field is bits 32-47, compared in place
        past = image.tile_count << 32
        for w in itertools.chain((image.root,), itertools.chain.from_iterable(
                image.code.values())):
            if w < 1 << 60 and (w & 0xFFFF << 32) >= past:
                raise VmError(f"reference {W.word_str(w)} names a tile past the "
                              f"image's {image.tile_count}")
        self.image = image
        self.registry = registry
        # operation word -> (service, spec, task), resolved on first use;
        # task is true for a kernel that runs on a kernel thread
        self.ops = {}
        self.fuzz_seed = fuzz_seed
        self.tile_count = image.tile_count
        self.gateway_tile = image.tile_count
        self.code = dict(image.code)
        self.host_args = ()
        self._data = []
        self._handles = []
        self._handle_ids = {}
        self._kept_handles = 0  # the registered prefix of the handle table
        self._handle_lock = threading.Lock()
        self._shared = {}
        self._shared_lock = threading.RLock()
        self._fatal = None
        self._running = threading.Lock()
        self._gateway = queue.SimpleQueue()
        self._trace = [] if trace else None
        self._result = None  # the root's result packet, kept by the loop until quiet
        self._templates = {}  # compile-time body root -> closure template
        self.work = deque()  # packets the loop's handlers sent, served FIFO
        self.kernel_jobs = 0  # task kernels handed off, completion not yet handled
        self.queue = queue.SimpleQueue()  # the loop's inbox
        self.kernel_threads = [_KernelThread(self, i)
                               for i in range(min(threads, self.tile_count))]
        self.tiles = [Tile(self, t) for t in range(self.tile_count)]
        self._loop = threading.Thread(target=self._serve, name="gprm-loop", daemon=True)
        self._closed = False
        self._loop.start()

    # ── host-side data and handles ───────────────────────────

    def register_data(self, obj):
        """Pre-register a host object for ctrl.reg; returns its index."""
        self._data.append(obj)
        # a stable handle index, kept when a run drops the handles it made
        self._kept_handles = max(self._kept_handles, self.wrap_handle(obj) + 1)
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
        if v is None:
            return W.mk_const(0)
        if isinstance(v, bool):
            return W.mk_const(int(v))
        try:
            i = operator.index(v)  # int and numpy integers
        except TypeError:
            return W.mk_handle(self.wrap_handle(v))
        try:
            return W.mk_const(i)
        except ValueError:
            raise KernelError(f"kernel returned out-of-range integer {i}") from None

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
        if k == W.KIND_ERROR:
            info = self.error_info(w)
            raise TaskError(info.message, info.frames)
        raise VmError(f"cannot decode word kind {k}")

    def _drop_run_handles(self):
        """Truncate the handle table to its registered prefix, between runs."""
        kept = self._kept_handles
        with self._handle_lock:
            for obj in self._handles[kept:]:
                del self._handle_ids[id(obj)]
            del self._handles[kept:]

    # ── closure templates ────────────────────────────────────

    def template(self, root_addr):
        """The closure template of the lambda body rooted at root_addr.  It
        is memoised only when every entry it copies is compile-time code: a
        runtime address holds other code in the next run."""
        template = self._templates.get(root_addr)
        if template is None:
            template, sources = self.build_template(root_addr)
            if max(sources) < RUNTIME_BASE:
                self._templates[root_addr] = template
        return template

    def build_template(self, root_addr):
        """The entries reachable from root_addr, in copy order, each as
        (words, reference positions, variable positions).  A reference word
        holds its target's offset in the block; a variable position is
        (index, slot, quoted).  An entry gets its offset when first reached,
        so a shared entry is copied once; the stack leaves nesting depth
        unbounded.  Returns the template and the source addresses."""
        offsets = {root_addr: 0}
        template = [None]
        stack = [root_addr]
        while stack:
            a = stack.pop()
            try:
                code = self.code_words(a)
            except KeyError:
                raise VmError(f"closure references unknown code address {a}") from None
            words = list(code)
            refs, variables = [], []
            for i in range(1, len(code)):
                w = code[i]
                k = W.kind_of(w)
                if k == W.KIND_REF:
                    src = W.ref_addr(w)
                    off = offsets.get(src)
                    if off is None:
                        off = offsets[src] = len(template)
                        template.append(None)
                        stack.append(src)
                    words[i] = W.mk_ref(off, W.ref_tile(w), W.is_quoted(w))
                    refs.append(i)
                elif k == W.KIND_VAR:
                    variables.append((i, W.var_slot(w), W.is_quoted(w)))
            template[offsets[a]] = (tuple(words), tuple(refs), tuple(variables))
        return template, offsets.keys()

    # ── packet plumbing ──────────────────────────────────────

    def send(self, kind, src, dst, caller, payload):
        """Send a packet from a handler on the loop."""
        pkt = _new_packet(Packet, (kind, src, dst, *caller, payload))
        if self._trace is not None:
            self._trace.append(pkt)
        self.work.append(pkt)

    def on_root_result(self, pkt):
        """The host's handler: keep the root's result until the machine is quiet."""
        if self._result is not None:
            raise ProtocolError("second result for the root")
        self._result = pkt

    def restart_evaluation(self, ref_word, tile_id, caller, src=0):
        if W.kind_of(ref_word) != W.KIND_REF or not W.is_quoted(ref_word):
            raise KernelError("restart requires a quoted reference")
        tile = tile_id % self.tile_count  # out-of-range thread ids wrap
        w = W.clear_quote(W.ref_with_tile(ref_word, tile))
        self.send(REQ, src, tile, caller, (w,))

    def set_fatal(self, exc):
        if self._fatal is None:
            self._fatal = exc

    # ── running ──────────────────────────────────────────────

    def _serve(self):
        """The reduction loop: handles every packet in FIFO order, the host's
        results included."""
        handlers = [(t.on_request, t.on_result, t.on_done) for t in self.tiles]
        handlers.append((None, self.on_root_result, None))  # the host receives only results
        work = self.work
        inbox = self.queue
        fuzz = self.fuzz_seed is not None
        rng = random.Random(self.fuzz_seed)
        while True:
            if work:
                while not inbox.empty():
                    work.append(inbox.get())
                pkt = work.popleft()
            else:
                pkt = inbox.get()
            if pkt is _STOP:
                return
            try:
                if self._fatal is None:
                    if fuzz and rng.random() < 0.25:
                        time.sleep(rng.random() * 1e-4)
                    handlers[pkt.dst][pkt.kind](pkt)
                elif pkt.kind == DONE:
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
            for t in self.tiles:
                t.arena.clear()
                t.arena_next = 0
            self._drop_run_handles()
            root = self.image.root
            gw = self.gateway_tile
            deadline = time.monotonic() + timeout
            pkt = Packet(REQ, gw, W.ref_tile(root), gw, 0, 0, (root,))
            if self._trace is not None:
                self._trace.append(pkt)
            self.queue.put(pkt)
            pkt = self._await_quiet(deadline)
            self.check_conservation()
        finally:
            self._running.release()
        words = pkt.payload
        if words and W.kind_of(words[0]) == W.KIND_ERROR:
            info = self.error_info(words[0])
            raise TaskError(info.message, info.frames)
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
        packets, and the arena and handle table within this run's bounds."""
        if self.kernel_jobs:
            raise ResourceLeakError(
                f"{self.kernel_jobs} kernel jobs queued or running")
        for t in self.tiles:
            if len(t.subtask_stack) != len(t.subtask_list):
                raise ResourceLeakError(
                    f"tile {t.tile_id} leaked "
                    f"{len(t.subtask_list) - len(t.subtask_stack)} subtask records")
            if len(t.arena) != t.arena_next or t.arena_next > RUNTIME_STRIDE:
                raise ResourceLeakError(
                    f"tile {t.tile_id} holds {len(t.arena)} arena entries, "
                    f"{t.arena_next} allocated this run")
        if len(self._handle_ids) != len(self._handles) \
                or len(self._handles) < self._kept_handles:
            raise ResourceLeakError(
                f"handle table holds {len(self._handles)} handles and "
                f"{len(self._handle_ids)} ids, {self._kept_handles} registered")
        if self.work or not self.queue.empty():
            raise ResourceLeakError("packets left in the work list or inbox after the run")

    # ── introspection ────────────────────────────────────────

    def code_words(self, addr):
        """Code entry at addr; KeyError if there is none."""
        if addr < RUNTIME_BASE:
            return self.code[addr]
        tile = (addr - RUNTIME_BASE) // RUNTIME_STRIDE
        if tile >= self.tile_count:
            raise KeyError(addr)
        return self.tiles[tile].arena[addr]

    def trace_packets(self):
        if self._trace is None:
            raise VmError("machine was booted without trace=True")
        return list(self._trace)

    def write_trace(self, path):
        with open(path, "w") as f:
            for seq, pkt in enumerate(self._trace or []):
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
