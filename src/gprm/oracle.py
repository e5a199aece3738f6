"""Sequential reference interpreters.

Two independent evaluation routes that must agree with the parallel machine:

- `evaluate` / `Oracle.eval`: a recursive interpreter over the desugared AST,
  beta reduction done by capture-free substitution (formals are made unique
  first), arguments evaluated left to right.
- `eval_flat`: a recursive interpreter over a FlatProgram, used to check that
  flattening preserves semantics.

Both share the kernel registry with the machine; what they do not share is
any of the packet/record/scheduling machinery they exist to check.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass

from . import lang
from .compiler import WConst, WRef, WVar
from .kernels import KernelError, NO_RESULT


class OracleError(lang.GpirError):
    pass


@dataclass(frozen=True)
class _Lit:
    """Already-computed value spliced into an AST during substitution."""

    value: object


@dataclass(frozen=True)
class OracleLambda:
    expr: object

    def __repr__(self):
        return "<lambda>"


class _SeqContext:
    """Host-side context handed to kernels by the sequential routes."""

    def __init__(self, host_args=(), data=()):
        self.host_args = tuple(host_args)
        self._data = list(data)
        self._shared = {}
        self._lock = threading.RLock()
        self.random = random.Random(0)
        self.tile_id = 0

    def host_arg(self, i):
        if not 0 <= i < len(self.host_args):
            raise KernelError(f"ctrl.arg index {i} out of range "
                              f"({len(self.host_args)} supplied)")
        return self.host_args[i]

    def data(self, i):
        if not 0 <= i < len(self._data):
            raise KernelError(f"ctrl.reg index {i} out of range "
                              f"({len(self._data)} registered)")
        return self._data[i]

    def shared(self, name):
        return self._shared.setdefault(name, {}), self._lock

    def local(self, name):
        return self._shared.setdefault(("local", name), {})

    def restart(self, ref_word, tile_id):
        raise KernelError("restart is not meaningful in sequential evaluation")


def _uniquify(e, scope, counter):
    if isinstance(e, lang.Var):
        name = scope.get(e.name)
        if name is None:
            raise OracleError(f"unbound variable '{e.name}'")
        return lang.Var(name)
    if isinstance(e, lang.Quoted):
        return lang.Quoted(_uniquify(e.inner, scope, counter))
    if isinstance(e, lang.Label):
        return lang.Label(e.name, _uniquify(e.body, scope, counter))
    if isinstance(e, lang.SExpr):
        if e.op.name == lang.FORM_LAMBDA:
            *formals, body = e.args
            inner = dict(scope)
            fresh = []
            for f in formals:
                counter[0] += 1
                new = f"{f.inner.name}%{counter[0]}"
                inner[f.inner.name] = new
                fresh.append(lang.Quoted(lang.Var(new)))
            return lang.SExpr(e.op, tuple(fresh) + (_uniquify(body, inner, counter),))
        return lang.SExpr(e.op, tuple(_uniquify(a, scope, counter) for a in e.args))
    return e


def _subst(e, env):
    if isinstance(e, lang.Var):
        return env.get(e.name, e)
    if isinstance(e, lang.Quoted):
        return lang.Quoted(_subst(e.inner, env))
    if isinstance(e, lang.SExpr):
        return lang.SExpr(e.op, tuple(_subst(a, env) for a in e.args))
    # labels are closed; literals carry no variables
    return e


class Oracle:
    def __init__(self, registry, host_args=(), data=()):
        self.registry = registry
        self.ctx = _SeqContext(host_args, data)
        self.labels = {}

    def eval_program(self, e):
        e = _uniquify(lang.desugar(e), {}, [0])
        self.labels = lang.label_bodies(e)
        return self.eval(e)

    def eval(self, e):
        if isinstance(e, lang.ConstInt):
            return e.value
        if isinstance(e, _Lit):
            return e.value
        if isinstance(e, lang.Var):
            raise OracleError(f"unbound variable '{e.name}'")
        if isinstance(e, lang.Label):
            return self.eval(e.body)
        if isinstance(e, lang.LabelRef):
            return self.eval(self.labels[e.name])
        if isinstance(e, lang.Quoted):
            raise OracleError("cannot evaluate a bare quoted expression")
        op = e.op.name
        if op == lang.FORM_LAMBDA:
            return OracleLambda(e)
        if op == lang.FORM_BETA:
            return self.eval_beta(e)
        if op == lang.FORM_IF:
            return self.eval_if(e)
        return self.eval_kernel_op(e)

    def eval_beta(self, e):
        op_expr = e.args[0]
        if isinstance(op_expr, lang.Quoted):
            lam_expr = op_expr.inner
            if not (isinstance(lam_expr, lang.SExpr) and lam_expr.op.name == lang.FORM_LAMBDA):
                raise OracleError("operator is not a lambda value")
        else:
            v = self.eval(op_expr)
            if not isinstance(v, OracleLambda):
                raise OracleError("operator is not a lambda value")
            lam_expr = v.expr
        *formals, body = lam_expr.args
        operands = e.args[1:]
        if len(operands) != len(formals):
            raise OracleError(f"lambda arity mismatch: {len(formals)} formals, "
                              f"{len(operands)} operands")
        env = {}
        for f, a in zip(formals, operands):
            if isinstance(a, lang.Quoted):
                env[f.inner.name] = a.inner  # quote removed: evaluated where used
            else:
                env[f.inner.name] = _Lit(self.eval(a))
        return self.eval(_subst(body.inner, env))

    def eval_if(self, e):
        cond, t_branch, f_branch = e.args
        # the machine parses all three slots up front: unquoted branch
        # expressions get evaluated eagerly whatever the condition says
        eager = {}
        c = self.strict(cond, "if")
        for i, b in enumerate((t_branch, f_branch)):
            if not isinstance(b, lang.Quoted):
                eager[i] = self.eval(b)
        if not isinstance(c, int) or isinstance(c, bool):
            raise OracleError("if condition did not evaluate to an integer")
        pick = 0 if c != 0 else 1
        sel = t_branch if pick == 0 else f_branch
        if pick in eager:
            return eager[pick]
        return self.eval(sel.inner)

    def eval_kernel_op(self, e):
        sid, mid, spec = self.registry.resolve(e.op.name)
        service, _ = self.registry.spec(sid, mid)
        if spec.control:
            if e.op.name != "ctrl.run":
                raise OracleError(f"control method '{e.op.name}' is not supported "
                                  "by the sequential oracle")
            return self.eval_ctrl_run(e)
        args = [self.strict(a, e.op.name) for a in e.args]
        value = self.registry.invoke(service, mid, self.ctx, args)
        if value is NO_RESULT:
            raise OracleError(f"'{e.op.name}' produced no value")
        return value

    def eval_ctrl_run(self, e):
        if len(e.args) != 2:
            raise OracleError("ctrl.run expects a quoted reference and a thread id")
        q, t = e.args
        if not isinstance(q, lang.Quoted) or not isinstance(q.inner, (lang.SExpr, lang.Label, lang.LabelRef)):
            raise OracleError("ctrl.run: first argument is not a quoted reference")
        tv = self.strict(t, "ctrl.run")
        if not isinstance(tv, int):
            raise OracleError("ctrl.run: thread id is not an integer")
        return self.eval(q.inner)  # placement is irrelevant sequentially

    def strict(self, a, opname):
        """Evaluate an argument the way the engine fills a slot."""
        if isinstance(a, lang.Quoted):
            inner = a.inner
            if isinstance(inner, (lang.ConstInt, _Lit)):
                return self.eval(inner)
            raise OracleError(f"quoted reference passed to non-control method '{opname}'")
        return self.eval(a)


def evaluate(text_or_ast, registry, host_args=(), data=()):
    """Evaluate GPIR source (or a parsed AST) sequentially."""
    ast = lang.parse(text_or_ast) if isinstance(text_or_ast, str) else text_or_ast
    return Oracle(registry, host_args, data).eval_program(ast)


# ── Flat-program route ───────────────────────────────────────────────


@dataclass(frozen=True)
class _FlatDeferred:
    addr: int
    env: dict


@dataclass(frozen=True)
class _FlatLambda:
    addr: int
    env: dict

    def __repr__(self):
        return "<lambda>"


def eval_flat(fp, registry, host_args=(), data=()):
    """Sequential interpreter over a FlatProgram (checks flatten/encode).

    Quoted operands become deferred (address, environment) pairs; forcing one
    on use matches the machine removing the quote during substitution."""
    ctx = _SeqContext(host_args, data)

    def slot(a, env):
        if isinstance(a, WConst):
            return a.value
        if isinstance(a, WVar):
            if a.slot not in env:
                raise OracleError(f"unbound variable slot {a.slot}")
            v = env[a.slot]
            return v if a.quoted else force(v)
        if a.quoted:
            return _FlatDeferred(a.addr, env)
        return entry(a.addr, env)

    def force(v):
        return entry(v.addr, v.env) if isinstance(v, _FlatDeferred) else v

    def as_lambda(v):
        if isinstance(v, _FlatDeferred):
            if fp.entries[v.addr].op != lang.FORM_LAMBDA:
                raise OracleError("operator is not a lambda value")
            return _FlatLambda(v.addr, v.env)
        if isinstance(v, _FlatLambda):
            return v
        raise OracleError("operator is not a lambda value")

    def entry(addr, env):
        e = fp.entries[addr]
        if e.op == lang.FORM_LAMBDA:
            return _FlatLambda(addr, env)
        if e.op == lang.FORM_BETA:
            opv = as_lambda(slot(e.args[0], env))
            lam = fp.entries[opv.addr]
            formals, body = lam.args[:-1], lam.args[-1]
            operands = e.args[1:]
            if len(operands) != len(formals):
                raise OracleError("lambda arity mismatch")
            inner = dict(opv.env)
            for f, a in zip(formals, operands):
                inner[f.slot] = slot(a, env)
            return force(slot(body, inner))
        if e.op == lang.FORM_IF:
            cw, tw, fw = e.args
            c = slot(cw, env)
            eager = {}
            for i, b in enumerate((tw, fw)):
                if isinstance(b, WRef) and not b.quoted:
                    eager[i] = entry(b.addr, env)
            if isinstance(c, bool) or not isinstance(c, int):
                raise OracleError("if condition did not evaluate to an integer")
            pick = 0 if c != 0 else 1
            return eager[pick] if pick in eager else force(slot((tw, fw)[pick], env))
        sid, mid, spec = registry.resolve(e.op)
        service, _ = registry.spec(sid, mid)
        if spec.control:
            if e.op != "ctrl.run":
                raise OracleError(f"control method '{e.op}' is not supported")
            q = slot(e.args[0], env)
            t = slot(e.args[1], env)
            if not isinstance(q, _FlatDeferred):
                raise OracleError("ctrl.run: first argument is not a quoted reference")
            if not isinstance(t, int) or isinstance(t, bool):
                raise OracleError("ctrl.run: thread id is not an integer")
            return force(q)
        args = []
        for a in e.args:
            v = slot(a, env)
            if isinstance(v, (_FlatDeferred, _FlatLambda)):
                raise OracleError(f"quoted reference passed to non-control method '{e.op}'")
            args.append(v)
        return registry.invoke(service, mid, ctx, args)

    return entry(fp.root, {})
