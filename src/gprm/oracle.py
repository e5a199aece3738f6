"""Sequential reference interpreter.

`evaluate` / `Oracle.eval_program` evaluate the desugared AST one step at a
time, arguments left to right, and the parallel machine must give the same
answer.  Beta reduction binds formals in an environment instead of
substituting into the body: a lambda value is its expression plus the
environment it was made in, and a quoted operand is bound unevaluated, as
code plus environment, and evaluated afresh wherever an unquoted occurrence
uses it.  Evaluation keeps its own stack of open S-expressions instead of
recursing, so nesting depth has no limit.

The oracle shares the kernel registry with the machine; what it does not
share is any of the packet/record/scheduling machinery it exists to check.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass

from . import lang
from .kernels import KernelError, NO_RESULT, int_result


class OracleError(lang.GpirError):
    pass


@dataclass(frozen=True, eq=False)
class OracleLambda:
    expr: object
    env: dict

    def __repr__(self):
        return "<lambda>"


@dataclass(frozen=True, slots=True)
class _Deferred:
    """Quoted code and the environment to evaluate it in when it is used."""

    expr: object
    env: dict


_CODE = (_Deferred, OracleLambda)  # values a non-control method may not take

_OPEN = object()  # a frame was just opened and has no argument value yet


class _SeqContext:
    """Host-side context handed to kernels by the oracle."""

    def __init__(self, host_args=(), data=()):
        self.host_args = tuple(host_args)
        self.data = list(data)
        self._shared = {}
        self._lock = threading.RLock()
        self.random = random.Random(0)
        self.tile_id = 0

    def shared(self, name):
        return self._shared.setdefault(name, {}), self._lock

    def local(self, name):
        return self._shared.setdefault(("local", name), {})

    def restart(self, ref_word, tile_id):
        raise KernelError("restart is not meaningful in sequential evaluation")


def _lookup(env, name):
    try:
        return env[name]
    except KeyError:
        raise OracleError(f"unbound variable '{name}'") from None


class Oracle:
    def __init__(self, registry, host_args=(), data=()):
        self.registry = registry
        self.ctx = _SeqContext(host_args, data)
        self.labels = {}

    def eval_program(self, e):
        e = lang.desugar(e)
        self.labels = lang.label_bodies(e)
        return self.eval(e, {})

    def code(self, e):
        """The expression a label or label reference stands for."""
        while type(e) is lang.Label or type(e) is lang.LabelRef:
            e = e.body if type(e) is lang.Label else self.labels[e.name]
        return e

    def eval(self, e, env):
        """Value of the unquoted expression `e` in `env`.

        A frame is an S-expression whose arguments are being evaluated.  A
        beta body, the chosen if branch and ctrl.run's reference replace the
        frame that reached them, so only argument nesting deepens the stack."""
        frames = []  # [S-expression, env, argument values so far, kernel]
        while True:
            # evaluate e in env until it is a value or has opened a frame
            while True:
                e = self.code(e)
                kind = type(e)
                if kind is lang.SExpr:
                    name = e.op.name
                    if name == lang.FORM_LAMBDA:
                        value = OracleLambda(e, env)
                    else:
                        frames.append([e, env, [], self.kernel(name)])
                        value = _OPEN
                    break
                if kind is lang.ConstInt:
                    value = e.value
                    break
                if kind is not lang.Var:
                    raise OracleError("cannot evaluate a bare quoted expression")
                value = _lookup(env, e.name)
                if type(value) is not _Deferred:
                    break
                e, env = value.expr, value.env  # an unquoted use forces it
            # give the value to the innermost frame; apply each frame that fills
            while frames:
                frame_e, frame_env, values, kernel = frames[-1]
                if value is not _OPEN:
                    values.append(value)
                args = frame_e.args
                n = len(values)
                while n < len(args) and type(args[n]) is lang.Quoted:
                    values.append(self.quoted(args[n].inner, frame_env))
                    n += 1
                if n < len(args):
                    e, env = args[n], frame_env
                    break
                frames.pop()
                value = self.apply(frame_e, values, kernel)
                if type(value) is _Deferred:
                    e, env = value.expr, value.env
                    break
            else:
                return value

    def quoted(self, e, env):
        """A quoted argument's value: a constant, a variable's binding as it
        stands (forced only where used unquoted), or deferred code."""
        if type(e) is lang.ConstInt:
            return e.value
        if type(e) is lang.Var:
            return _lookup(env, e.name)
        return _Deferred(self.code(e), env)

    def kernel(self, name):
        """(service, method id, spec) of an operation; None for beta and if."""
        if name == lang.FORM_BETA or name == lang.FORM_IF:
            return None
        sid, mid, spec = self.registry.resolve(name)
        if spec.control and name != "ctrl.run":
            raise OracleError(f"control method '{name}' is not supported "
                              "by the sequential oracle")
        return self.registry.spec(sid, mid)[0], mid, spec

    def apply(self, e, values, kernel):
        """Reduce an S-expression whose argument slots are all filled, the
        way the machine does; a _Deferred result is evaluated in its place."""
        name = e.op.name
        if name == lang.FORM_BETA:
            lam = values[0]
            if type(lam) is _Deferred and type(lam.expr) is lang.SExpr \
                    and lam.expr.op.name == lang.FORM_LAMBDA:
                lam = OracleLambda(lam.expr, lam.env)
            if type(lam) is not OracleLambda:
                raise OracleError("operator is not a lambda value")
            *formals, body = lam.expr.args
            operands = values[1:]
            if len(operands) != len(formals):
                raise OracleError(f"lambda arity mismatch: {len(formals)} formals, "
                                  f"{len(operands)} operands")
            env = dict(lam.env)
            env.update(zip((f.inner.name for f in formals), operands))
            return _Deferred(body.inner if type(body) is lang.Quoted else body, env)
        if name == lang.FORM_IF:
            # the machine fills all three slots first: an unquoted branch has
            # been evaluated whatever the condition says
            c, t_branch, f_branch = values
            if isinstance(c, bool) or not isinstance(c, int):
                raise OracleError("if condition did not evaluate to an integer")
            return t_branch if c != 0 else f_branch
        service, mid, spec = kernel
        if spec.control:  # ctrl.run: placement is irrelevant sequentially
            if len(values) != 2:
                raise OracleError("ctrl.run expects a quoted reference and a thread id")
            ref, t = values
            if not isinstance(ref, _CODE):
                raise OracleError("ctrl.run: first argument is not a quoted reference")
            if isinstance(t, bool) or not isinstance(t, int):
                raise OracleError("ctrl.run: thread id is not an integer")
            return ref
        for v in values:
            if isinstance(v, _CODE):
                raise OracleError(f"quoted reference passed to non-control method '{name}'")
        value = self.registry.invoke(service, mid, self.ctx, values)
        if value is NO_RESULT:
            raise OracleError(f"'{name}' produced no value")
        try:  # the machine's rule for what a kernel may return
            i = int_result(value)
        except KernelError as e:
            raise OracleError(str(e)) from None
        return value if i is None else i


def evaluate(text_or_ast, registry, host_args=(), data=()):
    """Evaluate GPIR source (or a parsed AST) sequentially."""
    ast = lang.parse(text_or_ast) if isinstance(text_or_ast, str) else text_or_ast
    return Oracle(registry, host_args, data).eval_program(ast)
