"""GPIR, the S-expression task-composition language: parser, printer, desugarer.

A program is one operation-rooted S-expression::

    program   := s-expr
    s-expr    := '(' operation expr* ')'
    expr      := s-expr | integer | identifier | "'" expr
    operation := dotted or bare literal heading a list, e.g. t1.m2, ctrl.run, +

`;` starts a line comment.  `lambda` (aliases `\\` and the Greek letter) and
`beta` (aliases `&` and the Greek letter) are special forms, as are `if` and
`label`; `return`, `begin`, `let`/`assign` are sugar removed by `desugar`.
Quoting defers evaluation from the reduction engine to a kernel or a later
restart.  A quote on an atom is idempotent (''42 == '42, a quoted constant is
already a value); a quote wrapping an already-quoted S-expression is rejected,
since code can only be deferred once.

Every pass keeps its own stack instead of recursing, so nesting depth has no
limit.

`parse` runs with CPython's cyclic collector paused (`collector_paused`),
as do the compiler's `flatten`, `assign_tiles`, `encode` and
`image_from_bytes`.  Each allocates objects per entry that stay live until
it returns, so a collection inside it walks them and frees nothing.  On a
balanced `+` tree of depth 14 (16,383 entries, a 2-vCPU x86-64 host), the
collector took about 67 ms of a 225 ms compile and two boots, 25 ms of it
in `parse`; paused, about 19 ms of 170 ms, mostly the one young collection
each stage's output owes once the collector is back on.  `desugar`,
`image_to_bytes` and boot showed no collector time, so they run unpaused.
The pause is process-wide while a stage runs, and it restores the caller's
state, also when the stage raises.
"""

from __future__ import annotations

import functools
import gc
import graphlib
import re
from dataclasses import MISSING, dataclass, fields


INT32_MIN = -(2**31)
INT32_MAX = 2**31 - 1

FORM_LAMBDA = "lambda"
FORM_BETA = "beta"
FORM_IF = "if"
FORM_LABEL = "label"

#: operation aliases normalized at parse time
_ALIASES = {
    "λ": FORM_LAMBDA,  # greek lambda
    "\\": FORM_LAMBDA,
    "β": FORM_BETA,  # greek beta
    "&": FORM_BETA,
}

SUGAR_FORMS = frozenset(("return", "begin", "let", "assign"))


class GpirError(Exception):
    """Base error for GPIR processing."""


class GpirSyntaxError(GpirError):
    def __init__(self, msg, line=None, col=None):
        self.line = line
        self.col = col
        if line is not None:
            msg = f"{msg} (line {line}, col {col})"
        super().__init__(msg)


# ── AST ──────────────────────────────────────────────────────────────


def node_class(cls):
    """`@dataclass(frozen=True, slots=True)` with a cheaper `__init__`.

    The frozen dataclass's `__init__` calls `object.__setattr__` once per
    field; this one sets each field through its slot descriptor, at about
    half the cost of building a node.  Assignment still raises
    `FrozenInstanceError`, and `==`, `hash` and `repr` are the dataclass's.
    """
    cls = dataclass(frozen=True, slots=True)(cls)
    env, params, body = {}, [], []
    for i, f in enumerate(fields(cls)):
        env[f"_set{i}"] = cls.__dict__[f.name].__set__
        if f.default is MISSING:
            params.append(f.name)
        else:
            env[f"_default{i}"] = f.default
            params.append(f"{f.name}=_default{i}")
        body.append(f"    _set{i}(self, {f.name})\n")
    exec(f"def __init__(self, {', '.join(params)}):\n{''.join(body)}", env)
    init = env["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = init
    return cls


def collector_paused(stage):
    """Run a compile stage with CPython's cyclic collector paused (the
    module docstring says which stages, and why).  The pause is process-wide
    while the stage runs.  It restores the caller's state, on an exception
    too: a collector the caller had disabled stays disabled."""
    @functools.wraps(stage)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return stage(*args, **kwargs)
        gc.disable()
        try:
            return stage(*args, **kwargs)
        finally:
            gc.enable()
    return paused


@node_class
class ConstInt:
    value: int


@node_class
class Operation:
    """Head of an S-expression: a service.method literal or a special form."""

    name: str


@node_class
class Var:
    """Lambda-bound identifier occurrence."""

    name: str


@node_class
class Quoted:
    inner: "Expr"


@node_class
class SExpr:
    op: Operation
    args: tuple


@node_class
class Label:
    name: str
    body: "Expr"


@node_class
class LabelRef:
    name: str


Expr = ConstInt | Var | Quoted | SExpr | Label | LabelRef


def quote(e):
    """Wrap in a quote, collapsing idempotent quotes on atoms."""
    if isinstance(e, Quoted):
        if isinstance(e.inner, (SExpr, Label, LabelRef)):
            raise GpirSyntaxError("nested quote")
        return e
    return Quoted(e)


def _nodes(e):
    """Every node of the tree, root first, left to right."""
    stack = [e]
    while stack:
        e = stack.pop()
        yield e
        if isinstance(e, SExpr):
            stack.extend(reversed(e.args))
        elif isinstance(e, Quoted):
            stack.append(e.inner)
        elif isinstance(e, Label):
            stack.append(e.body)


# ── Parser ───────────────────────────────────────────────────────────

#: a word, a delimiter or a comment; whitespace separates and is dropped
_TOKEN = re.compile(r"[^()'; \t\r\n]+|[()']|;[^\n]*")

#: forms whose arguments are not all plain expressions
_SPECIAL = frozenset((FORM_LAMBDA, FORM_LABEL, "let", "assign"))

_ANY = float("inf")

#: form -> (fewest arguments, most arguments, message)
_ARITY = {
    FORM_IF: (3, 3, "if expects condition and two branches"),
    FORM_BETA: (1, _ANY, "beta expects an operator expression"),
    FORM_LAMBDA: (1, _ANY, "lambda expects a quoted body"),
    FORM_LABEL: (2, 2, "label expects a name and one expression"),
    "let": (2, 2, "let expects one assign and one quoted body"),
    "assign": (2, 2, "assign expects a quoted identifier and one expression"),
    "return": (1, 1, "return expects one expression"),
    "begin": (1, _ANY, "begin expects at least one expression"),
}


def _is_int(word):
    return word.isdecimal() or (word[0] == "-" and word[1:].isdecimal())


#: ASCII whitespace that str.split() separates on and _TOKEN does not
_SPLIT_ONLY_SPACE = re.compile("[\v\f\x1c-\x1f]")


def _tokens(text):
    """The tokens of text, comments dropped: _TOKEN's words and delimiters.
    Where str.split() finds the same words, it is four times faster."""
    if ";" in text:
        return [t for t in _TOKEN.findall(text) if t[0] != ";"]
    if not text.isascii() or _SPLIT_ONLY_SPACE.search(text):
        return _TOKEN.findall(text)
    return text.replace("(", " ( ").replace(")", " ) ").replace("'", " ' ").split()


def _position(text, index):
    """(line, col) of token `index`; only an error pays for finding it."""
    at = [m.start() for m in _TOKEN.finditer(text) if m[0][0] != ";"][index]
    return text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at)


@collector_paused
def parse(text):
    """Parse GPIR source into a validated AST in one pass over the tokens.

    Raises GpirSyntaxError with line/column on malformed input, unbound
    variables, nested quotes and non-operation list heads.
    """
    tokens = _tokens(text)
    if not tokens:
        raise GpirSyntaxError("empty program")
    ops, labels, refs = {}, {}, []  # one Operation per name; name -> Label; (name, token)

    def error(msg, i):
        return GpirSyntaxError(msg, *_position(text, i))

    def atom(i, scope):
        word = tokens[i]
        if _is_int(word):
            value = int(word)
            if not INT32_MIN <= value <= INT32_MAX:
                raise error(f"integer literal out of 32-bit range: {word}", i)
            return ConstInt(value)
        name = _ALIASES.get(word, word)
        if name in scope:
            return Var(name)
        refs.append((name, i))  # must name a label, which may be defined later
        return LabelRef(name)

    def formals(marks):
        names = []
        for q, i in marks:
            if q != i - 1 or _is_int(tokens[i]):
                raise error("lambda formal must be a quoted identifier", i if q is None else q)
            name = _ALIASES.get(tokens[i], tokens[i])
            if name in names:
                raise error(f"duplicate lambda formal '{name}'", i)
            names.append(name)
        return names

    def place(frame, word, i, q):
        """Check an argument of a special form that starts at token i; return
        the scope it is read in, or None if it was taken as a name here."""
        op, scope, args = frame[0], frame[1], frame[2]
        start = i if q is None else q
        if op == FORM_LAMBDA:
            if frame[5] is not None:
                raise error("lambda formal must be a quoted identifier", frame[5])
            if word != "(":
                args.append((q, i))  # a formal, or the body if it is the last
                return None
            frame[5] = start
            return scope | set(formals(args))
        if args:
            return scope | {args[0].args[0].inner.name} if op == "let" else scope
        if op == "let":
            if word != "(" or q is not None or tokens[i + 1:i + 2] != ["assign"]:
                raise error("let expects an (assign 'x <expr>) form", start)
            return scope
        if word == "(" or _is_int(word) or q != (None if op == FORM_LABEL else i - 1):
            if op == FORM_LABEL:
                raise error("label name must be an identifier", start)
            raise error(_ARITY["assign"][2], frame[3])
        name = _ALIASES.get(word, word)
        if op == FORM_LABEL:
            if name in labels:
                raise error(f"duplicate label '{name}'", i)
            labels[name] = None
        args.append(name)
        return None

    # an open list is [op, scope, args, index of its '(', quoted, start of
    # lambda's list argument]; `top` holds the program's one expression
    top = [None, frozenset(), [], 0, False, None]
    stack = [top]
    op, scope, args = None, top[1], top[2]
    q = None  # index of the first quote in front of the next expression
    n = len(tokens)
    i = 0
    while i < n:
        word = tokens[i]
        if word == "'":
            if q is None:
                q = i
            i += 1
            continue
        if word == ")":
            if q is not None or len(stack) == 1:
                raise error("unexpected ')'", i)
            frame = stack.pop()
            rule = _ARITY.get(op)
            if rule and not rule[0] <= len(args) <= rule[1]:
                raise error(rule[2], frame[3])
            head = ops.get(op) or ops.setdefault(op, Operation(op))
            if op not in _SPECIAL:
                node = SExpr(head, tuple(args))
            elif op == FORM_LAMBDA:
                names, body = formals(args[:-1]), args[-1]
                if isinstance(body, tuple):  # an atom, read now that all formals are known
                    body = atom(body[1], scope | set(names))
                body = body if isinstance(body, Quoted) else Quoted(body)
                node = SExpr(head, tuple(Quoted(Var(x)) for x in names) + (body,))
            elif op == FORM_LABEL:
                if _has_free_vars(args[1]):
                    raise error(f"label '{args[0]}' body must not reference lambda variables",
                                frame[3])
                node = labels[args[0]] = Label(args[0], args[1])
            elif op == "let":
                body = args[1] if isinstance(args[1], Quoted) else Quoted(args[1])
                node = SExpr(head, (args[0], body))
            else:  # assign
                node = SExpr(head, (Quoted(Var(args[0])), args[1]))
            if frame[4]:
                node = Quoted(node)
            frame = stack[-1]
            op, scope, args = frame[0], frame[1], frame[2]
            args.append(node)
        else:
            inner = scope
            if op in _SPECIAL:
                inner = place(stack[-1], word, i, q)
                if inner is None:
                    q = None
                    i += 1
                    continue
            if word == "(":
                if q is not None and q < i - 1:
                    raise error("nested quote", q)
                if i + 1 == n:
                    raise error("unclosed '('", i)
                head = tokens[i + 1]
                if head == ")":
                    raise error("empty list", i)
                if head in ("(", "'") or _is_int(head):
                    raise error("list head is not an operation", i + 1)
                head = _ALIASES.get(head, head)
                assignment = op == "let" and not args
                if head in inner and not assignment:
                    raise error(f"list head is not an operation: '{head}' is a lambda "
                                "variable here", i + 1)
                if head == "assign" and not assignment:
                    raise error("assign outside let", i)
                stack.append([head, inner, [], i, q is not None, None])
                op, scope, args = head, inner, stack[-1][2]
                q = None
                i += 2
                continue
            if word.isdecimal() or word[0] == "-" and word[1:].isdecimal():
                value = int(word)  # an integer literal, the commonest atom
                if not INT32_MIN <= value <= INT32_MAX:
                    raise error(f"integer literal out of 32-bit range: {word}", i)
                node = ConstInt(value)
            else:
                node = atom(i, inner)
            args.append(node if q is None else Quoted(node))
            q = None
        i += 1
        if len(stack) == 1 and i < n:
            raise error("one top-level expression per program", i)
    if q is not None:
        raise error("nothing to quote", n - 1)
    if len(stack) > 1:
        raise error("unclosed '('", stack[-1][3])
    root = args[0]
    if isinstance(root, Quoted):
        raise error("quoted literal is not a program", 0)
    if not isinstance(root, (SExpr, Label)):
        raise error("program must be an operation-rooted S-expression", 0)
    for name, i in refs:
        if name not in labels:
            raise error(f"unbound variable '{name}'", i)
    if labels:  # most programs define none, and an empty sort still costs a few µs
        graph = {name: {x.name for x in _nodes(label.body) if isinstance(x, LabelRef)}
                 for name, label in labels.items()}
        try:
            graphlib.TopologicalSorter(graph).prepare()
        except graphlib.CycleError as e:
            raise GpirSyntaxError(f"label '{e.args[1][0]}' is part of a reference cycle") from None
    return root


def _has_free_vars(e):
    """Whether e uses a lambda variable that no lambda inside e binds."""
    stack = [(e, frozenset())]
    while stack:
        e, bound = stack.pop()
        if isinstance(e, Var) and e.name not in bound:
            return True
        if isinstance(e, (Quoted, Label)):
            stack.append((e.inner if isinstance(e, Quoted) else e.body, bound))
        elif isinstance(e, SExpr):
            if e.op.name == FORM_LAMBDA:
                stack.append((e.args[-1], bound | {f.inner.name for f in e.args[:-1]}))
            else:
                stack.extend((a, bound) for a in e.args)
    return False


def label_bodies(e):
    """{name: body} for every label defined anywhere in the tree."""
    return {x.name: x.body for x in _nodes(e) if isinstance(x, Label)}


# ── Printer ──────────────────────────────────────────────────────────


def to_text(e):
    """Render an AST back to GPIR source (ASCII operation names)."""
    out, stack = [], [e]
    while stack:
        e = stack.pop()
        if isinstance(e, str):
            out.append(e)
        elif isinstance(e, (ConstInt, Var, LabelRef)):
            out.append(str(e.value) if isinstance(e, ConstInt) else e.name)
        elif isinstance(e, Quoted):
            stack += [e.inner, "'"]
        elif isinstance(e, Label):
            stack += [")", e.body, f"(label {e.name} "]
        elif isinstance(e, SExpr):
            out.append("(" + e.op.name)
            stack.append(")")
            for a in reversed(e.args):
                stack += [a, " "]
        else:
            raise GpirError(f"cannot print {e!r}")
    return "".join(out)


# ── Desugaring ───────────────────────────────────────────────────────


def _unsugar(e):
    """One rewrite at the top of e: return becomes if, begin and let beta."""
    name = e.op.name
    if name == "return":
        (x,) = e.args
        return SExpr(Operation(FORM_IF), (Quoted(ConstInt(1)), quote(x), Quoted(ConstInt(0))))
    if name == "begin":
        n = len(e.args)
        formals = tuple(Quoted(Var(f"x{i + 1}")) for i in range(n))
        body = SExpr(Operation("return"), (Var(f"x{n}"),))
        lam = SExpr(Operation(FORM_LAMBDA), formals + (Quoted(body),))
        return SExpr(Operation(FORM_BETA), (lam,) + e.args)
    if name == "let":
        assign, body = e.args
        lam = SExpr(Operation(FORM_LAMBDA), (assign.args[0], body))
        return SExpr(Operation(FORM_BETA), (lam, assign.args[1]))
    raise GpirError("assign outside let")


def desugar(e):
    """Rewrite return/begin/let into the minimal form set; idempotent.

    Sugar-free subtrees come back as the very same objects, and a tree with
    no sugar at all costs one walk."""
    stack = [e]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is SExpr:
            if node.op.name in SUGAR_FORMS:
                return _desugar(e)
            stack += node.args
        elif kind is Quoted:
            stack.append(node.inner)
        elif kind is Label:
            stack.append(node.body)
    return e


def _desugar(e):
    """desugar's rewrite, for a tree known to hold sugar."""
    order, stack, rewritten = [], [e], {}  # order: parents first; id(sugar) -> rewrite
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is SExpr:
            if node.op.name in SUGAR_FORMS:
                rewritten[id(node)] = _unsugar(node)
            stack.extend(reversed(rewritten.get(id(node), node).args))
        elif kind is Quoted:
            stack.append(node.inner)
        elif kind is Label:
            stack.append(node.body)
        else:
            continue
        order.append(node)
    done = {}  # id(node) -> its desugared replacement, for every node that changes
    for node in reversed(order):
        new = rewritten.get(id(node), node)
        kids = new.args if isinstance(new, SExpr) else (
            (new.inner,) if isinstance(new, Quoted) else (new.body,))
        if any(id(k) in done for k in kids):
            kids = [done.get(id(k), k) for k in kids]
            if isinstance(new, SExpr):
                new = SExpr(new.op, tuple(kids))
            elif isinstance(new, Quoted):
                new = Quoted(kids[0])
            else:
                new = Label(new.name, kids[0])
        if new is not node:
            done[id(node)] = new
    return done[id(e)]
