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
"""

from __future__ import annotations

from dataclasses import dataclass


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

SUGAR_FORMS = ("return", "begin", "let", "assign")


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


@dataclass(frozen=True)
class ConstInt:
    value: int


@dataclass(frozen=True)
class Operation:
    """Head of an S-expression: a service.method literal or a special form."""

    name: str


@dataclass(frozen=True)
class Var:
    """Lambda-bound identifier occurrence."""

    name: str


@dataclass(frozen=True)
class Quoted:
    inner: "Expr"


@dataclass(frozen=True)
class SExpr:
    op: Operation
    args: tuple


@dataclass(frozen=True)
class Label:
    name: str
    body: "Expr"


@dataclass(frozen=True)
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


# ── Lexer ────────────────────────────────────────────────────────────

_DELIMS = set("()';") | set(" \t\r\n")


def _lex(text):
    """Return (kind, value, line, col) tokens; kind in {'(', ')', "'", 'int', 'name'}."""
    tokens = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == ";":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c in "()'":
            tokens.append((c, c, line, col))
            i += 1
            col += 1
            continue
        start, startcol = i, col
        while i < n and text[i] not in _DELIMS:
            i += 1
            col += 1
        word = text[start:i]
        if word.isdigit() or (word.startswith("-") and word[1:].isdigit()):
            value = int(word)
            if not INT32_MIN <= value <= INT32_MAX:
                raise GpirSyntaxError(
                    f"integer literal out of 32-bit range: {word}", line, startcol
                )
            tokens.append(("int", value, line, startcol))
        else:
            tokens.append(("name", _ALIASES.get(word, word), line, startcol))
    return tokens


# raw reader tree: ('int', v, pos) | ('name', s, pos) | ('quote', raw, pos) | ('list', [raw...], pos)


def _read(tokens, i):
    kind, value, line, col = tokens[i]
    pos = (line, col)
    if kind == "int":
        return ("int", value, pos), i + 1
    if kind == "name":
        return ("name", value, pos), i + 1
    if kind == "'":
        if i + 1 >= len(tokens):
            raise GpirSyntaxError("nothing to quote", line, col)
        inner, j = _read(tokens, i + 1)
        return ("quote", inner, pos), j
    if kind == "(":
        items = []
        j = i + 1
        while True:
            if j >= len(tokens):
                raise GpirSyntaxError("unclosed '('", line, col)
            if tokens[j][0] == ")":
                return ("list", items, pos), j + 1
            item, j = _read(tokens, j)
            items.append(item)
    raise GpirSyntaxError("unexpected ')'", line, col)


# ── Structure and resolve ────────────────────────────────────────────


def _collect_labels(raw, names):
    kind, value, pos = raw
    if kind == "quote":
        _collect_labels(value, names)
    elif kind == "list":
        items = value
        if items and items[0][0] == "name" and items[0][1] == FORM_LABEL:
            if len(items) != 3:
                raise GpirSyntaxError("label expects a name and one expression", *pos)
            if items[1][0] != "name":
                raise GpirSyntaxError("label name must be an identifier", *items[1][2])
            name = items[1][1]
            if name in names:
                raise GpirSyntaxError(f"duplicate label '{name}'", *items[1][2])
            names.add(name)
        for item in items:
            _collect_labels(item, names)


class _Resolver:
    """Turns raw reader trees into validated Expr nodes."""

    def __init__(self, labels):
        self.labels = labels

    def expr(self, raw, scope):
        kind, value, pos = raw
        if kind == "int":
            return ConstInt(value)
        if kind == "quote":
            # collapse idempotent quotes on atoms, reject deferred-twice code
            inner = value
            while inner[0] == "quote":
                if inner[1][0] == "list":
                    raise GpirSyntaxError("nested quote", *pos)
                inner = inner[1]
            return Quoted(self.expr(inner, scope))
        if kind == "name":
            if value in scope:
                return Var(value)
            if value in self.labels:
                return LabelRef(value)
            raise GpirSyntaxError(f"unbound variable '{value}'", *pos)
        return self.sexpr(value, pos, scope)

    def sexpr(self, items, pos, scope):
        if not items:
            raise GpirSyntaxError("empty list", *pos)
        head = items[0]
        if head[0] != "name":
            raise GpirSyntaxError("list head is not an operation", *head[2])
        op = head[1]
        if op in scope:
            raise GpirSyntaxError(
                f"list head is not an operation: '{op}' is a lambda variable here", *head[2]
            )
        args = items[1:]
        if op == FORM_LAMBDA:
            return self.lambda_form(args, pos, scope)
        if op == FORM_LABEL:
            return self.label_form(args, pos, scope)
        if op == FORM_IF:
            if len(args) != 3:
                raise GpirSyntaxError("if expects condition and two branches", *pos)
        if op == FORM_BETA and not args:
            raise GpirSyntaxError("beta expects an operator expression", *pos)
        if op == "let":
            return self.let_form(args, pos, scope)
        if op == "assign":
            raise GpirSyntaxError("assign outside let", *pos)
        if op == "return" and len(args) != 1:
            raise GpirSyntaxError("return expects one expression", *pos)
        if op == "begin" and not args:
            raise GpirSyntaxError("begin expects at least one expression", *pos)
        return SExpr(Operation(op), tuple(self.expr(a, scope) for a in args))

    def lambda_form(self, args, pos, scope):
        if not args:
            raise GpirSyntaxError("lambda expects a quoted body", *pos)
        *formal_raws, body_raw = args
        names = []
        for f in formal_raws:
            if f[0] != "quote" or f[1][0] != "name":
                raise GpirSyntaxError("lambda formal must be a quoted identifier", *f[2])
            name = f[1][1]
            if name in names:
                raise GpirSyntaxError(f"duplicate lambda formal '{name}'", *f[1][2])
            names.append(name)
        inner = scope | set(names)
        if body_raw[0] == "quote":
            body = self.expr(body_raw, inner)
        else:
            # evaluating a lambda body eagerly is meaningless; normalize to quoted
            body = quote(self.expr(body_raw, inner))
        formals = tuple(Quoted(Var(n)) for n in names)
        return SExpr(Operation(FORM_LAMBDA), formals + (body,))

    def let_form(self, args, pos, scope):
        if len(args) != 2:
            raise GpirSyntaxError("let expects one assign and one quoted body", *pos)
        assign_raw, body_raw = args
        if (
            assign_raw[0] != "list"
            or not assign_raw[1]
            or assign_raw[1][0][:2] != ("name", "assign")
        ):
            raise GpirSyntaxError("let expects an (assign 'x <expr>) form", *assign_raw[2])
        a_items = assign_raw[1]
        if len(a_items) != 3 or a_items[1][0] != "quote" or a_items[1][1][0] != "name":
            raise GpirSyntaxError("assign expects a quoted identifier and one expression",
                                  *assign_raw[2])
        name = a_items[1][1][1]
        bound_expr = self.expr(a_items[2], scope)
        inner = scope | {name}
        if body_raw[0] == "quote":
            body = self.expr(body_raw, inner)
        else:
            body = quote(self.expr(body_raw, inner))
        assign = SExpr(Operation("assign"), (Quoted(Var(name)), bound_expr))
        return SExpr(Operation("let"), (assign, body))

    def label_form(self, args, pos, scope):
        name = args[0][1]
        body = self.expr(args[1], scope)
        if _free_vars(body):
            raise GpirSyntaxError(
                f"label '{name}' body must not reference lambda variables", *pos
            )
        return Label(name, body)


def _free_vars(e, bound=frozenset()):
    if isinstance(e, Var):
        return set() if e.name in bound else {e.name}
    if isinstance(e, Quoted):
        return _free_vars(e.inner, bound)
    if isinstance(e, Label):
        return _free_vars(e.body, bound)
    if isinstance(e, SExpr):
        if e.op.name == FORM_LAMBDA:
            names = {f.inner.name for f in e.args[:-1]}
            return _free_vars(e.args[-1], bound | names)
        out = set()
        for a in e.args:
            out |= _free_vars(a, bound)
        return out
    return set()


def label_bodies(e):
    """{name: body} for every label defined anywhere in the tree."""
    out = {}

    def walk(e):
        if isinstance(e, Label):
            out[e.name] = e.body
            walk(e.body)
        elif isinstance(e, Quoted):
            walk(e.inner)
        elif isinstance(e, SExpr):
            for a in e.args:
                walk(a)

    walk(e)
    return out


def _label_refs(e):
    if isinstance(e, LabelRef):
        return {e.name}
    if isinstance(e, Quoted):
        return _label_refs(e.inner)
    if isinstance(e, Label):
        return _label_refs(e.body)
    if isinstance(e, SExpr):
        out = set()
        for a in e.args:
            out |= _label_refs(a)
        return out
    return set()


def _check_label_cycles(bodies):
    graph = {name: _label_refs(body) & set(bodies) for name, body in bodies.items()}
    state = {}

    def visit(name):
        if state.get(name) == 2:
            return
        if state.get(name) == 1:
            raise GpirSyntaxError(f"label '{name}' is part of a reference cycle")
        state[name] = 1
        for dep in graph[name]:
            visit(dep)
        state[name] = 2

    for name in graph:
        visit(name)


def parse(text):
    """Parse GPIR source into a validated AST.

    Raises GpirSyntaxError with line/column on malformed input, unbound
    variables, nested quotes and non-operation list heads.
    """
    tokens = _lex(text)
    if not tokens:
        raise GpirSyntaxError("empty program")
    raw, j = _read(tokens, 0)
    if j != len(tokens):
        raise GpirSyntaxError("one top-level expression per program", *tokens[j][2:])
    if raw[0] == "quote":
        raise GpirSyntaxError("quoted literal is not a program", *raw[2])
    if raw[0] != "list":
        raise GpirSyntaxError("program must be an operation-rooted S-expression", *raw[2])
    labels = set()
    _collect_labels(raw, labels)
    root = _Resolver(labels).expr(raw, frozenset())
    _check_label_cycles(label_bodies(root))
    return root


# ── Printer ──────────────────────────────────────────────────────────


def to_text(e):
    """Render an AST back to GPIR source (ASCII operation names)."""
    if isinstance(e, ConstInt):
        return str(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, LabelRef):
        return e.name
    if isinstance(e, Quoted):
        return "'" + to_text(e.inner)
    if isinstance(e, Label):
        return f"(label {e.name} {to_text(e.body)})"
    if isinstance(e, SExpr):
        parts = [e.op.name] + [to_text(a) for a in e.args]
        return "(" + " ".join(parts) + ")"
    raise GpirError(f"cannot print {e!r}")


# ── Desugaring ───────────────────────────────────────────────────────


def desugar(e):
    """Rewrite return/begin/let into the minimal form set; idempotent."""
    if isinstance(e, Quoted):
        return quote(desugar(e.inner))
    if isinstance(e, Label):
        return Label(e.name, desugar(e.body))
    if not isinstance(e, SExpr):
        return e
    name = e.op.name
    if name == "return":
        (x,) = e.args
        return desugar(SExpr(Operation(FORM_IF), (Quoted(ConstInt(1)), quote(x), Quoted(ConstInt(0)))))
    if name == "begin":
        n = len(e.args)
        formals = tuple(Quoted(Var(f"x{i + 1}")) for i in range(n))
        body = SExpr(Operation("return"), (Var(f"x{n}"),))
        lam = SExpr(Operation(FORM_LAMBDA), formals + (Quoted(body),))
        return desugar(SExpr(Operation(FORM_BETA), (lam,) + e.args))
    if name == "let":
        assign, body = e.args
        var = assign.args[0]
        bound = assign.args[1]
        lam = SExpr(Operation(FORM_LAMBDA), (var, body))
        return desugar(SExpr(Operation(FORM_BETA), (lam, bound)))
    if name == "assign":
        raise GpirError("assign outside let")
    return SExpr(e.op, tuple(desugar(a) for a in e.args))
