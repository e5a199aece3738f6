"""Mini single-assignment front-end: C-like task composition code -> GPIR.

Surface grammar (a deliberately tiny slice of the C++-flavoured composition
language; task kernels themselves are ordinary host code)::

    GPRM::Kernel::MergeSort ms;          // kernel instance declaration
    void ms_rec(int n, int nmax, int* a) { ... }
    int GPRM::compute(int v0) { ... }    // qualified name marks the entry

    stmt: int v = expr;  |  v = expr;  |  if (e) {...} else {...}
          |  return expr;  |  svc.method(args);
    expr: calls, variables, integer literals, + - * and comparisons

Rules: every variable is assigned exactly once; no loops (recursion only);
`if` sits in tail position.  A variable consumed by two or more later
expressions becomes a lambda-bound name applied via beta (so its producer
runs once); single-use variables are inlined.  Entry `int` parameters read
from `ctrl.arg`, pointer parameters from `ctrl.reg`.  Recursive helpers
compile to the self-application pattern `(beta F F args...)`; the entry
function may not call itself (move the recursion into a helper).  `ctrl.run`
is available as an intrinsic whose first argument is compiled quoted (it is a
control method, receiving code rather than a value).

Code generation is one linear pass: each block counts its variable reads
once, and a single-use variable's generated expression is substituted where
it is read as that reader is generated.  Expressions are generated with an
explicit stack, so an operator chain has no length limit; the parser and the
block generator recurse only through parentheses, call-argument lists and
`if` blocks, whose combined nesting MAX_NESTING (100) bounds.  A helper's
body is generated inside its caller's, so a chain of a few hundred helpers,
each calling the next, exhausts the stack and is refused.  Every refusal is
a GpcError.
"""

from __future__ import annotations

import re

from . import lang
from .lang import ConstInt, Operation, Quoted, SExpr, Var


class GpcError(Exception):
    pass


_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+|//[^\n]*)
      | (?P<num>\d+)
      | (?P<name>[A-Za-z_]\w*)
      | (?P<op>::|>=|<=|==|!=|[><=+\-*/.,;(){}])
    """,
    re.VERBOSE,
)

_LOOP_WORDS = {"for", "while", "do"}

#: deepest combined nesting of parentheses, call-argument lists and `if` blocks
MAX_NESTING = 100


def _lex(src):
    out, pos = [], 0
    line = 1
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if not m:
            raise GpcError(f"bad character {src[pos]!r} at line {line}")
        line += src[pos : m.end()].count("\n")
        pos = m.end()
        if m.lastgroup == "ws":
            continue
        out.append((m.lastgroup, m.group(), line))
    out.append(("eof", "", line))
    return out


class _Parser:
    def __init__(self, tokens):
        self.toks = tokens
        self.i = 0
        self.depth = 0
        self.calls = []  # bare-name calls in the function being parsed

    def peek(self, k=0):
        return self.toks[min(self.i + k, len(self.toks) - 1)]

    def next(self):
        t = self.toks[self.i]
        if t[0] != "eof":
            self.i += 1
        return t

    def nest(self, line):
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise GpcError(f"nesting deeper than {MAX_NESTING} at line {line}")

    def expect(self, text):
        kind, val, line = self.next()
        if val != text:
            raise GpcError(f"expected '{text}', got '{val}' (line {line})")
        return val

    def at(self, text):
        return self.peek()[1] == text

    # ── top level ────────────────────────────────────────────

    def program(self):
        decls, funcs = {}, []
        while not self.at(""):
            save = self.i
            if self.try_decl(decls):
                continue
            self.i = save
            funcs.append(self.function())
        if not funcs:
            raise GpcError("no function definitions")
        return decls, funcs

    def try_decl(self, decls):
        """`[GPRM::Kernel::]ClassName instance;`"""
        kind, val, _ = self.peek()
        if kind != "name":
            return False
        j = self.i
        parts = [self.toks[j][1]]
        j += 1
        while self.toks[j][1] == "::":
            j += 1
            if self.toks[j][0] != "name":
                return False
            parts.append(self.toks[j][1])
            j += 1
        if parts and parts[0] in ("int", "void"):
            return False
        if self.toks[j][0] == "name" and self.toks[j + 1][1] == ";":
            alias = self.toks[j][1]
            if alias in decls:
                raise GpcError(f"kernel instance '{alias}' declared twice")
            decls[alias] = parts[-1]
            self.i = j + 2
            return True
        return False

    def function(self):
        kind, rtype, line = self.next()
        if rtype not in ("int", "void"):
            raise GpcError(f"expected a function definition at line {line}")
        while self.at("*"):
            self.next()
        kind, name, line = self.next()
        if kind != "name":
            raise GpcError(f"expected function name at line {line}")
        qualified = False
        while self.at("::"):
            self.next()
            qualified = True
            kind, name, line = self.next()
        self.expect("(")
        params = []
        while not self.at(")"):
            if params:
                self.expect(",")
            ptype = self.next()[1]
            if ptype != "int":
                raise GpcError(f"unsupported parameter type '{ptype}'")
            is_ptr = False
            if self.at("*"):
                self.next()
                is_ptr = True
            pname = self.next()[1]
            params.append((pname, is_ptr))
        self.expect(")")
        self.calls = []
        body = self.block()
        return {"name": name, "qualified": qualified, "params": params, "body": body,
                "calls": self.calls}

    def block(self):
        self.expect("{")
        stmts = []
        while not self.at("}"):
            stmts.append(self.statement())
        self.expect("}")
        return stmts

    def statement(self):
        kind, val, line = self.peek()
        if val in _LOOP_WORDS:
            raise GpcError(f"'{val}' is not supported: use recursion (line {line})")
        if val == "if":
            self.next()
            self.nest(line)
            self.expect("(")
            cond = self.expr()
            self.expect(")")
            then = self.block()
            self.expect("else")
            other = self.block()
            self.depth -= 1
            return ("if", cond, then, other)
        if val == "return":
            self.next()
            e = self.expr()
            self.expect(";")
            return ("return", e)
        if val == "int":
            self.next()
            while self.at("*"):
                self.next()
            name = self.next()[1]
            self.expect("=")
            e = self.expr()
            self.expect(";")
            return ("def", name, e)
        if kind == "name" and self.peek(1)[1] == "=":
            name = self.next()[1]
            self.next()
            e = self.expr()
            self.expect(";")
            return ("def", name, e)
        e = self.expr()
        self.expect(";")
        return ("expr", e)

    # ── expressions ──────────────────────────────────────────

    _CMP = (">=", "<=", "==", "!=", ">", "<")

    def expr(self):
        left = self.additive()
        if self.peek()[1] in self._CMP:
            op = self.next()[1]
            right = self.additive()
            return ("bin", op, left, right)
        return left

    def additive(self):
        left = self.multiplicative()
        while self.peek()[1] in ("+", "-"):
            op = self.next()[1]
            left = ("bin", op, left, self.multiplicative())
        return left

    def multiplicative(self):
        left = self.primary()
        while self.at("*"):
            self.next()
            left = ("bin", "*", left, self.primary())
        return left

    def primary(self):
        kind, val, line = self.next()
        if val == "(":
            self.nest(line)
            e = self.expr()
            self.expect(")")
            self.depth -= 1
            return e
        if val == "-" and self.peek()[0] == "num":
            return ("int", -int(self.next()[1]))
        if kind == "num":
            return ("int", int(val))
        if kind == "name":
            if val in _LOOP_WORDS:
                raise GpcError(f"'{val}' is not supported: use recursion (line {line})")
            if self.at("."):
                self.next()
                method = self.next()[1]
                return ("call", f"{val}.{method}", self.call_args())
            if self.at("("):
                self.calls.append(val)
                return ("call", val, self.call_args())
            return ("var", val)
        raise GpcError(f"unexpected token '{val}' at line {line}")

    def call_args(self):
        self.nest(self.peek()[2])
        self.expect("(")
        args = []
        while not self.at(")"):
            if args:
                self.expect(",")
            args.append(self.expr())
        self.expect(")")
        self.depth -= 1
        return args


# ── Code generation ──────────────────────────────────────────────────


def _var_uses(stmts):
    """{name: how often stmts read it}, nested blocks included."""
    uses, stack = {}, list(stmts)
    while stack:
        node = stack.pop()
        kind = node[0]
        if kind == "var":
            if node[1] != "NUM_THREADS":
                uses[node[1]] = uses.get(node[1], 0) + 1
        elif kind == "bin":
            stack += node[2:]
        elif kind == "call":
            stack += node[2]
        elif kind == "if":
            stack += [node[1], *node[2], *node[3]]
        elif kind != "int":  # def, return, expr: the expression comes last
            stack.append(node[-1])
    return uses


class _Compiler:
    def __init__(self, decls, funcs, num_threads):
        self.decls = decls
        self.funcs = {}
        for f in funcs:
            if f["name"] in self.funcs:
                raise GpcError(f"duplicate definition of function '{f['name']}'")
            self.funcs[f["name"]] = f
        self.num_threads = num_threads
        self.recursive = {n for n, f in self.funcs.items() if n in f["calls"]}
        graph = {n: [c for c in f["calls"] if c in self.funcs and c != n]
                 for n, f in self.funcs.items()}
        cycle = lang.find_cycle(graph)
        if cycle:
            raise GpcError(f"mutual recursion is not supported: {' -> '.join(cycle)}")

    def entry_function(self):
        qualified = [f for f in self.funcs.values() if f["qualified"]]
        if len(qualified) > 1:
            raise GpcError("more than one qualified entry function")
        if qualified:
            return qualified[0]
        return list(self.funcs.values())[-1]

    def compile(self):
        entry = self.entry_function()
        if entry["name"] in self.recursive:
            raise GpcError(f"entry function '{entry['name']}' calls itself: "
                           "move the recursion into a helper")
        env = {}
        n_int = n_ptr = 0
        for pname, is_ptr in entry["params"]:
            if is_ptr:
                env[pname] = SExpr(Operation("ctrl.reg"), (Quoted(ConstInt(n_ptr)),))
                n_ptr += 1
            else:
                env[pname] = SExpr(Operation("ctrl.arg"), (Quoted(ConstInt(n_int)),))
                n_int += 1
        return self.gen_block(entry["body"], env, entry["name"])

    # env: variable name -> lang AST to substitute for it
    def gen_block(self, stmts, env, fname):
        uses = _var_uses(stmts)
        local = dict(env)
        bound = {}      # def -> the multi-use defs of this block its value reads
        groups = []     # [(name, ast)] lists bound together (independent defs)
        bare = []       # effect statements whose values are discarded
        tail = unused = None
        for idx, s in enumerate(stmts):
            last = idx == len(stmts) - 1
            if s[0] == "def":
                name = s[1]
                if name in local:
                    raise GpcError(f"variable '{name}' reassigned (single assignment)")
                reads = set()
                ast = self.gen_expr(s[2], local, fname, reads)
                deps = {d for r in reads for d in bound.get(r, ())}
                if uses.get(name) == 1:  # inline: the one reader gets the value
                    local[name], bound[name] = ast, deps
                    continue
                if name not in uses and unused is None:
                    unused = name
                local[name], bound[name] = Var(name), {name}
                if groups and deps.isdisjoint(n for n, _ in groups[-1]):
                    groups[-1].append((name, ast))
                else:  # the first def, or one that reads the current group: new layer
                    groups.append([(name, ast)])
            elif s[0] == "return":
                if not last:
                    raise GpcError("statements after return")
                tail = self.gen_expr(s[1], local, fname)
            elif s[0] == "if":
                if not last:
                    raise GpcError("if must be the last statement in a block")
                cond = self.gen_expr(s[1], local, fname)
                # a branch that is just an enclosing variable keeps its own
                # quote, so an inlined constant prints as ''c
                branches = [self.gen_block(b, local, fname) for b in s[2:]]
                then, other = (Quoted(b) if any(b is v for v in local.values()) else lang.quote(b)
                               for b in branches)
                tail = SExpr(Operation(lang.FORM_IF), (cond, then, other))
            else:  # bare expression statement
                ast = self.gen_expr(s[1], local, fname)
                if last:
                    tail = ast
                else:
                    bare.append(ast)
        if tail is None:
            raise GpcError(f"function '{fname}' has no result statement")
        if unused is not None:
            raise GpcError(f"unused variable '{unused}'")
        core = SExpr(Operation("begin"), (*bare, tail)) if bare else tail
        for group in reversed(groups):
            formals = tuple(Quoted(Var(n)) for n, _ in group)
            lam = SExpr(Operation(lang.FORM_LAMBDA), formals + (lang.quote(core),))
            core = SExpr(Operation(lang.FORM_BETA), (lam,) + tuple(a for _, a in group))
        return core

    def gen_expr(self, e, env, fname, reads=None):
        """Generate e with an explicit stack; add each variable read to `reads`.

        A call is checked when it is pushed, before its arguments."""
        out, stack = [], [e]  # stack: source nodes, and (None, node) to build node
        while stack:
            e = stack.pop()
            kind = e[0]
            if kind == "int":
                out.append(Quoted(ConstInt(e[1])))
            elif kind == "var" and e[1] == "NUM_THREADS":
                if self.num_threads is None:
                    raise GpcError("NUM_THREADS used but no thread count was given")
                out.append(Quoted(ConstInt(self.num_threads)))
            elif kind == "var":
                if e[1] not in env:
                    raise GpcError(f"use of unassigned variable '{e[1]}'")
                if reads is not None:
                    reads.add(e[1])
                out.append(env[e[1]])
            elif kind == "bin":
                stack += [(None, e), e[3], e[2]]
            elif kind == "call":
                self.check_call(e[1], e[2])
                stack.append((None, e))
                stack += reversed(e[2])
            else:  # (None, node): node's arguments are the last values on out
                e = e[1]
                n = 2 if e[0] == "bin" else len(e[2])
                args = out[len(out) - n:]
                del out[len(out) - n:]
                out.append(self.build(e, args, env, fname))
        return out[0]

    def check_call(self, op, args):
        if "." in op:
            svc = op.split(".", 1)[0]
            if svc != "ctrl" and svc not in self.decls:
                raise GpcError(f"undeclared kernel instance '{svc}'")
            if op == "ctrl.run" and (len(args) != 2 or args[0][0] != "call"):
                raise GpcError("ctrl.run expects a call and a thread id")
            return
        func = self.funcs.get(op)
        if func is None:
            raise GpcError(f"call to undefined function '{op}'")
        if len(args) != len(func["params"]):
            raise GpcError(f"'{op}' expects {len(func['params'])} arguments, got {len(args)}")

    def build(self, e, args, env, fname):
        """The AST of a binary operation or call whose arguments are generated."""
        if e[0] == "bin":
            return SExpr(Operation(e[1]), tuple(args))
        name = e[1]
        if "." in name:
            if name == "ctrl.run":
                args[0] = lang.quote(args[0])  # control method: defer the code
            return SExpr(Operation(name), tuple(args))
        if name == fname:
            # recursive call inside the helper's own body: apply the bound
            # self-reference to itself
            f = env[name]
            return SExpr(Operation(lang.FORM_BETA), (f, f, *args))
        params = [p for p, _ in self.funcs[name]["params"]]
        me = [name] if name in self.recursive else []
        if me and name in params:
            raise GpcError(f"'{name}' shadows one of its parameters")
        body = self.gen_block(self.funcs[name]["body"], {n: Var(n) for n in params + me}, name)
        formals = tuple(Quoted(Var(n)) for n in me + params)
        lam = SExpr(Operation(lang.FORM_LAMBDA), formals + (lang.quote(body),))
        if me:
            # (beta (lambda 'f 'params '(beta f f params)) F args...)
            seed = SExpr(Operation(lang.FORM_BETA), tuple(Var(n) for n in me + me + params))
            wrapper = SExpr(Operation(lang.FORM_LAMBDA), formals + (Quoted(seed),))
            return SExpr(Operation(lang.FORM_BETA), (wrapper, lam, *args))
        return SExpr(Operation(lang.FORM_BETA), (lam, *args))


def compile_gpc(source, num_threads=None):
    """Compile mini task-composition source to GPIR text.

    The entry point is the GPRM::-qualified function (or, failing that, the
    last function defined); `num_threads` substitutes the NUM_THREADS
    constant when the source refers to it."""
    decls, funcs = _Parser(_lex(source)).program()
    try:
        ast = _Compiler(decls, funcs, num_threads).compile()
    except RecursionError:
        # a helper's body is generated inside its caller's, so a long chain
        # of helpers, each calling the next, recurses once per link
        raise GpcError("helper calls nest too deeply: a chain of functions, "
                       "each calling the next, is too long to generate") from None
    return lang.to_text(ast)
