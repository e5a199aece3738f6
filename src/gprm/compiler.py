"""GPIR compiler: nested S-expressions -> flat reference map -> 64-bit bytecode.

Flattening substitutes a fresh reference for every non-literal sub-expression,
producing a map of flat S-expressions (operation word + atom/reference
arguments, never a nested list).  Addresses are dense from 0 in root-first,
left-to-right order; lambda variables are alpha-numbered to program-unique
slot ids.  Compile-time addresses stay below 2**31, the upper half of the
address space is reserved for code generated at run time by beta reduction.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from . import lang
from . import words as W
from .kernels import KernelRegistry

COMPILE_ADDR_LIMIT = 1 << 31

_FORM_CODES = {name: code for code, name in W.FORM_NAMES.items()}


class CompileError(lang.GpirError):
    pass


# ── Flat program ─────────────────────────────────────────────────────


@dataclass(frozen=True, slots=True)
class WConst:
    value: int
    quoted: bool = False


@dataclass(frozen=True, slots=True)
class WVar:
    slot: int
    quoted: bool = False


@dataclass(frozen=True, slots=True)
class WRef:
    addr: int
    tile: int = 0
    quoted: bool = False


@dataclass(frozen=True, slots=True)
class FlatEntry:
    op: str
    args: tuple


@dataclass
class FlatProgram:
    entries: dict = field(default_factory=dict)  # addr -> FlatEntry
    root: int = 0


def flat_lines(fp):
    """Debug rendering, one `rN => (op args...)` line per entry."""

    def arg_str(a):
        q = "'" if a.quoted else ""
        if isinstance(a, WConst):
            return f"{q}{a.value}"
        if isinstance(a, WVar):
            return f"{q}v{a.slot}"
        return f"{q}r{a.addr}@t{a.tile}"

    out = []
    for addr in sorted(fp.entries):
        e = fp.entries[addr]
        parts = " ".join([e.op] + [arg_str(a) for a in e.args])
        out.append(f"r{addr} => ({parts})")
    return out


def used_operations(fp):
    """Service operation names appearing in the program (special forms excluded)."""
    return {e.op for e in fp.entries.values() if e.op not in _FORM_CODES}


# ── Flatten ──────────────────────────────────────────────────────────


def flatten(e):
    """Desugared AST -> FlatProgram; labels become one shared entry each.

    An entry gets its address when the walk reaches it and its FlatEntry
    once its last argument is done; the open entries are an explicit stack.
    """
    entries, labels, stack = {}, {}, []  # labels: name -> address
    bodies = None  # name -> label body, collected on the first label reached
    next_addr = next_slot = 0

    def open_entry(e, scope):
        nonlocal next_addr, next_slot
        if next_addr >= COMPILE_ADDR_LIMIT:
            raise CompileError("address space exhausted")
        op = e.op.name
        if op in lang.SUGAR_FORMS:
            raise CompileError(f"flatten requires a desugared tree, found '{op}'")
        out, items = [], e.args
        if op == lang.FORM_LAMBDA:
            scope = dict(scope)
            for f in items[:-1]:
                scope[f.inner.name] = next_slot
                out.append(WVar(next_slot, quoted=True))
                next_slot += 1
            items = items[-1:]
        stack.append([next_addr, op, out, scope, items, 0])
        next_addr += 1
        return next_addr - 1

    def label_entry(name):
        nonlocal bodies
        addr = labels.get(name)
        if addr is None:
            if bodies is None:
                bodies = lang.label_bodies(e)
            body = bodies.get(name)
            if type(body) is not lang.SExpr:
                raise CompileError(f"label '{name}' body must be an S-expression")
            addr = labels[name] = open_entry(body, {})
        return addr

    if isinstance(e, lang.Label):
        root = label_entry(e.name)
    elif isinstance(e, lang.SExpr):
        root = open_entry(e, {})
    else:
        raise CompileError("program must be an operation-rooted S-expression")
    while stack:
        frame = stack[-1]
        addr, op, out, scope, items, i = frame
        while i < len(items):
            a = items[i]
            i += 1
            quoted = False
            while type(a) is lang.Quoted:
                a, quoted = a.inner, True
            kind = type(a)
            if kind is lang.ConstInt:
                out.append(WConst(a.value, quoted))
            elif kind is lang.Var:
                slot = scope.get(a.name)
                if slot is None:
                    raise CompileError(f"unbound variable '{a.name}'")
                out.append(WVar(slot, quoted))
            elif kind is lang.SExpr or kind is lang.Label or kind is lang.LabelRef:
                ref = open_entry(a, scope) if kind is lang.SExpr else label_entry(a.name)
                out.append(WRef(ref, 0, quoted))
                if stack[-1] is not frame:  # descend; come back for argument i
                    frame[5] = i
                    break
            else:
                raise CompileError(f"cannot flatten {a!r}")
        else:
            entries[addr] = FlatEntry(op, tuple(out))
            stack.pop()
    return FlatProgram(entries, root)


# ── Tile assignment ──────────────────────────────────────────────────


def assign_tiles(fp, tile_count):
    """Place entries on tiles: root on 0, siblings spread round-robin,
    an only child shares its parent's tile (dependent work can't overlap).

    A child reached from several entries stays where the first placed it.
    Entries whose references do not move are kept as they are."""
    if tile_count < 1:
        raise CompileError("tile count must be >= 1")
    tile_of = {fp.root: 0}
    stack = [fp.root]
    while stack:
        addr = stack.pop()
        parent = tile_of[addr]
        children = [a.addr for a in fp.entries[addr].args if type(a) is WRef]
        fresh = []
        for i, child in enumerate(children):
            if child not in tile_of:
                tile_of[child] = parent if len(children) == 1 else (parent + 1 + i) % tile_count
                fresh.append(child)
        stack.extend(reversed(fresh))  # the first child's subtree is placed first
    entries = {}
    for addr, e in fp.entries.items():
        for a in e.args:
            if type(a) is WRef and a.tile != tile_of.get(a.addr, 0):
                e = FlatEntry(e.op, tuple(
                    WRef(a.addr, tile_of.get(a.addr, 0), a.quoted)
                    if type(a) is WRef and a.tile != tile_of.get(a.addr, 0) else a
                    for a in e.args))
                break
        entries[addr] = e
    return FlatProgram(entries, fp.root)


# ── Encode / decode ──────────────────────────────────────────────────


@dataclass
class BytecodeImage:
    version: int
    tile_count: int
    symbols: dict  # (service_id, method_id) -> operation name
    code: dict  # addr -> tuple of 64-bit words
    root: int  # root reference word
    arg_arity: int  # host arguments the program reads via ctrl.arg


def encode(fp, tile_count, registry):
    """FlatProgram -> BytecodeImage; names resolved against the registry snapshot."""
    if not fp.entries:
        raise CompileError("a program must have a root")
    symbols, code, op_words = {}, {}, {}
    arg_arity = 0
    for addr in sorted(fp.entries):
        e = fp.entries[addr]
        op_word = op_words.get(e.op)
        if op_word is None:
            if e.op in _FORM_CODES:
                op_word = W.mk_builtin(_FORM_CODES[e.op])
            else:
                sid, mid, _spec = registry.resolve(e.op)
                symbols[(sid, mid)] = e.op
                op_word = W.mk_oper(sid, mid)
            op_words[e.op] = op_word
        ws = [op_word]
        for a in e.args:
            kind = type(a)
            if kind is WConst:
                ws.append(W.mk_const(a.value, a.quoted))
            elif kind is WVar:
                ws.append(W.mk_var(a.slot, a.quoted))
            else:
                if a.tile >= tile_count:
                    raise CompileError(f"tile id {a.tile} out of range for {tile_count} tiles")
                ws.append(W.mk_ref(a.addr, a.tile, a.quoted))
        if e.op == "ctrl.arg" and e.args and isinstance(e.args[0], WConst):
            arg_arity = max(arg_arity, e.args[0].value + 1)
        code[addr] = tuple(ws)
    return BytecodeImage(VERSION, tile_count, symbols, code, W.mk_ref(fp.root, 0), arg_arity)


def decode(image):
    """BytecodeImage -> FlatProgram (inverse of encode)."""
    entries = {}
    for addr, ws in image.code.items():
        opw = ws[0]
        kind = W.kind_of(opw)
        if kind == W.KIND_BUILTIN:
            op = W.FORM_NAMES.get(W.builtin_form(opw))
            if op is None:
                raise CompileError(f"unknown special form code {W.builtin_form(opw)}")
        elif kind == W.KIND_OPER:
            ids = W.oper_ids(opw)
            op = image.symbols.get(ids)
            if op is None:
                raise CompileError(f"unknown service/method id {ids[0]}.{ids[1]}")
        else:
            raise CompileError(f"entry r{addr} does not start with an operation")
        args = []
        for w in ws[1:]:
            k = W.kind_of(w)
            q = W.is_quoted(w)
            if k == W.KIND_CONST:
                args.append(WConst(W.const_value(w), q))
            elif k == W.KIND_VAR:
                args.append(WVar(W.var_slot(w), q))
            elif k == W.KIND_REF:
                args.append(WRef(W.ref_addr(w), W.ref_tile(w), q))
            else:
                raise CompileError(f"bad argument word kind {k} in r{addr}")
        entries[addr] = FlatEntry(op, tuple(args))
    return FlatProgram(entries, W.ref_addr(image.root))


# ── Image file I/O (.gprm) ───────────────────────────────────────────

MAGIC = b"GPRM"
VERSION = 1


def image_to_bytes(image):
    fmt = ["<4sHHH"]
    vals = [MAGIC, image.version, image.tile_count, len(image.symbols)]
    for (sid, mid), name in sorted(image.symbols.items()):
        raw = name.encode("utf-8")
        fmt.append(f"HHH{len(raw)}s")
        vals += (sid, mid, len(raw), raw)
    fmt.append("I")
    vals.append(len(image.code))
    for addr in sorted(image.code):
        ws = image.code[addr]
        fmt.append(f"IH{len(ws)}Q")
        vals += (addr, len(ws), *ws)
    fmt.append("QH")
    vals += (image.root, image.arg_arity)
    return struct.Struct("".join(fmt)).pack(*vals)


def image_from_bytes(data):
    if data[:4] != MAGIC:
        raise CompileError("not a bytecode image (bad magic)")
    try:
        return _parse_image(data)
    except (struct.error, IndexError):
        raise CompileError("truncated bytecode image") from None


def _parse_image(data):
    version, tile_count, nsyms = struct.unpack_from("<HHH", data, 4)
    if version != VERSION:
        raise CompileError(f"unsupported image version {version}")
    off, symbols = 10, {}
    for _ in range(nsyms):
        sid, mid, ln = struct.unpack_from("<HHH", data, off)
        try:
            symbols[(sid, mid)] = data[off + 6:off + 6 + ln].decode("utf-8")
        except UnicodeDecodeError:
            raise CompileError(f"symbol name of {sid}.{mid} is not UTF-8") from None
        off += 6 + ln
    (nentries,) = struct.unpack_from("<I", data, off)
    start = off = off + 4
    sizes = []  # words per entry, read ahead so one struct call unpacks them all
    for _ in range(nentries):
        sizes.append(data[off + 4] | data[off + 5] << 8)
        off += 6 + 8 * sizes[-1]
    if len(data) > off + 10:
        raise CompileError(f"{len(data) - off - 10} trailing bytes after the bytecode image")
    fmt = "<" + "".join([f"IH{n}Q" for n in sizes]) + "QH"
    words = struct.Struct(fmt).unpack_from(data, start)  # struct's cache would keep fmt alive
    code, i = {}, 0
    for n in sizes:
        code[words[i]] = words[i + 2:i + 2 + n]
        i += 2 + n
    return BytecodeImage(version, tile_count, symbols, code, words[-2], words[-1])


def write_image(image, path):
    with open(path, "wb") as f:
        f.write(image_to_bytes(image))


def read_image(path):
    with open(path, "rb") as f:
        return image_from_bytes(f.read())


# ── Pipeline ─────────────────────────────────────────────────────────


def compile_text(text, tile_count, registry=None):
    """parse -> desugar -> flatten -> assign_tiles -> encode.

    Deterministic: identical inputs give byte-identical images.
    """
    if registry is None:
        registry = KernelRegistry()
    ast = lang.parse(text)
    fp = assign_tiles(flatten(lang.desugar(ast)), tile_count)
    return encode(fp, tile_count, registry)
