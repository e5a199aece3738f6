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
from .kernels import KernelRegistry, UnknownServiceError

COMPILE_ADDR_LIMIT = 1 << 31

_FORM_CODES = {name: code for code, name in W.FORM_NAMES.items()}


class CompileError(lang.GpirError):
    pass


# ── Flat program ─────────────────────────────────────────────────────


@dataclass(frozen=True)
class WConst:
    value: int
    quoted: bool = False


@dataclass(frozen=True)
class WVar:
    slot: int
    quoted: bool = False


@dataclass(frozen=True)
class WRef:
    addr: int
    tile: int = 0
    quoted: bool = False


@dataclass(frozen=True)
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


class _Flattener:
    def __init__(self, label_bodies):
        self.entries = {}
        self.next_addr = 0
        self.next_slot = 0
        self.label_bodies = label_bodies
        self.label_addrs = {}

    def alloc_addr(self):
        if self.next_addr >= COMPILE_ADDR_LIMIT:
            raise CompileError("address space exhausted")
        addr = self.next_addr
        self.next_addr += 1
        return addr

    def label_entry(self, name):
        addr = self.label_addrs.get(name)
        if addr is None:
            body = self.label_bodies[name]
            if not isinstance(body, lang.SExpr):
                raise CompileError(f"label '{name}' body must be an S-expression")
            # reserve first so self-contained cycles would be caught upstream
            addr = self.entry(body, {})
            self.label_addrs[name] = addr
        return addr

    def entry(self, e, scope):
        addr = self.alloc_addr()
        op = e.op.name
        if op in lang.SUGAR_FORMS:
            raise CompileError(f"flatten requires a desugared tree, found '{op}'")
        if op == lang.FORM_LAMBDA:
            *formals, body = e.args
            inner = dict(scope)
            flat_formals = []
            for f in formals:
                slot = self.next_slot
                self.next_slot += 1
                inner[f.inner.name] = slot
                flat_formals.append(WVar(slot, quoted=True))
            args = tuple(flat_formals) + (self.arg(body, inner),)
        else:
            args = tuple(self.arg(a, scope) for a in e.args)
        self.entries[addr] = FlatEntry(op, args)
        return addr

    def arg(self, e, scope, quoted=False):
        if isinstance(e, lang.Quoted):
            return self.arg(e.inner, scope, True)
        if isinstance(e, lang.ConstInt):
            return WConst(e.value, quoted)
        if isinstance(e, lang.Var):
            slot = scope.get(e.name)
            if slot is None:
                raise CompileError(f"unbound variable '{e.name}'")
            return WVar(slot, quoted)
        if isinstance(e, (lang.Label, lang.LabelRef)):
            return WRef(self.label_entry(e.name), 0, quoted)
        if isinstance(e, lang.SExpr):
            return WRef(self.entry(e, scope), 0, quoted)
        raise CompileError(f"cannot flatten {e!r}")


def flatten(e):
    """Desugared AST -> FlatProgram; labels become one shared entry each."""
    fl = _Flattener(lang.label_bodies(e))
    if isinstance(e, lang.Label):
        root = fl.label_entry(e.name)
    elif isinstance(e, lang.SExpr):
        root = fl.entry(e, {})
    else:
        raise CompileError("program must be an operation-rooted S-expression")
    return FlatProgram(fl.entries, root)


# ── Tile assignment ──────────────────────────────────────────────────


def assign_tiles(fp, tile_count):
    """Place entries on tiles: root on 0, siblings spread round-robin,
    an only child shares its parent's tile (dependent work can't overlap)."""
    if tile_count < 1:
        raise CompileError("tile count must be >= 1")
    tile_of = {fp.root: 0}

    def visit(addr):
        parent = tile_of[addr]
        children = [a.addr for a in fp.entries[addr].args if isinstance(a, WRef)]
        fresh = []
        for i, child in enumerate(children):
            if child not in tile_of:
                tile_of[child] = parent if len(children) == 1 else (parent + 1 + i) % tile_count
                fresh.append(child)
        for child in fresh:
            visit(child)

    visit(fp.root)
    entries = {}
    for addr, e in fp.entries.items():
        args = tuple(
            WRef(a.addr, tile_of.get(a.addr, 0), a.quoted) if isinstance(a, WRef) else a
            for a in e.args
        )
        entries[addr] = FlatEntry(e.op, args)
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
    symbols = {}
    code = {}
    arg_arity = 0
    for addr in sorted(fp.entries):
        e = fp.entries[addr]
        if e.op in _FORM_CODES:
            op_word = W.mk_builtin(_FORM_CODES[e.op])
        else:
            sid, mid, _spec = registry.resolve(e.op)
            symbols[(sid, mid)] = e.op
            op_word = W.mk_oper(sid, mid)
        ws = [op_word]
        for a in e.args:
            if isinstance(a, WConst):
                ws.append(W.mk_const(a.value, a.quoted))
            elif isinstance(a, WVar):
                ws.append(W.mk_var(a.slot, a.quoted))
            else:
                if a.tile >= tile_count:
                    raise CompileError(f"tile id {a.tile} out of range for {tile_count} tiles")
                ws.append(W.mk_ref(a.addr, a.tile, a.quoted))
        if e.op == "ctrl.arg" and e.args and isinstance(e.args[0], WConst):
            arg_arity = max(arg_arity, e.args[0].value + 1)
        code[addr] = tuple(ws)
    return BytecodeImage(
        version=1,
        tile_count=tile_count,
        symbols=symbols,
        code=code,
        root=W.mk_ref(fp.root, 0),
        arg_arity=arg_arity,
    )


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
    out = bytearray()
    out += MAGIC
    out += struct.pack("<HH", image.version, image.tile_count)
    out += struct.pack("<H", len(image.symbols))
    for (sid, mid), name in sorted(image.symbols.items()):
        raw = name.encode("utf-8")
        out += struct.pack("<HHH", sid, mid, len(raw))
        out += raw
    out += struct.pack("<I", len(image.code))
    for addr in sorted(image.code):
        ws = image.code[addr]
        out += struct.pack("<IH", addr, len(ws))
        out += struct.pack(f"<{len(ws)}Q", *ws)
    out += struct.pack("<Q", image.root)
    out += struct.pack("<H", image.arg_arity)
    return bytes(out)


def image_from_bytes(data):
    if data[:4] != MAGIC:
        raise CompileError("not a bytecode image (bad magic)")
    try:
        return _parse_image(data)
    except struct.error:
        raise CompileError("truncated bytecode image") from None


def _parse_image(data):
    off = 4
    version, tile_count = struct.unpack_from("<HH", data, off)
    off += 4
    if version != VERSION:
        raise CompileError(f"unsupported image version {version}")
    (nsyms,) = struct.unpack_from("<H", data, off)
    off += 2
    symbols = {}
    for _ in range(nsyms):
        sid, mid, ln = struct.unpack_from("<HHH", data, off)
        off += 6
        symbols[(sid, mid)] = data[off : off + ln].decode("utf-8")
        off += ln
    (nentries,) = struct.unpack_from("<I", data, off)
    off += 4
    code = {}
    for _ in range(nentries):
        addr, nwords = struct.unpack_from("<IH", data, off)
        off += 6
        code[addr] = struct.unpack_from(f"<{nwords}Q", data, off)
        off += 8 * nwords
    (root,) = struct.unpack_from("<Q", data, off)
    off += 8
    (arg_arity,) = struct.unpack_from("<H", data, off)
    return BytecodeImage(version, tile_count, symbols, code, root, arg_arity)


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
