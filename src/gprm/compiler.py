"""GPIR compiler: nested S-expressions -> flat reference map -> 64-bit bytecode.

Flattening substitutes a fresh reference for every non-literal sub-expression,
producing a map of flat S-expressions (operation word + atom/reference
arguments, never a nested list).  Addresses are dense from 0 in root-first,
left-to-right order; lambda variables are alpha-numbered to program-unique
slot ids.  Compile-time addresses stay below 2**31, the upper half of the
address space is reserved for code generated at run time by beta reduction.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass, field

from . import lang
from . import words as W
from .kernels import KernelRegistry
from .words import (ADDR_MASK, CONST_MAX, CONST_MIN, CONST_WORD, PAYLOAD_MASK, QUOTE_BIT,
                    TILE_MASK, TILE_SHIFT, VAR_WORD)

COMPILE_ADDR_LIMIT = 1 << 31

_FORM_CODES = {name: code for code, name in W.FORM_NAMES.items()}


class CompileError(lang.GpirError):
    pass


# ── Flat program ─────────────────────────────────────────────────────


@lang.node_class
class WConst:
    value: int
    quoted: bool = False


@lang.node_class
class WVar:
    slot: int
    quoted: bool = False


@lang.node_class
class WRef:
    addr: int
    tile: int = 0
    quoted: bool = False


@lang.node_class
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
    SExpr, Quoted, ConstInt, Var = lang.SExpr, lang.Quoted, lang.ConstInt, lang.Var
    entries, labels, stack = {}, {}, []  # labels: name -> address
    bodies = None  # name -> label body, collected on the first label reached
    next_addr = next_slot = 0
    node, scope = e, {}  # the S-expression to open an entry for next, and its scope
    if isinstance(e, lang.Label):  # the root is the label's entry
        bodies = lang.label_bodies(e)
        node = bodies[e.name]
        if type(node) is not SExpr:
            raise CompileError(f"label '{e.name}' body must be an S-expression")
        labels[e.name] = 0
    elif not isinstance(e, SExpr):
        raise CompileError("program must be an operation-rooted S-expression")
    while True:
        if node is not None:  # open it: its entry takes the next address
            if next_addr >= COMPILE_ADDR_LIMIT:
                raise CompileError("address space exhausted")
            op = node.op.name
            if op in lang.SUGAR_FORMS:
                raise CompileError(f"flatten requires a desugared tree, found '{op}'")
            out, items = [], node.args
            if op == lang.FORM_LAMBDA:
                scope = dict(scope)
                for f in items[:-1]:
                    scope[f.inner.name] = next_slot
                    out.append(WVar(next_slot, quoted=True))
                    next_slot += 1
                items = items[-1:]
            frame = [next_addr, op, out, scope, items, 0]
            stack.append(frame)
            next_addr += 1
            node = None
        elif stack:
            frame = stack[-1]
        else:
            break
        addr, op, out, scope, items, i = frame
        n = len(items)
        while i < n:
            a = items[i]
            i += 1
            quoted = False
            while type(a) is Quoted:
                a, quoted = a.inner, True
            kind = type(a)
            if kind is ConstInt:
                out.append(WConst(a.value, quoted))
            elif kind is SExpr:
                out.append(WRef(next_addr, 0, quoted))
                node = a
                frame[5] = i  # descend; come back for argument i
                break
            elif kind is Var:
                slot = scope.get(a.name)
                if slot is None:
                    raise CompileError(f"unbound variable '{a.name}'")
                out.append(WVar(slot, quoted))
            elif kind is lang.Label or kind is lang.LabelRef:
                ref = labels.get(a.name)
                if ref is None:
                    if bodies is None:
                        bodies = lang.label_bodies(e)
                    node, scope = bodies.get(a.name), {}
                    if type(node) is not SExpr:
                        raise CompileError(f"label '{a.name}' body must be an S-expression")
                    ref = labels[a.name] = next_addr
                out.append(WRef(ref, 0, quoted))
                if node is not None:
                    frame[5] = i
                    break
            else:
                raise CompileError(f"cannot flatten {a!r}")
        else:
            entries[addr] = FlatEntry(op, tuple(out))
            stack.pop()
    return FlatProgram(entries, 0)


# ── Tile assignment ──────────────────────────────────────────────────


def assign_tiles(fp, tile_count):
    """Place entries on tiles: root on 0, siblings spread round-robin,
    an only child shares its parent's tile (dependent work can't overlap).

    A child reached from several entries stays where the first placed it.
    Entries whose references do not move are kept as they are."""
    if tile_count < 1:
        raise CompileError("tile count must be >= 1")
    entries = dict(fp.entries)
    tile_of = {fp.root: 0}
    stack = [fp.root]
    while stack:  # depth first; an entry is rewritten once its children are placed
        addr = stack.pop()
        e = entries[addr]
        args = e.args
        refs = 0
        for a in args:
            if type(a) is WRef:
                refs += 1
        if not refs:
            continue
        parent = tile_of[addr]
        base, i, j, out = len(stack), 0, 0, None  # i counts references, j arguments
        for a in args:
            if type(a) is WRef:
                tile = tile_of.get(a.addr)
                if tile is None:
                    tile = parent if refs == 1 else (parent + 1 + i) % tile_count
                    tile_of[a.addr] = tile
                    stack.append(a.addr)
                if tile != a.tile:
                    if out is None:
                        out = list(args)
                    out[j] = WRef(a.addr, tile, a.quoted)
                i += 1
            j += 1
        if len(stack) - base > 1:
            stack[base:] = stack[base:][::-1]  # the first child's subtree is placed first
        if out is not None:
            entries[addr] = FlatEntry(e.op, tuple(out))
    if len(tile_of) < len(entries):  # entries the root does not reach: unplaced targets on 0
        for addr, e in entries.items():
            if addr not in tile_of and any(type(a) is WRef and a.tile != tile_of.get(a.addr, 0)
                                           for a in e.args):
                entries[addr] = FlatEntry(e.op, tuple([
                    WRef(a.addr, tile_of.get(a.addr, 0), a.quoted) if type(a) is WRef else a
                    for a in e.args]))
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
    """FlatProgram -> BytecodeImage; names resolved against the registry snapshot.

    Words are packed inline, with the layout constants of `words`."""
    if not fp.entries:
        raise CompileError("a program must have a root")
    symbols, code, op_words = {}, {}, {}
    arg_arity = 0
    entries = fp.entries
    for addr in sorted(entries):
        e = entries[addr]
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
            if kind is WRef:
                tile, ref = a.tile, a.addr
                if tile >= tile_count:
                    raise CompileError(f"tile id {tile} out of range for {tile_count} tiles")
                if not 0 <= ref <= ADDR_MASK:
                    raise ValueError(f"code address out of range: {ref}")
                if not 0 <= tile <= TILE_MASK:
                    raise ValueError(f"tile id out of range: {tile}")
                w = tile << TILE_SHIFT | ref
            elif kind is WConst:
                value = a.value
                if not CONST_MIN <= value <= CONST_MAX:
                    raise ValueError(f"constant out of 32-bit range: {value}")
                w = CONST_WORD | value & PAYLOAD_MASK
            else:
                w = VAR_WORD | a.slot & PAYLOAD_MASK
            ws.append(w | QUOTE_BIT if a.quoted else w)
        if len(ws) > MAX_IMAGE_COUNT:
            raise CompileError(f"entry r{addr} has {len(ws)} words; "
                               f"an image entry holds at most {MAX_IMAGE_COUNT}")
        if e.op == "ctrl.arg" and e.args and isinstance(e.args[0], WConst):
            arg_arity = max(arg_arity, e.args[0].value + 1)
        code[addr] = tuple(ws)
    for what, count in (("tiles", tile_count), ("host arguments", arg_arity)):
        if count > MAX_IMAGE_COUNT:
            raise CompileError(f"{count} {what}; an image holds at most {MAX_IMAGE_COUNT}")
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
MAX_IMAGE_COUNT = 0xFFFF  # a u16: an entry's word count, the tile and host argument counts


_HEADER = struct.Struct("<4sHHH")  # magic, version, tile count, symbol count
_SYMBOL = struct.Struct("<HHH")  # service id, method id, name length; the name follows
_COUNT = struct.Struct("<I")  # entry count
_ENTRY = struct.Struct("<IH")  # address, word count; the words follow
_TRAILER = struct.Struct("<QH")  # root word, host argument count


@functools.lru_cache(maxsize=256)
def _pack_entry(n):
    """struct.pack for an entry of n words: address, word count, words."""
    return struct.Struct(f"<IH{n}Q").pack


@functools.lru_cache(maxsize=256)
def _unpack_words(n):
    """struct.unpack_from for n words."""
    return struct.Struct(f"<{n}Q").unpack_from


def image_to_bytes(image):
    out = [_HEADER.pack(MAGIC, image.version, image.tile_count, len(image.symbols))]
    for (sid, mid), name in sorted(image.symbols.items()):
        raw = name.encode("utf-8")
        out += (_SYMBOL.pack(sid, mid, len(raw)), raw)
    out.append(_COUNT.pack(len(image.code)))
    code = image.code
    for addr in sorted(code):
        ws = code[addr]
        out.append(_pack_entry(len(ws))(addr, len(ws), *ws))
    out.append(_TRAILER.pack(image.root, image.arg_arity))
    return b"".join(out)


def image_from_bytes(data):
    if data[:4] != MAGIC:
        raise CompileError("not a bytecode image (bad magic)")
    try:
        return _parse_image(data)
    except struct.error:
        raise CompileError("truncated bytecode image") from None


def _parse_image(data):
    version, tile_count, nsyms = _HEADER.unpack_from(data)[1:]
    if version != VERSION:
        raise CompileError(f"unsupported image version {version}")
    off, symbols = _HEADER.size, {}
    for _ in range(nsyms):
        sid, mid, ln = _SYMBOL.unpack_from(data, off)
        try:
            symbols[(sid, mid)] = data[off + 6:off + 6 + ln].decode("utf-8")
        except UnicodeDecodeError:
            raise CompileError(f"symbol name of {sid}.{mid} is not UTF-8") from None
        off += 6 + ln
    (nentries,) = _COUNT.unpack_from(data, off)
    off += 4
    code = {}
    for _ in range(nentries):
        addr, n = _ENTRY.unpack_from(data, off)
        code[addr] = _unpack_words(n)(data, off + 6)
        off += 6 + 8 * n
    extra = len(data) - off - _TRAILER.size
    if extra > 0:
        raise CompileError(f"{extra} trailing bytes after the bytecode image")
    root, arg_arity = _TRAILER.unpack_from(data, off)
    return BytecodeImage(version, tile_count, symbols, code, root, arg_arity)


def write_image(image, path):
    data = image_to_bytes(image)  # before the file exists, so a failure leaves none
    with open(path, "wb") as f:
        f.write(data)


def read_image(path):
    with open(path, "rb") as f:
        return image_from_bytes(f.read())


# ── Pipeline ─────────────────────────────────────────────────────────


def compile_text(text, tile_count, registry=None):
    """parse -> desugar -> flatten -> assign_tiles -> encode.

    Deterministic: identical inputs give byte-identical images.
    """
    return compile_flat(flatten(lang.desugar(lang.parse(text))), tile_count, registry)


def compile_flat(fp, tile_count, registry=None):
    """assign_tiles -> encode, the stages of compile_text after flatten."""
    if registry is None:
        registry = KernelRegistry()
    return encode(assign_tiles(fp, tile_count), tile_count, registry)
