"""GPIR compiler: nested S-expressions -> flat program -> 64-bit bytecode.

Flattening substitutes a fresh reference for every non-literal sub-expression,
producing a list of flat S-expressions (an operation name and its argument
words, never a nested list).  An argument is the 64-bit word the image stores,
in the layout of `words`: a reference, a constant or a variable, with its quote
bit.  Tile assignment rewrites the tile field of reference words; encoding
resolves the operation name and bounds the image's u16 counts.  The machine
checks the words when it boots (`vm.check_image`).  Addresses are dense from 0
in root-first, left-to-right order, so an entry's address is its index in the
list and the root is entry 0 on tile 0 (`ROOT`); lambda variables are
alpha-numbered to program-unique slot ids.  Compile-time addresses stay below
2**31, the upper half of the address space is reserved for code generated at
run time by beta reduction.

A `.gprm` image (version 2) holds, little-endian and in order: the header
(magic, version, tile count, symbol count); each symbol's service id, method
id and UTF-8 name; the entry count and the total word count; one u16 word
count per entry, by address; every entry's u64 words in one array; the host
argument count; and a CRC32 of every byte before it.  It stores no address
and no root: the order gives both.
"""

from __future__ import annotations

import itertools
import struct
import zlib
from dataclasses import dataclass, field

from . import lang
from . import words as W
from .kernels import KernelRegistry
from .words import (ADDR_MASK, KIND_CONST, KIND_REF, KIND_SHIFT, QUOTE_BIT, TILE_MASK,
                    TILE_SHIFT, VAR_WORD)

COMPILE_ADDR_LIMIT = 1 << 31
ROOT = 0  # the root: entry 0, on tile 0, so also its reference word

_FORM_CODES = {name: code for code, name in W.FORM_NAMES.items()}


class CompileError(lang.GpirError):
    pass


# ── Flat program ─────────────────────────────────────────────────────


@lang.node_class
class FlatEntry:
    op: str
    args: tuple  # argument words, in the layout of `words`


@dataclass
class FlatProgram:
    entries: list = field(default_factory=list)  # FlatEntry by address, the root first


def flat_lines(fp):
    """Debug rendering, one `rN => (op args...)` line per entry."""
    out = []
    for addr, e in enumerate(fp.entries):
        parts = " ".join([e.op] + [W.word_str(a) for a in e.args])
        out.append(f"r{addr} => ({parts})")
    return out


def used_operations(fp):
    """Service operation names appearing in the program (special forms excluded)."""
    return {e.op for e in fp.entries if e.op not in _FORM_CODES}


# ── Flatten ──────────────────────────────────────────────────────────


def flatten(e):
    """Desugared AST -> FlatProgram; labels become one shared entry each.

    An entry gets its address when the walk reaches it and its FlatEntry
    once its last argument is done; the open entries are an explicit stack.
    Each argument is packed as its word when the walk reaches it; references
    point at tile 0 until `assign_tiles` places their targets.
    """
    SExpr, Quoted, ConstInt, Var = lang.SExpr, lang.Quoted, lang.ConstInt, lang.Var
    entries, labels, stack = [], {}, []  # labels: name -> address
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
                    out.append(VAR_WORD | QUOTE_BIT | next_slot)
                    next_slot += 1
                items = items[-1:]
            frame = [next_addr, op, out, scope, items, 0]
            stack.append(frame)
            entries.append(None)  # filled once its last argument is done
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
            q = 0  # the quote bit of the argument's word
            while type(a) is Quoted:
                a, q = a.inner, QUOTE_BIT
            kind = type(a)
            if kind is ConstInt:
                out.append(W.mk_const(a.value, q))
            elif kind is SExpr:
                out.append(next_addr | q)
                node = a
                frame[5] = i  # descend; come back for argument i
                break
            elif kind is Var:
                slot = scope.get(a.name)
                if slot is None:
                    raise CompileError(f"unbound variable '{a.name}'")
                out.append(VAR_WORD | slot | q)
            elif kind is lang.Label or kind is lang.LabelRef:
                ref = labels.get(a.name)
                if ref is None:
                    if bodies is None:
                        bodies = lang.label_bodies(e)
                    node, scope = bodies.get(a.name), {}
                    if type(node) is not SExpr:
                        raise CompileError(f"label '{a.name}' body must be an S-expression")
                    ref = labels[a.name] = next_addr
                out.append(ref | q)
                if node is not None:
                    frame[5] = i
                    break
            else:
                raise CompileError(f"cannot flatten {a!r}")
        else:
            entries[addr] = FlatEntry(op, tuple(out))
            stack.pop()
    return FlatProgram(entries)


# ── Tile assignment ──────────────────────────────────────────────────


def assign_tiles(fp, tile_count):
    """Place entries on tiles: root on 0, siblings spread round-robin,
    an only child shares its parent's tile (dependent work can't overlap).

    A child reached from several entries stays where the first placed it.
    A placed reference has its word's tile field rewritten; entries whose
    references do not move are kept as they are."""
    if tile_count < 1:
        raise CompileError("tile count must be >= 1")
    entries = list(fp.entries)
    tile_of = {ROOT: 0}
    stack = [ROOT]
    while stack:  # depth first; an entry is rewritten once its children are placed
        addr = stack.pop()
        e = entries[addr]
        args = e.args
        refs = 0
        for a in args:
            if a >> KIND_SHIFT == KIND_REF:
                refs += 1
        if not refs:
            continue
        parent = tile_of[addr]
        base, i, j, out = len(stack), 0, 0, None  # i counts references, j arguments
        for a in args:
            if a >> KIND_SHIFT == KIND_REF:
                target = a & ADDR_MASK
                tile = tile_of.get(target)
                if tile is None:
                    tile = parent if refs == 1 else (parent + 1 + i) % tile_count
                    tile_of[target] = tile
                    stack.append(target)
                if tile != a >> TILE_SHIFT & TILE_MASK:
                    if out is None:
                        out = list(args)
                    out[j] = W.ref_with_tile(a, tile)
                i += 1
            j += 1
        if len(stack) - base > 1:
            stack[base:] = stack[base:][::-1]  # the first child's subtree is placed first
        if out is not None:
            entries[addr] = FlatEntry(e.op, tuple(out))
    if len(tile_of) < len(entries):  # entries the root does not reach: unplaced targets on 0
        for addr, e in enumerate(entries):
            if addr not in tile_of:
                args = tuple([W.ref_with_tile(a, tile_of.get(a & ADDR_MASK, 0))
                              if a >> KIND_SHIFT == KIND_REF else a for a in e.args])
                if args != e.args:
                    entries[addr] = FlatEntry(e.op, args)
    return FlatProgram(entries)


# ── Encode / decode ──────────────────────────────────────────────────


@dataclass
class BytecodeImage:
    tile_count: int
    symbols: dict  # (service_id, method_id) -> operation name
    code: list  # by address, the root first: a tuple of 64-bit words per entry
    arg_arity: int  # host arguments the program reads via ctrl.arg


def encode(fp, tile_count, registry):
    """FlatProgram -> BytecodeImage; names resolved against the registry snapshot.

    An entry's words are its operation word and its argument words as they are.
    The words are checked where they are run: `vm.check_image`, at boot."""
    if not fp.entries:
        raise CompileError("a program must have a root")
    symbols, code, op_words = {}, [], {}
    arg_arity = 0
    for addr, e in enumerate(fp.entries):
        op_word = op_words.get(e.op)
        if op_word is None:
            if e.op in _FORM_CODES:
                op_word = W.mk_builtin(_FORM_CODES[e.op])
            else:
                sid, mid, _spec = registry.resolve(e.op)
                symbols[(sid, mid)] = e.op
                op_word = W.mk_oper(sid, mid)
            op_words[e.op] = op_word
        args = e.args
        if len(args) >= MAX_IMAGE_COUNT:
            raise CompileError(f"entry r{addr} has {len(args) + 1} words; "
                               f"an image entry holds at most {MAX_IMAGE_COUNT}")
        if e.op == "ctrl.arg" and args and args[0] >> KIND_SHIFT == KIND_CONST:
            arg_arity = max(arg_arity, W.const_value(args[0]) + 1)
        code.append((op_word, *args))
    for what, count in (("tiles", tile_count), ("host arguments", arg_arity)):
        if count > MAX_IMAGE_COUNT:
            raise CompileError(f"{count} {what}; an image holds at most {MAX_IMAGE_COUNT}")
    return BytecodeImage(tile_count, symbols, code, arg_arity)


def decode(image):
    """BytecodeImage -> FlatProgram (inverse of encode)."""
    entries = []
    for addr, ws in enumerate(image.code):
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
        entries.append(FlatEntry(op, ws[1:]))
    return FlatProgram(entries)


# ── Image file I/O (.gprm) ───────────────────────────────────────────

MAGIC = b"GPRM"
VERSION = 2
MAX_IMAGE_COUNT = 0xFFFF  # a u16: an entry's word count, the tile and host argument counts


_HEADER = struct.Struct("<4sHHH")  # magic, version, tile count, symbol count
_SYMBOL = struct.Struct("<HHH")  # service id, method id, name length; the name follows
_COUNTS = struct.Struct("<II")  # entry count n, word count m; then "<{n}H{m}QH":
# each entry's word count by address, every entry's words, the host argument count
_CRC = struct.Struct("<I")  # CRC32 of every byte before it: an image's last 4 bytes


def image_to_bytes(image):
    code = image.code
    counts = [len(ws) for ws in code]
    nwords = sum(counts)
    out = [_HEADER.pack(MAGIC, VERSION, image.tile_count, len(image.symbols))]
    for (sid, mid), name in sorted(image.symbols.items()):
        raw = name.encode("utf-8")
        out += (_SYMBOL.pack(sid, mid, len(raw)), raw)
    out += (_COUNTS.pack(len(code), nwords),
            struct.pack(f"<{len(code)}H{nwords}QH", *counts, *itertools.chain.from_iterable(code),
                        image.arg_arity))
    body = b"".join(out)
    return body + _CRC.pack(zlib.crc32(body))


def image_from_bytes(data):
    """Bytes -> BytecodeImage.  The magic, the version and the checksum are
    checked, in that order, before the rest is read."""
    if data[:4] != MAGIC:
        raise CompileError("not a bytecode image (bad magic)")
    try:
        version = _HEADER.unpack_from(data)[1]
        if version != VERSION:
            raise CompileError(f"unsupported image version {version}")
        body = data[:-_CRC.size]
        if _CRC.unpack_from(data, len(body))[0] != zlib.crc32(body):
            raise CompileError("image checksum mismatch")
        return _parse_image(body)
    except struct.error:
        raise CompileError("truncated bytecode image") from None


def _parse_image(body):
    """The image in body, the bytes before its checksum."""
    tile_count, nsyms = _HEADER.unpack_from(body)[2:]
    off, symbols = _HEADER.size, {}
    for _ in range(nsyms):
        sid, mid, ln = _SYMBOL.unpack_from(body, off)
        try:
            symbols[(sid, mid)] = body[off + 6:off + 6 + ln].decode("utf-8")
        except UnicodeDecodeError:
            raise CompileError(f"symbol name of {sid}.{mid} is not UTF-8") from None
        off += 6 + ln
    nentries, nwords = _COUNTS.unpack_from(body, off)
    off += _COUNTS.size
    extra = len(body) - off - 2 * nentries - 8 * nwords - 2
    if extra > 0:
        raise CompileError(f"{extra} trailing bytes after the bytecode image")
    items = struct.unpack_from(f"<{nentries}H{nwords}QH", body, off)
    counts = items[:nentries]
    if 0 in counts:
        raise CompileError(f"entry r{counts.index(0)} has no words")
    if sum(counts) != nwords:
        raise CompileError(f"the entries hold {sum(counts)} words, the image {nwords}")
    code, end = [], nentries
    for n in counts:
        code.append(items[end:end + n])
        end += n
    return BytecodeImage(tile_count, symbols, code, items[-1])


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
