"""64-bit byteword encoding.

Layout (bit 63 high):

    kind(4) | quoted(1) | reserved(11) | payload(48)

kinds: Reference=0, ConstInt=1, Operation=2, Var=3, Builtin=4, plus the
runtime-value kinds Handle=5 (opaque handle-table index) and Error=6.

payloads:
    Reference  tile_id(16) ++ code_addr(32)   -- contiguous so a tile rewrite
                                                 is a single field store
    ConstInt   32-bit signed value, sign-extended to 48 bits
    Operation  service_id(16) ++ method_id(16) ++ zero(16)
    Var        unique slot index assigned by the flattener
    Builtin    special form code (lambda=1, beta=2, if=3)
    Handle     handle-table index
    Error      handle-table index of the error record

The quoted bit is meaningful on Reference, ConstInt and Var words only.

The constants below name the field positions, for code that decodes or packs
words inline with shifts and masks instead of a call per word: `w >> KIND_SHIFT`
is the kind, `w < QUOTE_BIT` holds only for an unquoted reference, and
`(w >> TILE_SHIFT) & TILE_MASK` is a reference's tile.
"""

KIND_REF = 0
KIND_CONST = 1
KIND_OPER = 2
KIND_VAR = 3
KIND_BUILTIN = 4
KIND_HANDLE = 5
KIND_ERROR = 6

FORM_CODE_LAMBDA = 1
FORM_CODE_BETA = 2
FORM_CODE_IF = 3

KIND_SHIFT = 60
QUOTE_SHIFT = 59
QUOTE_BIT = 1 << QUOTE_SHIFT
PAYLOAD_MASK = (1 << 48) - 1
SIGN_BIT_48 = 1 << 47  # a 48-bit payload p sign-extends as (p ^ SIGN_BIT_48) - SIGN_BIT_48
TILE_SHIFT = 32
TILE_MASK = 0xFFFF
ADDR_MASK = 0xFFFFFFFF
CONST_MIN = -(1 << 31)
CONST_MAX = (1 << 31) - 1
CONST_WORD = KIND_CONST << KIND_SHIFT  # CONST_WORD | (v & PAYLOAD_MASK) is the constant v
VAR_WORD = KIND_VAR << KIND_SHIFT  # VAR_WORD | slot is the variable word of slot

QUOTABLE_KINDS = (KIND_REF, KIND_CONST, KIND_VAR)


def _pack(kind, payload, quoted=False):
    word = (kind << KIND_SHIFT) | (payload & PAYLOAD_MASK)
    if quoted:
        if kind not in QUOTABLE_KINDS:
            raise ValueError(f"kind {kind} cannot carry a quote")
        word |= QUOTE_BIT
    return word


def kind_of(w):
    return (w >> KIND_SHIFT) & 0xF


def is_quoted(w):
    return bool(w & QUOTE_BIT)


def clear_quote(w):
    return w & ~QUOTE_BIT


def set_quote(w):
    if kind_of(w) not in QUOTABLE_KINDS:
        raise ValueError("word kind cannot carry a quote")
    return w | QUOTE_BIT


def mk_ref(addr, tile=0, quoted=False):
    if not 0 <= addr <= ADDR_MASK:
        raise ValueError(f"code address out of range: {addr}")
    if not 0 <= tile <= TILE_MASK:
        raise ValueError(f"tile id out of range: {tile}")
    return _pack(KIND_REF, (tile << TILE_SHIFT) | addr, quoted)


def ref_addr(w):
    return w & ADDR_MASK


def ref_tile(w):
    return (w >> TILE_SHIFT) & TILE_MASK


def ref_with_tile(w, tile):
    """Overwrite the tile field; used by the run-time scheduler restart."""
    return (w & ~(TILE_MASK << TILE_SHIFT)) | ((tile & TILE_MASK) << TILE_SHIFT)


def mk_const(value, quoted=False):
    if not CONST_MIN <= value <= CONST_MAX:
        raise ValueError(f"constant out of 32-bit range: {value}")
    return _pack(KIND_CONST, value & PAYLOAD_MASK, quoted)


def const_value(w):
    return ((w & PAYLOAD_MASK) ^ SIGN_BIT_48) - SIGN_BIT_48


def mk_oper(service_id, method_id):
    return _pack(KIND_OPER, (service_id << 32) | (method_id << 16))


def oper_ids(w):
    return (w >> 32) & 0xFFFF, (w >> 16) & 0xFFFF


def mk_var(slot, quoted=False):
    return _pack(KIND_VAR, slot, quoted)


def var_slot(w):
    return w & PAYLOAD_MASK


def mk_builtin(form_code):
    return _pack(KIND_BUILTIN, form_code)


def builtin_form(w):
    return w & PAYLOAD_MASK


def mk_handle(index):
    return _pack(KIND_HANDLE, index)


def handle_index(w):
    return w & PAYLOAD_MASK


def mk_error(index):
    return _pack(KIND_ERROR, index)


FORM_NAMES = {FORM_CODE_LAMBDA: "lambda", FORM_CODE_BETA: "beta", FORM_CODE_IF: "if"}


def word_str(w, symbols=None):
    """Human-readable word rendering for traces and debugging."""
    k = kind_of(w)
    q = "'" if is_quoted(w) else ""
    if k == KIND_REF:
        return f"{q}r{ref_addr(w)}@t{ref_tile(w)}"
    if k == KIND_CONST:
        return f"{q}{const_value(w)}"
    if k == KIND_VAR:
        return f"{q}v{var_slot(w)}"
    if k == KIND_OPER:
        sid, mid = oper_ids(w)
        name = (symbols or {}).get((sid, mid), f"{sid}.{mid}")
        return name
    if k == KIND_BUILTIN:
        return FORM_NAMES.get(builtin_form(w), f"form{builtin_form(w)}")
    if k == KIND_HANDLE:
        return f"h{handle_index(w)}"
    if k == KIND_ERROR:
        return f"err{handle_index(w)}"
    return f"?{w:016x}"
