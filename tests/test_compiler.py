"""Flattening, tile assignment, encoding, image files."""

import hashlib
import random
import struct
import zlib
from pathlib import Path

import pytest

from gprm import bench, cli, compiler, kernels, lang, vm, words as W
from gprm.gpc import compile_gpc
from gprm.compiler import (
    ROOT,
    CompileError,
    FlatEntry,
    FlatProgram,
    assign_tiles,
    compile_flat,
    compile_text,
    decode,
    encode,
    flat_lines,
    flatten,
    image_from_bytes,
    image_to_bytes,
    read_image,
    used_operations,
    write_image,
)
from gprm.oracle import evaluate

from conftest import ProgramGen, fresh_registry


def flat_of(text, tiles=None):
    fp = flatten(lang.desugar(lang.parse(text)))
    return assign_tiles(fp, tiles) if tiles else fp


def stub_reg(**services):
    reg = fresh_registry()
    for name, methods in services.items():
        kernels.add_stub_service(reg, name, methods)
    return reg


def test_flatten_composition_golden():
    fp = flat_of("(t1.m2 (t2.m3 '42) (t3.m4))")
    assert fp.entries[ROOT].op == "t1.m2"
    assert flat_lines(fp) == [
        "r0 => (t1.m2 r1@t0 r2@t0)",
        "r1 => (t2.m3 '42)",
        "r2 => (t3.m4)",
    ]


def test_flatten_lambda_golden():
    fp = flat_of("(lambda 'x '(* (- x '1) (+ x '1)))")
    assert flat_lines(fp) == [
        "r0 => (lambda 'v0 'r1@t0)",
        "r1 => (* r2@t0 r3@t0)",
        "r2 => (- v0 '1)",
        "r3 => (+ v0 '1)",
    ]


def test_flatten_single_leaf():
    fp = flat_of("(t3.m4)")
    assert flat_lines(fp) == ["r0 => (t3.m4)"]


def test_flat_lines_every_argument_kind():
    # references quoted and not on tiles above 0, a quoted variable, a negative constant
    fp = flat_of("(beta (lambda 'x '(+ x '-3)) (* '2 '5))", tiles=4)
    assert flat_lines(fp) == [
        "r0 => (beta r1@t1 r3@t2)",
        "r1 => (lambda 'v0 'r2@t1)",
        "r2 => (+ v0 '-3)",
        "r3 => (* '2 '5)",
    ]


def test_label_shares_entry():
    fp = flat_of("(t1.m1 (label L (t2.m2 '1)) L L)")
    assert flat_lines(fp) == ["r0 => (t1.m1 r1@t0 r1@t0 r1@t0)", "r1 => (t2.m2 '1)"]


def test_assign_tiles_siblings_round_robin():
    fp = flat_of("(t1.m2 (t2.m3 '42) (t3.m4))", tiles=4)
    assert flat_lines(fp)[0] == "r0 => (t1.m2 r1@t1 r2@t2)"


def test_assign_tiles_single_tile():
    fp = flat_of("(t1.m2 (t2.m3 (t4.m1 '1)) (t3.m4))", tiles=1)
    for e in fp.entries:
        for a in e.args:
            if W.kind_of(a) == W.KIND_REF:
                assert W.ref_tile(a) == 0


def test_assign_tiles_chain_shares():
    fp = flat_of("(a.m (b.m '1))", tiles=8)
    assert flat_lines(fp)[0] == "r0 => (a.m r1@t0)"  # only child shares tile 0


def test_chain_trace_never_leaves_tile_zero():
    from conftest import execute

    reg = stub_reg(a=["m"], b=["m"])
    out = execute("(a.m (b.m '1))", threads=8, registry=reg, trace=True, keep=True)
    try:
        gw = out.machine.gateway_tile
        for pkt in out.trace:
            assert pkt.src in (0, gw) and pkt.dst in (0, gw)
    finally:
        out.machine.shutdown()


def test_encode_decode_golden():
    fp = flat_of("(t1.m2 (t2.m3 '42) (t3.m4))", tiles=4)
    reg = stub_reg(t1=["m2"], t2=["m3"], t3=["m4"])
    img = encode(fp, 4, reg)
    assert len(img.code) == 3
    assert img.code[ROOT][0] == W.mk_oper(*reg.resolve("t1.m2")[:2])
    assert decode(img) == fp


def test_quoted_const_word_has_quote_bit():
    fp = flat_of("(t2.m3 '42)", tiles=1)
    img = encode(fp, 1, stub_reg(t2=["m3"]))
    w = img.code[0][1]
    assert W.kind_of(w) == W.KIND_CONST and W.is_quoted(w)
    assert W.const_value(w) == 42


def test_encode_empty_program_rejected():
    with pytest.raises(CompileError, match="root"):
        encode(compiler.FlatProgram([]), 1, fresh_registry())


def test_encode_unknown_service():
    fp = flat_of("(nosuch.m '1)", tiles=1)
    with pytest.raises(kernels.UnknownServiceError, match="unknown service"):
        encode(fp, 1, fresh_registry())


def test_registry_without_ctrl_fails_ctrl_run():
    reg = kernels.KernelRegistry()  # builtins only
    with pytest.raises(kernels.UnknownServiceError):
        compile_text("(ctrl.run '(+ '1 '2) '0)", 2, reg)


def test_image_bytes_roundtrip(tmp_path):
    reg = stub_reg(t1=["m2"], t2=["m3"], t3=["m4"])
    img = compile_text("(t1.m2 (t2.m3 '42) (t3.m4))", 4, reg)
    blob = image_to_bytes(img)
    assert image_to_bytes(image_from_bytes(blob)) == blob
    path = tmp_path / "x.gprm"
    write_image(img, path)
    img2 = read_image(path)
    assert image_to_bytes(img2) == blob


def test_encode_bounds_the_words_of_an_entry():
    # an entry's word count is a u16 in the image: 65535 words fit
    reg = stub_reg(t1=["m1"])
    fp = flat_of("(t1.m1" + " '1" * 65534 + ")", tiles=1)
    blob = image_to_bytes(encode(fp, 1, reg))
    assert len(image_from_bytes(blob).code[0]) == 65535
    fp = flat_of("(t1.m1" + " '1" * 65535 + ")", tiles=1)
    with pytest.raises(CompileError,
                       match="r0 has 65536 words; an image entry holds at most 65535"):
        encode(fp, 1, reg)


@pytest.mark.parametrize("text, tiles, message", [
    ("(ctrl.arg '65535)", 1, "65536 host arguments; an image holds at most 65535"),
    ("(+ '1 '2)", 65536, "65536 tiles; an image holds at most 65535"),
])
def test_encode_bounds_the_counts_of_an_image(text, tiles, message):
    with pytest.raises(CompileError, match=message):
        compile_text(text, tiles, fresh_registry())
    assert compile_text(text.replace("65535", "65534"), min(tiles, 65535), fresh_registry())


def test_constant_out_of_range_in_a_hand_built_ast_refused():
    big = lang.Quoted(lang.ConstInt(2**31))
    ast = lang.SExpr(lang.Operation("+"), (big, lang.Quoted(lang.ConstInt(1))))
    with pytest.raises(ValueError, match=r"^constant out of 32-bit range: 2147483648$"):
        compile_flat(flatten(ast), 1)


def test_image_with_a_zero_word_entry_is_refused_at_load():
    # an entry is at least its operation word; decode and run() used to
    # raise a raw IndexError on one without
    img = compile_text("(+ '1 (+ '2 '3))", 1, fresh_registry())
    img.code[1] = ()
    with pytest.raises(CompileError, match=r"^entry r1 has no words$"):
        image_from_bytes(image_to_bytes(img))


def test_write_image_that_cannot_be_serialized_leaves_no_file(tmp_path):
    img = compile_text("(t3.m4)", 1, stub_reg(t3=["m4"]))
    img.code[0] = img.code[0] + (1 << 64,)  # no u64
    path = tmp_path / "x.gprm"
    with pytest.raises(struct.error):
        write_image(img, path)
    assert not path.exists()


def test_assign_tiles_rewrites_only_the_entries_whose_references_move():
    ref = W.mk_ref
    e = [
        FlatEntry("f", (ref(1), ref(2), ref(1, 0, True))),
        FlatEntry("f", (ref(3), W.mk_const(1))),
        FlatEntry("f", ()),
        FlatEntry("f", ()),
        FlatEntry("f", (ref(2), ref(5, 3))),  # unreachable from the root
        FlatEntry("f", ()),
        FlatEntry("f", (ref(5),)),  # unreachable, and nothing moves
    ]
    out = assign_tiles(FlatProgram(list(e)), 3).entries
    assert flat_lines(FlatProgram(out)) == [
        "r0 => (f r1@t1 r2@t2 'r1@t1)",
        "r1 => (f r3@t1 1)",  # an only child shares its tile
        "r2 => (f)",
        "r3 => (f)",
        "r4 => (f r2@t2 r5@t0)",  # a target never placed: tile 0
        "r5 => (f)",
        "r6 => (f r5@t0)",
    ]
    assert all(out[a] is e[a] for a in (2, 3, 5, 6))


def with_crc(body):
    """body, the bytes of an image before its checksum, with a checksum that
    matches, so that an edit of them reaches the check after the CRC."""
    return body + struct.pack("<I", zlib.crc32(body))


def test_image_bad_bytes_rejected():
    with pytest.raises(CompileError, match="bad magic"):
        image_from_bytes(b"NOPE" + b"\x00" * 20)
    reg = stub_reg(t3=["m4"])
    blob = image_to_bytes(compile_text("(t3.m4)", 1, reg))
    with pytest.raises(CompileError, match="^truncated bytecode image$"):
        image_from_bytes(with_crc(blob[:-8]))
    flipped = blob[:-5] + bytes([blob[-5] ^ 1]) + blob[-4:]  # the host argument count
    with pytest.raises(CompileError, match="^image checksum mismatch$"):
        image_from_bytes(flipped)


def test_compile_deterministic():
    reg1 = stub_reg(t1=["m2"], t2=["m3"], t3=["m4"])
    reg2 = stub_reg(t1=["m2"], t2=["m3"], t3=["m4"])
    a = image_to_bytes(compile_text("(t1.m2 (t2.m3 '42) (t3.m4))", 4, reg1))
    b = image_to_bytes(compile_text("(t1.m2 (t2.m3 '42) (t3.m4))", 4, reg2))
    assert a == b


def test_ctrl_run_first_argument_quoted_reference():
    reg = stub_reg(t1=["m1"])
    img = compile_text("(ctrl.run '(t1.m1) '3)", 4, reg)
    fp = decode(img)
    arg0 = fp.entries[ROOT].args[0]
    assert W.kind_of(arg0) == W.KIND_REF and W.is_quoted(arg0)


def test_arg_arity_scanned():
    img = compile_text("(+ (ctrl.arg '0) (ctrl.arg '3))", 1, fresh_registry())
    assert img.arg_arity == 4


def test_address_space_exhausted(monkeypatch):
    monkeypatch.setattr(compiler, "COMPILE_ADDR_LIMIT", 2)
    with pytest.raises(CompileError, match="address space exhausted"):
        flat_of("(t1.m2 (t2.m3 '42) (t3.m4))")


def test_used_operations():
    fp = flat_of("(beta (lambda 'x '(+ x (t1.m1))) '2)")
    assert used_operations(fp) == {"+", "t1.m1"}


def _count_quotes_ast(e):
    if isinstance(e, lang.Quoted):
        return 1 + _count_quotes_ast(e.inner)
    if isinstance(e, lang.SExpr):
        return sum(_count_quotes_ast(a) for a in e.args)
    if isinstance(e, lang.Label):
        return _count_quotes_ast(e.body)
    return 0


def _count_quotes_flat(fp):
    return sum(W.is_quoted(a) for e in fp.entries for a in e.args)


def test_quote_placement_preserved_generated():
    rng = random.Random(77)
    gen = ProgramGen(rng)
    for _ in range(30):
        ast = lang.desugar(lang.parse(gen.program(depth=5)))
        fp = flatten(ast)
        assert _count_quotes_ast(ast) == _count_quotes_flat(fp)


def test_encode_decode_bijection_generated():
    rng = random.Random(78)
    gen = ProgramGen(rng)
    reg = fresh_registry()
    for _ in range(30):
        tiles = rng.choice((1, 2, 4, 8))
        fp = flat_of(gen.program(depth=5), tiles=tiles)
        img = encode(fp, tiles, reg)
        assert decode(img) == fp
        assert image_to_bytes(image_from_bytes(image_to_bytes(img))) == image_to_bytes(img)


def test_image_trailing_bytes_rejected():
    blob = image_to_bytes(compile_text("(t3.m4)", 1, stub_reg(t3=["m4"])))
    with pytest.raises(CompileError, match="1 trailing bytes"):
        image_from_bytes(with_crc(blob[:-4] + b"\x00"))


def test_image_symbol_name_not_utf8_rejected():
    blob = image_to_bytes(compile_text("(t3.m4)", 1, stub_reg(t3=["m4"])))
    name = blob.index(b"t3.m4")
    with pytest.raises(CompileError, match="not UTF-8"):
        image_from_bytes(with_crc(blob[:name] + b"\xff" + blob[name + 1:-4]))


def test_deep_chain_compiles_and_runs():
    depth = 5000
    text = "(+ '1 " * depth + "'2" + ")" * depth
    reg = fresh_registry()
    img = compile_text(text, 2, reg)
    assert len(img.code) == depth
    with vm.Machine(img, reg, 2) as m:
        assert m.run_value() == evaluate(text, reg)


# ── byte-identical images ────────────────────────────────────────────

PROGRAMS = Path(__file__).resolve().parent.parent / "programs"

FIB_GPC = """
int fib(int n) {
  if (n < 2) {
    return n;
  } else {
    return fib(n - 1) + fib(n - 2);
  }
}

int GPRM::main() {
  return fib(15);
}
"""


def _plus_tree(leaves):
    if len(leaves) == 1:
        return f"'{leaves[0]}"
    mid = len(leaves) // 2
    return f"(+ {_plus_tree(leaves[:mid])} {_plus_tree(leaves[mid:])})"


def _golden_sources(tiles):
    for path in sorted(PROGRAMS.iterdir()):
        text = path.read_text()
        if path.suffix == ".gpc":
            text = compile_gpc(text, num_threads=tiles)
        yield path.name, text
    yield "mergesort_gpir", bench.mergesort_gpir(tiles)
    yield "fib15", compile_gpc(FIB_GPC)
    rng = random.Random(10)
    yield "tree10", _plus_tree([rng.randint(-2**31, 2**31 - 1) for _ in range(1 << 10)])
    yield "tiny", "(beta (lambda 'x '(* (- x '1) (+ x '1))) (ctrl.arg '0))"
    yield "labels", "(t1.m1 (label L (+ '1 '2)) L (beta (lambda 'x 'y '(+ x y)) L '3))"
    yield "sugar", "(begin (let (assign 'x (+ '1 '2)) '(return (* x x))) (return '5))"
    # L is reached from both subtrees of the root; the first to reach it places it
    yield "shared", "(t1.m1 (t2.m1 '1 L (+ L '2)) (t3.m1 (* '1 '2) (label L (+ '1 '2))))"


# SHA-256 of image_to_bytes, recorded with the version-2 layout; every image's
# entries, symbols and counts are those of the version-1 image before it
GOLDEN_IMAGES = {
    ("compute.gpc", 1): "b330845c37aa8048224235b881bb047235bfced0eb2638ee50a397257f0f57de",
    ("mergesort.gpc", 1): "1c82ca3f2696ab0bc345523bb370bffdcc1ba494e2f5f9e063dd97bf4657b092",
    ("square_minus_one.gpir", 1): "9cf6779e878120d0fdab19eb902ed4e82312116be10d9f4ae2df6467d1f253cc",
    ("three_tasks.gpir", 1): "8637588f86ea5423550652d7842b7d1f4c49c5682785b4f201fdc8bd48733ecf",
    ("mergesort_gpir", 1): "1c82ca3f2696ab0bc345523bb370bffdcc1ba494e2f5f9e063dd97bf4657b092",
    ("fib15", 1): "e9315dc31844d1b9c523eee9a607fd4dda7b2fc6662516294f453498f2c13917",
    ("tree10", 1): "2768260631d5eacd7ba7d070c4bb865928bbe108045641a241e73a0e5c8f6de8",
    ("tiny", 1): "74c6885935db1a1b1337d60f8633f5a12692e6055de6f7f9979c22baaedae0da",
    ("labels", 1): "d72979e14b232f5b8f79179b037b7ba797eb31cfb696e032e1c61ed968b79641",
    ("sugar", 1): "c0a49f00a5d30a6cbeea7163376e67e9f628ce86cc27003df11c0024cbcba23c",
    ("shared", 1): "248df3c721bbd3d883a2aba12150850aadeb6d4536128943f48d461e4cef7ebe",
    ("compute.gpc", 2): "f0cdfd2f317c91cc3b2fa8121396a88de28b52004b9e6c34f3a95244c4394068",
    ("mergesort.gpc", 2): "19d71f1dc0c58d6332323bc52939db5812108de4e4ba0c19daea928f8624a9fc",
    ("square_minus_one.gpir", 2): "47e43116efc6df6e94c1aeb0647900a44934b9090a1a74e980dd8cc384552db5",
    ("three_tasks.gpir", 2): "a0237254ee51524782f7d6648499047d2a5a39305eca98bd1a11dd80f3e8644b",
    ("mergesort_gpir", 2): "19d71f1dc0c58d6332323bc52939db5812108de4e4ba0c19daea928f8624a9fc",
    ("fib15", 2): "220d1455e59cd57a49390d963db35184220328a6770c33aef7fc8f6c14089b3f",
    ("tree10", 2): "7b8e4cbea49bb48555f5e5377c601bb01e4e1618c4bfab3ec10120041a2a8f5a",
    ("tiny", 2): "41d218afaf2bf05b7a1af05768e643872c5579de83a41d1c901a41a15d936b38",
    ("labels", 2): "b8694d99dd7087277790032b2193ef906c59f9da7453d9a2cd8e1e0969fd8745",
    ("sugar", 2): "44cc831de32226fbfc80af6688644f9be44fd2e44be76a46765dae0155ef068c",
    ("shared", 2): "9d99c688d390d34ba1df3211b6875f75d118d96669f0da1ace42474f8a0018aa",
    ("compute.gpc", 4): "dad5dae3cf87053da6f8fd41dc066cc0e6c39f5573a028807caf6dde0f6cef56",
    ("mergesort.gpc", 4): "57277c31ffa113e218ceb08e7ef17775e54b9d096a98eea33d40b38ac78841a3",
    ("square_minus_one.gpir", 4): "cdbcba2ec1213213070b2d2776f148cc745d0e090ab157324b74314ce4aca6a0",
    ("three_tasks.gpir", 4): "4b10e3abdefe2471e99e6e829fd901bc0c0890b7dd032ae88d1d0a76b4543aab",
    ("mergesort_gpir", 4): "57277c31ffa113e218ceb08e7ef17775e54b9d096a98eea33d40b38ac78841a3",
    ("fib15", 4): "47d6cf519aba648a03c7271e57478aa73c4313a4b6aa8fbc23d352e3ccd337b9",
    ("tree10", 4): "69d55577984e52126651c8e7e1387c60028256a4c4e8dbeb7a2a8d15022e1e5b",
    ("tiny", 4): "6c515446841cd9cb6fff92236938eca2d2b89548ecbd7389140f220f9766032a",
    ("labels", 4): "78aaef9283e4dc49e293f431c49846e865a175ad0413c72b9205e75ae50997cb",
    ("sugar", 4): "bd6be6acee84a8a551370a15aac77c5ec624d6a78a2829a471671d57e2f00948",
    ("shared", 4): "53a0a1b3f89d060ff2d9f869405aa0e388ef085cd52f53c06e6433bb8a0df90b",
}

GOLDEN_GENERATED = {
    1: "1616d8e722e966de0d1e5774f1527b6721b84db49902db07799a7a094a387e89",
    2: "82df98a54b2c6785ad2a055cca4d7d268a3d455953d0f4fe0187e8a0b5ed8ca8",
    4: "0093641fa64e5d3a271e6fbba03627a2f47393bf14d2c9dcd60f3171ef3d892f",
}


def _registry_for_text(text):
    return cli._registry_for_flat(flatten(lang.desugar(lang.parse(text))))


@pytest.mark.parametrize("tiles", [1, 2, 4])
def test_images_byte_identical_to_golden(tiles):
    got = {}
    for name, text in _golden_sources(tiles):
        img = compile_text(text, tiles, _registry_for_text(text))
        blob = image_to_bytes(img)
        assert image_to_bytes(image_from_bytes(blob)) == blob
        got[(name, tiles)] = hashlib.sha256(blob).hexdigest()
    assert got == {k: v for k, v in GOLDEN_IMAGES.items() if k[1] == tiles}
    gen = ProgramGen(random.Random(5))
    h = hashlib.sha256()
    for _ in range(40):
        h.update(image_to_bytes(compile_text(gen.program(depth=5), tiles, fresh_registry())))
    assert h.hexdigest() == GOLDEN_GENERATED[tiles]
