"""Flattening, tile assignment, encoding, image files."""

import hashlib
import random
import struct
from pathlib import Path

import pytest

from gprm import bench, cli, compiler, kernels, lang, vm, words as W
from gprm.gpc import compile_gpc
from gprm.compiler import (
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
    assert fp.root == 0
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
    for e in fp.entries.values():
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
    assert W.ref_addr(img.root) == 0
    assert decode(img) == fp


def test_quoted_const_word_has_quote_bit():
    fp = flat_of("(t2.m3 '42)", tiles=1)
    img = encode(fp, 1, stub_reg(t2=["m3"]))
    w = img.code[0][1]
    assert W.kind_of(w) == W.KIND_CONST and W.is_quoted(w)
    assert W.const_value(w) == 42


def test_encode_empty_program_rejected():
    with pytest.raises(CompileError, match="root"):
        encode(compiler.FlatProgram({}, 0), 1, fresh_registry())


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
    e = {
        0: FlatEntry("f", (ref(1), ref(2), ref(1, 0, True))),
        1: FlatEntry("f", (ref(3), W.mk_const(1))),
        2: FlatEntry("f", ()),
        3: FlatEntry("f", ()),
        4: FlatEntry("f", (ref(2), ref(5, 3))),  # unreachable from the root
        5: FlatEntry("f", ()),
        6: FlatEntry("f", (ref(5),)),  # unreachable, and nothing moves
    }
    out = assign_tiles(FlatProgram(dict(e), 0), 3).entries
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


def test_image_bad_bytes_rejected():
    with pytest.raises(CompileError, match="bad magic"):
        image_from_bytes(b"NOPE" + b"\x00" * 20)
    reg = stub_reg(t3=["m4"])
    blob = image_to_bytes(compile_text("(t3.m4)", 1, reg))
    with pytest.raises(CompileError, match="truncated"):
        image_from_bytes(blob[:-4])


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
    arg0 = fp.entries[fp.root].args[0]
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
    return sum(W.is_quoted(a) for e in fp.entries.values() for a in e.args)


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
        image_from_bytes(blob + b"\x00")


def test_image_symbol_name_not_utf8_rejected():
    blob = image_to_bytes(compile_text("(t3.m4)", 1, stub_reg(t3=["m4"])))
    name = blob.index(b"t3.m4")
    with pytest.raises(CompileError, match="not UTF-8"):
        image_from_bytes(blob[:name] + b"\xff" + blob[name + 1:])


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


# SHA-256 of image_to_bytes, recorded with the recursive multi-pass compiler
GOLDEN_IMAGES = {
    ("compute.gpc", 1): "2f0f104697ce5364892116e19f753b3732dc3f0f665eaa72f0f2bf8f54a00ede",
    ("mergesort.gpc", 1): "ba66f5a2851f4c20e734b366aa75e387afe9c13c7c58510551886e87376022a5",
    ("square_minus_one.gpir", 1): "e24851ead762c5cd87000d175cfdfdf00312722823d4a3a913ead6b847576d1d",
    ("three_tasks.gpir", 1): "b7d7c89c53b701fb7df593ebbc89c0d353fda214c2ab04f916d95fb72f344080",
    ("mergesort_gpir", 1): "ba66f5a2851f4c20e734b366aa75e387afe9c13c7c58510551886e87376022a5",
    ("fib15", 1): "f147cbf1efd80eddd458d9e98148ea015763575a3df70eca54d803702d60ff97",
    ("tree10", 1): "3784adcc9faa00059d9e00a3fc6d8e435377d342454f5d80870409b7a7fd3f3d",
    ("tiny", 1): "518889ebf2b58bc127ac3b522ee4085d4b31fa999fd9bac12ee0989288001c72",
    ("labels", 1): "b202da5958388791534c739354b37c67af11fecfa722389ff2dc588e9fe6d99c",
    ("sugar", 1): "9ad5291ccd87e725230de1671311279164ac539f8316569f837a0ab8a4de3854",
    ("shared", 1): "b41dfc00d159dabab0efa1373bf22b2175b78ec01d9bf3f94a3e5973e267043a",
    ("compute.gpc", 2): "22deb062b41b5cb35aaa63ac1368cbd0f38be5c72c5090410bffdc5375a3edf0",
    ("mergesort.gpc", 2): "98881be53c99e399aef7fd313cd7eb88f4dbe13101a7bcd94d57e731eb80eea5",
    ("square_minus_one.gpir", 2): "84a1c7c4c44bbe9101183692ca156e13332ff6b85ced615cededd414a0423901",
    ("three_tasks.gpir", 2): "4c19edb998da4524966abff3bd749d23100a4de6bd6c609633565cc44655d9e1",
    ("mergesort_gpir", 2): "98881be53c99e399aef7fd313cd7eb88f4dbe13101a7bcd94d57e731eb80eea5",
    ("fib15", 2): "446fa9efb10daaf475b0c9575d626fe4d1e8a4fa94fa234c73b1591e6a9505db",
    ("tree10", 2): "5df48e52469eb6b19163f813aec225c3b4f5bf996b569d6855d5184363318710",
    ("tiny", 2): "34f423a6047628a07d280d2a62169488e8726ff8dace2050b2a1abf0bca5c6fc",
    ("labels", 2): "3e2c4b897b6455f73423a0b84987b827d50733a49825e7b40f3b32058885752b",
    ("sugar", 2): "40ac1e8d3b197ef7e5737b19173d7f1cb6b9ad8b696f6179c68aed9acf7a2454",
    ("shared", 2): "06b7ca4aed60dc3d58981be53f0d81eb1e976d4ba22291a308bc648394f23408",
    ("compute.gpc", 4): "83f3aec39c7a36866597ebecaebe699ea312d03d7519469b3381fcd7923ee559",
    ("mergesort.gpc", 4): "78b783a291bbdfe663196943999846ce357301ac49ca6f3f22aee93048016c34",
    ("square_minus_one.gpir", 4): "d9eaec5b3a129bef57df80ae5da912df5c5efb720e4e162a7fc644e6e16a0189",
    ("three_tasks.gpir", 4): "34f9ddfe33848a21bad9b5e13c54a18f22022fb2d92b1e27fd633b3dceec03ce",
    ("mergesort_gpir", 4): "78b783a291bbdfe663196943999846ce357301ac49ca6f3f22aee93048016c34",
    ("fib15", 4): "fdb5f3673d7599537845eeb70c06958b2c134b2044fbe10705e67f5820afe2c5",
    ("tree10", 4): "cf5f262310e391dfbaf9c6325a489e2c2c6e62b614f64e451bee20f80a3d59cc",
    ("tiny", 4): "8228a808a2ba91524dd7dcea08386d58a6b5d36c46dbcbe7d61a83212241225e",
    ("labels", 4): "5a7f41ad604d71b547eb7ef5101d162bb1fb495d2bc158545e4a4a82d3e99d48",
    ("sugar", 4): "9b8cfc98731bb1fb92e4bafba358340d8acd3aac62513a7bb5abc325c9de8d15",
    ("shared", 4): "75d2cc508ec42bcbda4448b80baacf69da05c67af55c5b427f2e11a82e64c149",
}

GOLDEN_GENERATED = {
    1: "bbec15ac80e17f71d48d0f49631dacf4ebd5bf867e6b26f584d6f7bfdc8a4d61",
    2: "ce5f8ab63456a5d2660935acdda24a33d8f2c0adb35b521d4a990b60f5ef404d",
    4: "4a868be1063bd1674037ab88871d5d82f882d621dce3031d8eef76d9506b64ce",
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
