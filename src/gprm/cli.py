"""Command-line driver: compile, run, oracle-check and benchmark programs.

Exit codes: 0 ok, 1 usage, 2 compile error, 3 runtime error, 4 verification
failure.  Environment knobs: GPRM_THREADS (default kernel thread/tile count) and
GPRM_TRACE (default trace file for `run`).

Unknown `service.method` operations are auto-registered as stub kernels that
return the sum of their integer arguments, so the toy example programs run
out of the box; real kernels are registered through the library API.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import lang
from .bench import BenchConfig, CSV_COLUMNS, VerificationError, run_benchmark
from .compiler import (
    CompileError,
    compile_flat,
    flatten,
    read_image,
    used_operations,
    write_image,
)
from .gpc import GpcError, compile_gpc
from .kernels import (
    KernelError,
    UnknownServiceError,
    add_stub_service,
    standard_registry,
)
from .oracle import OracleError, evaluate as oracle_evaluate
from .vm import Machine, TaskError, VmError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_COMPILE = 2
EXIT_RUNTIME = 3
EXIT_VERIFY = 4


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _env_int(name, default):
    v = os.environ.get(name)
    return int(v) if v else default


def _stub_registry(op_names):
    """standard registry + stub services for unknown dotted operations."""
    registry = standard_registry()
    unknown = {}
    for name in op_names:
        if registry.has(name):
            continue
        if "." not in name:
            raise UnknownServiceError(f"unknown operation '{name}'")
        svc, method = name.split(".", 1)
        unknown.setdefault(svc, set()).add(method)
    for svc in sorted(unknown):
        add_stub_service(registry, svc, unknown[svc])
    return registry


def _registry_for_flat(fp):
    return _stub_registry(used_operations(fp))


def _registry_for_text(text):
    return _registry_for_flat(flatten(lang.desugar(lang.parse(text))))


def _registry_for_image(image):
    return _stub_registry(image.symbols.values())


def _fmt(v):
    if isinstance(v, np.ndarray):
        return f"<int array[{len(v)}]>"
    return repr(v) if isinstance(v, list) else str(v)


# ── subcommands ──────────────────────────────────────────────────────


def cmd_compile(args):
    with open(args.input) as f:
        source = f.read()
    if args.input.endswith(".gpc"):
        source = compile_gpc(source, num_threads=args.tiles)
        if args.dump:
            print(source)
    fp = flatten(lang.desugar(lang.parse(source)))
    image = compile_flat(fp, args.tiles, _registry_for_flat(fp))
    if args.dump:
        from .compiler import decode, flat_lines
        for line in flat_lines(decode(image)):
            print(line)
    out = args.output
    if not out:
        stem = os.path.basename(args.input).rsplit(".", 1)[0]
        out = stem + ".gprm"
    write_image(image, out)
    print(f"wrote {out}: {len(image.code)} code entries, "
          f"{image.tile_count} tiles, {image.arg_arity} host args")
    return EXIT_OK


def cmd_run(args):
    image = read_image(args.image)
    registry = _registry_for_image(image)
    threads = args.threads or _env_int("GPRM_THREADS", 0) or image.tile_count
    trace_path = args.trace or os.environ.get("GPRM_TRACE")
    with Machine(image, registry, threads, trace=bool(trace_path)) as m:
        value = m.run_value(tuple(args.arg))
        if trace_path:
            m.write_trace(trace_path)
    print(_fmt(value))
    return EXIT_OK


def cmd_oracle(args):
    with open(args.input) as f:
        source = f.read()
    if args.input.endswith(".gpc"):
        source = compile_gpc(source, num_threads=_env_int("GPRM_THREADS", 4))
    ast = lang.parse(source)
    registry = _registry_for_flat(flatten(lang.desugar(ast)))
    print(_fmt(oracle_evaluate(ast, registry, host_args=tuple(args.arg))))
    return EXIT_OK


def cmd_bench(args):
    size = args.size
    if size is None:
        size = (1 << 22) if args.which == "mergesort" else 100000
    cfg = BenchConfig(
        benchmark=args.which,
        size=size,
        threads=tuple(int(t) for t in args.threads.split(",")),
        reps=args.reps,
        seed=args.seed,
        csv_path=args.csv or "",
        work=tuple(int(w) for w in args.work.split(",")),
        strategy=args.strategy,
    )
    rows = run_benchmark(cfg)
    print(",".join(CSV_COLUMNS))
    for row in rows:
        print(",".join(str(row[c]) for c in CSV_COLUMNS))
    if cfg.csv_path:
        print(f"wrote {cfg.csv_path}", file=sys.stderr)
    return EXIT_OK


def build_parser():
    p = _Parser(prog="gprm", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command")

    c = sub.add_parser("compile", help="compile .gpir or .gpc to a bytecode image")
    c.add_argument("input")
    c.add_argument("-o", "--output", default="")
    c.add_argument("-t", "--tiles", type=int, default=_env_int("GPRM_THREADS", 4))
    c.add_argument("--dump", action="store_true",
                   help="print the flat entries (and generated GPIR for .gpc)")
    c.set_defaults(func=cmd_compile)

    r = sub.add_parser("run", help="run a bytecode image")
    r.add_argument("image")
    r.add_argument("--threads", type=int, default=0,
                   help="kernel threads for task kernels; tile t's run on thread "
                        "t %% threads (default: $GPRM_THREADS, else the tile count)")
    r.add_argument("--trace", default="")
    r.add_argument("--arg", type=int, action="append", default=[])
    r.set_defaults(func=cmd_run)

    o = sub.add_parser("oracle", help="evaluate a program with the sequential interpreter")
    o.add_argument("input")
    o.add_argument("--arg", type=int, action="append", default=[])
    o.set_defaults(func=cmd_oracle)

    b = sub.add_parser("bench", help="run a benchmark and emit CSV rows")
    b.add_argument("which", choices=("mergesort", "listchase"))
    b.add_argument("--size", type=int, default=None,
                   help="elements (default: 4M for mergesort, 100k for listchase)")
    b.add_argument("--threads", default="1,2,4")
    b.add_argument("--reps", type=int, default=3)
    b.add_argument("--seed", type=int, default=1)
    b.add_argument("--csv", default="")
    b.add_argument("--work", default="3,3")
    b.add_argument("--strategy", choices=("strided", "contended"), default="strided")
    b.set_defaults(func=cmd_bench)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "func", None):
            parser.print_usage(sys.stderr)
            return EXIT_USAGE
        return args.func(args)
    except SystemExit as e:  # argparse -h
        return int(e.code or 0)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except VerificationError as e:
        print(f"verification failure: {e}", file=sys.stderr)
        return EXIT_VERIFY
    except UnknownServiceError as e:
        print(f"compile error: {e}", file=sys.stderr)
        return EXIT_COMPILE
    except (TaskError, VmError, KernelError, OracleError) as e:
        print(f"runtime error: {e}", file=sys.stderr)
        return EXIT_RUNTIME
    except (GpcError, CompileError, lang.GpirError) as e:
        print(f"compile error: {e}", file=sys.stderr)
        return EXIT_COMPILE
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RUNTIME


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
