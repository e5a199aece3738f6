"""Parallel task-composition reduction machine.

Pipeline: GPIR source -> parse/desugar -> flatten -> tile assignment ->
64-bit bytecode image -> parallel reduction on a pool of tiles, with
pluggable sequential task kernels.  A sequential oracle interpreter and a
mini single-assignment front-end round out the toolchain.
"""

from .lang import GpirError, GpirSyntaxError, parse, desugar, to_text
from .compiler import (
    BytecodeImage,
    CompileError,
    compile_text,
    decode,
    encode,
    flatten,
    assign_tiles,
    read_image,
    write_image,
)
from .kernels import (
    KernelError,
    KernelRegistry,
    UnknownServiceError,
    ackermann,
    standard_registry,
)
from .vm import (
    Machine,
    ProtocolError,
    ResourceLeakError,
    StuckReductionError,
    TaskError,
    VmError,
)
from .oracle import Oracle, OracleError, evaluate
from .gpc import GpcError, compile_gpc

__version__ = "0.1.0"
