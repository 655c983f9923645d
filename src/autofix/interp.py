"""The value model every layer shares, and the public ``evaluate``.

Evaluation is deterministic and total: every run ends in a value or in a
fault of one of ``FAULT_KINDS``.  Integers are two's-complement values of a
configured bit width; every arithmetic result wraps.  Lists (plain
``tuple``) and tuples (``TupleVal``) are immutable snapshots (assignment
copies, ``append`` rebinds), which keeps candidate evaluation free of shared
state.  Programs run compiled (``compiler``); the tree-walking interpreter
in ``tests/spec_interp.py`` is the executable spec the compiled code is
tested against.
"""

from __future__ import annotations

FAULT_KINDS = (
    "IndexOutOfRange",
    "TypeMismatch",
    "DivByZero",
    "FuelExhausted",
    "NoReturn",
)

MAX_CALL_DEPTH = 64


class Bounds:
    """Integer width, longest input list and evaluation steps per run."""

    def __init__(self, int_bits: int = 4, max_list_len: int = 4, fuel: int = 100_000):
        if int_bits < 1 or max_list_len < 0 or fuel < 1:
            raise ValueError("bounds out of range")
        self.int_bits = int_bits
        self.max_list_len = max_list_len
        self.fuel = fuel

    @property
    def int_lo(self) -> int:
        return -(1 << (self.int_bits - 1))

    @property
    def int_hi(self) -> int:
        return (1 << (self.int_bits - 1)) - 1


class TupleVal(tuple):
    """Tuple-typed runtime value; plain ``tuple`` is the list type."""

    __slots__ = ()


class EvalResult:
    """A run's value, or the kind of fault it ended in."""

    def __init__(self, value=None, fault: str | None = None):
        self.value = value
        self.fault = fault

    @property
    def is_ok(self) -> bool:
        return self.fault is None

    def __repr__(self):
        if self.is_ok:
            return f"Ok({self.value!r})"
        return f"Fault({self.fault})"


def evaluate(program, input_state, bounds: Bounds, callees=None) -> EvalResult:
    """Run the entry function of `program` (a ``lang.Program``) on one
    input, compiled.  Never raises for program-level errors; those surface
    as Fault results.  ``callees`` maps helper names to the ``FuncDef``
    that calls of them run.  A program nested too deeply for Python's
    compiler raises ``lexer.SourceError``.

    Each call compiles the program anew, which costs far more than the run.
    To run one program on many inputs, compile it once with
    ``compiler.Compiler(bounds).compile(program, callees)`` and call the
    result on each input's tuple of arguments; it raises ``runtime.Fault``
    where the program faults."""
    from .compiler import Compiler  # the compiler imports the value model from here
    from .runtime import Fault

    run = Compiler(bounds).compile(program, callees)
    try:
        return EvalResult(run(tuple(input_state)))
    except Fault as f:
        return EvalResult(fault=f.kind)
