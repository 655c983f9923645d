"""The value model every layer shares.

Evaluation is deterministic and total: every run ends in a value or in a
fault of one of ``FAULT_KINDS``.  Integers are two's-complement values of a
configured bit width; every arithmetic result wraps.  Lists (plain
``tuple``) and tuples (``TupleVal``) are immutable snapshots (assignment
copies, ``append`` rebinds), which keeps candidate evaluation free of shared
state.  Programs run compiled: ``compiler.Compiler(bounds).compile(program)``
gives a function of an input's tuple of arguments that returns the value or
raises ``runtime.Fault``.  The tree-walking interpreter in
``tests/spec_interp.py`` is the executable spec the compiled code is tested
against.
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
