"""What compiled programs (``compiler``) call at run time.

``helpers`` builds, for one integer width, the operations whose operand
types the compiler has not proven: each checks its operands' runtime types
as the language defines them (the executable spec is the tree-walker in
``tests/spec_interp.py``) and raises ``Fault`` where the spec faults.
``same`` is the language's type-exact equality.
"""

from __future__ import annotations

from .interp import Bounds, TupleVal


class Fault(Exception):
    """A compiled run faulted; ``kind`` is one of ``interp.FAULT_KINDS``."""

    def __init__(self, kind: str):
        super().__init__(kind)
        self.kind = kind


def same(a, b) -> bool:
    """Equal values of identical runtime types, so ``True`` differs from
    ``1`` and a list from a tuple."""
    if type(a) is not type(b) or a != b:
        return False
    if type(a) is int or type(a) is bool:
        return True
    return all(map(same, a, b))


def helpers(bounds: Bounds) -> dict:
    """The helpers compiled code calls, for one integer width.  Each checks
    its operands' runtime types as the spec does."""
    half = 1 << (bounds.int_bits - 1)
    mask = (1 << bounds.int_bits) - 1

    def mismatch(*_evaluated):
        raise Fault("TypeMismatch")

    def seq(v):
        if type(v) is tuple or type(v) is TupleVal:
            return v
        raise Fault("TypeMismatch")

    def lst(v):
        if type(v) is tuple:
            return v
        raise Fault("TypeMismatch")

    def boolean(v):
        if v is True or v is False:
            return v
        raise Fault("TypeMismatch")

    def ints(a, b):
        if type(a) is not int or type(b) is not int:
            raise Fault("TypeMismatch")

    def out_of_range():
        raise Fault("IndexOutOfRange")

    def index(s, i):
        if type(i) is not int:
            raise Fault("TypeMismatch")
        if 0 <= i < len(s):
            return s[i]
        raise Fault("IndexOutOfRange")

    def store(s, i, v):
        if type(i) is not int:
            raise Fault("TypeMismatch")
        if 0 <= i < len(s):
            return s[:i] + (v,) + s[i + 1 :]
        raise Fault("IndexOutOfRange")

    def slice_(s, lo, hi):
        n = len(s)
        lo = 0 if lo is None else lo
        hi = n if hi is None else hi
        ints(lo, hi)
        lo = max(0, min(n, lo))
        hi = max(0, min(n, hi))
        out = s[lo:hi] if lo < hi else ()
        return TupleVal(out) if type(s) is TupleVal else tuple(out)

    def add(a, b):
        if type(a) is int and type(b) is int:
            return ((a + b + half) & mask) - half
        if type(a) is tuple and type(b) is tuple:
            return a + b
        if type(a) is TupleVal and type(b) is TupleVal:
            return TupleVal(a + b)
        raise Fault("TypeMismatch")

    def sub(a, b):
        ints(a, b)
        return ((a - b + half) & mask) - half

    def mul(a, b):
        ints(a, b)
        return ((a * b + half) & mask) - half

    def div(a, b):
        ints(a, b)
        if b == 0:
            raise Fault("DivByZero")
        q = abs(a) // abs(b)
        if (a < 0) != (b < 0):
            q = -q
        return ((q + half) & mask) - half

    def pow_(a, b):
        ints(a, b)
        if b < 0:
            raise Fault("TypeMismatch")
        return ((pow(a, b, mask + 1) + half) & mask) - half

    def eq(a, b):
        if type(a) is not type(b):
            raise Fault("TypeMismatch")
        return same(a, b)

    def ne(a, b):
        return not eq(a, b)

    def lt(a, b):
        ints(a, b)
        return a < b

    def gt(a, b):
        ints(a, b)
        return a > b

    def le(a, b):
        ints(a, b)
        return a <= b

    def ge(a, b):
        ints(a, b)
        return a >= b

    def length(v):
        return ((len(seq(v)) + half) & mask) - half

    def range_(*args):
        for a in args:
            if type(a) is not int:
                raise Fault("TypeMismatch")
        if len(args) == 1:
            lo, hi, step = 0, args[0], 1
        elif len(args) == 2:
            lo, hi, step = args[0], args[1], 1
        else:
            lo, hi, step = args
        if step < 1:
            raise Fault("TypeMismatch")
        return tuple(range(lo, hi, step))

    return {
        "Fault": Fault, "_mismatch": mismatch, "_seq": seq, "_list": lst,
        "_bool": boolean, "_out_of_range": out_of_range, "_index": index, "_store": store,
        "_slice": slice_,
        "_add": add, "_sub": sub, "_mul": mul, "_div": div, "_pow": pow_,
        "_eq": eq, "_ne": ne, "_lt": lt, "_gt": gt, "_le": le, "_ge": ge,
        "_len": length, "_range": range_,
    }
