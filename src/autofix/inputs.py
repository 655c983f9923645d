"""Typed signatures and bounded input-space enumeration.

Argument and return types ride on the names: ``computeDeriv_list_int`` takes
its return type from the function-name suffix, ``poly_list_int`` its
parameter type.  The input space for a signature is every combination of
values within the configured integer width and list-length bounds, streamed
in a fixed total order (smaller inputs first).
"""

from __future__ import annotations

import itertools

from .interp import Bounds, TupleVal
from .lang import FuncDef

SEM_TYPES = ("int", "bool", "list_int", "tuple_int")

# longest suffix first so list_int wins over int
_SUFFIXES = [
    ("_list_int", "list_int"),
    ("_tuple_int", "tuple_int"),
    ("_int", "int"),
    ("_bool", "bool"),
]


class UnknownTypeSuffix(Exception):
    def __init__(self, name: str):
        super().__init__(f"no recognized type suffix on {name!r}")
        self.name = name


class Signature:
    """An entry function's base name, ``((declared name, sem type), ...)``
    and result type."""

    def __init__(self, base: str, params: tuple, ret: str):
        self.base = base
        self.params = params
        self.ret = ret

    def __eq__(self, other):
        if type(other) is not Signature:
            return NotImplemented
        return (self.base, self.params, self.ret) == (other.base, other.params, other.ret)

    def arity(self) -> int:
        return len(self.params)


def split_typed_name(name: str):
    for suffix, sem in _SUFFIXES:
        if name.endswith(suffix) and len(name) > len(suffix):
            return name[: -len(suffix)], sem
    raise UnknownTypeSuffix(name)


def parse_signature(func: FuncDef) -> Signature:
    base, ret = split_typed_name(func.name)
    params = []
    for p in func.params:
        _, sem = split_typed_name(p)
        params.append((p, sem))
    return Signature(base, tuple(params), ret)


def _groups_for(sem: str, bounds: Bounds):
    """Values of one type, grouped by size (ints/bools are size 0, sequences
    are grouped by length).  Within a group the order is ascending.  The
    ints are a range, so that lists of length 0 alone never list them."""
    ints = range(bounds.int_lo, bounds.int_hi + 1)
    if sem == "int":
        return {0: ints}
    if sem == "bool":
        return {0: [False, True]}
    groups = {}
    for k in range(bounds.max_list_len + 1):
        combos = itertools.product(ints, repeat=k) if k else [()]
        if sem == "list_int":
            groups[k] = [tuple(c) for c in combos]
        else:
            groups[k] = [TupleVal(c) for c in combos]
    return groups


def enumerate_inputs(sig: Signature, bounds: Bounds):
    """Stream every bounded input state, deterministically: inputs sorted by
    total sequence length, then lexicographically argument by argument."""
    all_groups = [_groups_for(sem, bounds) for _, sem in sig.params]
    if not all_groups:
        yield ()
        return
    max_total = sum(max(g) for g in all_groups)
    for total in range(max_total + 1):
        yield from _emit(all_groups, 0, total, ())
    return


def _emit(all_groups, i, remaining, prefix):
    groups = all_groups[i]
    last = i == len(all_groups) - 1
    for sz in sorted(groups):
        if sz > remaining:
            break
        if last:
            if sz == remaining:
                for v in groups[sz]:
                    yield prefix + (v,)
        else:
            for v in groups[sz]:
                yield from _emit(all_groups, i + 1, remaining - sz, prefix + (v,))


def count_inputs(sig: Signature, bounds: Bounds) -> int:
    total = 1
    n_ints = 1 << bounds.int_bits
    for _, sem in sig.params:
        if sem == "int":
            total *= n_ints
        elif sem == "bool":
            total *= 2
        else:
            total *= sum(n_ints**k for k in range(bounds.max_list_len + 1))
    return total
