"""Hand-written versions of the bundled references, for checking the oracle.

Each function restates one `assets/*/reference.imp` in plain Python with the
interpreter's two's-complement wrap applied to every arithmetic result.  The
benchmark compares them with `ReferenceOracle.values` on every bounded
input, so an evaluator that drifts from the language's semantics fails the
benchmark, not only the unit tests.
"""

from __future__ import annotations

import itertools


def wrap(value: int, int_bits: int) -> int:
    half = 1 << (int_bits - 1)
    return (value + half) % (1 << int_bits) - half


def compute_deriv(poly: tuple, int_bits: int) -> tuple:
    result = tuple(wrap(i * c, int_bits) for i, c in enumerate(poly))
    return result if len(poly) == 1 else result[1:]


def reverse(xs: tuple, int_bits: int) -> tuple:
    # No arithmetic on values; the index arithmetic stays within range
    # whenever max_list fits the integer width, as it does in every workload.
    return tuple(xs[len(xs) - 1 - k] for k in range(len(xs)))


REFERENCES = {"computederiv": compute_deriv, "arrayreverse": reverse}


def list_inputs(int_bits: int, max_list: int) -> list:
    """Every one-argument input whose argument is an int list within bounds."""
    half = 1 << (int_bits - 1)
    ints = range(-half, half)
    return [
        (combo,)
        for length in range(max_list + 1)
        for combo in itertools.product(ints, repeat=length)
    ]


def check_oracle(oracle, asset: str, int_bits: int, max_list: int) -> list:
    """Problems found when comparing the oracle with the hand-written
    reference; empty when its inputs and values all agree."""
    expected_inputs = list_inputs(int_bits, max_list)
    problems = []
    if len(oracle.inputs) != len(expected_inputs) or set(oracle.inputs) != set(expected_inputs):
        problems.append(
            f"input space has {len(oracle.inputs)} inputs, expected {len(expected_inputs)}"
        )
    reference = REFERENCES[asset]
    for (arg,), value in zip(oracle.inputs, oracle.values):
        want = reference(arg, int_bits)
        if type(value) is not tuple or any(type(v) is not int for v in value) or value != want:
            problems.append(f"on input {list(arg)} the oracle holds {value!r}, expected {want!r}")
            if len(problems) >= 5:
                break
    return problems
