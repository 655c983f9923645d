"""The language's semantics, on the executable spec (`spec_interp`).

Every run here also runs through the package's compiled code
(`conftest.run_compiled`), which must agree with the spec: the same value, or a fault on both
sides of the same kind unless one side reports FuelExhausted.
"""

import pytest

import spec_interp
from autofix.inputs import enumerate_inputs, parse_signature
from autofix.interp import Bounds, TupleVal
from autofix.parser import parse_imp
from conftest import read, run_compiled
from spec_interp import values_equal

W4 = Bounds(4, 4)
W8 = Bounds(8, 4)


def evaluate(program, args, bounds):
    """The spec's result, once the package's compiled code has agreed with it."""
    want = spec_interp.evaluate(program, args, bounds)
    assert_same_outcome(run_compiled(program, args, bounds), want, args)
    return want


def assert_same_outcome(got, want, args):
    if want.is_ok:
        assert got.is_ok and values_equal(got.value, want.value), f"{got!r} != {want!r} on {args!r}"
    else:
        assert not got.is_ok, f"{got!r} where the spec gives {want!r} on {args!r}"
        if got.fault != want.fault:
            assert "FuelExhausted" in (got.fault, want.fault), f"{got!r} vs {want!r} on {args!r}"


def run(source, *args, bounds=W4):
    return evaluate(parse_imp(source), args, bounds)


def test_reference_on_cubic(deriv_ref):
    # plain arithmetic needs 8-bit ints; 12 would wrap at width 4
    result = evaluate(deriv_ref, ((2, -3, 1, 4),), W8)
    assert result.is_ok and result.value == (-3, 2, 12)


def test_reference_wraps_at_four_bits(deriv_ref):
    result = evaluate(deriv_ref, ((2, -3, 1, 4),), W4)
    assert result.is_ok and result.value == (-3, 2, -4)


def test_reference_singleton(deriv_ref):
    result = evaluate(deriv_ref, ((7,),), W4)
    assert result.is_ok and result.value == (0,)


def test_student_diverges_from_reference(deriv_ref, deriv_student):
    got = evaluate(deriv_student, ((5,),), W4)
    want = evaluate(deriv_ref, ((5,),), W4)
    assert got.is_ok and got.value == ()
    assert want.is_ok and want.value == (0,)


def test_nontermination_hits_fuel():
    result = run(
        "def f_int(x_int):\n    while True:\n        pass\n    return 0\n", 0
    )
    assert result.fault == "FuelExhausted"


def test_fuel_monotonicity(deriv_ref):
    small = Bounds(4, 4, fuel=200)
    big = Bounds(4, 4, fuel=100_000)
    a = evaluate(deriv_ref, ((1, 2, 3),), small)
    b = evaluate(deriv_ref, ((1, 2, 3),), big)
    assert a.is_ok and b.is_ok and values_equal(a.value, b.value)


def test_determinism(deriv_ref):
    runs = {evaluate(deriv_ref, ((3, -8),), W4).value for _ in range(5)}
    assert len(runs) == 1


@pytest.mark.parametrize(
    "expr,args,expected",
    [
        ("x_int + y_int", (7, 1), -8),  # wraparound closure
        ("x_int - y_int", (-8, 1), 7),
        ("x_int * y_int", (5, 5), -7),  # 25 mod 16 = 9 -> -7
        ("x_int / y_int", (7, 2), 3),
        ("x_int / y_int", (-7, 2), -3),  # truncation toward zero
        ("x_int / y_int", (7, -2), -3),
        ("x_int ** y_int", (2, 3), -8),  # 8 wraps to -8
        ("x_int ** y_int", (3, 0), 1),
    ],
)
def test_int_arithmetic(expr, args, expected):
    result = run(f"def f_int(x_int, y_int):\n    return {expr}\n", *args)
    assert result.is_ok and result.value == expected


def test_division_by_zero_faults():
    result = run("def f_int(x_int):\n    return 1 / x_int\n", 0)
    assert result.fault == "DivByZero"


def test_negative_exponent_faults():
    result = run("def f_int(x_int):\n    return 2 ** x_int\n", -1)
    assert result.fault == "TypeMismatch"


def test_list_concat_and_append():
    result = run(
        "def f_list_int(x_list_int):\n"
        "    y = x_list_int + [1]\n"
        "    y.append(2)\n"
        "    return y\n",
        (5,),
    )
    assert result.is_ok and result.value == (5, 1, 2)


def test_index_out_of_range():
    result = run("def f_int(x_list_int):\n    return x_list_int[2]\n", (1, 2))
    assert result.fault == "IndexOutOfRange"


def test_negative_index_faults():
    result = run("def f_int(x_list_int):\n    return x_list_int[0 - 1]\n", (1, 2))
    assert result.fault == "IndexOutOfRange"


def test_slicing_clamps():
    src = "def f_list_int(x_list_int):\n    return x_list_int[1:7]\n"
    result = run(src, (1, 2, 3))
    assert result.is_ok and result.value == (2, 3)
    result = run("def f_list_int(x_list_int):\n    return x_list_int[3:1]\n", (1, 2, 3))
    assert result.is_ok and result.value == ()


def test_cross_type_comparison_faults():
    result = run("def f_bool(x_list_int):\n    return x_list_int == 0\n", (1,))
    assert result.fault == "TypeMismatch"
    result = run("def f_bool(x_int):\n    return x_int == True\n", 1)
    assert result.fault == "TypeMismatch"


def test_non_bool_condition_faults():
    result = run("def f_int(x_int):\n    if x_int:\n        return 1\n    return 0\n", 1)
    assert result.fault == "TypeMismatch"


def test_unbound_variable_faults():
    result = run("def f_int(x_int):\n    return y\n", 1)
    assert result.fault == "TypeMismatch"


def test_no_return_faults():
    result = run("def f_int(x_int):\n    x_int += 1\n", 1)
    assert result.fault == "NoReturn"


def test_range_builtin():
    result = run("def f_list_int(x_int):\n    return range(x_int)\n", 3)
    assert result.is_ok and result.value == (0, 1, 2)
    result = run("def f_list_int(x_int):\n    return range(2, x_int)\n", 1)
    assert result.is_ok and result.value == ()
    result = run("def f_list_int(x_int):\n    return range(0, x_int, 2)\n", 5)
    assert result.is_ok and result.value == (0, 2, 4)


def test_negative_range_step_faults():
    result = run("def f_list_int(x_int):\n    return range(5, 0, 0 - 1)\n", 0)
    assert result.fault == "TypeMismatch"


def test_assignment_copies_no_aliasing():
    src = (
        "def f_list_int(x_list_int):\n"
        "    y = x_list_int\n"
        "    y[0] = 9\n"
        "    return x_list_int\n"
    )
    result = run(src, (1, 2))
    assert result.is_ok and result.value == (1, 2)


def test_indexed_store_and_aug():
    src = (
        "def f_list_int(x_list_int):\n"
        "    x_list_int[0] += 1\n"
        "    return x_list_int\n"
    )
    result = run(src, (1, 2))
    assert result.is_ok and result.value == (2, 2)


def test_for_loop_over_tuple_value():
    src = "def f_int(x_tuple_int):\n    s = 0\n    for v in x_tuple_int:\n        s += v\n    return s\n"
    result = run(src, TupleVal((1, 2, 3)))
    assert result.is_ok and result.value == 6


def test_runaway_recursion_is_fuel_fault():
    src = "def f_int(x_int):\n    return f_int(x_int)\n"
    result = run(src, 0)
    assert result.fault == "FuelExhausted"


def test_short_circuit():
    src = "def f_bool(x_int):\n    return x_int != 0 and 1 / x_int == 1\n"
    result = run(src, 0)
    assert result.is_ok and result.value is False


def test_values_equal_distinguishes_list_and_tuple():
    assert not values_equal((1, 2), TupleVal((1, 2)))
    assert values_equal(TupleVal((1, 2)), TupleVal((1, 2)))
    assert not values_equal(True, 1)


@pytest.mark.parametrize("asset", ["computederiv", "arrayreverse"])
def test_compiled_code_agrees_with_the_spec_on_the_references(asset):
    program = parse_imp(read(asset, "reference.imp"))
    bounds = Bounds(3, 2)
    inputs = list(enumerate_inputs(parse_signature(program.entry_func()), bounds))
    assert len(inputs) == 73
    for args in inputs:
        evaluate(program, args, bounds)
