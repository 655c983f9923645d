import pytest

from autofix.inputs import (
    Signature,
    UnknownTypeSuffix,
    count_inputs,
    enumerate_inputs,
    parse_signature,
)
from autofix.interp import MAX_INT_BITS, Bounds
from autofix.lexer import MAX_INT_DIGITS
from autofix.parser import parse_imp


def sig_of(source):
    return parse_signature(parse_imp(source).entry_func())


def test_compute_deriv_signature(deriv_ref):
    sig = parse_signature(deriv_ref.entry_func())
    assert sig.base == "computeDeriv"
    assert [t for _, t in sig.params] == ["list_int"]
    assert sig.ret == "list_int"


def test_two_int_params():
    sig = sig_of("def f_int(x_int, y_int):\n    return x_int\n")
    assert sig == Signature("f", (("x_int", "int"), ("y_int", "int")), "int")


def test_unknown_suffix_rejected():
    with pytest.raises(UnknownTypeSuffix):
        sig_of("def g_bool(x_widget):\n    return True\n")


def test_single_int_arg_w2():
    sig = Signature("f", (("x_int", "int"),), "int")
    states = list(enumerate_inputs(sig, Bounds(2, 0)))
    assert states == [(-2,), (-1,), (0,), (1,)]


def test_list_count_w4_l4():
    sig = Signature("f", (("xs_list_int", "list_int"),), "list_int")
    bounds = Bounds(4, 4)
    assert count_inputs(sig, bounds) == 69905
    assert sum(1 for _ in enumerate_inputs(sig, bounds)) == 69905


@pytest.mark.parametrize("sems", [("int",), ("bool", "tuple_int"), ("list_int", "int", "list_int")])
@pytest.mark.parametrize("bits,max_list", [(1, 0), (1, 2), (2, 3), (3, 1)])
def test_count_is_the_length_of_the_stream(sems, bits, max_list):
    sig = Signature("f", tuple((f"x{i}", sem) for i, sem in enumerate(sems)), "int")
    bounds = Bounds(bits, max_list)
    assert count_inputs(sig, bounds) == sum(1 for _ in enumerate_inputs(sig, bounds))


def test_a_count_past_the_widest_int_literal_is_none():
    lists = Signature("f", (("xs_list_int", "list_int"),), "int")
    # 2**2126 + 1 and 2**2126 - 1 inputs have 640 digits, 2**2127 - 1 has 641
    assert count_inputs(lists, Bounds(MAX_INT_BITS, 1)) == 2**MAX_INT_BITS + 1
    assert len(str(count_inputs(lists, Bounds(1, MAX_INT_BITS - 1)))) == MAX_INT_DIGITS
    assert count_inputs(lists, Bounds(1, MAX_INT_BITS)) is None  # 641 digits
    assert count_inputs(lists, Bounds(64, 10**6)) is None
    ints = Signature("f", (("x_int", "int"), ("y_int", "int")), "int")
    assert count_inputs(ints, Bounds(MAX_INT_BITS, 0)) is None


def test_list_count_w1_l2():
    sig = Signature("f", (("xs_list_int", "list_int"),), "list_int")
    states = list(enumerate_inputs(sig, Bounds(1, 2)))
    assert len(states) == 7  # 1 + 2 + 4


def test_stream_has_no_duplicates_and_is_sorted_by_size():
    sig = Signature("f", (("xs_list_int", "list_int"),), "list_int")
    states = list(enumerate_inputs(sig, Bounds(2, 2)))
    assert len(states) == len(set(states)) == 1 + 4 + 16
    lengths = [len(s[0]) for s in states]
    assert lengths == sorted(lengths)
    # within one length, lexicographically ascending
    singletons = [s[0][0] for s in states if len(s[0]) == 1]
    assert singletons == sorted(singletons)


def test_multi_arg_order_is_deterministic():
    sig = Signature(
        "f", (("x_int", "int"), ("xs_list_int", "list_int")), "int"
    )
    bounds = Bounds(1, 1)
    states = list(enumerate_inputs(sig, bounds))
    assert states[0] == (-1, ())
    assert len(states) == count_inputs(sig, bounds) == 2 * 3
    assert states == list(enumerate_inputs(sig, bounds))


def test_bool_and_tuple_params():
    sig = Signature("f", (("b_bool", "bool"), ("t_tuple_int", "tuple_int")), "int")
    states = list(enumerate_inputs(sig, Bounds(1, 1)))
    assert len(states) == 2 * 3
    assert states[0][0] is False
