from hypothesis import given, settings
from hypothesis import strategies as st

from autofix import lang
from autofix.inputs import Signature, count_inputs, enumerate_inputs
from autofix.interp import Bounds
from autofix.parser import parse_imp
from autofix.printer import pretty_expr, pretty_program
from spec_interp import evaluate

ops = st.sampled_from(["+", "-", "*", "/", "**"])
cops = st.sampled_from(["==", "!=", "<", ">", "<=", ">="])


def exprs(depth=3):
    leaf = st.one_of(
        st.integers(-20, 20).map(lang.IntLit),
        st.sampled_from(["x_int", "y_int"]).map(lang.Var),
    )
    def extend(children):
        return st.one_of(
            st.tuples(children, ops, children).map(lambda t: lang.BinOp(*t)),
            st.tuples(children, children, children).map(
                lambda t: lang.CondExpr(t[0], lang.Compare(t[1], "<", t[2]), t[0])
            ),
        )
    return st.recursive(leaf, extend, max_leaves=8)


@given(exprs())
@settings(max_examples=200, deadline=None)
def test_pretty_print_parse_round_trip(expr):
    source = f"def f_int(x_int, y_int):\n    return {pretty_expr(expr)}\n"
    prog = parse_imp(source)
    assert pretty_program(parse_imp(pretty_program(prog))) == pretty_program(prog)
    assert prog.functions[0].body[0].value.key() == expr.key()


@given(
    st.integers(1, 6),
    st.integers(-40, 40),
    st.integers(-40, 40),
    st.sampled_from(["+", "-", "*", "/"]),
)
@settings(max_examples=200, deadline=None)
def test_wraparound_closure(bits, a, b, op):
    bounds = Bounds(bits, 0)
    prog = parse_imp(f"def f_int(x_int, y_int):\n    return x_int {op} y_int\n")
    wrapped = (
        ((a + bounds.int_hi + 1) % (1 << bits)) - bounds.int_hi - 1,
        ((b + bounds.int_hi + 1) % (1 << bits)) - bounds.int_hi - 1,
    )
    result = evaluate(prog, wrapped, bounds)
    if result.is_ok:
        assert bounds.int_lo <= result.value <= bounds.int_hi
    else:
        assert result.fault == "DivByZero"


@given(st.integers(1, 3), st.integers(0, 3))
@settings(max_examples=30, deadline=None)
def test_input_count_formula(bits, max_len):
    sig = Signature("f", (("xs_list_int", "list_int"),), "list_int")
    bounds = Bounds(bits, max_len)
    streamed = list(enumerate_inputs(sig, bounds))
    assert len(streamed) == count_inputs(sig, bounds)
    assert len(set(streamed)) == len(streamed)


@given(st.integers(1, 4))
@settings(max_examples=20, deadline=None)
def test_int_stream_is_exactly_the_range(bits):
    sig = Signature("f", (("x_int", "int"),), "int")
    states = [s[0] for s in enumerate_inputs(sig, Bounds(bits, 0))]
    assert states == list(range(-(2 ** (bits - 1)), 2 ** (bits - 1)))
