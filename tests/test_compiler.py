"""Differential tests: the compiler against the tree-walking interpreter.

The tree-walker in `spec_interp` is the executable spec.  On every program
and input both must give the same value, or both a fault; the fault kinds
must match except where one side reports FuelExhausted (the compiled code
checks its fuel at function entry, loop iterations and the end of the run,
not at every tick).  Fuel 25 puts many runs right at the exhaustion
boundary; a program whose static tick bound is at most the fuel compiles
with no fuel code at all, so both kinds of code meet the spec.  A
choice-site program is compiled once and each candidate runs as its pick
tuple; the spec for a candidate is `instantiate` followed by the
tree-walker.  Programs are compiled both without and with the signature
their inputs are drawn from: with it, the entry's parameters have known
types and the compiler leaves out the checks those types make redundant.
"""

import collections
import functools
import glob
import os
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autofix import compiler as compiler_module
from autofix import lang
from autofix.compiler import Compiler, sites_read
from autofix.eml import parse_eml
from autofix.inputs import Signature, parse_signature
from autofix.interp import MAX_CALL_DEPTH, Bounds, TupleVal
from autofix.lexer import SourceError
from autofix.parser import MAX_EXPR_DEPTH, parse_imp
from autofix.printer import pretty_program
from autofix.rewrite import rewrite
from autofix.interp import Fault, same
from autofix.search import ReferenceFault, ReferenceOracle, cegis_min
from autofix.tilde import (
    Alternative,
    ChoiceSite,
    TildeProgram,
    active_picks,
    enumerate_candidates,
    instantiate,
)

from conftest import ASSETS, SITE_KINDS_MODELS, SITE_KINDS_STUDENT, active_of, picks_for, read
from spec_interp import Evaluator, evaluate, values_equal

FUELS = (300, 25)
COMPILERS = {fuel: Compiler(Bounds(4, 3, fuel=fuel)) for fuel in FUELS}


def outcome(run, args, picks=()):
    try:
        return run(args, picks), None
    except Fault as f:
        return None, f.kind


def assert_agree(program, args, compiler, callees=None, run=None, picks=(), want=None):
    """The compiled `run` of `program` (or of the choice-site program that
    `picks` instantiates to `program`) and the tree-walker, whose result
    may be passed as `want`, agree on `args`."""
    run = run or compiler.compile(program, callees)
    want = want or evaluate(program, args, compiler.bounds, callees)
    value, kind = outcome(run, args, picks)
    where = f"{args!r} at fuel {compiler.bounds.fuel}, picks {picks}"
    if want.is_ok:
        assert kind is None, f"compiled faults {kind}, spec gives {want!r} on {where}"
        assert values_equal(value, want.value), f"{value!r} != {want!r} on {where}"
    else:
        assert kind is not None, f"compiled gives {value!r}, spec {want!r} on {where}"
        if kind != want.fault:
            assert "FuelExhausted" in (kind, want.fault), f"{kind} vs {want!r} on {where}"
    return want.fault is not None and kind != want.fault


# -- hand-written programs ---------------------------------------------------

CASES = [
    ("def f_int(x_int, y_int):\n    return x_int + y_int\n", [(7, 1), (-8, -1)]),
    ("def f_int(x_int, y_int):\n    return x_int * y_int - 3\n", [(5, 5), (-8, 7)]),
    ("def f_int(x_int, y_int):\n    return x_int / y_int\n", [(7, 2), (-7, 2), (7, -2), (-8, -1), (1, 0)]),
    ("def f_int(x_int, y_int):\n    return x_int ** y_int\n", [(2, 3), (3, 0), (2, -1), (-8, 7)]),
    ("def f_int(x_list_int):\n    return x_list_int[0 - 1]\n", [((1, 2),), ((),)]),
    ("def f_list_int(x_list_int):\n    return x_list_int[1:7] + x_list_int[:0 - 2]\n", [((1, 2, 3),)]),
    ("def f_list_int(x_list_int):\n    return x_list_int[3:1]\n", [((1, 2, 3),)]),
    ("def f_bool(x_list_int):\n    return x_list_int == 0\n", [((1,),)]),
    ("def f_bool(x_int):\n    return x_int == True\n", [(1,)]),
    ("def f_bool(x_list_int):\n    return [x_list_int[0] < 2] == [True]\n", [((1,),), ((5,),)]),
    ("def f_int(x_int):\n    if x_int:\n        return 1\n    return 0\n", [(1,)]),
    ("def f_int(x_int):\n    return y\n", [(1,)]),
    ("def f_int(x_int):\n    if x_int > 0:\n        y = 1\n    return y\n", [(1,), (0,)]),
    ("def f_int(x_int):\n    x_int += 1\n", [(1,)]),
    ("def f_list_int(x_int):\n    return range(x_int) + range(2, x_int) + range(0, x_int, 2)\n", [(5,), (0,)]),
    ("def f_list_int(x_int):\n    return range(5, 0, 0 - 1)\n", [(0,)]),
    ("def f_list_int(x_list_int):\n    y = x_list_int\n    y[0] = 9\n    return x_list_int + y\n", [((1, 2),)]),
    ("def f_list_int(x_list_int):\n    x_list_int[0] += 1\n    x_list_int.append(3)\n    return x_list_int\n", [((1, 2),), ((),)]),
    ("def f_int(x_tuple_int):\n    s = 0\n    for v in x_tuple_int:\n        s += v\n    return s\n", [(TupleVal((1, 2, 3)),)]),
    ("def f_tuple_int(x_tuple_int):\n    return x_tuple_int[1:] + x_tuple_int\n", [(TupleVal((1, 2)),)]),
    ("def f_list_int(x_tuple_int):\n    x_tuple_int.append(1)\n    return x_tuple_int\n", [(TupleVal((1,)),)]),
    ("def f_int(x_int):\n    return f_int(x_int)\n", [(0,)]),
    ("def f_bool(x_int):\n    return x_int != 0 and 1 / x_int == 1 or not True\n", [(0,), (1,)]),
    ("def f_int(x_int):\n    return 1 if x_int < 0 else 2 if x_int == 0 else x_int\n", [(-1,), (0,), (3,)]),
    ("def f_int(x_int):\n    while x_int > 0:\n        x_int -= 1\n    return x_int\n", [(7,), (-3,)]),
    ("def f_int(x_int):\n    while True:\n        pass\n    return 0\n", [(0,)]),
    ("def f_int(x_list_int):\n    return len(x_list_int + x_list_int + x_list_int)\n", [((1, 2, 3),)]),
    ("def f_int(x_int):\n    return len(x_int)\n", [(1,)]),
    ("def f_int(x_int):\n    return g(x_int, 1)\n\ndef g(a, b):\n    return a - b\n", [(3,)]),
    ("def f_int(x_int):\n    return g(x_int)\n\ndef g(a, b):\n    return a\n", [(3,)]),
    ("def f_int(x_int):\n    return len(x_int)\n\ndef len(a):\n    return a * 2\n", [(3,)]),
    ("def f_int(x_int):\n    lambda = x_int\n    None = lambda + 1\n    return None\n", [(3,)]),
    # the order of checks decides the fault kind
    ("def f_int(x_int):\n    return x_int[1 / 0]\n", [(1,)]),
    ("def f_int(x_list_int):\n    return x_list_int[True]\n", [((1,),)]),
    ("def f_list_int(x_int):\n    return x_int[1 / 0:]\n", [(1,)]),
    ("def f_int(x_int):\n    x_int[0] = 1 / 0\n    return x_int\n", [(1,)]),
    ("def f_int(x_int):\n    x_int[1 / 0] = 1\n    return x_int\n", [(1,)]),
    ("def f_int(x_list_int):\n    x_list_int[5] += 1 / 0\n    return 0\n", [((1,),)]),
    ("def f_int(x_int):\n    x_int.append(1 / 0)\n    return x_int\n", [(1,)]),
    ("def f_list_int(x_list_int):\n    return [1] + 1 / 0\n", [((1,),)]),
    ("def f_bool(x_int):\n    return x_int and 1 / 0 == 1\n", [(1,)]),
    ("def f_int(x_int):\n    return g(1 / 0)\n\ndef g(a, b):\n    return a\n", [(3,)]),
    # a helper's parameter holds whatever it is called with
    ("def f_int(x_int):\n    return g(x_int > 0)\n\ndef g(k):\n    k = k + 1\n    return k\n", [(1,)]),
    # a slice of a range is iterated as the sliced tuple
    ("def f_int(x_int):\n    s = 0\n    for k in range(x_int)[1:]:\n        s += k\n    return s\n",
     [(4,), (0,)]),
    # a copy made in a loop sees, on the next iteration, a store of another
    # type that comes after it: directly, and through an append of an
    # element that an index store changes
    ("def f_int(n_int):\n    x = 0\n    for k in range(2):\n        y = x\n        x = True\n"
     "    return y + 1\n", [(0,)]),
    ("def f_int(n_int):\n    xs = [0]\n    ys = [0]\n    for k in range(3):\n        y = ys[k]\n"
     "        ys.append(xs[0])\n        xs[0] = True\n    return y + 1\n", [(0,)]),
]


@pytest.mark.parametrize("source,inputs", CASES)
def test_hand_written_programs_agree(source, inputs):
    program = parse_imp(source)
    signature = parse_signature(program.entry_func())
    for compiler in (*COMPILERS.values(), Compiler(Bounds(4, 3, fuel=3))):
        for run in (compiler.compile(program), compiler.compile(program, signature=signature)):
            for args in inputs:
                assert_agree(program, args, compiler, run=run)


def test_store_to_a_non_variable_target_faults_type_mismatch():
    # only a rewrite builds these: the parser accepts a Var or an Index target
    one = lang.IntLit(1)
    x = lang.Var("x_int")
    for target in (lang.IntLit(0), lang.Index(lang.IntLit(0), one), lang.Slice(x, None, None)):
        for stmt in (lang.Assign(target, one), lang.AugAssign(target, "+", one)):
            program = lang.Program(
                [lang.FuncDef("f_int", ["x_int"], [stmt, lang.Return(x)])], "f_int"
            )
            for compiler in COMPILERS.values():
                want = evaluate(program, (1,), compiler.bounds)
                assert want.fault == "TypeMismatch"
                assert_agree(program, (1,), compiler, want=want)


def test_loops_stop_when_the_fuel_runs_out():
    # 56 ** 4 iterations unless every loop iteration checks the fuel
    program = parse_imp(
        "def f_int(x_int):\n    r = range(7)\n    xs = r + r + r + r + r + r + r + r\n"
        "    for a in xs:\n        for b in xs:\n            for c in xs:\n"
        "                for d in xs:\n                    x_int += 1\n    return x_int\n"
    )
    compiler = COMPILERS[300]
    run = compiler.compile(program)
    lines = 0

    def count_lines(frame, event, arg):
        nonlocal lines
        if frame.f_code.co_filename == "<autofix>" and event == "line":
            lines += 1
            if lines > 10_000:
                raise RuntimeError("the compiled run outlived its fuel")
        return count_lines

    sys.settrace(count_lines)
    try:
        value, kind = outcome(run, (0,))
    finally:
        sys.settrace(None)
    assert kind == "FuelExhausted" and lines < 2_000
    assert_agree(program, (0,), compiler, run=run)


def test_recursion_depth_limit_agrees():
    # countdown(k) runs k calls deep below the entry; 64 calls is the limit
    program = parse_imp(
        "def f_int(x_int):\n    return countdown(x_int)\n\n"
        "def countdown(k):\n    if k == 1:\n        return 0\n    return countdown(k - 1) + 1\n"
    )
    compiler = Compiler(Bounds(8, 0))
    run = compiler.compile(program)
    for x in range(60, 68):
        assert_agree(program, (x,), compiler, run=run)
    assert MAX_CALL_DEPTH == 64
    assert run((63,)) == 62  # 64 calls deep
    with pytest.raises(Fault) as too_deep:
        run((64,))
    assert too_deep.value.kind == "FuelExhausted"


def test_callees_reference_redirects_helpers():
    reference = parse_imp(
        "def apply_int(x_int):\n    return helper(x_int) + 1\n\n"
        "def helper(x_int):\n    return x_int * 2\n"
    )
    student = parse_imp(
        "def apply_int(x_int):\n    return helper(x_int) + 1\n\n"
        "def helper(x_int):\n    return x_int + 2\n"
    )
    callees = {f.name: f for f in reference.functions}
    compiler = COMPILERS[300]
    redirected = compiler.compile(student, callees)
    own = compiler.compile(student)
    for x in range(-8, 8):
        assert_agree(student, (x,), compiler, callees, run=redirected)
        assert_agree(student, (x,), compiler, run=own)
    assert redirected((3,)) == 7 and own((3,)) == 6
    assert redirected((4,)) == -7  # 9 wraps at 4 bits


def nested_loops(depth: int) -> lang.Program:
    """`return x_int + 1` inside `for` loops nested `depth` deep, built by
    hand: the parser rejects blocks nested deeper than 16."""
    x = lang.Var("x_int")
    body = [lang.Return(lang.BinOp(x, "+", lang.IntLit(1)))]
    for _ in range(depth):
        body = [lang.ForIn("k", lang.Call("range", [x]), body)]
    return lang.Program([lang.FuncDef("f_int", ["x_int"], body + [lang.Return(lang.IntLit(0))])],
                        "f_int")


def test_too_deep_program_is_a_source_error():
    # past the 20 blocks Python's compiler nests statically
    program = nested_loops(22)
    compiler = Compiler(Bounds(4, 0))
    for signature in (None, parse_signature(program.entry_func())):
        with pytest.raises(SourceError, match="nested too deeply to compile"):
            compiler.compile(program, signature=signature)


def test_other_compile_errors_are_not_source_errors(monkeypatch):
    # code Python rejects for anything but its nesting is the emitter's defect
    monkeypatch.setattr(compiler_module._Emitter, "source", lambda self: "def _make(:\n")
    with pytest.raises(SyntaxError):  # not SourceError, which no SyntaxError is
        Compiler(Bounds(4, 0)).compile(nested_loops(1))


def deep_programs():
    """Expressions of `-`, `and`, indexing, list literals and conditionals,
    each ``MAX_EXPR_DEPTH`` levels deep, the parser's limit; each parses
    from its printed text."""
    x, xs = lang.Var("x_int"), lang.Var("x_list_int")
    shapes = [
        ("f_int", x, lang.IntLit(1), lambda e: lang.BinOp(x, "-", e)),
        ("f_bool", x, lang.BoolLit(True),
         lambda e: lang.BoolOp(lang.Compare(x, "<", lang.IntLit(1)), "and", e)),
        ("f_int", xs, lang.IntLit(0), lambda e: lang.Index(xs, e)),
        ("f_list_int", x, x, lambda e: lang.ListLit([e])),
        ("f_int", x, lang.IntLit(1),
         lambda e: lang.CondExpr(x, lang.Compare(x, "<", lang.IntLit(0)), e)),
    ]
    for name, param, leaf, wrap in shapes:
        for _ in range(MAX_EXPR_DEPTH):
            leaf = wrap(leaf)
        program = lang.Program([lang.FuncDef(name, [param.name], [lang.Return(leaf)])], name)
        assert parse_imp(pretty_program(program)).key() == program.key()
        yield program


def test_deep_expressions_compile():
    # inlined operations must not nest deeper than Python's compiler allows,
    # with or without a choice site at every variable
    model = parse_eml("rule VarF: v -> {?v, 0, 1}\n")
    compiler = COMPILERS[300]
    for program in deep_programs():
        signature = parse_signature(program.entry_func())
        lists = program.entry_func().params == ["x_list_int"]
        inputs = [((),), ((1, 0, 2),)] if lists else [(-8,), (0,), (1,), (7,)]
        for run in (compiler.compile(program), compiler.compile(program, signature=signature)):
            for args in inputs:
                assert_agree(program, args, compiler, run=run)
        tilde = rewrite(program, model)
        assert tilde.sites
        # every site's code is compiled; the unchanged candidate runs it
        assert_candidates_agree(tilde, inputs, 0, signatures=(None, signature))


def test_sixteen_nested_loops_compile():
    source = "def f_int(x_int):\n"
    for depth in range(16):
        source += "    " * (depth + 1) + "while x_int > 0:\n"
    source += "    " * 17 + "x_int -= 1\n    return x_int\n"
    program = parse_imp(source)
    run = COMPILERS[300].compile(program)
    for x in (-3, 0, 3):
        assert_agree(program, (x,), COMPILERS[300], run=run)


# -- generated programs ------------------------------------------------------

INT_VARS = ("n", "a", "b")
LIST_VARS = ("xs", "ys")
ANY_VAR = "lambda"  # holds a value of any type; also a Python keyword
INPUTS = [((), 0), ((3,), 2), ((-2, 5), -3), ((0, 7, -8), 1), ((6, -1), 7)]


def prelude(source: str) -> list:
    """Statements that bind the variables before the generated ones run."""
    return parse_imp(f"def p(xs, n, a):\n{source}    return 0\n").functions[0].body[:-1]


# `b` stays unbound in f when n >= 0, so reading it may fault
F_PRELUDE = prelude("    a = n\n    ys = xs\n    lambda = 0\n    if n < 0:\n        b = 1\n")
G_PRELUDE = prelude("    b = a\n    xs = [n]\n    ys = []\n    lambda = n\n")


@functools.lru_cache(maxsize=None)
def exprs(kind: str, depth: int, calls: bool = True):
    """Expressions of a type ("int", "bool", "list" or "any") of bounded
    depth, calling the helper `g` if `calls`.  Some runs fault: `b` may be
    unbound, and exponents, range steps, indices and divisors are drawn
    without regard to their range."""
    if kind == "any":
        return st.one_of(exprs("int", depth, calls), exprs("bool", depth, calls),
                         exprs("list", depth, calls), st.just(lang.Var(ANY_VAR)))
    if kind == "int":
        leaves = st.one_of(st.integers(-9, 9).map(lang.IntLit),
                           st.sampled_from(INT_VARS).map(lang.Var))
    elif kind == "bool":
        leaves = st.booleans().map(lang.BoolLit)
    else:
        leaves = st.one_of(
            st.sampled_from(LIST_VARS).map(lang.Var),
            st.lists(exprs("int", 0), max_size=2).map(lang.ListLit),
        )
    if depth == 0:
        return leaves
    i, b, l = (exprs(k, depth - 1, calls) for k in ("int", "bool", "list"))
    if kind == "int":
        compound = [
            st.builds(lang.BinOp, i, st.sampled_from(lang.ARITH_OPS), i),
            st.builds(lang.Index, l, i),
            l.map(lambda x: lang.Call("len", [x])),
        ]
        if calls:
            compound.append(st.builds(lambda x, y: lang.Call("g", [x, y]), i, i))
    elif kind == "bool":
        compound = [
            st.builds(lang.Compare, i, st.sampled_from(lang.COMPARE_OPS), i),
            st.builds(lang.Compare, l, st.sampled_from(["==", "!="]), l),
            st.builds(lang.BoolOp, b, st.sampled_from(lang.BOOL_OPS), b),
            b.map(lang.Not),
        ]
    else:
        bound = st.none() | i
        compound = [
            st.builds(lang.Slice, l, bound, bound),
            st.builds(lang.BinOp, l, st.just("+"), l),
            st.lists(i, min_size=1, max_size=3).map(lambda args: lang.Call("range", args)),
        ]
    same_kind = exprs(kind, depth - 1, calls)
    compound.append(st.builds(lang.CondExpr, same_kind, b, same_kind))
    return st.one_of(leaves, *compound)


@functools.lru_cache(maxsize=None)
def blocks(depth: int, bounded: bool = False):
    """Statement lists nesting `depth` deep.  `bounded` ones loop only with
    `for` over `range(...)`, call nothing but `len` and `range`, and hold
    choice sites."""
    i, l, a = (exprs(kind, 2, not bounded) for kind in ("int", "list", "any"))
    int_var = st.sampled_from(INT_VARS).map(lang.Var)
    list_var = st.sampled_from(LIST_VARS).map(lang.Var)
    simple = [
        st.builds(lang.Assign, int_var, i),
        st.builds(lang.Assign, list_var, l),
        st.builds(lang.Assign, st.just(lang.Var(ANY_VAR)), a),
        st.builds(lang.Assign, st.builds(lang.Index, list_var, i), i),
        st.builds(lang.AugAssign, int_var, st.sampled_from("+-*/"), i),
        st.builds(lang.AugAssign, st.builds(lang.Index, list_var, i), st.sampled_from("+-*/"), i),
        st.builds(lang.MethodCall, st.sampled_from(LIST_VARS), st.just("append"),
                  i.map(lambda x: [x])),
        st.builds(lang.Return, a),
        st.just(lang.Pass()),
    ]
    if bounded:
        stmt = st.one_of(*simple)
        sites = st.lists(i, min_size=1, max_size=2)
        simple += [
            st.builds(mixed_site, stmt, st.lists(stmt, min_size=1, max_size=2)),
            st.builds(lambda v, d, o: lang.Assign(v, mixed_site(d, o)), int_var, i, sites),
        ]
    if depth > 0:
        inner, cond = blocks(depth - 1, bounded), exprs("bool", 2, not bounded)
        loop_var = st.sampled_from(INT_VARS + (ANY_VAR,))
        simple.append(st.builds(lang.If, cond, inner, st.just([]) | inner))
        if bounded:  # often the longest range at 4 bits, of 15 ints
            longest = lang.Call("range", [lang.IntLit(-8), lang.IntLit(7)])
            ranges = st.just(longest) | st.lists(i, min_size=1, max_size=3).map(
                lambda args: lang.Call("range", args))
            simple.append(st.builds(lang.ForIn, loop_var, ranges, inner))
        else:
            simple += [st.builds(lang.While, cond, inner), st.builds(lang.ForIn, loop_var, l, inner)]
    return st.lists(st.one_of(*simple), min_size=1, max_size=3)


programs = st.builds(
    lambda body, ret, helper, helper_ret: lang.Program(
        [lang.FuncDef("f", ["xs", "n"], F_PRELUDE + body + [lang.Return(ret)]),
         lang.FuncDef("g", ["n", "a"], G_PRELUDE + helper + [lang.Return(helper_ret)])],
        "f",
    ),
    blocks(2), exprs("any", 2), blocks(1), exprs("int", 2),
)


# the types INPUTS are drawn from
SIGNATURE = Signature("f", (("xs", "list_int"), ("n", "int")), "int")


@given(programs)
@settings(max_examples=200, deadline=None)
def test_generated_programs_agree(program):
    for compiler in COMPILERS.values():
        runs = [compiler.compile(program), compiler.compile(program, signature=SIGNATURE)]
        for args in INPUTS:
            want = evaluate(program, args, compiler.bounds)
            for run in runs:
                assert_agree(program, args, compiler, run=run, want=want)


# -- every small candidate of the bundled models -----------------------------

CANDIDATE_INPUTS = [((),), ((5,),), ((-3, 2),), ((1, 0, -7),), ((7, 7, 7),)]


def bundled_programs():
    for asset in ("computederiv", "arrayreverse"):
        files = [os.path.join(ASSETS, asset, n) for n in ("student.imp", "reference.imp")]
        files += sorted(glob.glob(os.path.join(ASSETS, asset, "corpus", "*.imp")))
        for model_path in sorted(glob.glob(os.path.join(ASSETS, asset, "*.eml"))):
            model = parse_eml(read(model_path))
            for path in files:
                try:
                    program = parse_imp(read(path))
                except SourceError:
                    continue  # the corpus holds one unparseable submission
                yield os.path.relpath(path, ASSETS), model, program


# every fuel up to past what the small programs below spend, so that each
# run that ends ok also runs with exactly its ticks and with one tick less
FUEL_SWEEP = {fuel: Compiler(Bounds(4, 3, fuel=fuel)) for fuel in range(1, 90)}


def assert_candidates_agree(tilde, inputs, max_cost=None, callees=None, compilers=COMPILERS,
                            signatures=(None,)):
    """Every candidate of `tilde` up to `max_cost`, run as its pick tuple
    of the choice-site program compiled once per fuel and per signature in
    `signatures`, agrees with its instantiated program on the tree-walker.
    Its non-default picks are its active picks (`active_picks`), and its
    enumerated cost is their summed weight.  Returns (cases, fuel-only
    disagreements, candidates); a case is a candidate, fuel and input, run
    once per signature."""
    runs = {fuel: [compiler.compile(tilde, callees, sig) for sig in signatures]
            for fuel, compiler in compilers.items()}
    spec = {}  # (tree key, fuel, input) -> tree-walker result
    cases = fuel_disagreements = candidates = 0
    for picks, cost in enumerate_candidates(tilde, max_cost):
        candidate = instantiate(tilde, picks)
        active = active_picks(tilde, picks)
        assert active_of(picks) == {(site.site_id, index) for site, index in active}
        assert cost == sum(site.alternatives[index].weight for site, index in active)
        key = candidate.key()
        candidates += 1
        for fuel, compiler in compilers.items():
            for args in inputs:
                want = spec.get((key, fuel, args))
                if want is None:
                    want = spec[key, fuel, args] = evaluate(
                        candidate, args, compiler.bounds, callees)
                cases += 1
                fuel_disagreements += max([
                    assert_agree(candidate, args, compiler, run=run, picks=picks, want=want)
                    for run in runs[fuel]
                ])
    return cases, fuel_disagreements, candidates


def test_bundled_candidates_up_to_cost_2_agree():
    cases = fuel_disagreements = 0
    for name, model, program in bundled_programs():
        tilde = rewrite(program, model)
        signatures = (None, parse_signature(program.entry_func()))
        more, fuel_only, _ = assert_candidates_agree(tilde, CANDIDATE_INPUTS, 2,
                                                     signatures=signatures)
        cases += more
        fuel_disagreements += fuel_only
        texts = {}  # printed text -> structural key
        for picks, _ in enumerate_candidates(tilde, 2):
            candidate = instantiate(tilde, picks)
            key = candidate.key()
            assert texts.setdefault(pretty_program(candidate), key) == key
        # each text has one key: the text fingerprint by which `cegis_min`
        # skips twins of the fixes it found partitions candidates as `key()` does
        assert len(texts) == len(set(texts.values()))
    assert cases > 35_000
    assert fuel_disagreements < cases // 10  # most faults are not at the boundary


def test_choice_sites_with_reference_callees():
    reference = parse_imp(
        "def apply_int(x_int, y_int):\n    return helper(x_int) + helper(y_int)\n\n"
        "def helper(x_int):\n    return x_int * 2\n"
    )
    student = parse_imp(
        "def apply_int(x_int, y_int):\n    z = helper(x_int)\n    return z - helper(y_int)\n\n"
        "def helper(x_int):\n    return x_int + 2\n"
    )
    model = parse_eml(
        "rule OpF: a0 aop a1 -> a0 ~aop a1\n"
        "rule CallF: helper(a) -> helper({a + 1, ?a})\n"
        "rule RetF: return a -> return {a + 1, 0}\n"
    )
    callees = {f.name: f for f in reference.functions}
    tilde = rewrite(student, model)
    inputs = [(x, y) for x in (-8, -1, 0, 3, 7) for y in (-3, 2)]
    _, _, candidates = assert_candidates_agree(tilde, inputs, 2, callees)
    assert candidates > 30
    # the helpers that run are the reference's: 2x + 2y, not (x + 2) + (y + 2)
    run = COMPILERS[300].compile(tilde, callees)
    opf = next(s for s in tilde.sites if s.kind == "op")
    plus = [alt.payload for alt in opf.alternatives].index("+")
    assert run((1, 2), picks_for(tilde, {opf.site_id: plus})) == 6


# Statement, block and assignment-target sites: the bundled models make only
# expression and operator sites.
SITE_KINDS_INPUTS = [((), 0), ((3,), 2), ((-2, 5), -3), ((1, 7, -8), 1), ((6, -1, 2), 7)]


@pytest.mark.parametrize("kind", sorted(SITE_KINDS_MODELS))
def test_statement_block_and_target_sites_agree(kind):
    tilde = rewrite(parse_imp(SITE_KINDS_STUDENT), parse_eml(SITE_KINDS_MODELS[kind]))
    sites = {s.kind for s in tilde.sites}
    assert (kind if kind in ("stmt", "block") else "expr") in sites
    if "target" in kind:  # a site picks the variable an assignment stores to
        stored = [st.target for st in lang.walk(tilde.root.functions[0].body)
                  if isinstance(st, (lang.Assign, lang.AugAssign))]
        assert any(type(t) is ChoiceSite or type(getattr(t, "base", None)) is ChoiceSite
                   for t in stored)
    max_cost = 1 if kind == "target" else 2  # `v -> ?v` makes a site of every variable
    _, _, candidates = assert_candidates_agree(tilde, SITE_KINDS_INPUTS, max_cost, compilers=FUEL_SWEEP)
    assert candidates > 3


def test_spliced_statement_lists_agree():
    # a statement site whose alternatives are a statement, an empty list and
    # a list of two; `y` is assigned only in some alternatives, and the later
    # site reads it or not
    program = parse_imp(
        "def f_int(x_int):\n"
        "    y = x_int + 1\n"
        "    if x_int > 0:\n"
        "        return y\n"
        "    x_int -= 1\n"
        "    return x_int\n"
    )
    assign, guard, dec, ret = program.functions[0].body
    spliced = parse_imp("def g(x_int):\n    y = 2\n    x_int += y\n    return 0\n").functions[0].body[:2]
    body = [
        ChoiceSite(assign.span, assign,
                   [Alternative(assign), Alternative([], "Del", 1), Alternative(spliced, "Two", 1)]),
        lang.If(guard.cond, [ChoiceSite(guard.span, guard,
                                        [Alternative(guard.then_body[0]), Alternative([], "Del", 1)])],
                []),
        ChoiceSite(dec.span, dec, [Alternative(dec), Alternative([], "Del", 1)]),
        ret,
    ]
    root = lang.Program([lang.FuncDef("f_int", ["x_int"], body)], "f_int")
    tilde = TildeProgram(root)
    inputs = [(x,) for x in range(-8, 8)]
    _, _, candidates = assert_candidates_agree(tilde, inputs, compilers=FUEL_SWEEP)
    assert candidates == 3 * 2 * 2
    run = COMPILERS[300].compile(tilde)
    with pytest.raises(Fault) as unbound:
        run((3,), (1, 0, 0))  # `y` deleted, then read
    assert unbound.value.kind == "TypeMismatch"
    assert run((3,), (2, 0, 0)) == 2 and run((-3,), (2, 0, 1)) == -1


def test_too_deep_choice_site_program_is_a_source_error():
    tilde = rewrite(nested_loops(22), parse_eml("rule LitF: 1 -> {2, 0}\n"))
    assert len(tilde.sites) == 1
    with pytest.raises(SourceError, match="nested too deeply to compile"):
        COMPILERS[300].compile(tilde)


# -- ill-typed programs ------------------------------------------------------
#
# The compiler leaves out a check only where it has proven the operand's
# type.  These programs give it every chance to prove one wrongly: an int
# variable is sometimes given a bool or a list, lists mix ints and bools,
# bools meet arithmetic and ordering, the alternatives of a choice site
# differ in type, and the entry is called with arguments outside its
# signature, by itself or by a reference helper.  A wrong proof shows as a
# value where the spec faults, or as a Python error.


def mixed_site(default, others: list) -> ChoiceSite:
    """A site that keeps `default` or picks one of `others`."""
    alternatives = [Alternative(default)] + [Alternative(o, "Mix", 1) for o in others]
    return ChoiceSite(lang.NO_SPAN, None, alternatives)


@functools.lru_cache(maxsize=None)
def ill_typed(depth: int):
    """Expressions that combine values of any type: bools in arithmetic and
    ordering, lists that mix ints and bools, and sites whose alternatives
    differ in type."""
    leaves = st.one_of(
        st.integers(-9, 9).map(lang.IntLit),
        st.booleans().map(lang.BoolLit),
        st.sampled_from(INT_VARS + LIST_VARS + (ANY_VAR,)).map(lang.Var),
    )
    if depth == 0:
        return leaves
    inner = leaves | ill_typed(depth - 1)  # leaves often, so that fewer runs fault early
    return st.one_of(
        leaves,
        st.lists(inner, min_size=1, max_size=3).map(lang.ListLit),
        st.builds(lang.BinOp, inner, st.sampled_from(lang.ARITH_OPS), inner),
        st.builds(lang.Compare, inner, st.sampled_from(lang.COMPARE_OPS), inner),
        st.builds(lang.Index, inner, inner),
        inner.map(lambda x: lang.Call("len", [x])),
        st.builds(mixed_site, inner, st.lists(inner, min_size=1, max_size=2)),
    )


def ill_typed_steps(name: str):
    """Statements that break the type variable `name`'s own name suggests
    (an int for INT_VARS, a list of ints for LIST_VARS), each followed by a
    read of `name` whose checks a proven type would leave out.  Or the
    statements run in a loop, twice, after a copy of `name` that the read
    after the loop reads: its second value comes from a later store."""
    var = lang.Var(name)
    i, l = exprs("int", 0), exprs("list", 0)
    b = st.booleans().map(lang.BoolLit) | exprs("bool", 1)
    # the alternatives of a site: ints and one bool or list, in any order
    mixed = st.builds(lambda bad, ints, at: ints[:at] + [bad] + ints[at:],
                      b | l, st.lists(i, min_size=1, max_size=2), st.integers(0, 2))
    if name in INT_VARS:
        ill = st.one_of(
            st.builds(lang.Assign, st.just(var), b | l),
            st.builds(lang.AugAssign, st.just(var), st.sampled_from("+-*/"), b),
            mixed.map(lambda alts: lang.Assign(var, mixed_site(alts[0], alts[1:]))),
            mixed.map(lambda alts: mixed_site(lang.Assign(var, alts[0]),
                                              [lang.Assign(var, a) for a in alts[1:]])),
        )
        def reads(var):
            return st.one_of(
                st.builds(lang.BinOp, st.just(var), st.sampled_from(("+", "-", "*")), i),
                st.builds(lang.BinOp, mixed.map(lambda alts: mixed_site(alts[0], alts[1:])),
                          st.sampled_from(("+", "-", "*")), st.just(var)),
                st.builds(lang.Compare, st.just(var), st.sampled_from(lang.COMPARE_OPS), i),
                st.builds(lang.Index, st.just(lang.Var("xs")), st.just(var)),
                st.builds(lambda y: lang.Call("range", [var, y]), i),
            )
    else:
        ill = st.one_of(
            st.builds(lang.Assign, st.just(var),
                      st.lists(i | b, min_size=1, max_size=3).map(lang.ListLit)),
            st.builds(lang.Assign, st.builds(lang.Index, st.just(var), i), b),
            st.builds(lang.MethodCall, st.just(name), st.just("append"), b.map(lambda x: [x])),
        )
        def reads(var):
            return st.one_of(
                st.builds(lang.BinOp, st.builds(lang.Index, st.just(var), i), st.just("+"), i),
                st.builds(lang.Compare, st.just(var), st.sampled_from(["==", "!="]), l),
                st.just(lang.Call("len", [var])),
            )
    # the entry called with arguments outside its signature, or a helper
    # that a reference may redirect to the entry
    leaf = i | b | l
    call = st.builds(lambda f, x, y: lang.Assign(lang.Var(ANY_VAR), lang.Call(f, [x, y])),
                     st.sampled_from("fg"), leaf, leaf)
    stmts = st.lists(ill | call, min_size=1, max_size=2)
    copy = lang.Var("copy")
    looped = lambda stmts: [lang.ForIn("k", lang.Call("range", [lang.IntLit(2)]),
                                       [lang.Assign(copy, var)] + stmts)]
    return st.one_of(
        st.builds(lambda stmts, r: stmts + [lang.Assign(lang.Var(ANY_VAR), r)], stmts, reads(var)),
        st.builds(lambda stmts, r: looped(stmts) + [lang.Assign(lang.Var(ANY_VAR), r)],
                  stmts, reads(copy)),
    )


# a well-typed body into which ill-typed statements are spliced, so that
# the variables they leave alone keep a type the compiler can prove
ill_typed_programs = st.builds(
    lambda body, ret, helper, helper_ret: lang.Program(
        [lang.FuncDef("f", ["xs", "n"], F_PRELUDE + body + [lang.Return(ret)]),
         lang.FuncDef("g", ["n", "a"], G_PRELUDE + helper + [lang.Return(helper_ret)])],
        "f",
    ),
    st.builds(lambda body, ill, at: body[:at] + ill + body[at:], blocks(2),
              st.one_of(*map(ill_typed_steps, INT_VARS + LIST_VARS)), st.integers(0, 3)),
    exprs("any", 2) | ill_typed(2), blocks(1), exprs("int", 2),
)

# with `callees`, `g` is a reference helper that calls the entry back with
# an int for its list
REFERENCE_G = lang.FuncDef(
    "g", ["n", "a"], [lang.Return(lang.Call("f", [lang.Var("a"), lang.Var("n")]))]
)


@given(ill_typed_programs, st.booleans())
@settings(max_examples=150, deadline=None)
def test_ill_typed_programs_agree(program, reference_callees):
    tilde = TildeProgram(program)
    callees = {"g": REFERENCE_G} if reference_callees else None
    assert_candidates_agree(tilde, INPUTS, 1, callees, signatures=(None, SIGNATURE))


UNPROVEN = [
    # an int variable that is sometimes a bool
    ("def f_int(x_int):\n    y = 1\n    if x_int > 0:\n        y = x_int > 1\n    return y + 1\n",
     None, [(0,), (1,), (2,)]),
    # a list of an int and a bool: Python's `(1, 1) == (1, True)` holds
    ("def f_bool(x_list_int):\n    return x_list_int == [1, 1 > 0]\n", None, [((1, 1),), ((1,),)]),
    # the entry called with a bool
    ("def f_int(x_int):\n    if x_int == 0:\n        return f_int(True)\n    return x_int + 1\n",
     None, [(0,), (1,)]),
    # choice sites whose alternatives are an int or a bool
    ("def f_int(x_int):\n    y = 1\n    return y + x_int\n", "rule BoolF: n -> {n + 1, True}\n",
     [(0,), (3,)]),
    ("def f_int(x_int):\n    y = 1\n    return y + x_int\n", "rule BoolF: n -> {True, n + 1}\n",
     [(0,), (3,)]),
]


@pytest.mark.parametrize("source,model,inputs", UNPROVEN)
def test_unproven_types_keep_their_checks(source, model, inputs):
    program = parse_imp(source)
    tilde = rewrite(program, parse_eml(model or ""))
    signatures = (None, parse_signature(program.entry_func()))
    assert_candidates_agree(tilde, inputs, callees=None, signatures=signatures)


def test_entry_called_back_by_a_reference_helper_keeps_its_checks():
    # with the reference's `g`, the entry is called with a bool
    student = parse_imp(
        "def f_int(x_int):\n    if x_int == 0:\n        return g(x_int)\n    return x_int + 1\n\n"
        "def g(n):\n    return n\n"
    )
    reference = parse_imp("def g(n):\n    return f_int(True)\n\ndef f_int(x_int):\n    return 0\n")
    callees = {"g": reference.func("g")}
    tilde = rewrite(student, parse_eml(""))
    signatures = (None, parse_signature(student.entry_func()))
    assert_candidates_agree(tilde, [(0,), (1,)], callees=callees, signatures=signatures)


def compiled_names(run) -> set:
    """The global names that the compiled functions behind `run` read,
    among them the runtime helpers they call."""
    names = set(run.__code__.co_names)
    for cell in run.__closure__ or ():
        code = getattr(cell.cell_contents, "__code__", None)
        if code is not None:
            names |= set(code.co_names)
    return names


def test_reference_runs_without_type_checks(deriv_ref, deriv_oracle_w3):
    checks = {"_seq", "_bool", "_mul", "_len"}
    typed = deriv_oracle_w3.compile(deriv_ref)
    assert not compiled_names(typed) & checks
    # without the signature only `_bool` goes: a comparison gives a bool
    assert compiled_names(COMPILERS[300].compile(deriv_ref)) & checks == checks - {"_bool"}


# -- the tick bound ----------------------------------------------------------
#
# A program whose loops are all `for` over `range(...)` and which calls
# nothing but `len` and `range` has a static bound on the ticks a run
# spends.  At a fuel no smaller than it no run can exhaust the fuel, and the
# compiled code charges and checks none; above the fuel, or with no bound,
# the code is as it always was.


def tick_bound(root, bits: int = 4) -> int:
    return compiler_module._survey(root, {}, Bounds(bits, 3, fuel=10**9))[1]


def fuel_free(run) -> bool:
    """Whether the compiled `run` keeps no fuel counter."""
    return "_fuel" not in run.__code__.co_freevars


bounded_programs = st.builds(
    lambda body, ret: lang.Program(
        [lang.FuncDef("f", ["xs", "n"], F_PRELUDE + body + [lang.Return(ret)])], "f"
    ),
    blocks(2, bounded=True), exprs("any", 2, calls=False),
)


@given(bounded_programs)
@settings(max_examples=100, deadline=None)
def test_no_run_spends_more_ticks_than_the_bound(program):
    # nested range loops, indexed augmented stores and choice sites, run
    # at a fuel of exactly the bound: the spec never exhausts it, so the
    # compiled code, which charges no fuel, agrees with it on every run
    tilde = TildeProgram(program)
    bound = tick_bound(tilde.root)
    assert bound <= 10**9
    compiler = Compiler(Bounds(4, 3, fuel=bound))
    assert fuel_free(compiler.compile(tilde))
    _, fuel_only, _ = assert_candidates_agree(tilde, INPUTS, 2, compilers={bound: compiler},
                                              signatures=(None, SIGNATURE))
    assert fuel_only == 0


# -- the picks a run reads ---------------------------------------------------
#
# Compiled code reads a pick only as `_sK == i` or `_oK[_sK]`, and only
# where site K's code runs (`sites_read`).  So a candidate that moves any
# pick its run did not read to another alternative runs the same way on
# that input: the same value or fault kind, compiled and under the spec.


def with_operator_site(program, left, right, ops, at):
    """`program` with ``lambda = left op right`` put at `at` after its
    entry's prelude, where the operator is a site over `ops`."""
    entry = program.functions[0]
    node = (lang.BinOp if ops is lang.ARITH_OPS else lang.Compare)(
        left, mixed_site(ops[0], list(ops[1:])), right)
    at += len(F_PRELUDE)
    body = entry.body[:at] + [lang.Assign(lang.Var(ANY_VAR), node)] + entry.body[at:]
    return lang.with_field(program, "functions",
                           [lang.with_field(entry, "body", body)] + program.functions[1:])


# choice-site programs with expression, statement, nested and operator
# sites, bounded ones (fuel-free at the higher fuel) and fueled ones
sited_programs = st.builds(
    with_operator_site, bounded_programs | ill_typed_programs, exprs("int", 1, False),
    exprs("int", 1, False), st.sampled_from([lang.ARITH_OPS, lang.COMPARE_OPS]),
    st.integers(0, 3),
)


def canonical(tilde, picks) -> tuple:
    """`picks` with every site inside an unpicked alternative at its default."""
    picks = list(picks)
    for site in tilde.sites:  # an enclosing site has the lower id
        if site.parent is not None and picks[site.parent[0]] != site.parent[1]:
            picks[site.site_id] = 0
    return tuple(picks)


def same_outcome(a, b) -> bool:
    """Whether two (value, fault kind) outcomes are the same."""
    return a[1] == b[1] and (a[1] is not None or values_equal(a[0], b[0]))


@given(sited_programs, st.sampled_from(INPUTS), st.data())
@settings(max_examples=150, deadline=None)
def test_picks_a_run_did_not_read_leave_its_outcome_alone(program, args, data):
    tilde = TildeProgram(program)
    sites = tilde.sites
    arity = [len(site.alternatives) for site in sites]
    picks = canonical(tilde, data.draw(st.tuples(*(st.integers(0, n - 1) for n in arity))))
    for compiler in COMPILERS.values():
        run = compiler.compile(tilde)
        read = sites_read(run, args, picks)
        moved = canonical(tilde, tuple(
            pick if read >> k & 1 or arity[k] == 1
            else (pick + data.draw(st.integers(1, arity[k] - 1))) % arity[k]
            for k, pick in enumerate(picks)
        ))
        assert all(moved[k] == picks[k] for k in range(len(sites)) if read >> k & 1)
        assert same_outcome(outcome(run, args, moved), outcome(run, args, picks)), (picks, moved)
        want, got = (evaluate(instantiate(tilde, p), args, compiler.bounds)
                     for p in (picks, moved))
        assert same_outcome((got.value, got.fault), (want.value, want.fault)), (picks, moved)


# ticks: 6 for the `for`, 7 per iteration (the index of the augmented
# target is evaluated twice) and 2 for the `return`; the bound counts 16
# iterations and the whole target twice
AUGMENTED_IN_A_LOOP = (
    "def f_list_int(x_list_int):\n    for k in range(0 - 8, 7):\n"
    "        x_list_int[0] += k\n    return x_list_int\n"
)


def test_an_augmented_index_store_in_a_loop_stays_within_the_bound():
    program = parse_imp(AUGMENTED_IN_A_LOOP)
    bound = tick_bound(program)
    assert bound == 6 + 16 * (1 + 8) + 2
    spec = Evaluator(program, Bounds(4, 1, fuel=bound))
    assert spec.run(((1,),)).value == (2,) and bound - spec.fuel == 6 + 15 * 7 + 2
    compiler = Compiler(Bounds(4, 1, fuel=bound))
    run = compiler.compile(program)
    assert fuel_free(run)
    for args in [((1,),), ((),)]:
        assert_agree(program, args, compiler, run=run)


@pytest.mark.parametrize("source", [
    "def f_int(x_int):\n    for k in [1, 2]:\n        pass\n    return 0\n",
    "def f_int(x_int):\n    for k in range(3):\n        pass\n    return 0\n\n"
    "def range(n):\n    return [n]\n",
    "def f_int(x_int):\n    return g(x_int)\n\ndef g(n):\n    return n\n",
])
def test_a_loop_over_a_list_or_a_call_of_a_function_has_no_bound(source):
    program = parse_imp(source)
    assert tick_bound(program) == 10**9 + 1
    assert not fuel_free(COMPILERS[300].compile(program))


# what the compiler emitted before a program's tick bound was known, and
# still emits where the bound is above the fuel or there is none
FUELED_SOURCES = {
    "while": ("def f_int(x_int):\n    while x_int > 0:\n        x_int -= 1\n    return x_int\n",
              100_000, """\
def _make():
    _fuel = 0
    def _f0(v_x_int, _d):
        nonlocal _fuel
        if _d > 64 or _fuel < 0:
            raise Fault('FuelExhausted')
        _fuel -= 1
        while True:
            _fuel -= 4
            if _fuel < 0:
                raise Fault('FuelExhausted')
            if not _gt(v_x_int, (0)):
                break
            _fuel -= 3
            v_x_int = _sub(v_x_int, (1))
        _fuel -= 2
        return v_x_int
        raise Fault('NoReturn')
"""),
    "recursion": ("def f_int(x_int):\n    if x_int < 1:\n        return 0\n"
                  "    return f_int(x_int - 1) + 1\n", 100_000, """\
def _make():
    _fuel = 0
    def _f0(v_x_int, _d):
        nonlocal _fuel
        if _d > 64 or _fuel < 0:
            raise Fault('FuelExhausted')
        _fuel -= 4
        if _lt(v_x_int, (1)):
            _fuel -= 2
            return (0)
        _fuel -= 7
        return _add(_f0(_sub(v_x_int, (1)), _d + 1), (1))
        raise Fault('NoReturn')
"""),
    "one tick over the fuel": (AUGMENTED_IN_A_LOOP, 151, """\
def _make():
    _fuel = 0
    def _f0(v_x_list_int, _d):
        nonlocal _fuel
        if _d > 64 or _fuel < 0:
            raise Fault('FuelExhausted')
        _fuel -= 6
        for v_k in range((-8), (7)):
            _fuel -= 1
            if _fuel < 0:
                raise Fault('FuelExhausted')
            _fuel -= 6
            _t = _add(_index(_seq(v_x_list_int), (0)), v_k)
            v_x_list_int = _store(_list(v_x_list_int), (0), _t)
        _fuel -= 2
        return v_x_list_int
        raise Fault('NoReturn')
"""),
}


@pytest.mark.parametrize("name", sorted(FUELED_SOURCES))
def test_a_program_that_can_exhaust_its_fuel_keeps_every_charge_and_check(name):
    source, fuel, functions = FUELED_SOURCES[name]
    emitted = compiler_module._Emitter(parse_imp(source), {}, Bounds(4, 1, fuel), 0).source()
    assert emitted == functions + f"""\
    def _run(_args, _picks=()):
        nonlocal _fuel
        if len(_args) != 1:
            raise Fault('TypeMismatch')
        _fuel = {fuel}
        try:
            value = _f0(*_args, 1)
        except NameError:
            raise Fault('TypeMismatch') from None
        if _fuel < 0:
            raise Fault('FuelExhausted')
        return value
    return _run
"""
    assert tick_bound(parse_imp(source)) > fuel


# -- the runner where no run can exhaust its fuel -----------------------------
#
# There the entry's own `def` is the runner: it checks the arity, unpacks
# the arguments and the picks into its locals and runs the body under one
# `try`, which turns a read before assignment into a TypeMismatch.


def test_the_runner_checks_its_arity_and_reads_before_assignment():
    program = parse_imp(
        "def f_int(x_int, y_int):\n    if x_int > 0:\n        z = y_int\n    return z + 1\n"
    )
    for signature in (None, parse_signature(program.entry_func())):
        run = COMPILERS[300].compile(program, signature=signature)
        assert fuel_free(run) and run.__code__.co_varnames[:2] == ("_args", "_picks")
        for args in [(), (1,), (1, 2, 3)]:
            with pytest.raises(Fault) as wrong:
                run(args)
            assert wrong.value.kind == "TypeMismatch"
        assert run((1, 2)) == 3
        with pytest.raises(Fault) as unbound:
            run((0, 2))  # `z` read before any assignment
        assert unbound.value.kind == "TypeMismatch"
        assert run.returns == "int" and run.exact is False  # the reference's type is unknown
        exact = COMPILERS[300].compile(program, signature=signature, reference_type="int")
        assert exact.returns == "int" and exact.exact is True


def test_consecutive_runs_with_different_picks_return_their_own_values(deriv_student, deriv_model):
    tilde = rewrite(deriv_student, deriv_model)
    compiler = Compiler(Bounds(4, 3))  # its fuel is above the program's 1,111 ticks
    signature = parse_signature(deriv_student.entry_func())
    runs = [compiler.compile(tilde, signature=signature), compiler.compile(tilde)]
    assert all(map(fuel_free, runs))
    candidates = [picks for picks, _ in enumerate_candidates(tilde, 1)]
    args = ((1, -2, 3),)
    want = {picks: evaluate(instantiate(tilde, picks), args, compiler.bounds)
            for picks in candidates}
    assert len({repr(result) for result in want.values()}) > 3
    default = tilde.defaults()
    for picks in candidates:  # each candidate between two runs of the unchanged program
        for each in (default, picks, default):
            for run in runs:
                assert_agree(None, args, compiler, run=run, picks=each, want=want[each])


def test_the_deepest_parsed_program_compiles_with_no_fuel_code():
    # 16 nested loops, the parser's limit, inside the runner's `try`: 17 of
    # the 20 blocks Python's compiler nests statically
    source = "def f_int(x_int):\n"
    for depth in range(16):
        source += "    " * (depth + 1) + f"for k{depth} in range(x_int):\n"
    source += "    " * 17 + "return x_int + 1\n    return 0\n"
    program = parse_imp(source)
    tilde = rewrite(program, parse_eml("rule LitF: 1 -> {2, 0}\n"))
    assert len(tilde.sites) == 1
    compiler = Compiler(Bounds(4, 0, fuel=10**30))
    signature = parse_signature(program.entry_func())
    run, sites = (compiler.compile(p, signature=signature) for p in (program, tilde))
    assert fuel_free(run) and fuel_free(sites)
    for x in (-3, 0, 1, 3):
        assert_agree(program, (x,), compiler, run=run)
        assert sites((x,), (1,)) == (0 if x < 1 else x + 2)  # `1` picked as `2`


# -- static ticks --------------------------------------------------------------
#
# `_ticks` is the one rule for the ticks that an expression's code is charged
# where it starts: a tick per node that always runs, none for an operator,
# an expression site's cheapest alternative.  The right operand of
# `and`/`or` and a conditional's branches are charged when they run.

TICKS_SOURCE = "def f(x, y, xs):\n    return {}\n\ndef g(a, b):\n    return a\n"


def expression(text: str):
    return parse_imp(TICKS_SOURCE.format(text)).functions[0].body[0].value


def at_op_site(text: str, *ops):
    """The operation `text` with its operator at a site over it and `ops`."""
    node = expression(text)
    return lang.with_field(node, "op", mixed_site(node.op, list(ops)))


def expr_site(default, *others):
    """An expression site over `default` and `others`, texts or nodes."""
    default, *others = (expression(e) if type(e) is str else e for e in (default, *others))
    return mixed_site(default, others)


TICKS = {
    "7": (expression("7"), 1),
    "True": (expression("True"), 1),
    "x": (expression("x"), 1),
    "[]": (expression("[]"), 1),
    "[x, 1, y]": (expression("[x, 1, y]"), 4),
    "xs[x]": (expression("xs[x]"), 3),
    "xs[:]": (expression("xs[:]"), 2),
    "xs[1:]": (expression("xs[1:]"), 3),
    "xs[:x + 1]": (expression("xs[:x + 1]"), 5),
    "len(xs)": (expression("len(xs)"), 2),
    "g(x, 1)": (expression("g(x, 1)"), 3),
    "not x": (expression("not x"), 2),
    "x - 1": (expression("x - 1"), 3),
    "x {- + *} 1": (at_op_site("x - 1", "+", "*"), 3),
    "x {< == >=} y": (at_op_site("x < y", "==", ">="), 3),
    "x > 0 and xs[0] > 1": (expression("x > 0 and xs[0] > 1"), 4),
    "x or not y": (expression("x or not y"), 2),
    "xs if x > 0 else [x, 1]": (expression("xs if x > 0 else [x, 1]"), 4),
    "{x + 1, x, [x, y]}": (expr_site("x + 1", "x", "[x, y]"), 1),
    "len(xs) + {x * y, 1}": (lang.BinOp(expression("len(xs)"), "+", expr_site("x * y", "1")), 4),
    "{x * y * 2, {xs[0], 7} + 1}": (
        expr_site("x * y * 2", lang.BinOp(expr_site("xs[0]", "7"), "+", lang.IntLit(1))), 3),
}


@pytest.mark.parametrize("name", sorted(TICKS))
def test_static_ticks_follow_one_rule(name):
    node, ticks = TICKS[name]
    assert compiler_module._ticks(node) == ticks


# a loop whose condition holds an expression site and an `and`, and sums at
# operator sites, run at every fuel up to past the ticks a run spends
SWEPT_SOURCE = (
    "def f_int(xs_list_int, n_int):\n"
    "    s = 0\n"
    "    i = 0\n"
    "    while i < len(xs_list_int) and xs_list_int[i] > n_int - 5:\n"
    "        s = s + xs_list_int[i]\n"
    "        i += 1\n"
    "    return s\n"
)
SWEPT_MODEL = "rule LenF: len(a) -> {len(a) - 1, 0}\nrule OpF: a0 aop a1 -> a0 ~aop a1\n"


def test_static_ticks_agree_with_the_spec_at_every_fuel():
    tilde = rewrite(parse_imp(SWEPT_SOURCE), parse_eml(SWEPT_MODEL))
    assert sorted(site.kind for site in tilde.sites) == ["expr", "op", "op"]
    _, _, candidates = assert_candidates_agree(tilde, SITE_KINDS_INPUTS, compilers=FUEL_SWEEP)
    assert candidates == 3 * 4 * 4


def test_a_fuel_free_program_counts_no_ticks(monkeypatch, deriv_ref, deriv_student, deriv_model,
                                            deriv_oracle_w3, reverse_student, reverse_model):
    """Every computeDeriv program compiles at the command line's bounds
    without counting a tick: the reference, the student alone and as a
    choice-site program, its fix and the corpus's choice-site programs.
    The array-reverse choice-site program, which can exhaust its fuel,
    counts them."""
    tilde = rewrite(deriv_student, deriv_model)
    fix = instantiate(tilde, cegis_min(tilde, deriv_oracle_w3, max_cost=5).picks)
    programs = [deriv_ref, deriv_student, tilde, fix]
    for path in sorted(glob.glob(os.path.join(ASSETS, "computederiv", "corpus", "*.imp"))):
        try:
            programs.append(rewrite(parse_imp(read(path)), deriv_model))
        except SourceError:
            continue  # the corpus holds one unparseable submission
    assert len(programs) == 4 + 14
    ticks, counted = compiler_module._ticks, []

    def refused(node):
        raise AssertionError(f"a fuel-free program counts the ticks of {node!r}")

    def counting(node):
        counted.append(node)
        return ticks(node)

    compiler = Compiler(Bounds())
    monkeypatch.setattr(compiler_module, "_ticks", refused)
    for program in programs:
        assert fuel_free(compiler.compile(program, signature=parse_signature(deriv_ref.entry_func())))
    monkeypatch.setattr(compiler_module, "_ticks", counting)
    reverse = rewrite(reverse_student, reverse_model)
    assert not fuel_free(compiler.compile(reverse, signature=parse_signature(reverse_student.entry_func())))
    assert counted


# -- facts the analysis proves ------------------------------------------------
#
# `_survey` walks a program once, through every alternative of every site,
# and finds each function's stores and the loops that range over a
# length.  In every program, fueled or not, two checks go: `v[i]` in the
# body of `for i in range([k,] len(v))` is in range when `range` and `len`
# are the builtins, `v` is a proven list, `k` a constant of at least 0 and
# nothing in the body (in any alternative) stores `i` or `v`; and `len` of
# an entry list parameter that the entry never stores needs no wrap while
# no input list is longer than the largest int.


def survey(program, bounds=Bounds(4, 3)):
    return compiler_module._survey(program, {}, bounds)


def stored(program) -> set:
    """The names the survey finds that the entry of `program` stores."""
    return {name for name, _, _ in survey(program)[3][id(program.entry_func())]}


def entry_stores(*body):
    return stored(lang.Program([lang.FuncDef("f", ["xs", "n"], list(body))], "f"))


def test_the_survey_names_every_variable_the_entry_may_store_to():
    program = parse_imp(
        "def f(xs, n):\n    a = xs[n]\n    xs[0] = a\n    b += 1\n    ys.append(n)\n"
        "    for k in range(n):\n        if k > 0:\n            c = k\n    return a\n\n"
        "def g(n):\n    z = n\n    return z\n"
    )
    body = program.functions[0].body
    assert stored(program) == {"a", "xs", "b", "ys", "k", "c"}  # not `g`'s `z`
    assert entry_stores(body[4]) == {"k", "c"} and entry_stores(lang.Return(body[0].value)) == set()
    # inside every alternative of a choice site: a statement site, a target
    # site and a site at an indexed target's variable
    one = lang.IntLit(1)
    assert entry_stores(mixed_site(lang.Pass(), [[lang.Assign(lang.Var("d"), one)]])) == {"d"}
    assert entry_stores(lang.Assign(mixed_site(lang.Var("e"), [lang.Var("f")]), one)) == {"e", "f"}
    indexed = lang.Index(mixed_site(lang.Var("g"), [lang.Var("h")]), lang.Var("i"))
    assert entry_stores(lang.AugAssign(indexed, "+", one)) == {"g", "h"}


def every_node(fragment):
    """`lang.walk` of `fragment` and of every alternative of every choice
    site in it."""
    top = fragment if type(fragment) is list else [fragment]
    sites = [c for c in top if type(c) is ChoiceSite]
    for node in lang.walk(fragment):
        yield node
        sites += [c for c in lang.children(node) if type(c) is ChoiceSite]
    for site in sites:
        for alt in site.alternatives:
            yield from every_node(alt.payload)


def target_names(target) -> set:
    if type(target) is ChoiceSite:
        return set().union(*(target_names(alt.payload) for alt in target.alternatives))
    if type(target) is lang.Index:
        return target_names(target.base)
    return {target.name} if type(target) is lang.Var else set()


def stored_names(fragment) -> set:
    """The recount of the names a fragment may store to."""
    names = set()
    for node in every_node(fragment):
        if type(node) in (lang.Assign, lang.AugAssign):
            names |= target_names(node.target)
        elif type(node) is lang.MethodCall:
            names.add(node.obj)
        elif type(node) is lang.ForIn:
            names.add(node.var)
    return names


def target_wraps(target, wrap=str):
    """(name, wrap) for each variable a store to `target` binds: an indexed
    target's variable holds a list, and a store through two indices none."""
    if type(target) is ChoiceSite:
        for alt in target.alternatives:
            yield from target_wraps(alt.payload, wrap)
    elif type(target) is lang.Index and wrap is str:
        yield from target_wraps(target.base, compiler_module._list_of)
    elif type(target) is lang.Var:
        yield target.name, wrap


def typed_stores(fragment) -> collections.Counter:
    """The recount of the stores of a fragment: (name, value, wrap), with
    the value's id, or an augmented assignment's operands' ids and
    operator for the ``target op value`` it stores."""
    out = collections.Counter()
    for node in every_node(fragment):
        cls = type(node)
        if cls is lang.Assign or cls is lang.AugAssign:
            value = id(node.value) if cls is lang.Assign else (id(node.target), node.op, id(node.value))
            for name, wrap in target_wraps(node.target):
                out[name, value, wrap] += 1
        elif cls is lang.MethodCall:
            out[node.obj, id(node.args[0]), compiler_module._list_of] += 1
        elif cls is lang.ForIn:
            out[node.var, id(node.iterable), compiler_module._element] += 1
    return out


def ranged_loops(program, bounds) -> dict:
    """The recount of the loops that put `v[i]` in range, by id, with `v`."""
    out = {}
    if {"len", "range"} & {f.name for f in program.functions}:
        return out
    for loop in (n for f in program.functions for n in every_node(f.body)):
        it = loop.iterable if type(loop) is lang.ForIn else None
        if type(it) is not lang.Call or it.func != "range" or len(it.args) not in (1, 2):
            continue
        *start, n = it.args
        starts = [((k.value + bounds.half) & bounds.mask) - bounds.half
                  if type(k) is lang.IntLit else -1 for k in start]
        if min(starts, default=0) < 0 or type(n) is not lang.Call or n.func != "len":
            continue
        if len(n.args) == 1 and type(n.args[0]) is lang.Var:
            v = n.args[0].name
            if v != loop.var and not {v, loop.var} & stored_names(loop.body):
                out[id(loop)] = v
    return out


@st.composite
def surveyed_programs(draw):
    """Choice-site programs with `for` loops over ranges of lengths and over
    other iterables, index stores, appends, and statement and target sites,
    in the entry and in a helper; the program may define `len` or `range`."""
    var = st.sampled_from(INT_VARS + LIST_VARS + ("c", "d", "e"))
    small = var.map(lang.Var) | st.integers(-9, 9).map(lang.IntLit)
    either = st.builds(lambda d, o: mixed_site(lang.Var(d), [lang.Var(o)]), var, var)
    target = st.one_of(var.map(lang.Var), either, st.builds(lang.Index, var.map(lang.Var) | either, small))
    length = st.one_of(var.map(lang.Var), var.map(lang.Var), either).map(lambda v: lang.Call("len", [v]))
    start = st.integers(-9, 9).map(lang.IntLit) | st.just(lang.BinOp(lang.IntLit(0), "-", lang.IntLit(1)))
    ranges = length.map(lambda n: lang.Call("range", [n])) | st.builds(
        lambda k, n: lang.Call("range", [k, n]), start, length)
    iterable = st.one_of(
        ranges, ranges, ranges,
        st.builds(lambda k, n: lang.Call("range", [k, n, lang.IntLit(1)]), start, length),
        length.map(lambda n: lang.Call("range", [lang.BinOp(n, "-", lang.IntLit(1))])),
        var.map(lang.Var),
    )
    simple = st.one_of(
        st.builds(lang.Assign, target, small),
        st.builds(lang.AugAssign, target, st.just("+"), small),
        st.builds(lambda v, x: lang.MethodCall(v, "append", [x]), var, small),
        st.just(lang.Pass()),
    )

    def nest(inner):
        block = st.lists(inner, min_size=1, max_size=3)
        return st.one_of(
            st.builds(lang.ForIn, var, iterable, block),
            st.builds(lang.If, st.just(lang.BoolLit(True)), block, st.just([])),
            st.builds(lang.While, st.just(lang.BoolLit(False)), block),
            st.builds(lambda d, o: mixed_site(d, o), inner,
                      st.lists(inner | block, min_size=1, max_size=2)),
        )

    stmts = st.lists(st.recursive(simple, nest, max_leaves=10), min_size=1, max_size=4)
    functions = [lang.FuncDef("f", ["xs", "n"], draw(stmts)), lang.FuncDef("g", ["xs"], draw(stmts))]
    for name in draw(st.sampled_from([(), (), (), ("len",), ("range",)])):
        functions.append(lang.FuncDef(name, ["n"], [lang.Return(lang.Var("n"))]))
    return lang.Program(functions, "f")


@given(surveyed_programs(), st.sampled_from([3, 4]))
@settings(max_examples=200, deadline=None)
def test_the_survey_finds_every_store_and_every_loop_over_a_length(program, bits):
    bounds = Bounds(bits, 3)
    _, _, ranged, typed = survey(program, bounds)
    assert stored(program) == stored_names(program.entry_func().body)
    assert ranged == ranged_loops(program, bounds)
    nodes = {id(node) for func in program.functions for node in every_node(func.body)}
    for func in program.functions:  # a value the survey built is an augmented assignment's
        assert collections.Counter(
            (name, id(value) if id(value) in nodes else (id(value.left), value.op, id(value.right)),
             wrap) for name, value, wrap in typed[id(func)]) == typed_stores(func.body)


# Each function's variables take the least types that hold every store
# (`_Emitter.settle`), in any order of the code: with each function's
# top-level statements reversed, every variable's type is the same, and
# under the final types no store widens one.  `F_PRELUDE` stores every
# variable first, and a read in a loop or of a reversed body comes before a
# store.  Each store of `+` on ints, bools and lists mixed, to a variable of
# its own, has a type that would be wrong if it took an operand's type for
# the result's.  In `tuple_programs`, `x` stores ints, bools and the entry's
# `tuple_int` parameter `t`, and `y` stores sums of `x` and `t`; every such
# program stores an int and a bool to `x` and ``x + t`` to `y`, in any order.

mixed = st.one_of(exprs("int", 0), exprs("bool", 0), exprs("list", 0))
mixed_programs = st.builds(
    lambda sums, ret: lang.Program([lang.FuncDef("f", ["xs", "n"], F_PRELUDE + [
        lang.Assign(lang.Var(f"p{i}"), value) for i, value in enumerate(sums)
    ] + [lang.Return(ret)])], "f"),
    st.lists(st.builds(lang.BinOp, mixed, st.just("+"), mixed), min_size=1, max_size=4),
    exprs("any", 1, False),
)
summed = st.sampled_from(["x", "t"]).map(lang.Var)
tuple_stores = st.one_of(
    st.sampled_from([lang.IntLit(1), lang.BoolLit(True), lang.Var("t")]).map(
        lambda value: lang.Assign(lang.Var("x"), value)),
    st.builds(lambda left, right: lang.Assign(lang.Var("y"), lang.BinOp(left, "+", right)),
              summed, summed),
)
tuple_programs = st.builds(
    lambda stores, ret: lang.Program([
        lang.FuncDef("f", ["xs", "n", "t"], F_PRELUDE + stores + [lang.Return(ret)])], "f"),
    st.lists(tuple_stores, max_size=3).flatmap(lambda more: st.permutations(
        prelude("    x = 1\n    x = True\n    y = x + t\n") + more)),
    st.sampled_from(["x", "y"]).map(lambda v: lang.Call("len", [lang.Var(v)])),
)
# the types the parameters of the generated entries are drawn from
PARAM_TYPES = {"xs": "list_int", "n": "int", "t": "tuple_int"}


def final_types(program, sites: int, signature) -> dict:
    """Each emitted function's name -> its variables' final types, once
    every store has been typed again under them and widened none."""
    types = {}
    function = compiler_module._Emitter.function

    def typed(self, func):
        function(self, func)
        types[func.name] = dict(self.vars)
        self.types = {}  # nothing typed before
        for name, value, wrap in self.stores[id(func)]:
            t = self.vars.get(name, "")
            assert compiler_module._join(t, wrap(self.typeof(value))) == t, (func.name, name)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(compiler_module._Emitter, "function", typed)
        compiler_module._Emitter(program, {}, Bounds(4, 3), sites, signature).source()
    return types


@given(programs | sited_programs | mixed_programs | tuple_programs, st.booleans())
@settings(max_examples=300, deadline=None)
def test_types_hold_every_store_and_do_not_depend_on_the_order_of_the_code(program, signed):
    tilde = TildeProgram(program)
    params = tuple((p, PARAM_TYPES[p]) for p in program.entry_func().params)
    signature = Signature("f", params, "int") if signed else None
    reversed_program = lang.with_field(program, "functions", [
        lang.with_field(func, "body", func.body[::-1]) for func in program.functions])
    want = final_types(program, len(tilde.sites), signature)
    assert final_types(reversed_program, len(tilde.sites), signature) == want


# A read of a variable that no store has reached yet has no value, and
# stays so through an index, a slice and a loop's element: the store after
# it gives the variable its type, and the comparison of what the read
# stored is proven.

@pytest.mark.parametrize("read,compared", [
    ("a = ys[0]", "a == 1"),
    ("a = ys[1:]", "a == [1]"),
    ("for a in ys:\n            n_int = a", "n_int == 1"),
])
def test_a_read_before_every_store_to_its_variable_leaves_its_type_alone(read, compared):
    source = (f"def f_int(xs_list_int, n_int):\n    for k in range(3):\n        {read}\n"
              f"        ys = xs_list_int\n    return {compared}\n")
    code = emitted(source)
    assert f"(v_{compared.split()[0]} == " in code and "_eq(" not in code, code
    program = parse_imp(source)
    signature = parse_signature(program.entry_func())
    for compiler in COMPILERS.values():
        run = compiler.compile(program, signature=signature)
        for args in [((), 0), ((1,), 1), ((1, 2), -1)]:
            assert_agree(program, args, compiler, run=run)


def test_adding_a_tuple_gives_one_type_in_any_order_of_the_code():
    # `x` holds an int and a bool, so it is unknown; `y = x + t_tuple_int`
    # is then unknown too, whichever store to `x` is typed first
    for body in ("x = 1; y = x + t_tuple_int; x = n_int > 0",
                 "x = n_int > 0; y = x + t_tuple_int; x = 1"):
        source = ("def f_int(t_tuple_int, n_int):\n"
                  + "".join(f"    {stmt}\n" for stmt in body.split("; ")) + "    return len(y)\n")
        assert "_len(v_y)" in emitted(source), body
        program = parse_imp(source)
        run = COMPILERS[300].compile(program, signature=parse_signature(program.entry_func()))
        assert_agree(program, (TupleVal((1, 2)), 1), COMPILERS[300], run=run)


def test_bundled_programs_emit_once(monkeypatch, deriv_ref, deriv_student, deriv_model,
                                    deriv_oracle_w3, reverse_ref, reverse_student, reverse_model,
                                    reverse_oracle_w4):
    """Every bundled program emits its entry's ``def`` once: both problems'
    references and students, alone and as choice-site programs, the
    corpus's choice-site programs and computeDeriv's fix."""
    headers = [0]
    emit = compiler_module._Emitter.emit

    def counted(self, depth, line):
        headers[0] += line.startswith("def _f0(")
        return emit(self, depth, line)

    monkeypatch.setattr(compiler_module._Emitter, "emit", counted)
    tilde = rewrite(deriv_student, deriv_model)
    result = cegis_min(tilde, deriv_oracle_w3, max_cost=5)
    deriv = [tilde, deriv_student, rewrite(deriv_ref, deriv_model), deriv_ref,
             instantiate(tilde, result.picks)]
    for path in sorted(glob.glob(os.path.join(ASSETS, "computederiv", "corpus", "*.imp"))):
        try:
            deriv.append(rewrite(parse_imp(read(path)), deriv_model))
        except SourceError:
            continue  # the corpus holds one unparseable submission
    assert len(deriv) == 5 + 14
    reverse = [rewrite(reverse_student, reverse_model), reverse_student,
               rewrite(reverse_ref, reverse_model), reverse_ref]
    for oracle, programs in ((deriv_oracle_w3, deriv), (reverse_oracle_w4, reverse)):
        for program in programs:
            headers[0] = 0
            oracle.compile(program)
            assert headers[0] == 1, pretty_program(getattr(program, "origin", None) or program)


LOOP = ("def f_int(xs_list_int, n_int):\n    s = 0\n    ys = xs_list_int + [1]\n"
        "    for i in {iterable}:\n        s += {read}\n{body}    return s\n")


def emitted(source: str, bounds=Bounds(4, 3, fuel=10**6), signed=True, site=None) -> str:
    """The emitted source of `source`, with its signature if `signed`;
    `site` may turn the program's root into a choice-site program."""
    program = parse_imp(source)
    sites = 0
    if site is not None:
        program, sites = site(program), 1
    signature = parse_signature(program.entry_func()) if signed else None
    return compiler_module._Emitter(program, {}, bounds, sites, signature).source()


def store_in_one_alternative(store: str):
    """Puts a statement site before the loop body's last statement, whose
    alternatives are `pass` and `store`."""
    def site(program):
        loop = next(s for s in program.functions[0].body if type(s) is lang.ForIn)
        other = parse_imp(f"def g(xs_list_int):\n    {store}\n    return 0\n").functions[0].body[0]
        loop.body.insert(0, mixed_site(lang.Pass(), [other]))
        TildeProgram(program)  # numbers the site
        return program
    return site


PLAIN_INDEX = "v_xs_list_int[v_i]"
IN_RANGE = [  # iterable, the read, further statements of the body, kwargs of `emitted`
    ("range(len(xs_list_int))", "xs_list_int[i]", "", {}),
    ("range(0, len(xs_list_int))", "xs_list_int[i]", "", {}),
    ("range(2, len(xs_list_int))", "xs_list_int[i]", "", {}),
    ("range(len(ys))", "ys[i]", "", {}),
    ("range(len(xs_list_int))", "xs_list_int[i]", "        n_int = xs_list_int[i]\n", {}),
    ("range(len(xs_list_int))", "xs_list_int[i]", "",
     {"site": store_in_one_alternative("n_int = 2")}),
    ("range(len(xs_list_int))", "xs_list_int[i]", "", {"bounds": Bounds(4, 3, fuel=10)}),  # fueled
]
CHECKED_INDEX = [
    ("range(9, len(xs_list_int))", "xs_list_int[i]", "", {}),  # 9 wraps to -7 at 4 bits
    ("range(0 - 1, len(xs_list_int))", "xs_list_int[i]", "", {}),
    ("range(1 - 1, len(xs_list_int))", "xs_list_int[i]", "", {}),  # a literal only
    ("range(len(ys))", "xs_list_int[i]", "", {}),
    ("range(len(xs_list_int) - 1)", "xs_list_int[i]", "", {}),
    ("range(len(xs_list_int))", "xs_list_int[i]", "        xs_list_int.append(1)\n", {}),
    ("range(len(xs_list_int))", "xs_list_int[i]", "        xs_list_int[0] = 1\n", {}),
    ("range(len(xs_list_int))", "xs_list_int[i]", "        xs_list_int = [1, 2, 3, 4]\n", {}),
    ("range(len(xs_list_int))", "xs_list_int[i]", "        i = 0\n", {}),
    ("range(len(xs_list_int))", "xs_list_int[i]", "        i += 1\n", {}),
    ("range(len(xs_list_int))", "xs_list_int[i]",
     "        for i in range(2):\n            pass\n", {}),
    ("range(len(xs_list_int))", "xs_list_int[i]", "",
     {"site": store_in_one_alternative("xs_list_int = []")}),
    ("range(len(xs_list_int))", "xs_list_int[i]", "",
     {"site": store_in_one_alternative("xs_list_int.append(1)")}),
    ("range(len(xs_list_int))", "xs_list_int[i]", "",
     {"site": store_in_one_alternative("i = 3")}),
    ("range(len(xs_list_int))", "xs_list_int[i]", "", {"signed": False}),  # not a proven list
]


@pytest.mark.parametrize("iterable,read,body,kwargs", IN_RANGE + CHECKED_INDEX)
def test_an_index_check_goes_exactly_where_the_loop_proves_it(iterable, read, body, kwargs):
    source = LOOP.format(iterable=iterable, read=read, body=body)
    code = emitted(source, **kwargs)
    base, index = read[:-1].split("[")
    plain = f"v_{base}[v_{index}]"
    checked = f"({plain} if 0 <= v_{index} < len(v_{base}) else _out_of_range())"
    if (iterable, read, body, kwargs) in IN_RANGE:
        assert plain in code and "_out_of_range" not in code and "_index" not in code
    else:
        assert checked in code or f"_index(_seq(v_{base}), v_{index})" in code
    # after the loop the index is checked again
    after = emitted(source.replace("return s\n", f"return {read}\n"), **kwargs)
    assert "_out_of_range" in after or "_index(" in after


LENGTH = "def f_int(xs_list_int, n_int):\n{body}    return len(xs_list_int)\n"
SHORT = [  # the body, kwargs of `emitted`
    ("", {}),
    ("    n_int = len(xs_list_int + xs_list_int)\n", {}),
    ("    ys = xs_list_int\n    ys.append(1)\n", {}),
    ("", {"bounds": Bounds(4, 7, fuel=10**6)}),
    ("", {"bounds": Bounds(3, 3, fuel=10**6)}),
    ("", {"bounds": Bounds(4, 3, fuel=1)}),  # fueled
]
WRAPPED = [
    ("    xs_list_int = xs_list_int + xs_list_int\n", {}),
    ("    xs_list_int.append(1)\n", {}),
    ("    xs_list_int[0] = 1\n", {}),
    ("    for n_int in range(2):\n        xs_list_int = [n_int]\n", {}),
    ("    for n_int in range(2):\n        pass\n",
     {"site": store_in_one_alternative("xs_list_int = [1]")}),
    ("", {"bounds": Bounds(4, 8, fuel=10**6)}),  # a list of 8 is longer than 7
    ("", {"bounds": Bounds(3, 4, fuel=10**6)}),
]


@pytest.mark.parametrize("body,kwargs", SHORT + WRAPPED)
def test_a_length_wrap_goes_exactly_where_the_parameter_is_never_stored(body, kwargs):
    code = emitted(LENGTH.format(body=body), **kwargs)
    wrapped = "((len(v_xs_list_int) + "
    assert (wrapped not in code) == ((body, kwargs) in SHORT)
    assert "return len(v_xs_list_int)" in code or f"return {wrapped}" in code
    assert "_len(" in emitted(LENGTH.format(body=body), **{**kwargs, "signed": False})


# fueled programs in which a function breaks a proof: it defines `len` or
# `range`, or it calls the entry, whose parameters may then hold anything;
# (the function, whether the entry's `len` is still the builtin's unwrapped)
BREAKERS = [
    ("def len(xs):\n    return 7\n", False),
    ("def range(n):\n    return [0, 1, 2, 3, 4, 5, 6, 7]\n", True),
    ("def g(xs):\n    return f_int(xs, 0)\n", False),
]


@pytest.mark.parametrize("function,short", BREAKERS)
def test_a_fueled_program_keeps_the_checks_its_functions_break(function, short):
    fueled = Bounds(4, 3, fuel=10)
    loop = LOOP.format(iterable="range(len(xs_list_int))", read="xs_list_int[i]", body="")
    code = emitted(f"{loop}\n{function}", fueled)
    assert "_fuel" in code and ("_out_of_range" in code or "_index(" in code)
    assert ("return len(v_xs_list_int)" in emitted(f"{LENGTH.format(body='')}\n{function}",
                                                  fueled)) == short
    program = parse_imp(f"{loop}\n{function}")
    compiler = Compiler(Bounds(4, 3, fuel=300))
    run = compiler.compile(program, signature=SIGNATURE)
    for args in INPUTS:
        assert_agree(program, args, compiler, run=run)


def test_only_the_entry_s_own_parameter_keeps_its_length_unwrapped():
    # `g`'s list of the same name is longer than the largest int
    program = parse_imp(
        "def f_int(xs_list_int, n_int):\n    return g(n_int) + len(xs_list_int)\n\n"
        "def g(n):\n    xs_list_int = [1, 2, 3, 4, 5, 6, 7, 8]\n    return len(xs_list_int)\n"
    )
    compiler = Compiler(Bounds(4, 3, fuel=300))
    run = compiler.compile(program, signature=SIGNATURE)
    assert not fuel_free(run)
    for args in INPUTS:
        assert_agree(program, args, compiler, run=run)


@st.composite
def length_loops(draw):
    """``for i in range([k,] len(v))`` whose body reads ``v[i]`` and may
    append to `v`, store into it, rebind it or rebind `i`, directly, under an
    ``if`` or in one alternative of a site."""
    v, i = draw(st.sampled_from(LIST_VARS)), draw(st.sampled_from(INT_VARS))
    # no start, starts that wrap to at least 0 and to less (9 is -7 at 4 bits)
    minus_one = lang.BinOp(lang.IntLit(0), "-", lang.IntLit(1))
    start = draw(st.sampled_from([[], *([lang.IntLit(k)] for k in (0, 1, 2, 9)), [minus_one]]))
    length = lang.Call("len", [lang.Var(v)])
    read = lang.Index(lang.Var(v), lang.Var(i))
    other = next(name for name in INT_VARS if name != i)
    reads = st.sampled_from([
        lang.Assign(lang.Var(ANY_VAR), read),
        lang.AugAssign(lang.Var(other), "+", read),
        lang.Return(read),
    ])
    ints, lists = exprs("int", 1, False), exprs("list", 1, False)
    ints |= st.sampled_from([-1, 3, 7]).map(lang.IntLit)  # out of range of every input list
    stores = st.one_of(
        ints.map(lambda x: lang.MethodCall(v, "append", [x])),
        st.builds(lambda k, x: lang.Assign(lang.Index(lang.Var(v), k), x), ints, ints),
        st.builds(lambda k, x: lang.AugAssign(lang.Index(lang.Var(v), k), "+", x), ints, ints),
        (lists | st.just(lang.Slice(lang.Var(v), lang.IntLit(1), None))).map(
            lambda x: lang.Assign(lang.Var(v), x)),
        ints.map(lambda x: lang.Assign(lang.Var(i), x)),
        ints.map(lambda x: lang.AugAssign(lang.Var(i), "-", x)),
        st.just(lang.ForIn(i, lang.Call("range", [lang.IntLit(2)]), [lang.Pass()])),
        lists.map(lambda x: lang.Assign(mixed_site(lang.Var(ANY_VAR), [lang.Var(v)]), x)),
    )
    placed = st.one_of(
        stores,
        stores.map(lambda s: mixed_site(lang.Pass(), [s])),
        st.builds(lambda c, s: lang.If(c, [s], []), exprs("bool", 1, False), stores),
    )
    body = draw(st.lists(reads | placed, max_size=3)) + [draw(reads)]
    loop = lang.ForIn(i, lang.Call("range", start + [length]), body)
    tail = draw(exprs("any", 1, False))
    return lang.Program([lang.FuncDef("f", ["xs", "n"], F_PRELUDE + [loop, lang.Return(tail)])],
                        "f")


def assert_agrees_with_and_without_fuel_code(program, bits=4):
    """At a fuel of the tick bound no run can exhaust the fuel, and the code
    has no fuel code; one less, the code has it, and still no run ends
    short of its fuel."""
    tilde = TildeProgram(program)
    bound = compiler_module._survey(tilde.root, {}, Bounds(bits, 3, fuel=10**9))[1]
    compilers = {fuel: Compiler(Bounds(bits, 3, fuel=fuel)) for fuel in (bound, bound - 1)}
    assert fuel_free(compilers[bound].compile(tilde, signature=SIGNATURE))
    assert not fuel_free(compilers[bound - 1].compile(tilde, signature=SIGNATURE))
    _, fuel_only, _ = assert_candidates_agree(tilde, INPUTS, None, compilers=compilers,
                                              signatures=(None, SIGNATURE))
    assert fuel_only == 0


@given(length_loops())
@settings(max_examples=150, deadline=None)
def test_an_index_in_a_loop_over_a_length_agrees_whatever_the_body_stores(program):
    assert_agrees_with_and_without_fuel_code(program)


@st.composite
def long_lists(draw):
    """Programs that may make a list longer than the largest int, from the
    entry's list parameter `xs` or into another variable, directly, in a
    loop or in one alternative of a site, and take lengths before and
    after."""
    xs, ys, n = lang.Var("xs"), lang.Var("ys"), lang.Var("n")
    target = draw(st.sampled_from(["xs", "ys"]))
    tripled = lang.BinOp(lang.BinOp(xs, "+", xs), "+", xs)
    grow = st.sampled_from([
        lang.Assign(lang.Var(target), tripled),
        lang.ForIn("a", lang.Call("range", [lang.IntLit(5)]), [lang.MethodCall(target, "append", [n])]),
        lang.AugAssign(lang.Var(target), "+", lang.BinOp(xs, "+", ys)),
        lang.Assign(lang.Index(lang.Var(target), lang.IntLit(0)), n),
    ])
    placed = st.one_of(grow, grow.map(lambda s: mixed_site(lang.Pass(), [s])))
    lengths = st.sampled_from([
        lang.Assign(n, lang.Call("len", [xs])),
        lang.Assign(lang.Var("b"), lang.Call("len", [ys])),
        lang.ForIn("a", lang.Call("range", [lang.Call("len", [xs])]), [lang.Assign(n, lang.Var("a"))]),
    ])
    body = draw(st.lists(placed | lengths, min_size=1, max_size=4))
    ret = draw(st.sampled_from([lang.Call("len", [xs]), lang.Call("len", [ys]),
                                lang.BinOp(n, "+", lang.Call("len", [xs])), lang.Var("b")]))
    return lang.Program([lang.FuncDef("f", ["xs", "n"], F_PRELUDE + body + [lang.Return(ret)])],
                        "f")


@given(long_lists(), st.sampled_from([3, 4]))
@settings(max_examples=150, deadline=None)
def test_lengths_of_lists_longer_than_the_largest_int_agree(program, bits):
    # inputs hold at most 3 elements, no more than the largest int at 3 or 4 bits
    assert_agrees_with_and_without_fuel_code(program, bits)


# -- the oracle on compiled code ---------------------------------------------


def test_oracle_table_matches_the_tree_walker(deriv_ref, deriv_oracle_w3):
    oracle = deriv_oracle_w3
    for inp, value in zip(oracle.inputs, oracle.values):
        want = evaluate(deriv_ref, inp, oracle.bounds)
        assert want.is_ok and values_equal(value, want.value)


def test_reference_fault_names_the_kind():
    ref = parse_imp("def f_int(x_int):\n    return 1 / x_int\n")
    with pytest.raises(ReferenceFault, match=r"reference faults \(DivByZero\) on input \(0,\)"):
        ReferenceOracle(ref, Bounds(2, 0))
    looping = parse_imp("def f_int(x_int):\n    while True:\n        pass\n    return 0\n")
    with pytest.raises(ReferenceFault, match="FuelExhausted"):
        ReferenceOracle(looping, Bounds(2, 0, fuel=50))


values = st.recursive(
    st.integers(-2, 2) | st.booleans(),
    lambda inner: st.lists(inner, max_size=3).flatmap(
        lambda xs: st.sampled_from([tuple(xs), TupleVal(xs)])
    ),
    max_leaves=6,
)


@given(values, values)
@settings(max_examples=200, deadline=None)
def test_same_is_values_equal(a, b):
    assert same(a, b) == values_equal(a, b)
    assert same(a, a)
