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

import functools
import glob
import os
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autofix import compiler as compiler_module
from autofix import lang
from autofix.compiler import Compiler
from autofix.eml import parse_eml
from autofix.inputs import Signature, parse_signature
from autofix.interp import MAX_CALL_DEPTH, Bounds, TupleVal
from autofix.lexer import SourceError
from autofix.parser import MAX_EXPR_DEPTH, parse_imp
from autofix.printer import pretty_program
from autofix.rewrite import rewrite
from autofix.interp import Fault, same
from autofix.search import ReferenceFault, ReferenceOracle
from autofix.tilde import (
    Alternative,
    ChoiceSite,
    TildeProgram,
    enumerate_candidates,
    instantiate,
    number_sites,
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
            st.builds(mixed_site, st.just("stmt"), stmt, st.lists(stmt, min_size=1, max_size=2)),
            st.builds(lambda v, d, o: lang.Assign(v, mixed_site("expr", d, o)), int_var, i, sites),
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
        entry="f",
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
    The search's `active` and `cost` (the non-default picks and the
    enumerated cost) equal `instantiate`'s.  Returns (cases, fuel-only
    disagreements, candidates); a case is a candidate, fuel and input, run
    once per signature."""
    runs = {fuel: [compiler.compile(tilde, callees, sig) for sig in signatures]
            for fuel, compiler in compilers.items()}
    spec = {}  # (tree key, fuel, input) -> tree-walker result
    cases = fuel_disagreements = candidates = 0
    for picks, cost in enumerate_candidates(tilde, max_cost):
        candidate = instantiate(tilde, picks)
        assert active_of(picks) == candidate.active and cost == candidate.cost
        key = candidate.program.key()
        candidates += 1
        for fuel, compiler in compilers.items():
            for args in inputs:
                want = spec.get((key, fuel, args))
                if want is None:
                    want = spec[key, fuel, args] = evaluate(
                        candidate.program, args, compiler.bounds, callees)
                cases += 1
                fuel_disagreements += max([
                    assert_agree(candidate.program, args, compiler, run=run, picks=picks, want=want)
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
            candidate = instantiate(tilde, picks).program
            key = candidate.key()
            assert texts.setdefault(pretty_program(candidate), key) == key
        # each text has one key: the text fingerprint that blocks prior
        # fixes in `next_alternate` partitions candidates as `key()` does
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
        ChoiceSite("stmt", assign.span, assign.span,
                   [Alternative(assign), Alternative([], "Del", 1), Alternative(spliced, "Two", 1)]),
        lang.If(guard.cond, [ChoiceSite("stmt", guard.span, guard.span,
                                        [Alternative(guard.then_body[0]), Alternative([], "Del", 1)])],
                []),
        ChoiceSite("stmt", dec.span, dec.span, [Alternative(dec), Alternative([], "Del", 1)]),
        ret,
    ]
    root = lang.Program([lang.FuncDef("f_int", ["x_int"], body)], "f_int")
    tilde = TildeProgram(root)
    number_sites(tilde)
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


def mixed_site(kind: str, default, others: list) -> ChoiceSite:
    """A site of `kind` that keeps `default` or picks one of `others`."""
    alternatives = [Alternative(default)] + [Alternative(o, "Mix", 1) for o in others]
    return ChoiceSite(kind, lang.NO_SPAN, lang.NO_SPAN, alternatives)


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
        st.builds(mixed_site, st.just("expr"), inner, st.lists(inner, min_size=1, max_size=2)),
    )


def ill_typed_steps(name: str):
    """Statements that break the type variable `name`'s own name suggests
    (an int for INT_VARS, a list of ints for LIST_VARS), each followed by a
    read of `name` whose checks a proven type would leave out."""
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
            mixed.map(lambda alts: lang.Assign(var, mixed_site("expr", alts[0], alts[1:]))),
            mixed.map(lambda alts: mixed_site("stmt", lang.Assign(var, alts[0]),
                                              [lang.Assign(var, a) for a in alts[1:]])),
        )
        read = st.one_of(
            st.builds(lang.BinOp, st.just(var), st.sampled_from(("+", "-", "*")), i),
            st.builds(lang.BinOp, mixed.map(lambda alts: mixed_site("expr", alts[0], alts[1:])),
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
        read = st.one_of(
            st.builds(lang.BinOp, st.builds(lang.Index, st.just(var), i), st.just("+"), i),
            st.builds(lang.Compare, st.just(var), st.sampled_from(["==", "!="]), l),
            st.just(lang.Call("len", [var])),
        )
    # the entry called with arguments outside its signature, or a helper
    # that a reference may redirect to the entry
    leaf = i | b | l
    call = st.builds(lambda f, x, y: lang.Assign(lang.Var(ANY_VAR), lang.Call(f, [x, y])),
                     st.sampled_from("fg"), leaf, leaf)
    return st.builds(lambda stmts, r: stmts + [lang.Assign(lang.Var(ANY_VAR), r)],
                     st.lists(ill | call, min_size=1, max_size=2), read)


# a well-typed body into which ill-typed statements are spliced, so that
# the variables they leave alone keep a type the compiler can prove
ill_typed_programs = st.builds(
    lambda body, ret, helper, helper_ret: lang.Program(
        [lang.FuncDef("f", ["xs", "n"], F_PRELUDE + body + [lang.Return(ret)]),
         lang.FuncDef("g", ["n", "a"], G_PRELUDE + helper + [lang.Return(helper_ret)])],
        entry="f",
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
    number_sites(tilde)
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
        [lang.FuncDef("f", ["xs", "n"], F_PRELUDE + body + [lang.Return(ret)])], entry="f"
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
    number_sites(tilde)
    bound = tick_bound(tilde.root)
    assert bound <= 10**9
    compiler = Compiler(Bounds(4, 3, fuel=bound))
    assert fuel_free(compiler.compile(tilde))
    _, fuel_only, _ = assert_candidates_agree(tilde, INPUTS, 2, compilers={bound: compiler},
                                              signatures=(None, SIGNATURE))
    assert fuel_only == 0


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
