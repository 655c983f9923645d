import os

import pytest

from autofix.compiler import Compiler
from autofix.eml import parse_eml
from autofix.interp import Bounds
from autofix.parser import parse_imp
from autofix.interp import Fault
from autofix.search import ReferenceOracle
from spec_interp import EvalResult

ASSETS = os.path.join(os.path.dirname(__file__), "..", "assets")


def asset(*parts) -> str:
    return os.path.abspath(os.path.join(ASSETS, *parts))


def read(*parts) -> str:
    with open(asset(*parts), "r", encoding="utf-8") as fh:
        return fh.read()


def run_compiled(program, args, bounds: Bounds, callees=None) -> EvalResult:
    """One run of `program` on `args` through the package's compiled code,
    as the spec's outcome object: the value, or the kind of fault."""
    run = Compiler(bounds).compile(program, callees)
    try:
        return EvalResult(run(tuple(args)))
    except Fault as f:
        return EvalResult(fault=f.kind)


def find_counterexample(candidate, oracle: ReferenceOracle, callees=None):
    """The first bounded input where `candidate` and the reference disagree,
    or None."""
    i = oracle.first_mismatch(oracle.compile(candidate, callees))
    return None if i is None else oracle.inputs[i]


def called_deeper(frames: int, f):
    return f() if frames == 0 else called_deeper(frames - 1, f)


# left-associated chains whose syntax tree is `depth` levels deep below the
# expression's root: each operator puts everything before it one level deeper
CHAINS = {
    "sums": lambda depth: " + ".join(["poly_list_int"] * (depth + 1)),
    "products": lambda depth: "[" + " * ".join(["len(poly_list_int)"] * (depth - 1)) + "]",
    "conjunctions": lambda depth: "[1 if " + " and ".join(["True"] * (depth - 1)) + " else 0]",
    "slices": lambda depth: "poly_list_int" + "[1:]" * depth,
}


# a program and models that make a site of every kind: statements, a block,
# assignment targets and index targets
SITE_KINDS_STUDENT = (
    "def f_int(xs_list_int, n_int):\n"
    "    s = 0\n"
    "    i = 0\n"
    "    while i < len(xs_list_int):\n"
    "        s += xs_list_int[i]\n"
    "        xs_list_int[i] = s\n"
    "        i += 1\n"
    "    if n_int > s:\n"
    "        t = n_int\n"
    "    return s\n"
)
SITE_KINDS_MODELS = {
    "stmt": "rule IncF: v += a -> {v -= a, v += 2, pass}\nrule RetF: return a -> {return ?a, pass}\n",
    "block": (
        "rule BaseF weight 2: def f(a0, a1): s -> def f(a0, a1): {if a1 <= 0: {return 1}; s}\n"
        "rule InitF: v = n -> v = {n + 1}\n"
    ),
    "target": "rule VarF: v -> ?v\n",
    "index target": "rule IndF: v[a] -> ?v[{a, a - 1}]\n",
}


# Rule forms of the .eml grammar, for generated models: aligned and
# whole-node expression rules, choice sets, scope sets, operator sets, primed
# subterms, statement rules and choices, and block rules over each student's
# function (a block rule whose name or arity differs makes no site).
RULE_FORMS = (
    "v[a] -> v[{a + 1, a - 1, ?a}]",
    "v[a] -> v[a - 1]",
    "v[a] -> ?v[{a, a - 1}]",
    "v -> ?v",
    "n -> {n + 1, 0}",
    "a0 cop a1 -> a0' ~cop {a1 + 1, a1 - 1, 0, ?a1}",
    "a0 cop a1 -> {{a0' - 1, ?a0} ~cop {a1' - 1, 0, 1, ?a1}, True, False}",
    "a0 == a1 -> False",
    "a0 > a1 -> a0 < a1",
    "a0 aop a1 -> a0 ~aop a1",
    "a0 - a1 -> {a0 + a1, a0' - 1, a1}",
    "range(a0, a1) -> range({0, 1, a0 - 1, a0 + 1}, {a1 + 1, a1 - 1})",
    "len(a) -> {len(a) - 1, 0}",
    "return a -> return {[0], a[1:]}",
    "return a -> {return ?a, pass}",
    "return v -> return ?v",
    "v = n -> v = {n + 1, n - 1, 0}",
    "v = a -> v = a'",
    "v += n -> v -= n",
    "v += a -> {v -= a, v += 2, pass}",
    "pass -> return [0]",
    "def computeDeriv(a0): s -> def computeDeriv(a0): {if len(a0) == 1: {return [0]}; s}",
    "def reverse(a0): s -> def reverse(a0): {if len(a0) <= {1, 0}: {return a0}; s}",
    "def f(a0, a1): s -> def f(a0, a1): {if a1 <= 0: {return 1}; while a1 > 0: {a1 -= 1}; s}",
)


def chain_program(expression: str) -> str:
    """A computeDeriv submission that returns `expression`."""
    return f"def computeDeriv_list_int(poly_list_int):\n    return {expression}\n"


def picks_for(tilde, chosen: dict) -> tuple:
    """The pick tuple of `tilde` that picks `chosen[site_id]` at each site
    named and the default elsewhere."""
    return tuple(chosen.get(i, 0) for i in range(len(tilde.sites)))


def active_of(picks: tuple) -> frozenset:
    """The (site_id, index) pairs of the non-default picks."""
    return frozenset((i, p) for i, p in enumerate(picks) if p)


@pytest.fixture(scope="session")
def deriv_ref():
    return parse_imp(read("computederiv", "reference.imp"))


@pytest.fixture(scope="session")
def deriv_student_source():
    return read("computederiv", "student.imp")


@pytest.fixture(scope="session")
def deriv_student(deriv_student_source):
    return parse_imp(deriv_student_source)


@pytest.fixture(scope="session")
def deriv_model():
    return parse_eml(read("computederiv", "model.eml"))


@pytest.fixture(scope="session")
def deriv_model_simple():
    return parse_eml(read("computederiv", "model_simple.eml"))


@pytest.fixture(scope="session")
def reverse_ref():
    return parse_imp(read("arrayreverse", "reference.imp"))


@pytest.fixture(scope="session")
def reverse_student_source():
    return read("arrayreverse", "student.imp")


@pytest.fixture(scope="session")
def reverse_student(reverse_student_source):
    return parse_imp(reverse_student_source)


@pytest.fixture(scope="session")
def reverse_model():
    return parse_eml(read("arrayreverse", "model.eml"))


@pytest.fixture(scope="session")
def reverse_model_overview():
    return parse_eml(read("arrayreverse", "model_overview.eml"))


@pytest.fixture(scope="session")
def deriv_oracle_w3(deriv_ref):
    return ReferenceOracle(deriv_ref, Bounds(3, 3))


@pytest.fixture(scope="session")
def reverse_oracle_w4(reverse_ref):
    return ReferenceOracle(reverse_ref, Bounds(4, 4))
