"""Acceptance suite: every shipping criterion with its stated tolerance.

Each test prints one ``ACCEPTANCE`` line so a quick scan of the output shows
exactly which guarantees hold.  Run with ``pytest tests/test_acceptance.py -s``.
"""

import json
import random
import subprocess
import sys
import time

import pytest

from autofix import lang
from autofix.eml import IllFormedModel, parse_eml
from autofix.feedback import diff_corrections
from autofix.inputs import Signature, count_inputs, enumerate_inputs
from autofix.interp import Bounds
from autofix.parser import parse_imp
from autofix.printer import pretty_program
from autofix.rewrite import rewrite
from autofix.search import ReferenceOracle, RepairResult, cegis_min
from autofix.tilde import enumerate_candidates, instantiate

from conftest import asset, find_counterexample, read
from expansion_oracle import expand_program
from spec_interp import evaluate, values_equal


def report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"{criterion}: {detail}"


# -- 1. flagship repair, end to end -------------------------------------------


def test_criterion_1_compute_deriv_end_to_end(deriv_ref, deriv_student, deriv_model):
    started = time.monotonic()
    oracle = ReferenceOracle(deriv_ref, Bounds(4, 4))
    tilde = rewrite(deriv_student, deriv_model)
    result = cegis_min(tilde, oracle, max_cost=5)
    elapsed = time.monotonic() - started
    ok = result.status == "fixed" and result.cost == 3
    facts = []
    if ok:
        facts = [
            (c.line, c.sub_expr, c.new_expr)
            for c in diff_corrections(tilde, result.picks)
        ]
        ok = facts == [
            (5, "deriv", "[0]"),
            (6, "0", "1"),
            (7, "poly_list_int[expo] == 0", "False"),
        ]
    ok = ok and elapsed <= 120
    report(
        "1 computeDeriv end-to-end",
        ok,
        f"cost={result.cost} corrections={facts} in {elapsed:.1f}s",
    )


# -- 2. array reverse: minimal fix and the alternate ---------------------------


@pytest.fixture(scope="module")
def reverse_run(reverse_ref, reverse_student, reverse_model):
    started = time.monotonic()
    oracle = ReferenceOracle(reverse_ref, Bounds(4, 4))
    tilde = rewrite(reverse_student, reverse_model)
    first = cegis_min(tilde, oracle, max_cost=5)
    elapsed = time.monotonic() - started
    alternates = cegis_min(tilde, oracle, max_cost=5, alternates=1).alternates
    second = alternates[0] if alternates else RepairResult("no_fix")
    return oracle, tilde, first, second, elapsed


def test_criterion_2_array_reverse_minimal_fix(reverse_run):
    _, tilde, first, _, elapsed = reverse_run
    facts = (
        [(c.line, c.sub_expr, c.new_expr) for c in diff_corrections(tilde, first.picks)]
        if first.status == "fixed"
        else []
    )
    ok = (
        first.status == "fixed"
        and first.cost == 2
        and facts == [(5, "i", "i - 1"), (6, "i", "i - 1")]
        and elapsed <= 60
    )
    report("2a array-reverse minimal fix", ok, f"cost={first.cost} corrections={facts}")


# The nominal cost-3 alternate: start the loop at 0 and decrement both
# occurrences of ``len(b) - i``.
_REVERSE_NOMINAL_ALTERNATE = """\
def reverse_list_int(a_list_int):
    b = a_list_int
    i = 0
    while i <= len(b) / 2:
        temp = b[i]
        b[i] = b[len(b) - i - 1]
        b[len(b) - i - 1] = temp
        i += 1
    return b
"""


def test_criterion_2_array_reverse_alternate(reverse_run):
    # A second verified fix, distinct from the first in selection pattern and
    # program text, that includes the loop-initialization change on line 3
    # (``0`` or ``1 - 1``) and is the cheapest such fix: cost 4, the
    # init change and both ``len(b) - i - 1`` decrements plus one repair of
    # the loop condition on line 4.  The nominal cost-3 alternate (the same
    # three changes without the loop-condition repair) is a candidate of the
    # model but not a fix: it faults on the empty list (IndexOutOfRange, the
    # first counterexample in stream order) and leaves even-length lists such
    # as [a, b] unreversed.  The test checks both counterexamples, and that no
    # alternate of cost <= 3 exists at all.
    oracle, tilde, first, second, _ = reverse_run
    fixed = second.status == "fixed"
    facts = (
        [(c.line, c.sub_expr, c.new_expr) for c in diff_corrections(tilde, second.picks)]
        if fixed
        else []
    )
    includes_init = any(line == 3 and new in ("0", "1 - 1") for line, _, new in facts)
    decrements = all((line, "len(b) - i", "len(b) - i - 1") in facts for line in (6, 7))
    loop_repair = [line for line, _, _ in facts].count(4) == 1
    distinct = (
        fixed
        and second.picks != first.picks
        and second.program.key() != first.program.key()
    )
    verified = fixed and find_counterexample(second.program, oracle) is None
    cheaper = cegis_min(tilde, oracle, max_cost=3, alternates=1).alternates

    nominal = parse_imp(_REVERSE_NOMINAL_ALTERNATE)
    candidate_costs = {}
    for candidate, cost in enumerate_candidates(tilde, 3):
        candidate_costs.setdefault(instantiate(tilde, candidate).key(), cost)
    nominal_cost = candidate_costs.get(nominal.key())
    empty = ((),)
    empty_fault = evaluate(nominal, empty, oracle.bounds).fault
    pairs = [inp for inp in oracle.inputs if len(inp[0]) == 2 and inp[0][0] != inp[0][1]]
    outcomes = [(inp, evaluate(nominal, inp, oracle.bounds)) for inp in pairs]
    unreversed = [
        inp for inp, result in outcomes if result.is_ok and values_equal(result.value, inp[0])
    ]
    nominal_refuted = (
        nominal_cost == 3
        and find_counterexample(nominal, oracle) == empty
        and empty_fault == "IndexOutOfRange"
        and len(pairs) > 0
        and unreversed == pairs
    )

    ok = (
        distinct
        and verified
        and second.cost == 4
        and len(facts) == 4
        and includes_init
        and decrements
        and loop_repair
        and cheaper == []
        and nominal_refuted
    )
    report(
        "2b array-reverse alternate",
        ok,
        f"status={second.status} cost={second.cost} init-change={includes_init}"
        f" corrections={facts}; alternates of cost <= 3: {len(cheaper)};"
        f" nominal cost-3 alternate (cost {nominal_cost}): [] faults {empty_fault},"
        f" {len(unreversed)}/{len(pairs)} distinct pairs [a, b] left unreversed",
    )


# -- 3. minimality against brute force ----------------------------------------


def _random_instance(rng):
    lits = [rng.randrange(-2, 3) for _ in range(3)]
    aop = rng.choice(["+", "-"])
    cop = rng.choice(["<", "==", ">="])
    ref_source = (
        "def f_int(x_int, y_int):\n"
        f"    a = {lits[0]}\n"
        f"    b = x_int {aop} {lits[1]}\n"
        f"    if b {cop} y_int:\n"
        f"        a = a + {lits[2]}\n"
        "    return a\n"
    )
    student_source = ref_source
    for _ in range(rng.randrange(0, 3)):
        kind = rng.choice(["lit", "aop", "cop", "ret"])
        if kind == "lit":
            student_source = student_source.replace(
                f"a = {lits[0]}\n", f"a = {lits[0] + 1}\n", 1
            )
        elif kind == "aop":
            student_source = student_source.replace(
                f"x_int {aop}", f"x_int {'-' if aop == '+' else '+'}", 1
            )
        elif kind == "cop":
            student_source = student_source.replace(f"b {cop}", "b !=", 1)
        else:
            student_source = student_source.replace("return a", "return b", 1)
    pool = [
        "rule InitF: v = n -> v = {n + 1, n - 1, 0}\n",
        "rule OpF: a0 aop a1 -> a0 ~aop a1\n",
        "rule CondF: a0 cop a1 -> a0' ~cop {a1 + 1, 0, ?a1}\n",
        "rule RetF: return v -> return ?v\n",
    ]
    rules = "".join(rng.sample(pool, rng.randrange(1, 4)))
    return parse_imp(ref_source), parse_imp(student_source), parse_eml(rules)


def _slots(tilde):
    return sum(len(s.alternatives) - 1 for s in tilde.sites)


def test_criterion_3_minimality_oracle():
    started = time.monotonic()
    rng = random.Random(424242)
    bounds = Bounds(3, 0)
    checked = 0
    agreements = 0
    while checked < 100:
        ref, student, model = _random_instance(rng)
        tilde = rewrite(student, model)
        if _slots(tilde) > 12:
            continue
        candidates = list(enumerate_candidates(tilde, 4))
        if len(candidates) > 4096:
            continue
        checked += 1
        oracle = ReferenceOracle(ref, bounds)
        result = cegis_min(tilde, oracle, max_cost=4)
        best = None
        for candidate, cost in candidates:
            if best is not None and cost > best:
                break
            if find_counterexample(instantiate(tilde, candidate), oracle) is None:
                best = cost
        if best is None:
            agreements += result.status == "no_fix"
        else:
            agreements += result.status in ("fixed", "correct") and result.cost == best
    elapsed = time.monotonic() - started
    report(
        "3 minimality vs brute force",
        agreements == 100 and elapsed <= 60,
        f"{agreements}/100 in {elapsed:.1f}s",
    )


# -- 4. enumeration agrees with the weighted-set equations ---------------------


def test_criterion_4_weighted_set_agreement():
    rng = random.Random(11351)
    checked = 0
    agreements = 0
    while checked < 50:
        _, student, model = _random_instance(rng)
        tilde = rewrite(student, model)
        if _slots(tilde) > 12:
            continue
        checked += 1
        expanded = {}
        for text, cost in expand_program(tilde):
            expanded[(text, cost)] = expanded.get((text, cost), 0) + 1
        enumerated = {}
        for candidate, cost in enumerate_candidates(tilde):
            text = pretty_program(instantiate(tilde, candidate))
            enumerated[(text, cost)] = enumerated.get((text, cost), 0) + 1
        agreements += enumerated == expanded
    report("4 weighted-set agreement", agreements == 50, f"{agreements}/50 multisets equal")


# -- 5. default identity, well-formedness, termination -------------------------

_BUNDLED = [
    (("computederiv", "student.imp"), ("computederiv", "model.eml")),
    (("computederiv", "student.imp"), ("computederiv", "model_simple.eml")),
    (("computederiv", "reference.imp"), ("computederiv", "model.eml")),
    (("arrayreverse", "student.imp"), ("arrayreverse", "model.eml")),
    (("arrayreverse", "student.imp"), ("arrayreverse", "model_overview.eml")),
    (("arrayreverse", "reference.imp"), ("arrayreverse", "model.eml")),
]

_FUZZ_PROGRAMS = [
    "def f_int(x_int, y_int):\n    a = 1\n    b = x_int + 1\n    if a < y_int:\n        a = b + 2\n    return a\n",
    "def f_list_int(xs_list_int):\n    out = []\n    for k in range(len(xs_list_int)):\n        out = out + [xs_list_int[k]]\n    return out\n",
    "def f_int(xs_list_int):\n    s = 0\n    i = 0\n    while i < len(xs_list_int):\n        s += xs_list_int[i]\n        i += 1\n    return s\n",
    "def f_int(x_int):\n    if x_int == 0:\n        return 1\n    return x_int * f_int(x_int - 1)\n",
]


def _fuzz_model(rng):
    k = rng.randrange(1, 4)
    shapes = [
        lambda: f"rule A{rng.randrange(999)}: v[a] -> v[{{a + {rng.randrange(1, 3)}, a - 1, ?a}}]",
        lambda: f"rule B{rng.randrange(999)}: a0 cop a1 -> a0' ~cop {{a1 + 1, {rng.randrange(2)}, ?a1}}",
        lambda: f"rule C{rng.randrange(999)}: v = n -> v = {{n + 1, n - 1, {rng.randrange(2)}}}",
        lambda: "rule D%d: return a -> return {[0], a[1:]}" % rng.randrange(999),
        lambda: "rule E%d: v[a] -> {v'[a'] + 1}" % rng.randrange(999),
        lambda: "rule F%d: a0 + a1 -> {a0' - a1', 0}" % rng.randrange(999),
        lambda: f"rule G{rng.randrange(999)} weight {rng.randrange(1, 4)}: v += n -> v -= n",
    ]
    lines = []
    seen = set()
    while len(lines) < k:
        text = rng.choice(shapes)()
        name = text.split(":")[0]
        if name in seen:
            continue
        seen.add(name)
        lines.append(text)
    return parse_eml("\n".join(lines) + "\n")


def test_criterion_5_default_identity_and_termination():
    for program_file, model_file in _BUNDLED:
        source = read(*program_file)
        tilde = rewrite(parse_imp(source), parse_eml(read(*model_file)))
        if pretty_program(instantiate(tilde, tilde.defaults())) != source:
            report("5 default identity / termination", False, f"{program_file} not byte-identical")

    # the model is checked when it is parsed: an ill-formed rule is rejected
    # by name, and a model that parses is well-formed
    try:
        parse_eml("rule Bad: v[a] -> {(v[a])' + 1}\n")
        rejected = ""
    except IllFormedModel as err:
        rejected = str(err)
    well = parse_eml("rule Good: v[a] -> {v'[a'] + 1}\n")
    classified = rejected.startswith("Bad: ") and [r.rule_id for r in well] == ["Good"]

    rng = random.Random(90125)
    terminated = 0
    for _ in range(1000):
        model = _fuzz_model(rng)
        source = rng.choice(_FUZZ_PROGRAMS)
        program = parse_imp(source)
        tilde = rewrite(program, model)
        within_bound = tilde.max_rewrite_depth <= lang.size(program)
        identity = pretty_program(instantiate(tilde, tilde.defaults())) == source
        terminated += within_bound and identity
    report(
        "5 default identity / termination",
        classified and terminated == 1000,
        f"definitions classified={classified}, fuzzed models ok={terminated}/1000",
    )


# -- 6. bounded input-space count ----------------------------------------------


def test_criterion_6_input_space_count():
    sig = Signature("f", (("xs_list_int", "list_int"),), "list_int")
    bounds = Bounds(4, 4)
    streamed = sum(1 for _ in enumerate_inputs(sig, bounds))
    ok = streamed == count_inputs(sig, bounds) == 69905 and streamed > 2**16
    report("6 input-space count", ok, f"{streamed} inputs")


# -- 7. bundled corpus ----------------------------------------------------------


def _cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "autofix.cli", *args], capture_output=True, text=True
    )


_CORPUS_ARGS = [
    "--ref", asset("computederiv", "reference.imp"),
    "--corpus", asset("computederiv", "corpus"),
    "--model", asset("computederiv", "model.eml"),
    "--int-bits", "3", "--max-list", "3", "--format", "json",
]


def test_criterion_7_mini_corpus():
    started = time.monotonic()
    proc = _cli(*_CORPUS_ARGS, "--jobs", "4")
    elapsed = time.monotonic() - started
    summary = json.loads(proc.stdout)["summary"]
    fixable = summary["total"] - summary["parse_error"] - summary["correct"]
    ok = (
        proc.returncode == 0
        and summary["total"] >= 12
        and summary["fixed_pct"] >= 80.0
        and elapsed <= 600
    )
    report(
        "7 mini-corpus",
        ok,
        f"fixed {summary['fixed']}/{fixable} ({summary['fixed_pct']}%) in {elapsed:.1f}s",
    )


# -- 8. determinism across parallelism ------------------------------------------


def test_criterion_8_determinism_across_jobs():
    deriv = [
        "--ref", asset("computederiv", "reference.imp"),
        "--student", asset("computederiv", "student.imp"),
        "--model", asset("computederiv", "model.eml"),
        "--format", "json",
    ]
    reverse = [
        "--ref", asset("arrayreverse", "reference.imp"),
        "--student", asset("arrayreverse", "student.imp"),
        "--model", asset("arrayreverse", "model.eml"),
        "--alternates", "1", "--format", "json",
    ]
    # the six runs are independent: start them all, then collect each
    procs = [
        subprocess.Popen([sys.executable, "-m", "autofix.cli", *args, "--jobs", jobs],
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for args in (deriv, reverse, _CORPUS_ARGS)
        for jobs in ("1", "8")
    ]
    single_1, single_8, reverse_1, reverse_8, corpus_1, corpus_8 = (
        proc.communicate()[0] for proc in procs
    )
    ok = (
        single_1 == single_8
        and reverse_1 == reverse_8
        and corpus_1 == corpus_8
        and single_1
        and reverse_1
        and corpus_1
    )
    report("8 determinism across --jobs", ok)
