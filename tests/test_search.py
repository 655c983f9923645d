import glob
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autofix import lang
from autofix.eml import parse_eml
from autofix.interp import Bounds
from autofix.lexer import SourceError
from autofix.parser import parse_imp
from autofix.printer import pretty_program
from autofix.rewrite import rewrite
from autofix.interp import Fault, same
from autofix.search import (
    ALONE_AFTER,
    CHUNK,
    ReferenceFault,
    ReferenceOracle,
    SearchBudget,
    cegis_min,
    next_alternate,
)
from autofix.tilde import (
    Alternative,
    ChoiceSite,
    TildeProgram,
    enumerate_candidates,
    instantiate,
    number_sites,
)

from conftest import ASSETS, find_counterexample, read


def test_oracle_rejects_faulting_reference():
    ref = parse_imp("def f_int(x_int):\n    return 1 / x_int\n")
    with pytest.raises(ReferenceFault):
        ReferenceOracle(ref, Bounds(2, 0))


def test_reference_matches_itself(deriv_ref, deriv_oracle_w3):
    assert find_counterexample(deriv_ref, deriv_oracle_w3) is None


def test_student_counterexample_is_first_in_stream(deriv_student, deriv_oracle_w3):
    cex = find_counterexample(deriv_student, deriv_oracle_w3)
    # the empty list agrees; the very first singleton exposes the bug
    assert cex == ((-4,),)


def test_divergent_candidate_fails_on_first_input(deriv_oracle_w3):
    looping = parse_imp(
        "def computeDeriv_list_int(poly_list_int):\n"
        "    while True:\n"
        "        pass\n"
        "    return poly_list_int\n"
    )
    assert find_counterexample(looping, deriv_oracle_w3) == ((),)


def test_compute_deriv_repair(deriv_student, deriv_model, deriv_oracle_w3):
    tilde = rewrite(deriv_student, deriv_model)
    result = cegis_min(tilde, deriv_oracle_w3, max_cost=5)
    assert result.status == "fixed"
    assert result.cost == 3
    assert find_counterexample(result.program, deriv_oracle_w3) is None
    again = cegis_min(tilde, deriv_oracle_w3, max_cost=5)
    assert again.picks == result.picks  # deterministic


def test_reference_is_already_correct(deriv_ref, deriv_model, deriv_oracle_w3):
    tilde = rewrite(deriv_ref, deriv_model)
    result = cegis_min(tilde, deriv_oracle_w3, max_cost=5)
    assert result.status == "correct" and result.cost == 0


def test_array_reverse_repair(reverse_student, reverse_model, reverse_oracle_w4):
    tilde = rewrite(reverse_student, reverse_model)
    result = cegis_min(tilde, reverse_oracle_w4, max_cost=5)
    assert result.status == "fixed" and result.cost == 2
    text = pretty_program(result.program)
    assert "temp = b[i - 1]" in text
    assert "b[i - 1] = b[len(b) - i]" in text


def test_budget_exhaustion_reports_budget(deriv_student, deriv_model, deriv_oracle_w3):
    tilde = rewrite(deriv_student, deriv_model)
    result = cegis_min(tilde, deriv_oracle_w3, max_cost=5, budget=SearchBudget(max_evals=10))
    assert result.status == "budget" and result.budget_kind == "evals"


def test_no_fix_when_out_of_model(deriv_oracle_w3, deriv_model):
    hopeless = parse_imp(
        "def computeDeriv_list_int(poly_list_int):\n    return poly_list_int\n"
    )
    tilde = rewrite(hopeless, deriv_model)
    result = cegis_min(tilde, deriv_oracle_w3, max_cost=5)
    assert result.status == "no_fix" and result.max_cost == 5


def test_single_fix_then_alternates_exhaust():
    ref = parse_imp("def f_int(x_int):\n    return x_int + 1\n")
    student = parse_imp("def f_int(x_int):\n    return x_int - 1\n")
    model = parse_eml("rule OpF: a0 - a1 -> a0 + a1\n")
    oracle = ReferenceOracle(ref, Bounds(3, 0))
    tilde = rewrite(student, model)
    first = cegis_min(tilde, oracle, max_cost=5)
    assert first.status == "fixed" and first.cost == 1
    second = next_alternate([first], tilde, oracle, max_cost=5)
    assert second.status == "no_fix"


def test_next_alternate_skips_text_twins_of_prior_fixes():
    # SwapF's whole-node alternative and OpF's operator site print the same
    # program, so the first fix has a twin that is a fix too; the alternate
    # must be RetF's, distinct in text
    ref = parse_imp("def f_int(x_int):\n    return x_int + 1\n")
    student = parse_imp("def f_int(x_int):\n    return x_int - 1\n")
    model = parse_eml(
        "rule OpF: a0 - a1 -> a0 + a1\n"
        "rule SwapF: a0 - a1 -> {a0 + a1}\n"
        "rule RetF weight 2: return a -> return {a + 2}\n"
    )
    oracle = ReferenceOracle(ref, Bounds(3, 0))
    tilde = rewrite(student, model)
    first = cegis_min(tilde, oracle)
    assert first.status == "fixed" and first.cost == 1
    text = pretty_program(first.program)
    twins = [
        candidate for candidate in (instantiate(tilde, p) for p, _ in enumerate_candidates(tilde))
        if candidate.active != first.active and pretty_program(candidate.program) == text
    ]
    assert len(twins) == 1 and find_counterexample(twins[0].program, oracle) is None
    second = next_alternate([first], tilde, oracle)
    assert second.status == "fixed" and second.cost == 2
    assert pretty_program(second.program) != text
    assert next_alternate([first, second], tilde, oracle).status == "no_fix"


def test_alternates_are_distinct(reverse_student, reverse_model, reverse_ref):
    oracle = ReferenceOracle(reverse_ref, Bounds(3, 3))
    tilde = rewrite(reverse_student, reverse_model)
    first = cegis_min(tilde, oracle, max_cost=4)
    second = next_alternate([first], tilde, oracle, max_cost=4)
    third = next_alternate([first, second], tilde, oracle, max_cost=4)
    fixes = [first, second, third]
    assert all(f.status == "fixed" for f in fixes)
    assert len({f.active for f in fixes}) == 3
    assert len({pretty_program(f.program) for f in fixes}) == 3
    for f in fixes:
        assert find_counterexample(f.program, oracle) is None


# -- randomized minimality against brute force --------------------------------


def make_instance(rng):
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
    # student: perturb one or two spots, not always expressible in the model
    mutations = rng.randrange(0, 3)
    student_source = ref_source
    for _ in range(mutations):
        kind = rng.choice(["lit", "aop", "cop", "ret"])
        if kind == "lit":
            old = f"a = {lits[0]}"
            student_source = student_source.replace(old, f"a = {lits[0] + 1}", 1)
        elif kind == "aop":
            student_source = student_source.replace(
                f"x_int {aop}", f"x_int {'-' if aop == '+' else '+'}", 1
            )
        elif kind == "cop":
            student_source = student_source.replace(f"b {cop}", "b !=", 1)
        else:
            student_source = student_source.replace("return a", "return b", 1)
    model = parse_eml(
        "rule InitF: v = n -> v = {n + 1, n - 1, 0}\n"
        "rule OpF: a0 aop a1 -> a0 ~aop a1\n"
        "rule CondF: a0 cop a1 -> a0' ~cop {a1 + 1, a1 - 1, 0, ?a1}\n"
        "rule RetF: return v -> return ?v\n"
    )
    return parse_imp(ref_source), parse_imp(student_source), model


def brute_force_minimum(tilde, oracle, max_cost):
    best = None
    for candidate, cost in enumerate_candidates(tilde, max_cost):
        if best is not None and cost > best:
            break
        cand = instantiate(tilde, candidate)
        if find_counterexample(cand.program, oracle) is None:
            best = cost if best is None else min(best, cost)
    return best


def test_minimality_matches_brute_force_on_random_instances():
    rng = random.Random(77)
    bounds = Bounds(3, 0)
    for _ in range(25):
        ref, student, model = make_instance(rng)
        oracle = ReferenceOracle(ref, bounds)
        tilde = rewrite(student, model)
        result = cegis_min(tilde, oracle, max_cost=4)
        expected = brute_force_minimum(tilde, oracle, 4)
        if expected is None:
            assert result.status == "no_fix"
        else:
            assert result.status in ("fixed", "correct")
            assert result.cost == expected
            assert find_counterexample(result.program, oracle) is None


# -- sub-function call handling ------------------------------------------------

REF_WITH_HELPER = (
    "def apply_int(x_int):\n"
    "    return helper_int(x_int) + 1\n"
    "\n"
    "def helper_int(x_int):\n"
    "    return x_int * 2\n"
)
STUDENT_WITH_HELPER = (
    "def apply_int(x_int):\n"
    "    return helper_int(x_int) - 1\n"
    "\n"
    "def helper_int(x_int):\n"
    "    return x_int + 2\n"
)


def test_reference_callees_substitute_helper_bodies():
    ref = parse_imp(REF_WITH_HELPER)
    student = parse_imp(STUDENT_WITH_HELPER)
    model = parse_eml("rule OpF: a0 - a1 -> a0 + a1\n")
    oracle = ReferenceOracle(ref, Bounds(3, 0))
    tilde = rewrite(student, model)
    callees = {f.name: f for f in ref.functions}
    result = cegis_min(tilde, oracle, max_cost=5, callees=callees)
    assert result.status == "fixed" and result.cost == 1


def test_student_callees_use_the_submitted_helpers():
    ref = parse_imp(REF_WITH_HELPER)
    student = parse_imp(STUDENT_WITH_HELPER)
    model = parse_eml("rule OpF: a0 - a1 -> a0 + a1\n")
    oracle = ReferenceOracle(ref, Bounds(3, 0))
    tilde = rewrite(student, model)
    result = cegis_min(tilde, oracle, max_cost=5)
    # only the entry function is rewritten; the wrong helper stays
    assert result.status == "no_fix"


# -- the comparison the static types choose ------------------------------------
#
# Screening and verification compare with Python's `!=` where the static
# return types of candidate and reference prove it exact, and with `same`
# elsewhere.  Either way a candidate must fail first where `same` says so.


def first_mismatch_by_same(oracle, run, picks):
    """`first_mismatch` written with `same` alone."""
    for i, (inp, want) in enumerate(zip(oracle.inputs, oracle.values)):
        try:
            value = run(inp, picks)
        except Fault:
            return i
        if not same(value, want):
            return i
    return None


def assert_comparison_agrees_with_same(tilde, oracle, max_cost=None):
    run = oracle.compile(tilde)
    for picks, _ in enumerate_candidates(tilde, max_cost):
        want = first_mismatch_by_same(oracle, run, picks)
        assert oracle.first_mismatch(run, picks) == want
        if want is not None:
            assert oracle.scan(run, picks, [want]) == want
            assert oracle.scan(run, picks, range(want)) is None
    return run.exact


def test_int_returned_for_bool_is_no_fix(deriv_model):
    # Python's `1 == True` holds; the language's does not
    reference = parse_imp("def isPos_bool(x_int):\n    return x_int > 0\n")
    student = parse_imp(
        "def isPos_bool(x_int):\n    if x_int > 0:\n        return 1\n    return 0\n"
    )
    oracle = ReferenceOracle(reference, Bounds(3, 0))
    tilde = rewrite(student, deriv_model)
    assert cegis_min(tilde, oracle).status == "no_fix"
    assert not oracle.compile(tilde).exact


PARAMS = ["x_int", "xs_list_int", "t_tuple_int"]
X, XS, T = (lang.Var(p) for p in PARAMS)


@st.composite
def returned(draw, depth=2):
    """An expression that never faults on the inputs, of any type: ints,
    bools, lists of ints, of bools, of lists or mixed, and tuples."""
    leaves = [
        st.integers(-2, 1).map(lang.IntLit), st.just(X), st.booleans().map(lang.BoolLit),
        st.builds(lang.Compare, st.just(X), st.sampled_from(lang.COMPARE_OPS),
                  st.integers(-2, 1).map(lang.IntLit)),
        st.just(XS), st.just(T), st.just(lang.Call("len", [XS])),
    ]
    if depth == 0:
        return draw(st.one_of(*leaves))
    inner = returned(depth - 1)
    return draw(st.one_of(
        *leaves,
        st.lists(inner, max_size=2).map(lang.ListLit),
        st.builds(lang.BinOp, st.just(T), st.just("+"), st.just(T)),
        st.builds(lang.CondExpr, inner, st.just(lang.Compare(X, "<", lang.IntLit(0))), inner),
    ))


def entry(body) -> lang.Program:
    return lang.Program([lang.FuncDef("f_int", PARAMS, body)], "f_int")


def site(default, others) -> ChoiceSite:
    alternatives = [Alternative(default)] + [Alternative(o, "Alt", 1) for o in others]
    return ChoiceSite("expr", lang.NO_SPAN, lang.NO_SPAN, alternatives)


def generated_search(reference, default, others, through_variable):
    """The oracle of a generated reference, and a choice-site program that
    returns one site's alternatives, directly or through a variable."""
    oracle = ReferenceOracle(entry([lang.Return(reference)]), Bounds(2, 1))
    value = site(default, others)
    if through_variable:  # the type of a variable stored in every alternative
        body = [lang.Assign(lang.Var("y"), value), lang.Return(lang.Var("y"))]
    else:
        body = [lang.Return(value)]
    tilde = TildeProgram(entry(body))
    number_sites(tilde)
    return tilde, oracle


@given(returned(), returned(), st.lists(returned(), min_size=1, max_size=3), st.booleans())
@settings(max_examples=150, deadline=None)
def test_type_chosen_comparison_agrees_with_same_on_generated_candidates(
        reference, default, others, through_variable):
    tilde, oracle = generated_search(reference, default, others, through_variable)
    assert_comparison_agrees_with_same(tilde, oracle)


def test_type_chosen_comparison_agrees_with_same_on_bundled_candidates():
    exact = set()
    for asset in ("computederiv", "arrayreverse"):
        oracle = ReferenceOracle(parse_imp(read(asset, "reference.imp")), Bounds(3, 2))
        files = [os.path.join(ASSETS, asset, n) for n in ("student.imp", "reference.imp")]
        files += sorted(glob.glob(os.path.join(ASSETS, asset, "corpus", "*.imp")))
        for model_path in sorted(glob.glob(os.path.join(ASSETS, asset, "*.eml"))):
            model = parse_eml(read(model_path))
            for path in files:
                try:
                    program = parse_imp(read(path))
                except SourceError:
                    continue  # the corpus holds one unparseable submission
                exact.add(assert_comparison_agrees_with_same(rewrite(program, model), oracle, 2))
    assert exact == {True, False}


# -- two-stage verification and the budget charged per chunk -------------------
#
# A survivor runs on the choice-site program for its first ALONE_AFTER inputs
# and, where at least four times as many remain, compiled alone for the rest;
# the budget is charged once per chunk or candidate.  `per_input_search` is
# the search with neither: one runner, and the budget checked before every
# run.


class Refused(Exception):
    """The per-input budget refused a run."""


def per_input_search(tilde, oracle, max_cost=5, max_evals=None, blocked=(), blocked_trees=()):
    """`cegis_min` with one runner and the evaluation budget checked before
    every run: ((status, budget kind, cost, candidates tested,
    counterexamples, evaluations), [(pick tuple, evaluations before) per
    verification])."""
    run = oracle.compile(tilde)
    evals = 0
    cexs = []
    tested = 0
    verified = []

    def first_failure(picks, indices):
        nonlocal evals
        for i in indices:
            evals += 1
            if max_evals is not None and evals > max_evals:
                raise Refused
            try:
                value = run(oracle.inputs[i], picks)
            except Fault:
                return i
            if not same(value, oracle.values[i]):
                return i
        return None

    try:
        for picks, cost in enumerate_candidates(tilde, max_cost):
            if picks in blocked:
                continue
            tested += 1
            if first_failure(picks, cexs) is not None:
                continue
            if blocked_trees and pretty_program(instantiate(tilde, picks).program) in blocked_trees:
                continue
            verified.append((picks, evals))
            mismatch = first_failure(picks, range(len(oracle.inputs)))
            if mismatch is None:
                status = "correct" if cost == 0 else "fixed"
                return (status, None, cost, tested, len(cexs), evals), verified
            cexs.append(mismatch)
    except Refused:
        return ("budget", "evals", 0, tested, len(cexs), evals), verified
    return ("no_fix", None, 0, tested, len(cexs), evals), verified


def outcome(result, budget):
    return (result.status, result.budget_kind, result.cost, result.candidates_tested,
            result.cexs_used, budget.evals)


def test_budget_stops_at_the_same_run_as_a_check_before_every_run(deriv_ref, deriv_student,
                                                                    deriv_model):
    oracle = ReferenceOracle(deriv_ref, Bounds(4, 3))
    assert len(oracle.inputs) >= 5 * ALONE_AFTER  # the passing survivor finishes alone
    tilde = rewrite(deriv_student, deriv_model)
    (*_, total), verified = per_input_search(tilde, oracle)
    starts = [before for _, before in verified]
    last = starts[-1]  # the verification that passes
    sweep = {0, 1, 2, total - 1, total, total + 1}
    sweep |= {start + d for start in starts for d in (-1, 0, 1, 2)}
    # inside screening, where a cut can fall between a candidate's counterexamples
    sweep |= set(range(last - 24, last))
    sweep |= {(a + b) // 2 for a, b in zip(starts, starts[1:])}
    # inside the first ALONE_AFTER inputs, on chunk edges and in the tail run alone
    sweep |= {last + d for d in (CHUNK - 1, CHUNK, CHUNK + 1, ALONE_AFTER - 1, ALONE_AFTER,
                                 ALONE_AFTER + 1, ALONE_AFTER + CHUNK, ALONE_AFTER + 1000)}
    for max_evals in sorted(sweep):
        budget = SearchBudget(max_evals=max_evals)
        result = cegis_min(tilde, oracle, 5, budget)
        want, _ = per_input_search(tilde, oracle, max_evals=max_evals)
        assert outcome(result, budget) == want, max_evals


def test_a_survivor_failing_first_at_any_input_yields_that_counterexample():
    reference = parse_imp("def f_int(x_int, y_int, z_int):\n    return 0\n")
    oracle = ReferenceOracle(reference, Bounds(4, 0))
    assert len(oracle.inputs) >= 5 * ALONE_AFTER
    model = parse_eml("rule RetF: return n -> return {0}\n")
    last = len(oracle.inputs) - 1
    for index in (0, CHUNK, ALONE_AFTER - 1, ALONE_AFTER, ALONE_AFTER + 1,
                  ALONE_AFTER + CHUNK, last - 1, last):
        x, y, z = oracle.inputs[index]
        student = parse_imp(
            "def f_int(x_int, y_int, z_int):\n"
            f"    if x_int == {x} and y_int == {y} and z_int == {z}:\n"
            "        return 1\n"
            "    return 0\n"
        )
        tilde = rewrite(student, model)
        budget = SearchBudget()
        result = cegis_min(tilde, oracle, 5, budget)
        want, verified = per_input_search(tilde, oracle)
        assert outcome(result, budget) == want, index
        assert result.status == "fixed" and verified[0][0] == (0,) * len(tilde.sites)


def bundled_searches():
    """(choice-site program, oracle, blocked pick tuples, blocked texts) for
    every search the bundled workloads make: computeDeriv's student and
    corpus, and array-reverse's student with one alternate."""
    deriv = parse_imp(read("computederiv", "reference.imp"))
    deriv_model = parse_eml(read("computederiv", "model.eml"))
    oracle = ReferenceOracle(deriv, Bounds(4, 3))
    yield rewrite(parse_imp(read("computederiv", "student.imp")), deriv_model), oracle, (), ()
    oracle = ReferenceOracle(deriv, Bounds(3, 3))
    for path in sorted(glob.glob(os.path.join(ASSETS, "computederiv", "corpus", "*.imp"))):
        try:
            program = parse_imp(read(path))
        except SourceError:
            continue  # the corpus holds one unparseable submission
        yield rewrite(program, deriv_model), oracle, (), ()
    oracle = ReferenceOracle(parse_imp(read("arrayreverse", "reference.imp")), Bounds(4, 3))
    tilde = rewrite(parse_imp(read("arrayreverse", "student.imp")),
                    parse_eml(read("arrayreverse", "model.eml")))
    first = cegis_min(tilde, oracle)
    yield tilde, oracle, (), ()
    yield tilde, oracle, {first.picks}, {pretty_program(first.program)}


def assert_runners_agree(tilde, oracle, run, picks, starts):
    """The candidate `picks` fails first at the same input, from each of
    `starts` on, as its pick tuple on `run` (`tilde` compiled) and compiled
    alone."""
    alone = oracle.compile(instantiate(tilde, picks).program)
    for start in starts:
        want = oracle.first_mismatch(run, picks, start=start)
        assert oracle.first_mismatch(alone, start=start) == want, (picks, start)


def test_bundled_survivors_fail_first_at_the_same_input_on_both_runners():
    survivors = 0
    for tilde, oracle, blocked, blocked_trees in bundled_searches():
        want, verified = per_input_search(tilde, oracle, 5, None, blocked, blocked_trees)
        budget = SearchBudget()
        assert outcome(cegis_min(tilde, oracle, 5, budget, blocked, blocked_trees), budget) == want
        run = oracle.compile(tilde)
        for picks, _ in verified:
            assert_runners_agree(tilde, oracle, run, picks, (0, min(ALONE_AFTER, len(oracle.inputs))))
        survivors += len(verified)
    assert survivors >= 40


@given(returned(), returned(), st.lists(returned(), min_size=1, max_size=3), st.booleans(),
       st.integers(0, 100))
@settings(max_examples=100, deadline=None)
def test_both_runners_fail_first_at_the_same_input_on_generated_candidates(
        reference, default, others, through_variable, start):
    tilde, oracle = generated_search(reference, default, others, through_variable)
    run = oracle.compile(tilde)
    for picks, _ in enumerate_candidates(tilde):
        assert_runners_agree(tilde, oracle, run, picks, (0, min(start, len(oracle.inputs))))
