import random

import pytest

from autofix.eml import parse_eml
from autofix.interp import Bounds
from autofix.parser import parse_imp
from autofix.printer import pretty_program
from autofix.rewrite import rewrite
from autofix.search import (
    ReferenceFault,
    ReferenceOracle,
    SearchBudget,
    cegis_min,
    find_counterexample,
    next_alternate,
)
from autofix.tilde import enumerate_candidates, instantiate


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
    assert again.assignment == result.assignment  # deterministic


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
        candidate for candidate in (instantiate(tilde, a) for a, _ in enumerate_candidates(tilde))
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
    for assignment, cost in enumerate_candidates(tilde, max_cost):
        if best is not None and cost > best:
            break
        cand = instantiate(tilde, assignment)
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
