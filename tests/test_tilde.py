import random

import pytest

from autofix.eml import parse_eml
from autofix.parser import parse_imp
from autofix.printer import pretty_program
from autofix.rewrite import rewrite
from autofix.tilde import (
    BadIndex,
    dump,
    enumerate_candidates,
    instantiate,
    max_cost_bound,
)

from conftest import active_of, picks_for
from expansion_oracle import expand_program


def find_site(tilde, line, kind="expr"):
    return next(s for s in tilde.sites if s.span.line == line and s.kind == kind)


def test_default_assignment_is_empty_and_free(deriv_student, deriv_model):
    tilde = rewrite(deriv_student, deriv_model)
    cand = instantiate(tilde, tilde.defaults())
    assert cand.cost == 0 and cand.active == frozenset()


def test_zero_site_tilde(deriv_student):
    tilde = rewrite(deriv_student, parse_eml(""))
    candidates = list(enumerate_candidates(tilde))
    assert len(candidates) == 1 and candidates[0] == ((), 0)


def test_walkthrough_selection_costs_three(deriv_student, deriv_model_simple, deriv_student_source):
    # the three-rule model: choices at both returns, the guard and loop
    # comparisons, and the range lower bound
    tilde = rewrite(deriv_student, deriv_model_simple)
    ret5 = find_site(tilde, 5)
    lower6 = find_site(tilde, 6)
    cmp7 = find_site(tilde, 7)
    cand = instantiate(tilde, picks_for(tilde, {ret5.site_id: 1, cmp7.site_id: 1, lower6.site_id: 1}))
    assert cand.cost == 3
    text = pretty_program(cand.program)
    assert "return [0]" in text
    assert "if False:" in text
    assert "range(0 + 1, len(poly_list_int))" in text
    # untouched statements print exactly as in the original
    assert "deriv.append(poly_list_int[expo] * expo)" in text


def test_bad_index_rejected(deriv_student, deriv_model_simple):
    tilde = rewrite(deriv_student, deriv_model_simple)
    with pytest.raises(BadIndex):
        instantiate(tilde, picks_for(tilde, {0: 99}))


def test_inactive_selection_is_masked(deriv_student, deriv_model):
    tilde = rewrite(deriv_student, deriv_model)
    # an operator site nested inside the unselected comparison alternative
    cmp4 = find_site(tilde, 4)
    op_site = next(
        s for s in tilde.sites if s.kind == "op" and s.parent and s.parent[0] == cmp4.site_id
    )
    plain = instantiate(tilde, tilde.defaults())
    masked = instantiate(tilde, picks_for(tilde, {op_site.site_id: 2}))
    assert pretty_program(masked.program) == pretty_program(plain.program)
    assert masked.cost == 0 and masked.active == frozenset()


def test_overview_model_induces_32_candidates(reverse_student, reverse_model_overview):
    tilde = rewrite(reverse_student, reverse_model_overview)
    candidates = list(enumerate_candidates(tilde))
    assert len(candidates) == 32
    distinct = {pretty_program(instantiate(tilde, p).program) for p, _ in candidates}
    assert len(distinct) == 32


def test_stream_is_cost_sorted_with_lexicographic_ties(reverse_student, reverse_model_overview):
    tilde = rewrite(reverse_student, reverse_model_overview)
    seen = [(cost, tuple(sorted(active_of(p)))) for p, cost in enumerate_candidates(tilde)]
    assert seen == sorted(seen)
    assert len(set(seen)) == len(seen)


def test_cost_additivity_for_sibling_sites(deriv_student, deriv_model):
    tilde = rewrite(deriv_student, deriv_model)
    s_a = find_site(tilde, 5)
    s_b = find_site(tilde, 6)
    both = instantiate(tilde, picks_for(tilde, {s_a.site_id: 1, s_b.site_id: 1}))
    only_a = instantiate(tilde, picks_for(tilde, {s_a.site_id: 1}))
    only_b = instantiate(tilde, picks_for(tilde, {s_b.site_id: 1}))
    assert both.cost == only_a.cost + only_b.cost == 2


def test_canonical_enumeration_no_duplicate_patterns(deriv_student, deriv_model):
    tilde = rewrite(deriv_student, deriv_model)
    seen = set()
    for candidate, cost in enumerate_candidates(tilde, 2):
        active = instantiate(tilde, candidate).active
        assert active not in seen
        seen.add(active)
        # inactive sites stay at the default: the picks are the active set
        assert active_of(candidate) == active


def random_tilde(rng):
    lits = [rng.randrange(-2, 3) for _ in range(3)]
    ops = rng.choice(["+", "-"]), rng.choice(["<", "=="])
    source = (
        "def f_int(x_int, y_int):\n"
        f"    a = {lits[0]}\n"
        f"    b = x_int {ops[0]} {lits[1]}\n"
        f"    if a {ops[1]} y_int:\n"
        f"        a = b + {lits[2]}\n"
        "    return a\n"
    )
    pool = [
        "rule InitF: v = n -> v = {n + 1, n - 1, 0}\n",
        "rule CondF: a0 cop a1 -> a0' ~cop {a1 + 1, 0, ?a1}\n",
        "rule OpF: a0 + a1 -> a0 - a1\n",
        "rule RetF: return v -> return ?v\n",
    ]
    rules = "".join(rng.sample(pool, rng.randrange(1, len(pool) + 1)))
    return rewrite(parse_imp(source), parse_eml(rules))


def slot_count(tilde):
    return sum(len(s.alternatives) - 1 for s in tilde.sites)


def test_enumeration_agrees_with_direct_expansion():
    rng = random.Random(20240817)
    checked = 0
    while checked < 30:
        tilde = random_tilde(rng)
        if slot_count(tilde) > 12:
            continue
        checked += 1
        expanded = {}
        for text, cost in expand_program(tilde):
            expanded[(text, cost)] = expanded.get((text, cost), 0) + 1
        enumerated = {}
        for candidate, cost in enumerate_candidates(tilde):
            text = pretty_program(instantiate(tilde, candidate).program)
            enumerated[(text, cost)] = enumerated.get((text, cost), 0) + 1
        assert enumerated == expanded


def test_max_cost_bound_caps_enumeration(deriv_student, deriv_model_simple):
    tilde = rewrite(deriv_student, deriv_model_simple)
    bound = max_cost_bound(tilde)
    all_candidates = list(enumerate_candidates(tilde))
    assert all(cost <= bound for _, cost in all_candidates)
    capped = list(enumerate_candidates(tilde, 1))
    assert {cost for _, cost in capped} == {0, 1}


def test_dump_is_stable(deriv_student, deriv_model):
    tilde = rewrite(deriv_student, deriv_model)
    again = rewrite(deriv_student, deriv_model)
    assert dump(tilde) == dump(again)
    assert "site 0" in dump(tilde)
