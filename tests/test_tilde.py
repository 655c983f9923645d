import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autofix import lang
from autofix.compiler import Compiler
from autofix.eml import IllFormedModel, parse_eml
from autofix.feedback import diff_corrections
from autofix.interp import Bounds
from autofix.lexer import SourceError, tokenize
from autofix.parser import Parser, parse_imp
from autofix.printer import pretty_program
from autofix.rewrite import rewrite
from autofix.tilde import (
    BadIndex,
    ChoiceSite,
    active_picks,
    dump,
    enumerate_candidates,
    instantiate,
    max_cost_bound,
)

from conftest import RULE_FORMS, SITE_KINDS_MODELS, SITE_KINDS_STUDENT, active_of, picks_for, read
from expansion_oracle import expand_program, visited_picks


def find_site(tilde, line, kind="expr"):
    return next(s for s in tilde.sites if s.span.line == line and s.kind == kind)


def test_default_assignment_is_empty_and_free(deriv_student, deriv_model):
    tilde = rewrite(deriv_student, deriv_model)
    assert next(enumerate_candidates(tilde)) == (tilde.defaults(), 0)
    assert active_picks(tilde, tilde.defaults()) == [] == visited_picks(tilde, tilde.defaults())


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
    picks = picks_for(tilde, {ret5.site_id: 1, cmp7.site_id: 1, lower6.site_id: 1})
    assert (picks, 3) in enumerate_candidates(tilde, 3)
    text = pretty_program(instantiate(tilde, picks))
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
    masked = picks_for(tilde, {op_site.site_id: 2})
    plain = pretty_program(instantiate(tilde, tilde.defaults()))
    assert pretty_program(instantiate(tilde, masked)) == plain
    assert active_picks(tilde, masked) == [] == visited_picks(tilde, masked)


def test_overview_model_induces_32_candidates(reverse_student, reverse_model_overview):
    tilde = rewrite(reverse_student, reverse_model_overview)
    candidates = list(enumerate_candidates(tilde))
    assert len(candidates) == 32
    distinct = {pretty_program(instantiate(tilde, p)) for p, _ in candidates}
    assert len(distinct) == 32


def test_stream_is_cost_sorted_with_lexicographic_ties(reverse_student, reverse_model_overview):
    tilde = rewrite(reverse_student, reverse_model_overview)
    seen = [(cost, tuple(sorted(active_of(p)))) for p, cost in enumerate_candidates(tilde)]
    assert seen == sorted(seen)
    assert len(set(seen)) == len(seen)


# a small program and rule forms whose sites nest: a block rule puts every
# other site inside its default, and primed or scoped subterms put sites
# inside a non-default alternative
ORDER_STUDENT = (
    "def f_int(x_int, y_int):\n"
    "    a = 1\n"
    "    if a < y_int:\n"
    "        a = x_int + 2\n"
    "    return a\n"
)
ORDER_FORMS = (
    "def f(a0, a1): s -> def f(a0, a1): {if a1 <= 0: {return 1}; s}",
    "a0 cop a1 -> {{a0' - 1, ?a0} ~cop {a1' - 1, 0, ?a1}, True}",
    "a0 cop a1 -> a0' ~cop {a1 + 1, 0}",
    "v = n -> v = {n + 1, 0}",
    "a0 aop a1 -> a0 ~aop a1",
    "return a -> {return ?a, pass}",
    "v = a -> v = a'",
    "a0 + a1 -> {a0' - 1, a1}",
)


def canonical_pick_tuples(tilde) -> list:
    """Every pick tuple whose inactive sites are at the default, built site
    by site: an enclosing site always has the lower id."""
    tuples = [()]
    for site in tilde.sites:
        grown = []
        for picks in tuples:
            parent, active = site.parent, True
            while active and parent is not None:
                active = picks[parent[0]] == parent[1]
                parent = tilde.sites[parent[0]].parent
            grown += [picks + (idx,) for idx in (range(len(site.alternatives)) if active else (0,))]
        tuples = grown
    return tuples


@settings(max_examples=100, deadline=None)
@given(
    forms=st.lists(st.sampled_from(ORDER_FORMS), min_size=1, max_size=4, unique=True),
    weights=st.lists(st.integers(1, 3), min_size=4, max_size=4),
    max_cost=st.integers(0, 4),
)
def test_enumeration_is_every_canonical_pick_tuple_by_cost_then_active_picks(forms, weights,
                                                                              max_cost):
    model = parse_eml("".join(
        f"rule R{i} weight {w}: {form}\n" for i, (form, w) in enumerate(zip(forms, weights))
    ))
    tilde = rewrite(parse_imp(ORDER_STUDENT), model)
    ranked = []
    for picks in canonical_pick_tuples(tilde):
        cost = sum(tilde.sites[i].alternatives[idx].weight for i, idx in active_of(picks))
        ranked.append((cost, sorted(active_of(picks)), picks))
    want = [(picks, cost) for cost, _, picks in sorted(ranked)]
    assert list(enumerate_candidates(tilde)) == want
    assert list(enumerate_candidates(tilde, max_cost)) == [c for c in want if c[1] <= max_cost]


@settings(max_examples=100, deadline=None)
@given(
    forms=st.lists(st.sampled_from(ORDER_FORMS), min_size=1, max_size=4, unique=True),
    weights=st.lists(st.integers(1, 3), min_size=4, max_size=4),
    data=st.data(),
)
def test_learned_facts_skip_exactly_the_candidates_that_agree_with_them(forms, weights, data):
    # facts over any masks, from any candidate with at most one pick, each
    # given as some cost level starts: from that level on, a candidate is
    # left out exactly when it has the fact's picks on every site of the
    # mask, and the others keep their order
    model = parse_eml("".join(
        f"rule R{i} weight {w}: {form}\n" for i, (form, w) in enumerate(zip(forms, weights))
    ))
    tilde = rewrite(parse_imp(ORDER_STUDENT), model)
    plain = list(enumerate_candidates(tilde))
    few = [picks for picks, _ in plain if len(active_of(picks)) <= 1]
    fact = st.tuples(st.sampled_from(few), st.integers(0, 2 ** len(tilde.sites) - 1))
    given_at = []  # (cost level, picks, mask) per fact
    levels = []

    def learn():
        levels.append(len(levels) + 1)
        facts = data.draw(st.lists(fact, max_size=2))
        given_at.extend((levels[-1], picks, mask) for picks, mask in facts)
        return facts

    learned = list(enumerate_candidates(tilde, learn=learn))

    def agrees(picks, cost):
        return any(at <= cost and all(picks[k] == known[k] for k in range(len(picks))
                                      if mask >> k & 1)
                   for at, known, mask in given_at)

    assert learned == [(p, c) for p, c in plain if not agrees(p, c)]


def test_cost_additivity_for_sibling_sites(deriv_student, deriv_model):
    tilde = rewrite(deriv_student, deriv_model)
    s_a = find_site(tilde, 5)
    s_b = find_site(tilde, 6)
    cost = dict(enumerate_candidates(tilde, 2))
    both = cost[picks_for(tilde, {s_a.site_id: 1, s_b.site_id: 1})]
    only_a = cost[picks_for(tilde, {s_a.site_id: 1})]
    only_b = cost[picks_for(tilde, {s_b.site_id: 1})]
    assert both == only_a + only_b == 2


def test_canonical_enumeration_no_duplicate_patterns(deriv_student, deriv_model):
    tilde = rewrite(deriv_student, deriv_model)
    seen = set()
    for candidate, cost in enumerate_candidates(tilde, 2):
        active = frozenset(visited_picks(tilde, candidate))
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
            text = pretty_program(instantiate(tilde, candidate))
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


def site_lines(text: str, tilde) -> list:
    """The dump's site lines, after checking that the tree above them shows
    a `<site N>` placeholder for each site outside an alternative that
    stands for a statement, a block or an augmented operator, in order."""
    tree, _, sites = text.partition("\n\n")
    assert text.endswith("\n") and "\n\n" not in sites
    aug_ops = {id(node.op) for node in lang.walk(tilde.root) if isinstance(node, lang.AugAssign)}
    standing = [
        site.site_id for site in tilde.sites
        if site.parent is None and (site.kind in ("stmt", "block") or id(site) in aug_ops)
    ]
    assert re.findall(r"<site (\d+)>", tree) == [str(i) for i in standing]
    lines = sites.splitlines()
    assert [line.split(" (line ")[0] for line in lines] == [f"site {i}" for i in range(len(tilde.sites))]
    return lines


@pytest.mark.parametrize("kind", sorted(SITE_KINDS_MODELS))
def test_dump_lists_every_site_of_every_kind_once(kind):
    tilde = rewrite(parse_imp(SITE_KINDS_STUDENT), parse_eml(SITE_KINDS_MODELS[kind]))
    assert len(site_lines(dump(tilde), tilde)) == len(tilde.sites) > 0


def test_dump_of_statement_sites():
    tilde = rewrite(parse_imp(SITE_KINDS_STUDENT), parse_eml(SITE_KINDS_MODELS["stmt"]))
    assert dump(tilde) == (
        "def f_int(xs_list_int, n_int):\n"
        "    s = 0\n"
        "    i = 0\n"
        "    while (i < len(xs_list_int)):\n"
        "        <site 0>\n"
        "        xs_list_int[i] = s\n"
        "        <site 1>\n"
        "    if (n_int > s):\n"
        "        t = n_int\n"
        "    <site 2>\n"
        "\n"
        "site 0 (line 5): {s += xs_list_int[i] | s -= xs_list_int[i] @IncF:1 | s += 2 @IncF:1 | pass @IncF:1}\n"
        "site 1 (line 7): {i += 1 | i -= 1 @IncF:1 | i += 2 @IncF:1 | pass @IncF:1}\n"
        "site 2 (line 10): {return s | return {s | xs_list_int @RetF | n_int @RetF | i @RetF | t @RetF} @RetF:1"
        " | pass @RetF:1}\n"
        "site 3 (line 10): {s | xs_list_int @RetF:1 | n_int @RetF:1 | i @RetF:1 | t @RetF:1}\n"
    )


def test_dump_of_a_block_site():
    # a compound statement inside an alternative prints on the alternative's
    # one line, stripped and fully parenthesised
    tilde = rewrite(parse_imp(SITE_KINDS_STUDENT), parse_eml(SITE_KINDS_MODELS["block"]))
    body = (
        "s = {0 | (0 + 1) @InitF}; i = {0 | (0 + 1) @InitF}; while (i < len(xs_list_int)):;"
        " s += xs_list_int[i]; xs_list_int[i] = s; i += 1; if (n_int > s):; t = n_int; return s"
    )
    plain = body.replace("{0 | (0 + 1) @InitF}", "0")
    assert dump(tilde) == (
        "def f_int(xs_list_int, n_int):\n"
        "    <site 0>\n"
        "\n"
        f"site 0 (line 1): {{{body} | if (n_int <= 0):; return 1; {plain} @BaseF:2}}\n"
        "site 1 (line 2): {0 | (0 + 1) @InitF:1}\n"
        "site 2 (line 3): {0 | (0 + 1) @InitF:1}\n"
    )


STUDENTS = {
    "computederiv": read("computederiv", "student.imp"),
    "arrayreverse": read("arrayreverse", "student.imp"),
    "site kinds": SITE_KINDS_STUDENT,
}


@pytest.mark.parametrize("lhs", sorted({form.split(" -> ")[0] for form in RULE_FORMS}))
def test_every_pattern_with_every_template_is_rejected_or_rewrites(lhs):
    # a rule either fails to parse or rewrites, dumps and compiles
    compiler = Compiler(Bounds(3, 2))
    for rhs in (form.split(" -> ")[1] for form in RULE_FORMS):
        try:
            model = parse_eml(f"rule R: {lhs} -> {rhs}\n")
        except (SourceError, IllFormedModel):
            continue
        for source in STUDENTS.values():
            tilde = rewrite(parse_imp(source), model)
            dump(tilde)
            compiler.compile(tilde)


def parse_expression(text: str) -> lang.Expr:
    return Parser(tokenize(text + "\n"), text).parse_expr()


def has_site(node) -> bool:
    return type(node) is ChoiceSite or any(has_site(child) for child in lang.children(node))


def compound_count(node) -> int:
    """Parentheses a fully parenthesised printing opens: one per compound
    expression and one per call."""
    kinds = (lang.BinOp, lang.Compare, lang.BoolOp, lang.Not, lang.CondExpr, lang.Call)
    return sum(isinstance(sub, kinds) for sub in lang.walk(node))


@settings(max_examples=100, deadline=None)
@given(
    student=st.sampled_from(sorted(STUDENTS)),
    forms=st.lists(st.sampled_from(RULE_FORMS), min_size=1, max_size=3, unique=True),
    weights=st.lists(st.integers(1, 2), min_size=3, max_size=3),
)
def test_dump_and_feedback_print_every_generated_choice(student, forms, weights):
    model = parse_eml("".join(
        f"rule R{i} weight {w}: {form}\n" for i, (form, w) in enumerate(zip(forms, weights))
    ))
    tilde = rewrite(parse_imp(STUDENTS[student]), model)
    # the alternatives of an expression site without nested sites print
    # fully parenthesised and parse back to themselves
    for site, line in zip(tilde.sites, site_lines(dump(tilde), tilde)):
        if site.kind != "expr" or any(has_site(alt.payload) for alt in site.alternatives):
            continue
        texts = line.split(": {", 1)[1][:-1].split(" | ")
        assert len(texts) == len(site.alternatives)
        for alt, text in zip(site.alternatives, texts):
            text = text.rsplit(" @", 1)[0] if alt.rule_id else text
            assert parse_expression(text).key() == alt.payload.key()
            assert text.count("(") == compound_count(alt.payload)
    defaults = tilde.defaults()
    for picks, _ in enumerate_candidates(tilde, 2):
        corrections = diff_corrections(tilde, picks)
        active = visited_picks(tilde, picks)
        active.sort(key=lambda pick: (tilde.sites[pick[0]].span.line, tilde.sites[pick[0]].span.col))
        assert len(corrections) == len(active)
        for c, (site_id, idx) in zip(corrections, active):
            site = tilde.sites[site_id]
            assert c.span == site.span and c.rule_id == site.alternatives[idx].rule_id
            if site.kind == "expr":
                new = tilde.resolve(site.alternatives[idx].payload, picks)
                sub = tilde.resolve(site.alternatives[0].payload, defaults)
                assert parse_expression(c.new_expr).key() == new.key()
                assert parse_expression(c.sub_expr).key() == sub.key()
