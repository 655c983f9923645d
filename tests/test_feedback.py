import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autofix.eml import parse_eml
from autofix.feedback import build_report, diff_corrections, render_feedback
from autofix.interp import Bounds
from autofix.parser import parse_imp
from autofix.printer import pretty_program
from autofix.rewrite import rewrite
from autofix.search import ReferenceOracle, cegis_min
from autofix.tilde import active_picks, instantiate

from conftest import SITE_KINDS_MODELS, SITE_KINDS_STUDENT, picks_for, read
from expansion_oracle import visited_picks


@pytest.fixture(scope="module")
def deriv_fix(deriv_student, deriv_model, deriv_oracle_w3):
    tilde = rewrite(deriv_student, deriv_model)
    result = cegis_min(tilde, deriv_oracle_w3, max_cost=5)
    assert result.status == "fixed"
    return tilde, result


def test_corrections_match_expected_fix(deriv_fix):
    tilde, result = deriv_fix
    corrections = diff_corrections(tilde, result.picks)
    facts = [(c.line, c.sub_expr, c.new_expr, c.rule_id) for c in corrections]
    assert facts == [
        (5, "deriv", "[0]", "RetF"),
        (6, "0", "1", "RanR"),
        (7, "poly_list_int[expo] == 0", "False", "CondF"),
    ]
    assert corrections[0].orig_stmt == "return deriv"
    assert [c.line for c in corrections] == sorted(c.line for c in corrections)


def test_default_assignment_has_no_corrections(deriv_fix):
    tilde, _ = deriv_fix
    assert diff_corrections(tilde, tilde.defaults()) == []


def test_inactive_selection_contributes_no_correction(deriv_fix):
    tilde, _ = deriv_fix
    nested = next(s for s in tilde.sites if s.parent is not None and s.parent[1] != 0)
    assert diff_corrections(tilde, picks_for(tilde, {nested.site_id: 1})) == []


def test_messages_render_rule_templates(deriv_fix):
    tilde, result = deriv_fix
    messages = [c.message for c in diff_corrections(tilde, result.picks)]
    assert messages[0] == "In the return statement return deriv in line 5, replace deriv by [0]."
    assert messages[1] == "In the expression for expo in range(0, len(poly_list_int)) in line 6, change 0 to 1."
    assert (
        messages[2]
        == "In the comparison expression if poly_list_int[expo] == 0 in line 7, change poly_list_int[expo] == 0 to False."
    )


def test_generic_message_when_rule_has_none(deriv_oracle_w3, deriv_student):
    model = parse_eml("rule RetF: return a -> return [0]\n")
    tilde = rewrite(deriv_student, model)
    site = tilde.sites[0]
    corrections = diff_corrections(tilde, picks_for(tilde, {site.site_id: 1}))
    assert corrections[0].message == "In line 5, change deriv to [0]."


def test_text_rendering_levels(deriv_fix):
    tilde, result = deriv_fix
    report = build_report(tilde, result)
    full = render_feedback(report, level=4, format="text")
    assert "The program requires 3 change(s). cost = 3." in full
    assert "- In the return statement return deriv in line 5, replace deriv by [0]." in full
    brief = render_feedback(report, level=1, format="text")
    assert "- line 5" in brief and "[0]" not in brief
    mid = render_feedback(report, level=2, format="text")
    assert "- line 5: return deriv" in mid


def test_correct_verdict_text(deriv_fix):
    from autofix.search import RepairResult

    report = build_report(deriv_fix[0], RepairResult(status="correct"))
    assert render_feedback(report, 4, "text") == "No corrections needed. cost = 0.\n"


def test_json_levels_are_monotone_projections(deriv_fix):
    tilde, result = deriv_fix
    report = build_report(tilde, result)
    docs = [
        json.loads(render_feedback(report, level, "json")) for level in (1, 2, 3, 4)
    ]
    for lower, higher in zip(docs, docs[1:]):
        for c_low, c_high in zip(lower["corrections"], higher["corrections"]):
            for key, value in c_low.items():
                assert c_high[key] == value
            assert set(c_low) < set(c_high)
    assert docs[3]["verdict"] == "fixed" and docs[3]["cost"] == 3


def test_json_output_is_key_sorted_and_stable(deriv_fix):
    tilde, result = deriv_fix
    report = build_report(tilde, result)
    one = render_feedback(report, 4, "json")
    two = render_feedback(report, 4, "json")
    assert one == two
    doc = json.loads(one)
    assert list(doc) == sorted(doc)
    assert set(doc["stats"]) == {"candidates_tested", "cexs"}


def test_stats_include_millis_only_when_given(deriv_fix):
    tilde, result = deriv_fix
    with_timing = build_report(tilde, result, millis=17)
    assert with_timing.stats["millis"] == 17
    without = build_report(tilde, result)
    assert "millis" not in without.stats


def splice(source, corrections):
    """Apply each correction's replacement text at its recorded span."""
    spans = sorted(corrections, key=lambda c: c.span.start, reverse=True)
    kept = []
    for c in spans:
        if any(
            c.span.start >= k.span.start and c.span.end <= k.span.end
            for k in kept
        ):
            continue  # nested inside an already-applied replacement
        kept.append(c)
        source = source[: c.span.start] + c.new_expr + source[c.span.end :]
    return source


def test_round_trip_splice_matches_instantiation(
    deriv_fix, deriv_student_source
):
    tilde, result = deriv_fix
    corrections = diff_corrections(tilde, result.picks)
    patched = splice(deriv_student_source, corrections)
    fixed = instantiate(tilde, result.picks)
    assert parse_imp(patched).key() == fixed.key()


def test_round_trip_splice_with_operator_correction(
    reverse_student, reverse_student_source, reverse_model
):
    oracle = ReferenceOracle(
        parse_imp(
            "def reverse_list_int(a_list_int):\n"
            "    out = []\n"
            "    n = len(a_list_int)\n"
            "    for k in range(n):\n"
            "        out = out + [a_list_int[n - 1 - k]]\n"
            "    return out\n"
        ),
        Bounds(3, 2),
    )
    tilde = rewrite(reverse_student, reverse_model)
    # picks that rewrite the loop operator and an index
    op_site = next(s for s in tilde.sites if s.kind == "op" and s.span.line == 4)
    idx_site = next(s for s in tilde.sites if s.span.line == 5)
    chosen = picks_for(tilde, {op_site.site_id: 1, idx_site.site_id: 2})
    corrections = diff_corrections(tilde, chosen)
    assert {c.sub_expr for c in corrections} == {"<=", "i"}
    patched = splice(reverse_student_source, corrections)
    assert parse_imp(patched).key() == instantiate(tilde, chosen).key()


def test_alternates_render_in_report(reverse_student, reverse_model, reverse_ref):
    oracle = ReferenceOracle(reverse_ref, Bounds(3, 3))
    tilde = rewrite(reverse_student, reverse_model)
    first = cegis_min(tilde, oracle, max_cost=4, alternates=1)
    report = build_report(tilde, first)
    assert len(report.alternates) == 1
    text = render_feedback(report, 4, "text")
    assert "Alternate fix 1" in text
    doc = json.loads(render_feedback(report, 4, "json"))
    assert len(doc["alternates"]) == 1 and doc["alternates"][0]


def _tildes():
    """Choice-site programs with nested sites and sites of every kind."""
    pairs = [(read("computederiv", "student.imp"), read("computederiv", "model.eml")),
             (read("arrayreverse", "student.imp"), read("arrayreverse", "model.eml"))]
    pairs += [(SITE_KINDS_STUDENT, model) for model in SITE_KINDS_MODELS.values()]
    return [rewrite(parse_imp(source), parse_eml(model)) for source, model in pairs]


TILDES = _tildes()


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_the_active_picks_are_those_a_resolution_visits(data):
    # random picks often pick a site inside an alternative left unpicked,
    # and so does a nested site's pick alone
    tilde = data.draw(st.sampled_from(TILDES))
    picks = data.draw(st.tuples(*(st.integers(0, len(site.alternatives) - 1)
                                  for site in tilde.sites)))
    alone = [picks_for(tilde, {k: pick}) for k, pick in enumerate(picks) if pick]
    for each in [picks] + alone:
        got = [(site.site_id, index) for site, index in active_picks(tilde, each)]
        assert got == visited_picks(tilde, each)


def test_a_site_made_inside_a_primed_template_lies_at_the_match():
    # rule A rewrites the `a0 - 1` it builds, so rule B's site there lies in
    # the student's line 3, not at the template's place in the rule text
    reference = (
        "def computeDeriv_list_int(poly_list_int):\n"
        "    deriv = []\n"
        "    if len(poly_list_int) == 0:\n"
        "        return deriv\n"
        "    for expo in range(1, len(poly_list_int)):\n"
        "        deriv.append(poly_list_int[expo] * expo)\n"
        "    return deriv\n"
    )
    student = parse_imp(reference.replace("== 0:", "== 0 + 1:").replace(
        "return deriv\n    for", "return poly_list_int\n    for"))
    msg = ' msg "In {orig} in line {line}, change {sub} to {new}."\n'
    model = parse_eml("rule A: a0 == a1 + a2 -> {(a0 - 1)' == a1}" + msg
                      + "rule B: a0 - a1 -> {a0 + a1, a0 * a1}" + msg)
    tilde = rewrite(student, model)
    assert [site.span.line for site in tilde.sites] == [3, 3]
    result = cegis_min(tilde, ReferenceOracle(parse_imp(reference), Bounds(3, 2)), max_cost=5)
    assert (result.status, result.cost) == ("fixed", 2)
    corrections = diff_corrections(tilde, result.picks)
    assert [(c.line, c.rule_id) for c in corrections] == [(3, "A"), (3, "B")]
    assert [c.message for c in corrections] == [
        "In if len(poly_list_int) == 0 + 1 in line 3, change len(poly_list_int) == 0 + 1"
        " to len(poly_list_int) + 1 == 0.",
        "In if len(poly_list_int) == 0 + 1 in line 3, change len(poly_list_int) - 1"
        " to len(poly_list_int) + 1.",
    ]
