import pytest

from autofix import lang
from autofix.eml import ChoiceSet, CorrectionRule, ErrorModel, IllFormedModel, Primed, parse_eml
from autofix.lexer import SourceError
from autofix.parser import parse_imp
from autofix.printer import pretty_expr, pretty_program
from autofix.rewrite import rewrite
from autofix.tilde import ChoiceSite, dump, enumerate_candidates, instantiate

from conftest import read


def candidate_texts(tilde, max_cost=None):
    out = {}
    for candidate, cost in enumerate_candidates(tilde, max_cost):
        text = pretty_program(instantiate(tilde, candidate))
        out[text, cost] = out.get((text, cost), 0) + 1
    return out


def test_empty_model_rewrites_to_zero_sites(deriv_student, deriv_student_source):
    tilde = rewrite(deriv_student, ErrorModel([]))
    assert tilde.sites == []
    assert pretty_program(instantiate(tilde, tilde.defaults())) == deriv_student_source
    assert list(enumerate_candidates(tilde)) == [((), 0)]


@pytest.mark.parametrize(
    "program_file,model_file",
    [
        (("computederiv", "student.imp"), ("computederiv", "model.eml")),
        (("computederiv", "student.imp"), ("computederiv", "model_simple.eml")),
        (("computederiv", "reference.imp"), ("computederiv", "model.eml")),
        (("arrayreverse", "student.imp"), ("arrayreverse", "model.eml")),
        (("arrayreverse", "student.imp"), ("arrayreverse", "model_overview.eml")),
        (("arrayreverse", "reference.imp"), ("arrayreverse", "model.eml")),
    ],
)
def test_default_assignment_reproduces_input(program_file, model_file):
    source = read(*program_file)
    tilde = rewrite(parse_imp(source), parse_eml(read(*model_file)))
    assert pretty_program(instantiate(tilde, tilde.defaults())) == source


def test_ill_formed_model_rejected():
    with pytest.raises(IllFormedModel, match="^Bad: primed subterm is not smaller"):
        parse_eml("rule Bad: a0 + a1 -> {(a0 + a1)', 0}\n")
    # the same rule built by hand: the recursion bound ends its rewrite
    (rule,) = parse_eml("rule Bad: a0 + a1 -> {a0 + a1, 0}\n")
    whole, zero = rule.rhs.options
    bad = CorrectionRule("Bad", rule.lhs, ChoiceSet([Primed(whole), zero]))
    with pytest.raises(IllFormedModel, match="termination bound"):
        rewrite(parse_imp("def f_int(x_int):\n    return x_int + 1\n"), ErrorModel([bad]))


def test_a_nested_set_left_with_no_elements_offers_nothing():
    # `?a0` offers the variables in scope but the one `a0` bound
    model = parse_eml("rule R: a0 + a1 -> {{?a0} - 1, 0}\n")
    sites = {
        "x_int": "site 0 (line 2): {(x_int + 1) | 0 @R:1}\n",
        # a nested set with one element is that element
        "x_int, y_int": "site 0 (line 2): {(x_int + 1) | (y_int - 1) @R:1 | 0 @R:1}\n",
        "x_int, y_int, z_int": (
            "site 0 (line 2): {(x_int + 1) | ({y_int | z_int @R} - 1) @R:1 | 0 @R:1}\n"
            "site 1 (line 2): {y_int | z_int @R:1}\n"
        ),
    }
    for params, want in sites.items():
        tilde = rewrite(parse_imp(f"def f_int({params}):\n    return x_int + 1\n"), model)
        assert dump(tilde).split("\n\n")[1] == want


def test_compute_deriv_site_lines(deriv_student, deriv_model):
    tilde = rewrite(deriv_student, deriv_model)
    lines = {site.span.line for site in tilde.sites}
    # init at 3, guard comparison at 4, returns at 5 and 11, range at 6,
    # comparison and index at 7, index at 10
    assert lines == {3, 4, 5, 6, 7, 10, 11}


def test_nested_rewrite_structure():
    # two index rules and one comparison rule interact on x[i] < y[j]
    source = (
        "def f_int(x_list_int, y_list_int, i_int, j_int):\n"
        "    if x_list_int[i_int] < y_list_int[j_int]:\n"
        "        return 1\n"
        "    return 0\n"
    )
    model = parse_eml(
        "rule R1: v[a] -> v[{a - 1, a + 1}]\n"
        "rule R2: a0 cop a1 -> {a0' - 1, 0} cop {a1' - 1, 0}\n"
        "rule R3: v[a] -> ?v[a]\n"
    )
    tilde = rewrite(parse_imp(source), model)
    texts = candidate_texts(tilde)

    def has(snippet, cost):
        return any(snippet in text and c == cost for (text, c), n in texts.items())

    # each single rewrite costs one
    assert has("x_list_int[i_int - 1] < y_list_int[j_int]", 1)  # R1
    assert has("y_list_int[i_int] < y_list_int[j_int]", 1)  # R3 base swap
    assert has("0 < y_list_int[j_int]", 1)  # R2 left, constant
    # R2's decremented side still rewrites recursively: two rule applications
    assert has("x_list_int[i_int] - 1 < 0", 2)
    assert has("x_list_int[i_int - 1] - 1 < 0", 3)
    # untouched program appears once at cost zero
    source_text = pretty_program(parse_imp(source).functions and parse_imp(source))
    assert texts[(source_text, 0)] == 1


def test_frozen_subterms_contain_no_sites(reverse_student, reverse_model):
    tilde = rewrite(reverse_student, reverse_model)
    # the loop-condition rewrite freezes its unprimed right side: every
    # non-default option there is a plain fragment
    cond_site = next(
        s for s in tilde.sites if s.kind == "expr" and s.span.line == 4
    )

    def contains_site(node):
        if isinstance(node, ChoiceSite):
            return True
        return any(
            contains_site(c)
            for c in getattr(node, "__dict__", {}).values()
            if isinstance(c, (lang.Node, ChoiceSite, list))
            for c in (c if isinstance(c, list) else [c])
        )

    for alt in cond_site.alternatives[1:]:
        assert not contains_site(alt.payload)


def test_scope_set_excludes_rewritten_variable(reverse_student, reverse_model):
    tilde = rewrite(reverse_student, reverse_model)
    ret_site = next(s for s in tilde.sites if s.span.line == 9)
    options = [pretty_expr(alt.payload) for alt in ret_site.alternatives[1:]]
    assert options == ["a_list_int", "i", "temp"]  # b itself excluded


def test_scope_is_lexical_before_the_statement(deriv_student, deriv_model):
    tilde = rewrite(deriv_student, deriv_model)
    # ?a options inside the line-7 comparison include expo (bound at line 6)
    line7 = [s for s in tilde.sites if s.span.line == 7]
    rendered = " ".join(
        pretty_expr(alt.payload)
        for site in line7
        for alt in site.alternatives[1:]
        if isinstance(alt.payload, lang.Var)
    )
    assert "expo" in rendered
    # but not at the line-4 guard (expo is bound later)
    line4 = [s for s in tilde.sites if s.span.line == 4]
    rendered4 = [
        pretty_expr(alt.payload)
        for site in line4
        for alt in site.alternatives[1:]
        if isinstance(alt.payload, lang.Var)
    ]
    assert "expo" not in rendered4


def test_monotone_coverage():
    source = "def f_int(x_int):\n    y = 0\n    return y + x_int\n"
    base = parse_eml("rule InitF: v = n -> v = {n + 1, n - 1, 0}\n")
    extended = parse_eml(
        "rule InitF: v = n -> v = {n + 1, n - 1, 0}\n"
        "rule RetF: return a -> return [0]\n"
    )
    small = candidate_texts(rewrite(parse_imp(source), base))
    large = candidate_texts(rewrite(parse_imp(source), extended))
    for key, count in small.items():
        assert large.get(key, 0) >= count


def test_rewrite_depth_stays_within_program_size(deriv_student, deriv_model):
    tilde = rewrite(deriv_student, deriv_model)
    assert tilde.max_rewrite_depth <= lang.size(deriv_student)


def test_rule_weights_flow_into_alternatives(deriv_student):
    model = parse_eml("rule RetF weight 4: return a -> return [0]\n")
    tilde = rewrite(deriv_student, model)
    weights = {alt.weight for s in tilde.sites for alt in s.alternatives[1:]}
    assert weights == {4}


def test_statement_choice_rule():
    source = "def f_int(x_int):\n    x_int += 1\n    return x_int\n"
    model = parse_eml("rule IncF: v += n -> {v -= n, v += 2}\n")
    tilde = rewrite(parse_imp(source), model)
    texts = candidate_texts(tilde)
    assert any("x_int -= 1" in t and c == 1 for (t, c) in texts)
    assert any("x_int += 2" in t and c == 1 for (t, c) in texts)


def test_a_pass_pattern_matches_pass():
    program = parse_imp(read("computederiv", "corpus", "s05_skips_zeros.imp"))
    tilde = rewrite(program, parse_eml("rule P: pass -> return [0]\n"))
    (site,) = tilde.sites
    assert site.kind == "stmt" and site.span.line == 7
    default, alt = site.alternatives
    assert isinstance(default.payload, lang.Pass) and alt.rule_id == "P"
    assert isinstance(alt.payload, lang.Return) and pretty_expr(alt.payload.value) == "[0]"


def test_an_append_rule_appends_to_the_list_it_matched(deriv_student):
    model = parse_eml("rule A: v.append(a) -> {pass, v.append(a - 1)}\n")
    tilde = rewrite(deriv_student, model)
    assert dump(tilde).splitlines()[-1] == (
        "site 0 (line 10): {deriv.append((poly_list_int[expo] * expo)) | pass @A:1"
        " | deriv.append(((poly_list_int[expo] * expo) - 1)) @A:1}"
    )


def test_a_template_calls_only_functions_the_program_defines():
    source = "def f_int(x_int):\n    return g_int(x_int)\n\ndef g_int(y_int):\n    return y_int\n"
    program = parse_imp(source)
    for rule, line, col in (("rule R: return a -> return {foo(a)}\n", 2, 12),
                            ("rule R: g_int(a) -> g_int({foo(a), a})\n", 2, 18)):
        with pytest.raises(SourceError) as err:
            rewrite(program, parse_eml(rule))
        assert str(err.value) == (
            f"line {line}, col {col}: rule R calls foo(), which the program does not define"
        )
    # a function of the program and a builtin may be called
    model = parse_eml("rule R: return a -> return {g_int(a), len(range(a))}\n")
    (site,) = rewrite(program, model).sites
    assert [pretty_expr(alt.payload) for alt in site.alternatives[1:]] == [
        "g_int(g_int(x_int))", "len(range(g_int(x_int)))"]


@pytest.mark.parametrize("rule", ["v = n -> v = 0", "a0 + a1 -> 0"])
@pytest.mark.parametrize("weights,kept", [((1, 2), ["A"]), ((1, 1), ["A"]),
                                          ((2, 1), ["A", "B"])])
def test_a_literal_twin_from_a_second_rule_stays_only_if_lighter(rule, weights, kept):
    # two rules offer the literal 0 at one site, grafted at the assigned
    # value or whole for the sum: the later one goes unless it costs less
    source = "def f_int(x_int):\n    y_int = 5\n    return y_int + x_int\n"
    model = parse_eml(f"rule A weight {weights[0]}: {rule}\nrule B weight {weights[1]}: {rule}\n")
    (site,) = rewrite(parse_imp(source), model).sites
    assert [alt.rule_id for alt in site.alternatives[1:]] == kept
    assert all(pretty_expr(alt.payload) == "0" for alt in site.alternatives[1:])


def test_an_aligned_rule_offers_no_twin_of_the_site_a_child_rewrite_made():
    # the returned `y_int` is rewritten to a site offering `x_int` (IdF);
    # the aligned RetF grafts its options onto that site, less the same
    # variable
    source = "def f_int(x_int):\n    y_int = 5\n    return y_int\n"
    model = parse_eml("rule IdF: y_int -> x_int\nrule RetF: return a -> return {x_int, 0}\n")
    _, site = rewrite(parse_imp(source), model).sites
    assert [(alt.rule_id, pretty_expr(alt.payload)) for alt in site.alternatives] == [
        (None, "y_int"), ("IdF", "x_int"), ("RetF", "0")]
