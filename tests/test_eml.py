import pytest

from autofix import lang
from autofix.eml import (
    ChoiceSet,
    IllFormedModel,
    MetaVar,
    Primed,
    ScopeSet,
    collect_metavars,
    match_pattern,
    parse_eml,
)
from autofix.lexer import MAX_INT_DIGITS, SourceError
from autofix.parser import MAX_TREE_DEPTH, Parser, tokenize

from conftest import RULE_FORMS


def expr(text):
    return Parser(tokenize(text + "\n"), text).parse_expr()


def test_parse_five_rule_model(deriv_model):
    assert [r.rule_id for r in deriv_model] == ["IndF", "InitF", "RanR", "CondF", "RetF"]
    assert all(r.weight == 1 for r in deriv_model)
    assert all(r.message for r in deriv_model)


def test_rule_order_preserved_and_weights_parse():
    model = parse_eml(
        'rule A weight 3: v = n -> v = {n + 1}\n'
        'rule B: return a -> return [0]\n'
    )
    assert [r.rule_id for r in model] == ["A", "B"]
    assert model[0].weight == 3
    assert model[1].weight == 1


def test_empty_file_gives_empty_model():
    assert parse_eml("") == []
    assert parse_eml("# only a comment\n") == []


def test_unbound_metavariable_rejected():
    with pytest.raises(SourceError) as err:
        parse_eml("# a comment\nrule X: v[a] -> v[a0]\n")
    assert str(err.value) == "line 2, col 1: unbound metavariable 'a0' in rule X"


@pytest.mark.parametrize("rule,sides", [
    ("n -> return 1", "an expression, the right side a statement"),
    ("n -> {x = 1, pass}", "an expression, the right side a statement"),
    ("return a -> a + 1", "a statement, the right side an expression"),
    ("v = n -> n", "a statement, the right side an expression"),
    ("def f(a0): s -> return a0", "a function, the right side a statement"),
    ("a -> def f(a): {return a}", "an expression, the right side a function"),
])
def test_both_sides_of_a_rule_are_of_one_kind(rule, sides):
    with pytest.raises(SourceError) as err:
        parse_eml(f"rule A: v = n -> v = 0\n  rule R: {rule}\n")
    assert str(err.value) == f"line 2, col 3: rule R: the left side is {sides}"


def test_a_rule_may_match_an_append():
    (rule,) = parse_eml("rule A: v.append(a) -> pass\n")
    stmt = Parser(tokenize("xs.append(x + 1)\n"), "").parse_stmt()
    binding = match_pattern(rule.lhs, stmt)
    assert binding["v"].key() == lang.Var("xs").key() and binding["a"].key() == expr("x + 1").key()
    assert collect_metavars(rule.lhs) == {"v": 1, "a": 1}
    assert parse_eml("rule L: deriv.append(a) -> pass\n")[0].lhs.obj == "deriv"
    with pytest.raises(SourceError, match="unbound metavariable 'v1' in rule B"):
        parse_eml("rule B: v.append(a) -> v1.append(a)\n")
    # only a variable can be appended to
    with pytest.raises(SourceError, match=r"rule C: the list in a\.append\(\.\.\.\) must be"):
        parse_eml("rule C: return a -> {a.append(1), pass}\n")


# each rule, and the assignment target on it that is neither a variable nor
# an index
BAD_TARGETS = {
    "v += n -> {v + 1 = n, pass}": "v + 1",
    "v += n -> v + 1 = n": "v + 1",
    "v + 1 += n -> pass": "v + 1",
    "def f(a0): s -> def f(a0): {a0 + 1 = 1; s}": "a0 + 1",
    "def f(a0): s -> def f(a0): {if a0: {?a0 = 1}; s}": "?a0 =",
}


@pytest.mark.parametrize("rule", list(BAD_TARGETS))
def test_an_assignment_target_is_a_variable_or_an_index_everywhere(rule):
    # reported where the target is, in a statement choice too
    with pytest.raises(SourceError) as err:
        parse_eml(f"rule R: {rule}\n")
    col = len("rule R: ") + rule.index(BAD_TARGETS[rule]) + 1
    assert str(err.value) == f"line 1, col {col}: assignment target must be a variable or index"


def test_msg_templates_are_checked_against_the_correction_fields():
    rule = "rule X: return a -> return [0] msg "
    model = parse_eml(rule + '"{line}: {orig} has {sub}, not {new} {{sic}}"\n')
    assert model[0].message == "{line}: {orig} has {sub}, not {new} {{sic}}"
    for bad in ("{neww}", "{", "}", "{0}", "{}", "{sub.x}", "{sub[0]}", "{line:q}"):
        with pytest.raises(IllFormedModel, match=r"^rule X: msg "):
            parse_eml(rule + f'"{bad}"\n')


@pytest.mark.parametrize("text,col,char", [
    ("rule R: a -> a + ²", 18, "²"),
    ("rule ﬁx: a -> a", 6, "ﬁ"),
    ("rule R weight ٣: a -> a", 15, "٣"),
    ("rule R: v² = n -> v² = 0", 10, "²"),
])
def test_names_and_digits_are_ascii_in_models(text, col, char):
    with pytest.raises(SourceError) as err:
        parse_eml(text + "\n")
    assert str(err.value) == f"line 1, col {col}: unexpected character {char!r}"


def test_strings_and_comments_may_hold_any_character():
    model = parse_eml('# ﬁx ² ٣\nrule R: return a -> return [0] msg "ﬁx ² ٣ in {line}"  # é\n')
    assert model[0].message == "ﬁx ² ٣ in {line}"


def test_an_escaped_quote_does_not_end_a_msg_string():
    rule = "rule R: return a -> return [0] msg "
    model = parse_eml(rule + r'"say \"#1\" at {line}"  # a comment' + "\n")
    assert model[0].message == 'say "#1" at {line}'
    assert parse_eml(rule + r'"a \\" # b' + "\n")[0].message == "a \\"
    # a string still ends at its first unescaped quote, or is unterminated
    assert parse_eml(rule + r'"a" # b"' + "\n")[0].message == "a"
    for text, col in ((r'"a \" # b', 36), (r'"a \\"" # b', 42)):
        with pytest.raises(SourceError) as err:
            parse_eml(rule + text + "\n")
        assert str(err.value) == f"line 1, col {col}: unterminated string"


def test_weights_have_at_most_640_digits():
    assert parse_eml(f"rule R weight {'9' * MAX_INT_DIGITS}: a -> a\n")[0].weight == int(
        "9" * MAX_INT_DIGITS
    )
    with pytest.raises(SourceError) as err:
        parse_eml(f"rule R weight {'1' * 5000}: a -> a\n")
    assert str(err.value) == f"line 1, col 15: integer literal longer than {MAX_INT_DIGITS} digits"


def test_prime_marks_count_toward_the_tree_depth():
    # each prime wraps what it marks; a long run used to pass the parser.  A
    # run that the parser takes is an ill-formed model: primes do not nest
    with pytest.raises(IllFormedModel, match="^R: primed subterm is not smaller"):
        parse_eml("rule R: a -> a" + "'" * MAX_TREE_DEPTH + "\n")
    with pytest.raises(SourceError, match="line 1, col 65: nested too deeply"):
        parse_eml("rule R: a -> a" + "'" * (MAX_TREE_DEPTH + 1) + "\n")


def test_duplicate_rule_id_rejected():
    with pytest.raises(SourceError) as err:
        parse_eml("rule X: v = n -> v = 0\nrule X: return a -> return [0]\n")
    assert str(err.value) == "line 2, col 6: duplicate rule id 'X'"


@pytest.mark.parametrize("lhs,col,message", [
    ("{a, b}", 9, "unexpected token '{'"),
    ("?a", 9, "unexpected token '?'"),
    ("a'", 10, "prime marks are only allowed in templates"),
    ("a ~cop b", 11, "expected '->', found '~'"),
    ("{x = 1, pass}", 9, "unexpected token '{'"),
    ("def f(a): {s}", 19, "unexpected token '{'"),
])
def test_template_syntax_not_allowed_in_pattern(lhs, col, message):
    # the parser refuses each template form on a left side, where it meets it
    with pytest.raises(SourceError) as err:
        parse_eml(f"rule X: {lhs} -> {lhs}\n")
    assert str(err.value) == f"line 1, col {col}: {message}"


@pytest.mark.parametrize("rhs", [form.split(" -> ")[1] for form in RULE_FORMS
                                 if any(mark in form.split(" -> ")[1] for mark in "{?~'")])
def test_no_template_side_parses_as_a_left_side(rhs):
    # a set, a ?a, a ~op, a prime or a braced block
    with pytest.raises(SourceError) as err:
        parse_eml(f"rule R: {rhs} -> {rhs}\n")
    # refused inside the left side, which starts at column 9
    assert err.value.line == 1 and 9 <= err.value.col < 9 + len(rhs)


# -- well-formedness ---------------------------------------------------------


# checked when the model is parsed


def test_primed_whole_pattern_is_ill_formed():
    with pytest.raises(IllFormedModel) as err:
        parse_eml("rule Bad: v[a] -> {(v[a])' + 1}\n")
    assert str(err.value) == "Bad: primed subterm is not smaller than the pattern"


def test_primed_parts_are_well_formed():
    model = parse_eml("rule Good: v[a] -> {v'[a'] + 1}\n")
    assert [r.rule_id for r in model] == ["Good"]


def test_empty_model_is_well_formed():
    assert parse_eml("# no rules\n") == []


def test_duplicating_primed_metavariable_is_ill_formed():
    # pattern-size alone would admit this; the occurrence check rejects it
    with pytest.raises(IllFormedModel) as err:
        parse_eml("rule Dup: v[a + a0] -> {(v[v'])'}\n")
    assert str(err.value) == "Dup: primed subterm repeats metavariable 'v'"


@pytest.mark.parametrize("rule", [
    "a0 + a1 + a2 -> (a0 + {1})'",
    "a0 + a1 -> (?a0)'",
    "a0 aop0 a1 - a2 -> (a0 ~aop0 a1)'",
    "a0 + a1 + a2 -> (a0' + 1)'",
])
def test_a_template_form_inside_a_primed_subterm_is_ill_formed(rule):
    # small enough and repeating nothing, but not a plain fragment to rewrite
    with pytest.raises(IllFormedModel) as err:
        parse_eml(f"rule R: {rule}\n")
    assert str(err.value) == "R: a primed subterm holds a set, a ?a, a ~op or a prime"


@pytest.mark.parametrize("rule,call", [
    ("v[a] -> v[{a + 1, len() - a - 1}]", "len() takes 1..1"),
    ("range(a0, a1) -> range(a0, a1, 1, 2)", "range() takes 1..3"),
    ("len(a0, a1) -> 0", "len() takes 1..1"),
])
def test_a_builtin_call_in_a_rule_takes_its_number_of_arguments(rule, call):
    # a program that calls `len()` does not parse, so neither does a rule
    # that would write one
    with pytest.raises(SourceError) as err:
        parse_eml(f"rule R: {rule}\n")
    assert str(err.value) == f"line 1, col 1: rule R: {call} arguments"


@pytest.mark.parametrize("rhs", ["def g(a0, a1): s", "def f(a1, a0): s"])
def test_a_function_rule_keeps_the_function_and_its_parameters(rhs):
    with pytest.raises(SourceError) as err:
        parse_eml(f"rule A: v = n -> v = 0\n\nrule R: def f(a0, a1): s -> {rhs}\n")
    assert str(err.value) == (
        "line 3, col 1: rule R: the right side renames the function or its parameters"
    )


# -- matching ---------------------------------------------------------------


def pattern(text, kind="expr"):
    model = parse_eml(f"rule T: {text} -> 0\n" if kind == "expr" else f"rule T: {text} -> pass\n")
    return model[0].lhs


def test_match_comparison():
    pat = pattern("a0 cop a1")
    node = expr("poly[expo] == 0")
    binding = match_pattern(pat, node)
    assert binding is not None
    assert binding["a0"].key() == expr("poly[expo]").key()
    assert binding["cop"] == "=="
    assert binding["a1"].key() == lang.IntLit(0).key()


def test_match_shape_mismatch():
    assert match_pattern(pattern("v[a]"), expr("x + 1")) is None


def test_match_assignment():
    model = parse_eml("rule T: v = n -> v = 0\n")
    stmt = Parser(tokenize("zero = 0\n"), "").parse_stmt()
    binding = match_pattern(model[0].lhs, stmt)
    assert binding["v"].key() == lang.Var("zero").key()
    assert binding["n"].key() == lang.IntLit(0).key()


def test_var_metavar_only_binds_variables():
    assert match_pattern(pattern("v[a]"), expr("f(x)[1]")) is None
    assert match_pattern(pattern("v[a]"), expr("x[1]")) is not None


def test_nonlinear_pattern_requires_equal_fragments():
    pat = pattern("a0 + a0")
    assert match_pattern(pat, expr("x * 2 + x * 2")) is not None
    assert match_pattern(pat, expr("x + y")) is None


def test_call_pattern_matches_name_and_arity():
    pat = pattern("range(a0, a1)")
    assert match_pattern(pat, expr("range(0, len(xs))")) is not None
    assert match_pattern(pat, expr("range(10)")) is None
    assert match_pattern(pat, expr("len(xs)")) is None


def apply_binding(pat, binding):
    """Independent oracle: substitute a binding back into a pattern."""
    if isinstance(pat, MetaVar):
        return binding[pat.name]
    if isinstance(pat, lang.Index):
        return lang.Index(apply_binding(pat.base, binding), apply_binding(pat.index, binding))
    if isinstance(pat, lang.BinOp):
        op = binding[pat.op.name] if isinstance(pat.op, MetaVar) else pat.op
        return lang.BinOp(apply_binding(pat.left, binding), op, apply_binding(pat.right, binding))
    if isinstance(pat, lang.Compare):
        op = binding[pat.op.name] if isinstance(pat.op, MetaVar) else pat.op
        return lang.Compare(apply_binding(pat.left, binding), op, apply_binding(pat.right, binding))
    if isinstance(pat, lang.Call):
        return lang.Call(pat.func, [apply_binding(a, binding) for a in pat.args])
    if isinstance(pat, (lang.IntLit, lang.BoolLit, lang.Var)):
        return pat
    raise TypeError(pat)


@pytest.mark.parametrize(
    "pat_text,node_text",
    [
        ("a0 cop a1", "x[i] < y[j]"),
        ("v[a]", "xs[i + 1]"),
        ("a0 + a1", "1 + f(x)"),
        ("range(a0, a1)", "range(0, n)"),
    ],
)
def test_match_soundness(pat_text, node_text):
    pat = pattern(pat_text)
    node = expr(node_text)
    binding = match_pattern(pat, node)
    assert binding is not None
    assert apply_binding(pat, binding).key() == node.key()


def test_collect_metavars_counts_occurrences():
    model = parse_eml("rule T: v[a] -> v[{a + 1, a - 1, ?a}]\n")
    assert collect_metavars(model[0].lhs) == {"v": 1, "a": 1}
    rhs_counts = collect_metavars(model[0].rhs)
    assert rhs_counts["a"] >= 2


def test_template_forms_parse(deriv_model):
    condf = deriv_model[3]
    assert isinstance(condf.rhs, ChoiceSet)
    compform = condf.rhs.options[0]
    assert isinstance(compform, lang.Compare)
    assert isinstance(compform.left, ChoiceSet)
    assert isinstance(compform.left.options[0].left, Primed)
    assert isinstance(compform.left.options[1], ScopeSet)
