import glob
import os
import re
import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autofix import lang
from autofix.eml import IllFormedModel, parse_eml
from autofix.interp import Bounds
from autofix.lexer import MAX_INT_DIGITS, SourceError, tokenize
from autofix.parser import MAX_EXPR_DEPTH, MAX_TREE_DEPTH, parse_imp
from autofix.printer import pretty_expr, pretty_program

from conftest import ASSETS, CHAINS, called_deeper, chain_program, read, run_compiled


def test_reference_parses_to_one_function(deriv_ref):
    assert len(deriv_ref.functions) == 1
    assert deriv_ref.entry == "computeDeriv_list_int"
    assert deriv_ref.functions[0].params == ["poly_list_int"]


def test_identity_function():
    prog = parse_imp("def f_int(x_int):\n    return x_int\n")
    body = prog.functions[0].body
    assert len(body) == 1
    assert isinstance(body[0], lang.Return)
    assert isinstance(body[0].value, lang.Var)


def test_unbalanced_paren_is_syntax_error_at_line_2():
    with pytest.raises(SourceError) as err:
        parse_imp("def f_int(x_int):\n  return (\n")
    assert err.value.line == 2


def test_unknown_function_rejected():
    with pytest.raises(SourceError):
        parse_imp("def f_int(x_int):\n    return g(x_int)\n")


def test_builtin_arity_checked():
    with pytest.raises(SourceError):
        parse_imp("def f_int(x_int):\n    return len(x_int, x_int)\n")


# of several bad calls, the one reported is the first in the text: an outer
# call before the calls in its arguments, the left operand before the right,
# a conditional's body before its condition, the first function first
FIRST_BAD_CALL = [
    ("    return h(k(x))\n", "line 2, col 12: unknown function 'h'"),
    ("    return len(x, k(x))\n", "line 2, col 12: len() takes 1..1 arguments"),
    ("    return len(k(x))\n", "line 2, col 16: unknown function 'k'"),
    ("    return h() + k()\n", "line 2, col 12: unknown function 'h'"),
    ("    return range() + k()\n", "line 2, col 12: range() takes 1..3 arguments"),
    ("    return x if h() else k()\n", "line 2, col 17: unknown function 'h'"),
    ("    return k() if h() else len()\n", "line 2, col 12: unknown function 'k'"),
    ("    return h(x)\n\ndef g(y):\n    return k(y)\n", "line 2, col 12: unknown function 'h'"),
    ("    return len(x, x)\n\ndef g(y):\n    return h(y)\n",
     "line 2, col 12: len() takes 1..1 arguments"),
    ("    if h(x):\n        y = k(x)\n    return x[k(0):h(1)]\n", "line 2, col 8: unknown function 'h'"),
    ("    for i in range(h(x)):\n        x.append(len())\n    return x\n",
     "line 2, col 20: unknown function 'h'"),
]


@pytest.mark.parametrize("body,error", FIRST_BAD_CALL)
def test_the_first_bad_call_in_the_text_is_reported(body, error):
    with pytest.raises(SourceError) as err:
        parse_imp(f"def f(x):\n{body}")
    assert str(err.value) == error


@pytest.mark.parametrize("call", ["y.append()", "y.append(1, 2)"])
def test_append_arity_checked(call):
    with pytest.raises(SourceError) as err:
        parse_imp(f"def f_list_int(x_int):\n    y = []\n    {call}\n    return y\n")
    assert str(err.value) == "line 3, col 5: append() takes 1..1 arguments"


@pytest.mark.parametrize(
    "name",
    [
        ("computederiv", "reference.imp"),
        ("computederiv", "student.imp"),
        ("arrayreverse", "reference.imp"),
        ("arrayreverse", "student.imp"),
    ],
)
def test_bundled_sources_are_in_normal_form(name):
    source = read(*name)
    assert pretty_program(parse_imp(source)) == source


SNIPPETS = [
    "def f_int(x_int):\n    return x_int + 1\n",
    "def f_int(x_int):\n    return -x_int ** 2\n",
    "def f_int(x_int):\n    return (x_int + 1) * 2\n",
    "def f_int(x_int):\n    return 0 - -1\n",
    "def f_list_int(x_list_int):\n    return x_list_int[1:]\n",
    "def f_list_int(x_list_int):\n    return x_list_int[:2] + x_list_int[1:]\n",
    "def f_int(x_int):\n    return 1 if x_int < 0 else x_int\n",
    "def f_bool(x_int):\n    return not x_int < 0 and True\n",
    "def f_int(x_list_int):\n    y = x_list_int[0]\n    y += 2\n    return y\n",
    "def f_list_int(x_list_int):\n    x_list_int.append(0)\n    return x_list_int\n",
    "def f_int(x_int):\n    while x_int > 0:\n        x_int -= 1\n    return x_int\n",
    "def f_int(x_list_int):\n    s = 0\n    for v in x_list_int:\n        s += v\n    return s\n",
    "def f_int(x_int):\n    if x_int < 0:\n        return 0 - x_int\n    else:\n        return x_int\n",
    "def g_int(x_int):\n    return x_int\n\ndef f_int(x_int):\n    return g_int(x_int) ** 2\n",
]


@pytest.mark.parametrize("source", SNIPPETS)
def test_parse_print_round_trip(source):
    prog = parse_imp(source)
    printed = pretty_program(prog)
    again = parse_imp(printed)
    assert again.key() == prog.key()
    # printing is idempotent on parser output
    assert pretty_program(again) == printed


def test_spans_slice_back_to_source(deriv_student, deriv_student_source):
    ret = deriv_student.functions[0].body[2].then_body[0]
    assert ret.span.text(deriv_student_source) == "return deriv"
    assert ret.span.line == 5
    loop = deriv_student.functions[0].body[3]
    assert loop.iterable.span.text(deriv_student_source) == "range(0, len(poly_list_int))"


def test_tabs_rejected():
    with pytest.raises(SourceError):
        parse_imp("def f_int(x_int):\n\treturn x_int\n")


def test_comments_and_blank_lines_skipped():
    prog = parse_imp("# leading note\ndef f_int(x_int):\n\n    return x_int  # trailing\n")
    assert isinstance(prog.functions[0].body[0], lang.Return)


def nested_source(depth: int) -> str:
    return "def f_int(x_int):\n    return " + "(1 - " * depth + "x_int" + ")" * depth + "\n"


@pytest.mark.parametrize("depth", [100, 1000])
def test_too_deep_nesting_is_a_source_error(depth):
    with pytest.raises(SourceError, match="nested too deeply"):
        parse_imp(nested_source(depth))


def nested_loops_source(depth: int) -> str:
    lines = ["def f_int(x_int):"]
    lines += ["    " * (d + 1) + "while x_int > 0:" for d in range(depth)]
    return "\n".join(lines + ["    " * (depth + 1) + "x_int -= 1", "    return x_int", ""])


def test_blocks_nest_at_most_16_deep():
    assert len(parse_imp(nested_loops_source(16)).functions[0].body) == 2
    with pytest.raises(SourceError, match="line 18, col 84: nested too deeply"):
        parse_imp(nested_loops_source(17))


def test_nesting_the_parser_handles_still_parses():
    program = parse_imp(nested_source(MAX_EXPR_DEPTH))
    assert pretty_program(parse_imp(pretty_program(program))) == pretty_program(program)


# expressions `depth` levels deep, one shape per way to nest
NESTINGS = {
    "parentheses": lambda d: "(1 - " * d + "x_int" + ")" * d,
    "arguments": lambda d: "len(" * d + "xs" + ")" * d,
    "indices": lambda d: "xs[" * d + "0" + "]" * d,
    "lists": lambda d: "[" * d + "x_int" + "]" * d,
    "conditionals": lambda d: "x_int if x_int < 0 else " * d + "1",
    "not": lambda d: "not " * d + "True",
    "minus": lambda d: "- " * d + "x_int",
    "powers": lambda d: "x_int ** " * d + "1",
}


@pytest.mark.parametrize("shape", sorted(NESTINGS))
def test_expression_depth_does_not_depend_on_the_stack(shape):
    # one constant bounds expressions, as MAX_BLOCK_DEPTH bounds blocks
    def source(depth):
        return "def f_int(x_int, xs):\n    return " + NESTINGS[shape](depth) + "\n"

    called_deeper(200, lambda: parse_imp(source(MAX_EXPR_DEPTH)))
    with pytest.raises(SourceError, match="nested too deeply"):
        parse_imp(source(MAX_EXPR_DEPTH + 1))
    rule = "rule R: a -> {" + NESTINGS[shape](MAX_EXPR_DEPTH - 1).replace("x_int", "a") + "}\n"
    called_deeper(200, lambda: parse_eml(rule))


@pytest.mark.parametrize("depth", [100, 1000])
def test_too_deep_nesting_in_a_model_is_a_source_error(depth):
    rule = "rule R: a -> " + "(a - " * depth + "1" + ")" * depth + "\n"
    with pytest.raises(SourceError, match="nested too deeply"):
        parse_eml(rule)


def tree_depth(node) -> int:
    kids = lang.children(node)
    return 1 + max(map(tree_depth, kids)) if kids else 0


@pytest.mark.parametrize("shape", sorted(CHAINS))
def test_tree_depth_is_bounded_where_chains_make_it(shape):
    # a chain nests nothing, but every pass after the parser recurses down it
    program = called_deeper(200, lambda: parse_imp(chain_program(CHAINS[shape](MAX_TREE_DEPTH))))
    assert tree_depth(program.functions[0].body[0].value) == MAX_TREE_DEPTH
    with pytest.raises(SourceError, match="line 2, col .*: nested too deeply"):
        parse_imp(chain_program(CHAINS[shape](MAX_TREE_DEPTH + 1)))
    rule = "rule R: a -> {" + CHAINS[shape](MAX_TREE_DEPTH - 1) + "}\n"
    called_deeper(200, lambda: parse_eml(rule))
    with pytest.raises(SourceError, match="nested too deeply"):
        parse_eml("rule R: a -> {" + CHAINS[shape](MAX_TREE_DEPTH) + "}\n")


sums = CHAINS["sums"]


@pytest.mark.parametrize("shape", [
    lambda d: f"[{sums(d - 1)}, {sums(d - 1)}]",
    lambda d: f"[{sums(d - 2)}, 0] + poly_list_int",
    lambda d: f"{sums(d - 1)} < {sums(d - 1)}",
    lambda d: f"{sums(d - 1)} if {sums(d - 1)} else {sums(d - 1)}",
    lambda d: f"{sums(d - 1)} - ({sums(d - 2)})",
    lambda d: f"poly_list_int[{sums(d - 2)}][{sums(d - 3)}]",
    lambda d: "poly_list_int" + "[0]" * (d - 1) + " ** 2",
    lambda d: "-1" + "[0]" * (d - 1) + " ** 2",
])
def test_siblings_do_not_add_up_their_depths(shape):
    expr = parse_imp(chain_program(shape(MAX_TREE_DEPTH))).functions[0].body[0].value
    assert tree_depth(expr) == MAX_TREE_DEPTH
    with pytest.raises(SourceError, match="nested too deeply"):
        parse_imp(chain_program(shape(MAX_TREE_DEPTH + 1)))


@pytest.mark.parametrize("operands", [300, 1000])
def test_long_chains_are_source_errors_at_the_chain(operands):
    # the operator after the chain's first MAX_TREE_DEPTH + 2 operands
    with pytest.raises(SourceError) as err:
        parse_imp(chain_program(" + ".join(["poly_list_int"] * operands)))
    assert str(err.value) == "line 2, col 826: nested too deeply"
    with pytest.raises(SourceError, match="line 1, col .*: nested too deeply"):
        parse_eml("rule R: a -> " + " + ".join(["a"] * operands) + "\n")


# names and integer literals are ASCII.  Each character here used to be read
# as part of a name or a number: `int` rejects a superscript digit, Python
# folds the ligature in "ﬁx" to "fix" (NFKC) where the spec kept two
# variables, and an Arabic-Indic digit read as 3.
NOT_ASCII = [
    ("return x_int + ²", 2, 20, "²"),
    ("y² = x_int\n    return y²", 2, 6, "²"),
    ("ﬁx = 1\n    fix = 2\n    return ﬁx", 2, 5, "ﬁ"),
    ("return ٣", 2, 12, "٣"),
    ("return x_int + 1٣", 2, 21, "٣"),
    ("return café", 2, 15, "é"),
]


@pytest.mark.parametrize("body,line,col,char", NOT_ASCII)
def test_names_and_digits_are_ascii(body, line, col, char):
    with pytest.raises(SourceError) as err:
        parse_imp(f"def f_int(x_int):\n    {body}\n")
    assert str(err.value) == f"line {line}, col {col}: unexpected character {char!r}"


def test_comments_may_hold_any_character():
    prog = parse_imp("# ﬁx ² ٣\ndef f_int(x_int):\n    return x_int  # café\n")
    assert isinstance(prog.functions[0].body[0].value, lang.Var)


def test_integer_literals_have_at_most_640_digits():
    widest = "9" * MAX_INT_DIGITS
    program = parse_imp(f"def f_int(x_int):\n    return x_int - {widest}\n")
    wrapped = (1 - int(widest) + 8) % 16 - 8
    assert run_compiled(program, (1,), Bounds(4, 0)).value == wrapped
    with pytest.raises(SourceError) as err:
        parse_imp("def f_int(x_int):\n    return x_int + " + "1" * 5000 + "\n")
    assert str(err.value) == f"line 2, col 20: integer literal longer than {MAX_INT_DIGITS} digits"


# -- front-end fuzz ------------------------------------------------------------

BUNDLED = [
    read(os.path.relpath(path, ASSETS))
    for path in sorted(glob.glob(os.path.join(ASSETS, "**", "*.*"), recursive=True))
    if path.endswith((".imp", ".eml"))
]
# every operator character, quotes, escapes, comment marks, blanks, digits
# and letters, with non-ASCII letters, digits and spaces among them
FUZZ_CHARS = "+-*/=<>!()[]{},:.;?~'\"\\# \t\r\n_09azAZ" + "²٣ﬁé　\x00"
pieces = st.one_of(
    st.sampled_from(FUZZ_CHARS),
    st.integers(1, 5000).map(lambda n: "7" * n),  # long digit runs
    st.sampled_from(["**", "->", "    ", "not ", " and ", "if ", "def ", "rule "]),
)


@st.composite
def mutated_sources(draw):
    """A bundled source with one to four pieces inserted, deleted or replaced."""
    text = draw(st.sampled_from(BUNDLED))
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(text)))
        cut = draw(st.sampled_from([0, 1]))
        text = text[:at] + (draw(pieces) if draw(st.booleans()) or not cut else "") + text[at + cut:]
    return text


def assert_spans_slice_back(text: str, tokens: list) -> None:
    for tok in tokens:
        span = tok.span
        piece = text[span.start : span.end]
        if tok.kind in ("NEWLINE", "INDENT", "DEDENT", "EOF"):
            assert piece == ""
            continue
        assert span.line == text.count("\n", 0, span.start) + 1
        assert span.col == span.start - text.rfind("\n", 0, span.start)
        if tok.kind == "STRING":
            assert piece[0] == piece[-1] == '"' and len(piece) >= 2
            assert re.sub(r"\\(.)", r"\1", piece[1:-1]) == tok.value
        else:
            assert piece == tok.value
            # a name is its own NFKC form, as Python's compiler reads it
            assert unicodedata.normalize("NFKC", piece) == piece


@given(st.one_of(st.text(max_size=200), st.lists(pieces, max_size=40).map("".join), mutated_sources()))
@settings(max_examples=300, deadline=None)
def test_front_end_returns_or_raises_a_source_error(text):
    for rule_mode, parse in ((False, parse_imp), (True, parse_eml)):
        try:
            parse(text)
        except (SourceError, IllFormedModel):
            pass
        try:
            tokens = tokenize(text, rule_mode)
        except SourceError:
            continue
        assert_spans_slice_back(text, tokens)


# expressions deep in chains but nested only a few levels, so that the tree's
# depth alone decides whether they parse
leaves = st.one_of(st.integers(0, 9).map(lang.IntLit), st.sampled_from(["x_int", "xs"]).map(lang.Var))
operands = st.one_of(leaves, leaves.map(lambda e: lang.Index(lang.Var("xs"), e)))
binary = st.sampled_from([
    (lang.BinOp, "+"), (lang.BinOp, "-"), (lang.BinOp, "*"), (lang.BinOp, "/"),
    (lang.Compare, "<"), (lang.Compare, "=="), (lang.BoolOp, "and"), (lang.BoolOp, "or"),
])


@st.composite
def chains(draw, expr, length):
    """`expr` at any operand of a left-associated chain of `length` more."""
    chain = [draw(operands) for _ in range(length)]
    chain.insert(draw(st.integers(0, length)), expr)
    expr = chain[0]
    for right in chain[1:]:
        cls, op = draw(binary)
        expr = cls(expr, op, right)
    return expr


@st.composite
def layered_trees(draw):
    """A leaf, then layers around it: each puts the expression so far at any
    operand of a left-associated chain of 4 to 25 operators (the others
    leaves or indexed leaves), or under an index, a slice, a call, a list or
    a conditional, beside a chain.  Many are near MAX_TREE_DEPTH deep."""
    expr = draw(leaves)
    for _ in range(draw(st.integers(2, 8))):
        layer = draw(st.sampled_from([0, 0, 0, 1, 2, 3, 4, 5]))
        if layer == 0:
            expr = draw(chains(expr, draw(st.integers(4, 25))))
        elif layer == 1:
            expr = lang.Index(expr, draw(leaves)) if draw(st.booleans()) else lang.Index(lang.Var("xs"), expr)
        elif layer == 2:
            expr = lang.Slice(expr, None, draw(leaves)) if draw(st.booleans()) else lang.Slice(lang.Var("xs"), expr, draw(leaves))
        elif layer == 3:
            expr = lang.Call("len", [expr])
        elif layer == 4:
            expr = lang.ListLit([expr, draw(leaves)] if draw(st.booleans()) else [draw(leaves), expr])
        else:  # the expression as the body or the condition, the other a chain
            other = draw(chains(draw(leaves), draw(st.integers(0, 25))))
            body, cond = (expr, other) if draw(st.booleans()) else (other, expr)
            expr = lang.CondExpr(body, cond, draw(leaves))
    return expr


def bracket_depth(text: str) -> int:
    depth = deepest = 0
    for ch in text:
        depth += (ch in "([") - (ch in ")]")
        deepest = max(deepest, depth)
    return deepest


@given(layered_trees())
@settings(max_examples=200, deadline=None)
def test_exactly_the_trees_within_the_depth_bound_parse(expr):
    text = pretty_expr(expr)
    assert bracket_depth(text) < MAX_EXPR_DEPTH  # an else branch nests one more
    within = tree_depth(expr) <= MAX_TREE_DEPTH
    try:
        program = parse_imp(f"def f_int(x_int, xs):\n    return {text}\n")
    except SourceError as err:
        assert err.message == "nested too deeply" and not within
    else:
        assert within and program.functions[0].body[0].value.key() == expr.key()
