import pytest

from autofix import lang
from autofix.eml import parse_eml
from autofix.lexer import SourceError
from autofix.parser import MAX_EXPR_DEPTH, parse_imp
from autofix.printer import pretty_program

from conftest import read


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


def called_deeper(frames: int, f):
    return f() if frames == 0 else called_deeper(frames - 1, f)


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
