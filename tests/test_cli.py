import contextlib
import functools
import io
import json
import os
import shutil
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autofix import cli, compiler, lang
from autofix.eml import collect_metavars, parse_eml
from autofix.feedback import build_report
from autofix.inputs import enumerate_inputs, parse_signature
from autofix.interp import MAX_INT_BITS, Bounds
from autofix.lexer import tokenize
from autofix.parser import MAX_TREE_DEPTH, parse_imp
from autofix.printer import pretty_program
from autofix.rewrite import rewrite
from conftest import CHAINS, RULE_FORMS, asset, called_deeper, chain_program, read
from spec_interp import evaluate as spec_evaluate
from spec_interp import values_equal

CLI = [sys.executable, "-m", "autofix.cli"]
FAST = ["--int-bits", "3", "--max-list", "3"]


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, env=env
    )


def deriv_args(student, *extra):
    return [
        "--ref", asset("computederiv", "reference.imp"),
        "--student", student,
        "--model", asset("computederiv", "model.eml"),
        *FAST,
        *extra,
    ]


def test_fixed_submission_exits_1():
    proc = run_cli(*deriv_args(asset("computederiv", "student.imp"), "--format", "json"))
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    assert doc["verdict"] == "fixed" and doc["cost"] == 3
    assert [c["line"] for c in doc["corrections"]] == [5, 6, 7]


def test_correct_submission_exits_0():
    proc = run_cli(*deriv_args(asset("computederiv", "reference.imp")))
    assert proc.returncode == 0
    assert proc.stdout == "No corrections needed. cost = 0.\n"


def test_no_fix_exits_2():
    proc = run_cli(*deriv_args(asset("computederiv", "corpus", "s14_far_off.imp")))
    assert proc.returncode == 2


def test_missing_model_exits_3(tmp_path):
    proc = run_cli(
        "--ref", asset("computederiv", "reference.imp"),
        "--student", asset("computederiv", "student.imp"),
        "--model", str(tmp_path / "missing.eml"),
    )
    assert proc.returncode == 3
    assert proc.stdout == "" and "autofix:" in proc.stderr


def test_syntax_error_submission_exits_3():
    proc = run_cli(*deriv_args(asset("computederiv", "corpus", "s15_syntax_error.imp")))
    assert proc.returncode == 3


def test_signature_mismatch_exits_3(tmp_path):
    other = tmp_path / "other.imp"
    other.write_text("def computeDeriv_int(x_int):\n    return x_int\n")
    proc = run_cli(*deriv_args(str(other)))
    assert proc.returncode == 3


def test_uninterpreted_callees_rejected():
    proc = run_cli(*deriv_args(asset("computederiv", "student.imp"),
                               "--callees", "uninterpreted"))
    assert proc.returncode == 3


def test_dump_tilde_is_stable():
    args = deriv_args(asset("computederiv", "student.imp"), "--dump-tilde")
    one = run_cli(*args)
    two = run_cli(*args)
    assert one.returncode == 0
    assert one.stdout == two.stdout
    assert "site 0" in one.stdout


def test_dump_tilde_prints_statement_sites(tmp_path):
    # a statement rule whose alternatives hold a nested site
    model = tmp_path / "model.eml"
    model.write_text("rule RetF: return a -> {return ?a, pass}\n")
    args = deriv_args(asset("computederiv", "student.imp"), "--dump-tilde")
    args[args.index("--model") + 1] = str(model)
    proc = run_cli(*args)
    assert proc.returncode == 0 and proc.stderr == ""
    assert "    <site 2>\n" in proc.stdout
    site_lines = [line for line in proc.stdout.splitlines() if line.startswith("site ")]
    assert [line.split(" (")[0] for line in site_lines] == ["site 0", "site 1", "site 2", "site 3"]
    assert site_lines[0] == (
        "site 0 (line 5): {return deriv | return {deriv | poly_list_int @RetF | zero @RetF} @RetF:1"
        " | pass @RetF:1}"
    )


@pytest.mark.parametrize("rule", ["n -> return 1", "n -> {x = 1, pass}"])
@pytest.mark.parametrize("extra", [[], ["--dump-tilde"]])
def test_a_rule_whose_sides_differ_in_kind_exits_3_with_one_line(tmp_path, capsys, rule, extra):
    (tmp_path / "model.eml").write_text(f"# an expression rewritten to a statement\nrule R: {rule}\n")
    args = deriv_args(asset("computederiv", "student.imp"), *extra)
    args[args.index("--model") + 1] = str(tmp_path / "model.eml")
    assert cli.main(args) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == (
        "autofix: line 2, col 1: rule R: the left side is an expression, the right side a statement\n"
    )


def test_seed_env_var_is_a_no_op():
    args = deriv_args(asset("computederiv", "student.imp"), "--format", "json")
    plain = run_cli(*args)
    seeded = run_cli(*args, env_extra={"AUTOFIX_SEED": "12345"})
    assert plain.stdout == seeded.stdout


def corpus_args(*extra):
    return [
        "--ref", asset("computederiv", "reference.imp"),
        "--corpus", asset("computederiv", "corpus"),
        "--model", asset("computederiv", "model.eml"),
        *FAST,
        *extra,
    ]


@pytest.fixture(scope="module")
def corpus_json():
    proc = run_cli(*corpus_args("--format", "json", "--jobs", "2"))
    assert proc.returncode == 0
    return json.loads(proc.stdout)


def test_corpus_summary(corpus_json):
    summary = corpus_json["summary"]
    assert summary["total"] == 15
    assert summary["parse_error"] == 1
    assert summary["fixed"] == 13
    assert summary["no_fix"] == 1
    assert summary["fixed_pct"] >= 80.0
    assert "avg_s" not in summary  # timing only with --timing


def test_corpus_entries_sorted_and_annotated(corpus_json):
    names = [e["name"] for e in corpus_json["files"]]
    assert names == sorted(names)
    by_name = {e["name"]: e for e in corpus_json["files"]}
    assert by_name["s15_syntax_error.imp"]["verdict"] == "parse-error"
    assert by_name["s01_three_bugs.imp"]["cost"] == 3
    assert by_name["s05_skips_zeros.imp"]["cost"] == 1


def test_corpus_text_mode_lists_files():
    proc = run_cli(*corpus_args())
    assert proc.returncode == 0
    assert "s01_three_bugs.imp: fixed (cost 3)" in proc.stdout
    assert "summary: total=15" in proc.stdout


def test_empty_corpus(tmp_path):
    proc = run_cli(
        "--ref", asset("computederiv", "reference.imp"),
        "--corpus", str(tmp_path),
        "--model", asset("computederiv", "model.eml"),
        *FAST,
    )
    assert proc.returncode == 0
    assert "total=0" in proc.stdout


def test_timing_flag_adds_timing_fields():
    proc = run_cli(*corpus_args("--format", "json", "--timing"))
    summary = json.loads(proc.stdout)["summary"]
    assert "avg_s" in summary and "median_s" in summary


def test_alternates_flag():
    proc = run_cli(
        "--ref", asset("arrayreverse", "reference.imp"),
        "--student", asset("arrayreverse", "student.imp"),
        "--model", asset("arrayreverse", "model.eml"),
        "--int-bits", "3", "--max-list", "3",
        "--alternates", "1", "--format", "json",
    )
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    assert doc["cost"] == 2 and len(doc["alternates"]) == 1


def test_callees_reference_mode(tmp_path):
    ref = tmp_path / "ref.imp"
    ref.write_text(
        "def apply_int(x_int):\n"
        "    return helper_int(x_int) + 1\n"
        "\n"
        "def helper_int(x_int):\n"
        "    return x_int * 2\n"
    )
    student = tmp_path / "student.imp"
    student.write_text(
        "def apply_int(x_int):\n"
        "    return helper_int(x_int) - 1\n"
        "\n"
        "def helper_int(x_int):\n"
        "    return x_int + 2\n"
    )
    model = tmp_path / "model.eml"
    model.write_text("rule OpF: a0 - a1 -> a0 + a1\n")
    base = ["--ref", str(ref), "--student", str(student), "--model", str(model),
            "--int-bits", "3", "--max-list", "0"]
    with_ref = run_cli(*base, "--callees", "reference")
    assert with_ref.returncode == 1
    with_student = run_cli(*base, "--callees", "student")
    assert with_student.returncode == 2


def test_budget_candidates_flag():
    proc = run_cli(*deriv_args(asset("computederiv", "student.imp"),
                               "--budget-candidates", "5", "--format", "json"))
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["verdict"] == "budget"


def test_renamed_parameters_are_accepted(tmp_path):
    renamed = tmp_path / "renamed.imp"
    renamed.write_text(
        "def computeDeriv_list_int(data_list_int):\n"
        "    result = []\n"
        "    if len(data_list_int) == 1:\n"
        "        return [0]\n"
        "    for i in range(1, len(data_list_int)):\n"
        "        result.append(i * data_list_int[i])\n"
        "    return result\n"
    )
    proc = run_cli(*deriv_args(str(renamed)))
    assert proc.returncode == 0  # equivalent despite different parameter names


BAD_APPEND = {
    "no_args.imp": "y.append()",
    "two_args.imp": "y.append(1, 2)",
}


def write_bad_appends(directory):
    for name, call in BAD_APPEND.items():
        (directory / name).write_text(
            "def computeDeriv_list_int(poly_list_int):\n"
            f"    y = []\n    {call}\n    return y\n"
        )


def test_bad_append_arity_exits_3(tmp_path):
    write_bad_appends(tmp_path)
    for name in BAD_APPEND:
        proc = run_cli(*deriv_args(str(tmp_path / name)))
        assert proc.returncode == 3 and proc.stdout == ""
        assert proc.stderr == "autofix: line 3, col 5: append() takes 1..1 arguments\n"


def test_bad_append_arity_is_a_corpus_parse_error(tmp_path):
    write_bad_appends(tmp_path)
    with open(asset("computederiv", "reference.imp"), encoding="utf-8") as fh:
        (tmp_path / "good.imp").write_text(fh.read())
    args = corpus_args("--format", "json")
    args[args.index("--corpus") + 1] = str(tmp_path)
    proc = run_cli(*args)
    assert proc.returncode == 0
    verdicts = {e["name"]: e["verdict"] for e in json.loads(proc.stdout)["files"]}
    assert verdicts == {"good.imp": "correct", "no_args.imp": "parse-error",
                        "two_args.imp": "parse-error"}


@pytest.mark.parametrize("flag,value", [("--int-bits", "0"), ("--max-list", "-1"), ("--fuel", "0")])
@pytest.mark.parametrize("mode", ["single", "corpus"])
def test_bad_bounds_exit_3_with_one_line(flag, value, mode):
    args = deriv_args(asset("computederiv", "student.imp")) if mode == "single" else corpus_args()
    proc = run_cli(*args, flag, value)
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.startswith("autofix: bounds out of range:")
    assert proc.stderr.count("\n") == 1 and f"{flag} {value} " in proc.stderr


@pytest.mark.parametrize("mode", ["single", "corpus"])
def test_lists_longer_than_the_largest_int_exit_3_with_one_line(mode):
    # at 3 bits len() of a 4-element list would read -4
    args = deriv_args(asset("computederiv", "student.imp")) if mode == "single" else corpus_args()
    proc = run_cli(*args, "--max-list", "4")
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr == "autofix: --max-list 4 exceeds 3, the largest integer at --int-bits 3\n"


@pytest.mark.parametrize("mode", ["single", "corpus"])
def test_input_space_past_max_inputs_exits_3_with_one_line(monkeypatch, capsys, mode):
    # 4.3e9 inputs: the guard must stop the run before any is enumerated
    def never(*args, **kwargs):
        raise AssertionError("the input space was enumerated")

    monkeypatch.setattr(cli, "ReferenceOracle", never)
    args = deriv_args(asset("computederiv", "student.imp")) if mode == "single" else corpus_args()
    assert cli.main(args + ["--int-bits", "8", "--max-list", "4"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == (
        "autofix: 4,311,810,305 inputs at --int-bits 8 --max-list 4"
        " exceed --max-inputs 2,000,000\n"
    )
    assert cli.main(args + ["--max-inputs", "100"]) == 3
    assert capsys.readouterr().err == (
        "autofix: 585 inputs at --int-bits 3 --max-list 3 exceed --max-inputs 100\n"
    )


def test_a_space_of_empty_lists_runs_at_any_int_width(capsys):
    # the only input is the empty list: no int is listed, however wide
    args = deriv_args(asset("computederiv", "student.imp"))
    for bits in (64, MAX_INT_BITS):
        assert cli.main(args + ["--int-bits", str(bits), "--max-list", "0"]) == 0
        assert capsys.readouterr() == ("No corrections needed. cost = 0.\n", "")


@pytest.mark.parametrize("bits,max_list,message", [
    # the wrap mask would have 6,021 digits
    ("20000", "0", "bounds out of range: --int-bits 20000 --max-list 0 --fuel 100000"
                   " (need 1 <= --int-bits <= 2126, --max-list >= 0, --fuel >= 1)"),
    # 2**(64 * 10**6) inputs and more: known from the bounds, never summed
    ("64", "1000000", "at least 10**640 inputs at --int-bits 64 --max-list 1000000"
                      " exceed --max-inputs 2,000,000"),
])
def test_extreme_bounds_exit_3_with_one_line_at_once(capsys, bits, max_list, message):
    args = deriv_args(asset("computederiv", "student.imp"))
    started = time.monotonic()
    assert cli.main(args + ["--int-bits", bits, "--max-list", max_list]) == 3
    assert time.monotonic() - started < 1
    assert capsys.readouterr() == ("", f"autofix: {message}\n")


# faults of a model, and the one line each is rejected with when the model
# is parsed
BAD_MODELS = {
    "rule R: a0 + a1 -> (a0 + a1)'": "R: primed subterm is not smaller than the pattern",
    "rule R: v[a0 - a1] -> v[(a0 + {1, 2})']": "R: primed subterm is not smaller than the pattern",
    "rule R: def computeDeriv(a0): s -> def deriv(a0): s":
        "line 1, col 1: rule R: the right side renames the function or its parameters",
    "rule R: n -> 0\nrule R: n -> 1": "line 2, col 6: duplicate rule id 'R'",
    "rule R: a -> a''": "R: primed subterm is not smaller than the pattern",
}


@pytest.mark.parametrize("model", sorted(BAD_MODELS))
@pytest.mark.parametrize("mode", ["single", "corpus"])
def test_a_bad_model_exits_3_with_one_line_before_the_table_is_built(
    tmp_path, monkeypatch, capsys, model, mode
):
    def never(*args, **kwargs):
        raise AssertionError("the reference table was built")

    monkeypatch.setattr(cli, "ReferenceOracle", never)
    (tmp_path / "model.eml").write_text(model + "\n")
    args = deriv_args(asset("computederiv", "student.imp")) if mode == "single" else corpus_args()
    args[args.index("--model") + 1] = str(tmp_path / "model.eml")
    assert cli.main(args) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == f"autofix: {BAD_MODELS[model]}\n"


def test_a_function_rule_is_instantiated_in_the_function_context(tmp_path, capsys):
    # the guard's `?a0` offers the parameters only (not `b`, assigned after
    # it), and feedback quotes the function's header line
    files = {
        "ref.imp": "def first_int(a_list_int):\n    if len(a_list_int) == 0:\n        return 0\n"
                   "    return a_list_int[0]\n",
        "stu.imp": "def first_int(a_list_int):\n    b = a_list_int\n    return b[0]\n",
        "m.eml": "rule B: def first(a0): s -> def first(a0): {if len(a0) == {0, ?a0}: {return 0}; s}\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    args = ["--ref", str(tmp_path / "ref.imp"), "--student", str(tmp_path / "stu.imp"),
            "--model", str(tmp_path / "m.eml"), "--int-bits", "3", "--max-list", "2"]
    assert cli.main(args + ["--dump-tilde"]) == 0
    assert capsys.readouterr().out.split("\n\n")[1] == (
        "site 0 (line 1): {b = a_list_int; return b[0]"
        " | if (len(a_list_int) == 0):; return 0; b = a_list_int; return b[0] @B:1}\n"
    )
    assert cli.main(args + ["--level", "2"]) == 1
    assert capsys.readouterr().out == (
        "The program requires 1 change(s). cost = 1.\n- line 1: def first_int(a_list_int):\n"
    )


# models a user may write by mistake: a left side and a right side of the
# rule forms of one kind, or a bundled model with one token dropped,
# duplicated or swapped with the next
BUNDLED_MODELS = [read(problem, name) for problem, name in (
    ("computederiv", "model.eml"), ("computederiv", "model_simple.eml"),
    ("arrayreverse", "model.eml"), ("arrayreverse", "model_overview.eml"),
)]


@st.composite
def mutated(draw, text: str, rule_mode: bool):
    """`text` with one token dropped, duplicated or swapped with the next."""
    spans = [t.span for t in tokenize(text, rule_mode) if t.span.end > t.span.start]
    i = draw(st.integers(0, len(spans) - 2))
    a, b = spans[i], spans[i + 1]
    edit = draw(st.sampled_from(["drop", "duplicate", "swap"]))
    if edit == "drop":
        return text[:a.start] + text[a.end:]
    if edit == "duplicate":
        return text[:a.end] + " " + text[a.start:a.end] + text[a.end:]
    return (text[:a.start] + text[b.start:b.end] + text[a.end:b.start]
            + text[a.start:a.end] + text[b.end:])


def mutated_models():
    return st.sampled_from(BUNDLED_MODELS).flatmap(lambda text: mutated(text, rule_mode=True))


def form_kind(form: str):
    """Whether a rule form's left side is an expression, a statement or a
    function, and the metavariables it binds: a right side fits every left
    side of its kind."""
    lhs = next(iter(parse_eml(f"rule R: {form}\n"))).lhs
    return isinstance(lhs, lang.Expr), isinstance(lhs, lang.Stmt), frozenset(collect_metavars(lhs))


SAME_KIND = {form: [other for other in RULE_FORMS if form_kind(other) == form_kind(form)]
             for form in RULE_FORMS}

# the left side of a rule form and the right side of one of its kind
rule_pairs = st.lists(
    st.sampled_from(RULE_FORMS).flatmap(lambda lhs: st.tuples(st.just(lhs),
                                                              st.sampled_from(SAME_KIND[lhs]))),
    min_size=1, max_size=2,
).map(lambda pairs: "".join(
    f"rule R{i}: {lhs.split(' -> ')[0]} -> {rhs.split(' -> ')[1]}\n"
    for i, (lhs, rhs) in enumerate(pairs)
))


@pytest.fixture(scope="module")
def two_file_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("two_file_corpus")
    (root / "corpus").mkdir()
    for name in ("student.imp", os.path.join("corpus", "s07_index_off_by_one.imp")):
        shutil.copy(asset("computederiv", name), root / "corpus")
    return root


def main_in_process(args):
    """`cli.main(args)`: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(args)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None)
@given(model=st.one_of(rule_pairs, mutated_models()))
def test_a_bad_model_never_reaches_the_batch(two_file_corpus, model):
    (two_file_corpus / "model.eml").write_text(model)
    args = ["--ref", asset("computederiv", "reference.imp"),
            "--corpus", str(two_file_corpus / "corpus"), "--model", str(two_file_corpus / "model.eml"),
            "--int-bits", "2", "--max-list", "1", "--max-cost", "2"]
    code, out, err = main_in_process(args)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    assert "internal-error" not in out, err


# the bundled submissions the flag property mutates, each with its problem
SUBMISSIONS = [("computederiv", "student.imp"), ("arrayreverse", "student.imp")] + [
    ("computederiv", os.path.join("corpus", name))
    for name in sorted(os.listdir(asset("computederiv", "corpus")))
]


@functools.lru_cache(maxsize=None)
def tick_bounds(problem: str, bits: int) -> list:
    """The tick bounds up to 10**6 of `problem`'s reference and of its
    student's choice-site program at `bits`: a fuel at or just below one
    of them leaves out or keeps that program's fuel code."""
    if not 1 <= bits <= MAX_INT_BITS:
        return []
    model = parse_eml(read(problem, "model.eml"))
    programs = (parse_imp(read(problem, "reference.imp")),
                rewrite(parse_imp(read(problem, "student.imp")), model).root)
    ticks = [compiler._survey(p, {}, Bounds(bits, 0, 10**6))[1] for p in programs]
    return [t for t in ticks if t <= 10**6]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_any_flag_values_end_in_an_exit_code_and_at_most_one_line(tmp_path_factory, data):
    # one input at most is drawn from its whole range, the others from
    # values a run goes through with; a space past 300 inputs ends at the
    # --max-inputs guard and never runs
    odd = data.draw(st.sampled_from([None, "source", "--int-bits", "--max-list", "--fuel",
                                     "--max-cost", "--budget-candidates"]))

    def value(name, plain, wild):
        return data.draw(wild if name == odd else plain)

    problem, name = data.draw(st.sampled_from(SUBMISSIONS))
    text = read(problem, name)
    path = tmp_path_factory.mktemp("flags") / "student.imp"
    path.write_text(value("source", st.just(text), mutated(text, rule_mode=False)))
    bits = value("--int-bits", st.integers(2, 4),
                 st.integers(-1, 70) | st.integers(71, 10**5) | st.just(MAX_INT_BITS + 1))
    near = [t + d for t in tick_bounds(problem, bits) for d in (-1, 0)]
    args = [
        "--ref", asset(problem, "reference.imp"), "--student", str(path),
        "--model", asset(problem, "model.eml"), "--max-inputs", "300", "--int-bits", str(bits),
        "--fuel", str(value("--fuel", st.sampled_from(near or [10**5]), st.integers(1, 10**6))),
        "--max-list", str(value("--max-list", st.integers(0, 2 if bits > 2 else 1),
                                st.integers(-1, 4) | st.integers(5, 10**6))),
        "--max-cost", str(value("--max-cost", st.integers(1, 4), st.integers(-1, 4))),
        "--budget-candidates", str(value("--budget-candidates", st.integers(10**3, 10**5),
                                         st.integers(-1, 10**3))),
        "--alternates", str(data.draw(st.integers(-1, 2))),
        "--format", data.draw(st.sampled_from(["text", "json"])),
    ]
    code, _, err = main_in_process(args)
    assert code in (0, 1, 2, 3)
    assert err.count("\n") <= 1 and "Traceback" not in err, err


# every fix the CLI reports on the bundled assets, at bounds where the spec
# re-verifies it over the whole space in seconds: (problem, target, bounds,
# fixes reported)
REPORTED = [
    ("computederiv", ["--student", asset("computederiv", "student.imp")], (4, 3), 1),
    ("computederiv", ["--corpus", asset("computederiv", "corpus"), "--jobs", "1"], (3, 3), 13),
    ("arrayreverse", ["--student", asset("arrayreverse", "student.imp"), "--alternates", "1"],
     (4, 3), 2),
]


@pytest.mark.parametrize("problem,target,bounds,reported", REPORTED)
def test_every_reported_fix_matches_the_reference_under_the_spec(monkeypatch, problem, target,
                                                                 bounds, reported):
    fixes = []

    def keep_fixes(tilde, result, alternates=(), millis=None):
        fixes.extend(r.program for r in [result, *alternates] if r.status == "fixed")
        return build_report(tilde, result, alternates, millis)

    monkeypatch.setattr(cli, "build_report", keep_fixes)
    bits, max_list = bounds
    args = ["--ref", asset(problem, "reference.imp"), "--model", asset(problem, "model.eml"),
            *target, "--int-bits", str(bits), "--max-list", str(max_list)]
    code, _, err = main_in_process(args)
    assert code in (0, 1) and err == "" and len(fixes) == reported
    reference = parse_imp(read(problem, "reference.imp"))
    limits = Bounds(bits, max_list)
    for args in enumerate_inputs(parse_signature(reference.entry_func()), limits):
        want = spec_evaluate(reference, args, limits)
        assert want.is_ok
        for fix in fixes:
            got = spec_evaluate(fix, args, limits)
            assert got.is_ok and values_equal(got.value, want.value), (pretty_program(fix), args)


def test_too_deeply_nested_blocks_exit_3_with_one_line(tmp_path):
    lines = ["def computeDeriv_list_int(poly_list_int):"]
    lines += ["    " * (d + 1) + "while len(poly_list_int) > 0:" for d in range(17)]
    lines += ["    " * 18 + "poly_list_int = []", "    return poly_list_int", ""]
    student = tmp_path / "deep.imp"
    student.write_text("\n".join(lines))
    proc = run_cli(*deriv_args(str(student)))
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.startswith("autofix: line 18, col ") and proc.stderr.count("\n") == 1
    assert proc.stderr.endswith(": nested too deeply\n")


@pytest.mark.parametrize("bad", ["{neww}", "{", "}", "{0}"])
@pytest.mark.parametrize("mode", ["single", "corpus"])
def test_malformed_msg_template_exits_3_with_one_line(tmp_path, bad, mode):
    with open(asset("computederiv", "model.eml"), encoding="utf-8") as fh:
        model = fh.read().replace('msg "', f'msg "{bad}')
    (tmp_path / "model.eml").write_text(model)
    args = deriv_args(asset("computederiv", "student.imp")) if mode == "single" else corpus_args()
    args[args.index("--model") + 1] = str(tmp_path / "model.eml")
    proc = run_cli(*args)
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.startswith(f"autofix: rule IndF: msg '{bad}In the expression")
    assert proc.stderr.count("\n") == 1


def test_cli_import_leaves_out_the_costly_modules():
    # a process pool only for --jobs > 1, statistics only for --timing,
    # json only for --format json
    costly = ["dataclasses", "concurrent.futures", "multiprocessing", "statistics", "json"]
    code = f"import sys, autofix.cli; print([m for m in {costly!r} if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout == "[]\n", proc.stderr


@pytest.mark.parametrize("jobs,files,cpus,workers", [
    (8, 15, 2, 2), (8, 3, 16, 3), (4, 15, 16, 4), (2, 15, None, 1),
])
def test_corpus_workers_are_capped_by_files_and_cpus(monkeypatch, jobs, files, cpus, workers):
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    cfg = cli.RunConfig("ref.imp", "model.eml", jobs=jobs)
    assert cli._workers(cfg, [f"s{i}.imp" for i in range(files)]) == workers


def exit_at_once(path):
    os._exit(1)


def test_a_dead_corpus_worker_exits_3_with_one_line(tmp_path, monkeypatch, capsys):
    for name in ("s01_three_bugs.imp", "s02_range_start.imp"):
        shutil.copy(asset("computederiv", "corpus", name), tmp_path)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # else one CPU runs the files in turn
    monkeypatch.setattr(cli, "_corpus_entry", exit_at_once)  # a forked worker inherits it
    args = corpus_args("--jobs", "2")
    args[args.index("--corpus") + 1] = str(tmp_path)
    assert cli.main(args) == cli.EXIT_ERROR
    assert capsys.readouterr() == ("", "autofix: a corpus worker process died\n")


def test_serial_corpus_builds_the_table_once(monkeypatch, capsys):
    built = []

    class CountingOracle(cli.ReferenceOracle):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cli, "ReferenceOracle", CountingOracle)
    assert cli.main(corpus_args("--jobs", "1")) == 0
    assert "summary: total=15" in capsys.readouterr().out
    assert len(built) == 1


def test_a_crash_on_one_file_is_an_internal_error_verdict(tmp_path, monkeypatch, capsys):
    for name in ("s01_three_bugs.imp", "s02_range_start.imp"):
        with open(asset("computederiv", "corpus", name), encoding="utf-8") as fh:
            (tmp_path / name).write_text(fh.read())
    repair_one = cli.repair_one

    def crashing(source, *args):
        if "for i in" in source:  # s02's loop, not s01's
            raise RuntimeError("defect\nsecond line")
        return repair_one(source, *args)

    monkeypatch.setattr(cli, "repair_one", crashing)
    args = corpus_args("--jobs", "1")
    args[args.index("--corpus") + 1] = str(tmp_path)
    assert cli.main(args) == cli.EXIT_ERROR
    out, err = capsys.readouterr()
    assert out == (
        "s01_three_bugs.imp: fixed (cost 3)\n"
        "s02_range_start.imp: internal-error\n"
        "summary: total=2 correct=0 fixed=1 no_fix=0 parse_error=0 internal_error=1"
        " fixed_pct=100.0\n"
    )
    assert err == "autofix: s02_range_start.imp: RuntimeError: defect\n"
    assert cli.main(args + ["--format", "json"]) == cli.EXIT_ERROR
    out, err = capsys.readouterr()
    doc = json.loads(out)
    assert err == "autofix: s02_range_start.imp: RuntimeError: defect\n"
    assert doc["files"][1] == {"name": "s02_range_start.imp", "verdict": "internal-error",
                               "error": "RuntimeError: defect"}
    assert doc["summary"]["internal_error"] == 1 and doc["summary"]["no_fix"] == 0


def nested_source(depth: int) -> str:
    return (
        "def computeDeriv_list_int(poly_list_int):\n    return "
        + "(1 - " * depth + "poly_list_int" + ")" * depth + "\n"
    )


@pytest.mark.parametrize("depth", [100, 1000])
def test_too_deep_submission_exits_3_with_one_line(tmp_path, depth):
    student = tmp_path / "deep.imp"
    student.write_text(nested_source(depth))
    proc = run_cli(*deriv_args(str(student)))
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.startswith("autofix: line 2, col ") and proc.stderr.count("\n") == 1
    assert proc.stderr.endswith(": nested too deeply\n")


def test_too_deep_submission_is_a_corpus_parse_error(tmp_path):
    for depth in (100, 1000):
        (tmp_path / f"deep{depth}.imp").write_text(nested_source(depth))
    with open(asset("computederiv", "corpus", "s02_range_start.imp"), encoding="utf-8") as fh:
        (tmp_path / "s02_range_start.imp").write_text(fh.read())
    args = corpus_args("--format", "json")
    args[args.index("--corpus") + 1] = str(tmp_path)
    proc = run_cli(*args)
    assert proc.returncode == 0 and proc.stderr == ""
    files = {e["name"]: e for e in json.loads(proc.stdout)["files"]}
    assert {name: e["verdict"] for name, e in files.items()} == {
        "deep100.imp": "parse-error", "deep1000.imp": "parse-error",
        "s02_range_start.imp": "fixed",
    }
    assert files["deep100.imp"]["error"].endswith("nested too deeply")


NOT_UTF8 = b"def computeDeriv_list_int(poly_list_int):\n    return \xff\n"


def test_non_utf8_input_exits_3_with_one_line(tmp_path, capsys):
    bad = tmp_path / "bad.imp"
    bad.write_bytes(NOT_UTF8)
    for flag in ("--ref", "--model", "--student"):
        args = deriv_args(asset("computederiv", "student.imp"))
        args[args.index(flag) + 1] = str(bad)
        assert cli.main(args) == 3
        out, err = capsys.readouterr()
        assert out == "" and err == f"autofix: line 2, col 12: {bad} is not UTF-8 (byte 0xff)\n"


def nested_comparison(depth: int) -> str:
    """Under the computeDeriv model, 2 ** (depth + 2) - 4 choice sites."""
    return (
        "def computeDeriv_list_int(poly_list_int):\n    return "
        + "(len(poly_list_int) == " * depth + "1" + ")" * depth + "\n"
    )


def test_too_many_choice_sites_exit_3_with_one_line(tmp_path):
    student = tmp_path / "deep.imp"
    student.write_text(nested_comparison(25))
    proc = subprocess.run(CLI + deriv_args(str(student)), capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.startswith("autofix: line 2, col ") and proc.stderr.count("\n") == 1
    assert proc.stderr.endswith(": too many choice sites (more than 10,000)\n")


def test_non_utf8_and_too_many_sites_are_corpus_parse_errors(tmp_path, capsys):
    (tmp_path / "bad.imp").write_bytes(NOT_UTF8)
    (tmp_path / "deep.imp").write_text(nested_comparison(25))
    with open(asset("computederiv", "corpus", "s02_range_start.imp"), encoding="utf-8") as fh:
        (tmp_path / "s02_range_start.imp").write_text(fh.read())
    args = corpus_args("--format", "json")
    args[args.index("--corpus") + 1] = str(tmp_path)
    assert cli.main(args) == 0
    out, err = capsys.readouterr()
    files = {e["name"]: e for e in json.loads(out)["files"]}
    assert err == "" and {name: e["verdict"] for name, e in files.items()} == {
        "bad.imp": "parse-error", "deep.imp": "parse-error", "s02_range_start.imp": "fixed",
    }
    assert files["bad.imp"]["error"].endswith("is not UTF-8 (byte 0xff)")
    assert files["deep.imp"]["error"].endswith("too many choice sites (more than 10,000)")


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_crlf_inputs_repair_as_their_lf_files(tmp_path, capsys, newline):
    want = cli.main(deriv_args(asset("computederiv", "corpus", "s02_range_start.imp")))
    lf_out, lf_err = capsys.readouterr()
    assert want == 1 and lf_err == ""
    args = deriv_args(asset("computederiv", "corpus", "s02_range_start.imp"))
    for flag in ("--ref", "--model", "--student"):
        path = args[args.index(flag) + 1]
        with open(path, "rb") as fh:
            converted = fh.read().replace(b"\n", newline.encode())
        args[args.index(flag) + 1] = str(tmp_path / os.path.basename(path))
        (tmp_path / os.path.basename(path)).write_bytes(converted)
    assert cli.main(args) == want
    assert capsys.readouterr() == (lf_out, "")


def test_crlf_corpus_repairs_as_its_lf_files(tmp_path, capsys):
    outputs = []
    for newline in (b"\n", b"\r\n"):
        corpus = tmp_path / repr(newline).strip("b'\\")
        corpus.mkdir()
        for name in ("s01_three_bugs.imp", "s02_range_start.imp", "s15_syntax_error.imp"):
            with open(asset("computederiv", "corpus", name), "rb") as fh:
                (corpus / name).write_bytes(fh.read().replace(b"\n", newline))
        args = corpus_args("--format", "json")
        args[args.index("--corpus") + 1] = str(corpus)
        assert cli.main(args) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1] and outputs[0][1] == ""
    verdicts = [e["verdict"] for e in json.loads(outputs[0][0])["files"]]
    assert verdicts == ["fixed", "fixed", "parse-error"]


@pytest.mark.parametrize("shape", sorted(CHAINS))
def test_a_chain_at_the_depth_limit_repairs_with_200_frames_below(tmp_path, capsys, shape):
    # rewrite, compile, search and feedback all recurse down the tree
    student = tmp_path / "chain.imp"
    student.write_text(chain_program(CHAINS[shape](MAX_TREE_DEPTH)))
    code = called_deeper(200, lambda: cli.main(deriv_args(str(student), "--format", "json")))
    out, err = capsys.readouterr()
    assert err == "" and code in (0, 1, 2)
    assert json.loads(out)["verdict"] == {0: "correct", 1: "fixed", 2: "no-fix"}[code]


# each used to crash the CLI or change the program's meaning: a chain of 300
# operands passed the parser and overflowed the stack in `rewrite`; a name with
# `²` compiled to Python that `compile` rejects; `int` refused a 5,000-digit
# literal
ONE_LINE_SOURCE_ERRORS = {
    "chain300.imp": (chain_program(" + ".join(["poly_list_int"] * 300)),
                     "line 2, col 826: nested too deeply"),
    "chain1000.imp": (chain_program(" + ".join(["poly_list_int"] * 1000)),
                      "line 2, col 826: nested too deeply"),
    "square.imp": (chain_program("poly² + poly_list_int"), "line 2, col 16: unexpected character '²'"),
    "literal.imp": (chain_program("[" + "1" * 5000 + "]"),
                    "line 2, col 13: integer literal longer than 640 digits"),
}


@pytest.mark.parametrize("name", sorted(ONE_LINE_SOURCE_ERRORS))
def test_front_end_errors_exit_3_with_one_line(tmp_path, name):
    source, message = ONE_LINE_SOURCE_ERRORS[name]
    (tmp_path / name).write_text(source, encoding="utf-8")
    proc = run_cli(*deriv_args(str(tmp_path / name)))
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", f"autofix: {message}\n")


def test_front_end_errors_are_corpus_parse_errors(tmp_path, capsys):
    for name, (source, _) in ONE_LINE_SOURCE_ERRORS.items():
        (tmp_path / name).write_text(source, encoding="utf-8")
    args = corpus_args("--format", "json")
    args[args.index("--corpus") + 1] = str(tmp_path)
    assert cli.main(args) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert {e["name"]: (e["verdict"], e["error"]) for e in json.loads(out)["files"]} == {
        name: ("parse-error", message) for name, (_, message) in ONE_LINE_SOURCE_ERRORS.items()
    }


def test_a_fix_of_a_chain_at_the_depth_limit_prints_with_200_frames_below(tmp_path, capsys):
    # the reference, but its last return adds MAX_TREE_DEPTH empty lists to
    # the result and so keeps its first element: fixed by RetF (`a[1:]`),
    # whose feedback prints the whole chain
    chain = " + ".join(["result"] + ["[]"] * MAX_TREE_DEPTH)
    with open(asset("computederiv", "reference.imp"), encoding="utf-8") as fh:
        source = fh.read().replace("return result[1:]", f"return {chain}")
    (tmp_path / "chain.imp").write_text(source)
    code = called_deeper(200, lambda: cli.main(deriv_args(str(tmp_path / "chain.imp"), "--format", "json")))
    out, err = capsys.readouterr()
    doc = json.loads(out)
    assert (code, err, doc["verdict"], doc["cost"]) == (1, "", "fixed", 1)
    assert doc["corrections"][0]["new"] == f"({chain})[1:]"
