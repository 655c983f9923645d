"""Byte-for-byte regression gate on the CLI's output for the bundled assets.

Each case runs the CLI in-process and compares its stdout with a file under
``tests/golden/``.  The files were written by this test's ``--write`` mode and
record the output the package is meant to keep: rule rewriting
(``--dump-tilde``), the search (including the ``stats`` counts in the JSON)
and the feedback text at every level.  A mismatch means user-visible output
changed.  ``emitted.sha256`` holds one short digest of the Python source the
compiler emits for each program of a grid over the bundled programs, alone
and under each of their problem's models, bounds, fuel and signature, so a
change to the emitter shows which programs' code moved.  Regenerate the
files only for a change that is meant to alter the output or the emitted
code, and say so where the change is described:

    PYTHONPATH=src python tests/test_golden.py --write
"""

import contextlib
import hashlib
import io
import itertools
import os
import sys

import pytest

from autofix import cli, compiler
from autofix.eml import parse_eml
from autofix.inputs import parse_signature
from autofix.interp import Bounds
from autofix.lexer import SourceError
from autofix.parser import parse_imp
from autofix.rewrite import rewrite

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden")
ASSETS = os.path.join(HERE, "..", "assets")

STUDENTS = {
    "deriv": ("computederiv", "reference.imp", "student.imp"),
    "reverse": ("arrayreverse", "reference.imp", "student.imp"),
}
MODELS = {
    "deriv_model": ("computederiv", "model.eml"),
    "deriv_simple": ("computederiv", "model_simple.eml"),
    "reverse_model": ("arrayreverse", "model.eml"),
    "reverse_overview": ("arrayreverse", "model_overview.eml"),
}


def asset(*parts) -> str:
    return os.path.abspath(os.path.join(ASSETS, *parts))


def _single(student, model, *extra):
    problem, ref, sub = STUDENTS[student]
    return ["--ref", asset(problem, ref), "--student", asset(problem, sub),
            "--model", asset(*MODELS[model]), *extra]


def _corpus(*extra):
    return ["--ref", asset("computederiv", "reference.imp"),
            "--corpus", asset("computederiv", "corpus"),
            "--model", asset("computederiv", "model.eml"),
            "--int-bits", "3", "--max-list", "3", *extra]


CASES = {}
for _student in STUDENTS:
    for _model in MODELS:
        CASES[f"dump_{_student}__{_model}"] = _single(
            _student, _model, "--dump-tilde", "--int-bits", "2", "--max-list", "1"
        )
for _level in (1, 2, 3, 4):
    CASES[f"deriv_text_level{_level}"] = _single(
        "deriv", "deriv_model", "--max-list", "3", "--level", str(_level)
    )
CASES["deriv_json"] = _single("deriv", "deriv_model", "--max-list", "3", "--format", "json")
CASES["reverse_alternate_json"] = _single(
    "reverse", "reverse_model", "--max-list", "3", "--alternates", "1", "--format", "json"
)
CASES["corpus_text"] = _corpus()
CASES["corpus_json"] = _corpus("--format", "json")


# the emission grid: every parsable program of each problem, alone and under
# each of its models, at these (int bits, longest list) bounds and fuels,
# with and without the entry's signature
EMITTED = os.path.join(GOLDEN, "emitted.sha256")
PROBLEMS = {"computederiv": ("model.eml", "model_simple.eml"),
            "arrayreverse": ("model.eml", "model_overview.eml")}
GRID_BOUNDS = ((3, 3), (4, 3), (4, 4))
GRID_FUELS = (10**5, 50)


def _text(*parts) -> str:
    with open(asset(*parts), encoding="utf-8") as fh:
        return fh.read()


def emissions():
    """(name, emitted source) of every emission of the grid."""
    for problem, models in sorted(PROBLEMS.items()):
        parsed = [parse_eml(_text(problem, m)) for m in models]
        names = ["reference.imp", "student.imp"]
        if os.path.isdir(asset(problem, "corpus")):
            names += [f"corpus/{n}" for n in sorted(os.listdir(asset(problem, "corpus")))]
        for name in names:
            try:
                program = parse_imp(_text(problem, name))
            except SourceError:  # the corpus's file that does not parse
                continue
            signature = parse_signature(program.entry_func())
            variants = [("-", program, 0)]
            for model, eml in zip(models, parsed):
                tilde = rewrite(program, eml)
                variants.append((model, tilde.root, len(tilde.sites)))
            grid = itertools.product(variants, GRID_BOUNDS, GRID_FUELS, (signature, None))
            for (model, root, sites), (bits, lists), fuel, sig in grid:
                key = (f"{problem}/{name} {model} {bits}/{lists}"
                       f" fuel={fuel} {'signed' if sig else 'unsigned'}")
                emitter = compiler._Emitter(root, {}, Bounds(bits, lists, fuel), sites, sig)
                yield key, emitter.source()


def emitted_digests() -> str:
    """One line per emission: a short digest of its source, then its name."""
    return "".join(f"{hashlib.sha256(source.encode()).hexdigest()[:16]}  {key}\n"
                   for key, source in emissions())


def test_emitted_code_matches_golden_digests():
    with open(EMITTED, "r", encoding="utf-8", newline="") as fh:
        expected = fh.read()
    assert emitted_digests() == expected


def run(args) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(list(args))
    return out.getvalue()


def golden_path(name: str) -> str:
    return os.path.join(GOLDEN, name + ".out")


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden_file(name):
    with open(golden_path(name), "r", encoding="utf-8", newline="") as fh:
        expected = fh.read()
    assert run(CASES[name]) == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    os.makedirs(GOLDEN, exist_ok=True)
    for _name, _args in sorted(CASES.items()):
        with open(golden_path(_name), "w", encoding="utf-8", newline="") as fh:
            fh.write(run(_args))
        print("wrote", golden_path(_name))
    with open(EMITTED, "w", encoding="utf-8", newline="") as fh:
        fh.write(emitted_digests())
    print("wrote", EMITTED)
