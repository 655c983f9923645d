"""Command-line driver: single-submission repair and batch corpus mode.

Exit codes: 0 the submission is already correct, 1 a fix was produced,
2 no fix within the cost cap (or budget exhausted), 3 usage or parse errors.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from .eml import IllFormedModel, parse_eml
from .feedback import build_report, render_corpus, render_feedback, report_doc
from .inputs import UnknownTypeSuffix, count_inputs, parse_signature
from .interp import MAX_INT_BITS, Bounds
from .lexer import MAX_INT_DIGITS, SourceError
from .parser import parse_imp
from .rewrite import rewrite
from .search import ReferenceFault, ReferenceOracle, SearchBudget, cegis_min
from .tilde import dump

EXIT_CORRECT = 0
EXIT_FIXED = 1
EXIT_NO_FIX = 2
EXIT_ERROR = 3

_EXIT_BY_VERDICT = {"correct": EXIT_CORRECT, "fixed": EXIT_FIXED, "no-fix": EXIT_NO_FIX, "budget": EXIT_NO_FIX}


class InputSpaceTooLarge(Exception):
    """The bounds give more inputs than ``--max-inputs`` allows, or than memory holds."""


# what a bad file, model or bound raises: exit 3 with one line
_INPUT_ERRORS = (OSError, SourceError, IllFormedModel, UnknownTypeSuffix, ReferenceFault,
                 InputSpaceTooLarge)


# every option's default, by its keyword (the option's dest)
OPTION_DEFAULTS = {
    "student": None, "corpus": None, "int_bits": 4, "max_list": 4, "fuel": 100_000,
    "max_inputs": 2_000_000, "max_cost": 5, "alternates": 0, "level": 4, "format": "text",
    "jobs": 1, "budget_candidates": 10_000_000, "budget_seconds": None, "callees": "student",
    "dump_tilde": False, "timing": False,
}


class RunConfig:
    """One run's settings, as the command line gives them: the reference and
    the model, and any of `OPTION_DEFAULTS` by keyword."""

    def __init__(self, ref: str, model: str, **options):
        unknown = options.keys() - OPTION_DEFAULTS.keys()
        if unknown:
            raise TypeError(f"RunConfig() got unknown options {sorted(unknown)}")
        self.ref = ref
        self.model = model
        self.__dict__.update(OPTION_DEFAULTS, **options)


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="autofix",
        description="Minimal-correction feedback for mini-language submissions.",
    )
    # a bad flag is one line, as every other error is (-h keeps the full help)
    p.error = lambda message: p.exit(2, f"{p.prog}: error: {message}\n")
    p.add_argument("--ref", required=True, help="reference implementation (.imp)")
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--student", help="one student submission (.imp)")
    target.add_argument("--corpus", help="directory of student submissions")
    p.add_argument("--model", required=True, help="error model (.eml)")
    p.add_argument("--int-bits", type=int, help="integer width in bits")
    p.add_argument("--max-list", type=int, help="maximum input list length")
    p.add_argument("--fuel", type=int, help="evaluation step budget per run")
    p.add_argument("--max-inputs", type=int, help="largest input space to enumerate")
    p.add_argument("--max-cost", type=int, help="cost cap for fixes")
    p.add_argument("--alternates", type=int, help="extra distinct fixes to report")
    p.add_argument("--level", type=int, choices=(1, 2, 3, 4), help="feedback detail level")
    p.add_argument("--format", choices=("text", "json"))
    p.add_argument("--jobs", type=int, help="parallel workers for corpus mode")
    p.add_argument("--budget-candidates", type=int,
                   help="ceiling on candidate runs per submission, one per input screened "
                        "or verified (not on candidates); the reference table is outside it")
    p.add_argument("--budget-seconds", type=float,
                   help="wall-clock ceiling per submission (off by default); "
                        "the reference table is outside it")
    p.add_argument("--callees", choices=("student", "reference"),
                   help="whose helper functions candidate programs call")
    p.add_argument("--dump-tilde", action="store_true",
                   help="print the rewritten choice structure and exit")
    p.add_argument("--timing", action="store_true",
                   help="include wall-clock timing in reports (non-reproducible)")
    p.set_defaults(**OPTION_DEFAULTS)
    return p


def config_from_args(argv) -> RunConfig:
    return RunConfig(**vars(make_parser().parse_args(argv)))  # each option's dest is a keyword


def _load(path: str) -> str:
    """The file's UTF-8 text, with ``\\r\\n`` and ``\\r`` read as ``\\n``
    (as text mode reads them)."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        line = data.count(b"\n", 0, err.start) + 1
        col = err.start - data.rfind(b"\n", 0, err.start)
        message = f"{path} is not UTF-8 (byte 0x{data[err.start]:02x})"
        raise SourceError(message, line, col) from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _bounds(cfg: RunConfig) -> Bounds:
    return Bounds(int_bits=cfg.int_bits, max_list_len=cfg.max_list, fuel=cfg.fuel)


def _oracle(cfg: RunConfig, reference) -> ReferenceOracle:
    """The reference table, built only once its input space is known to fit
    ``--max-inputs``; a table too large for memory is `InputSpaceTooLarge`."""
    bounds = _bounds(cfg)
    signature = parse_signature(reference.entry_func())
    count = count_inputs(signature, bounds)  # None: too many to run at any --max-inputs
    if count is None or count > cfg.max_inputs:
        shown = f"at least 10**{MAX_INT_DIGITS}" if count is None else f"{count:,}"
        raise InputSpaceTooLarge(
            f"{shown} inputs at --int-bits {cfg.int_bits} --max-list {cfg.max_list}"
            f" exceed --max-inputs {cfg.max_inputs:,}"
        )
    try:
        return ReferenceOracle(reference, bounds, signature)
    except MemoryError:
        raise InputSpaceTooLarge(
            f"{count:,} inputs at --int-bits {cfg.int_bits} --max-list {cfg.max_list}"
            " do not fit in memory"
        ) from None


def _callee_map(cfg: RunConfig, reference):
    if cfg.callees == "reference":
        return {f.name: f for f in reference.functions}
    return None


def repair_one(student_source: str, reference, model, oracle, cfg: RunConfig):
    """Parse, rewrite and search one submission.  Returns (report, tilde)."""
    student = parse_imp(student_source)
    sig = parse_signature(student.entry_func())
    want = oracle.signature
    # parameter names may differ; base name, argument types and result must match
    if (sig.base, [t for _, t in sig.params], sig.ret) != (
        want.base,
        [t for _, t in want.params],
        want.ret,
    ):
        raise SourceError(
            f"signature {sig.base}({', '.join(t for _, t in sig.params)}) -> {sig.ret}"
            " does not match the reference",
            student.entry_func().span.line,
            1,
        )
    tilde = rewrite(student, model)
    budget = SearchBudget(cfg.budget_candidates, cfg.budget_seconds)
    callees = _callee_map(cfg, reference)
    started = time.monotonic()
    result = cegis_min(tilde, oracle, cfg.max_cost, budget, callees, cfg.alternates)
    millis = int((time.monotonic() - started) * 1000) if cfg.timing else None
    report = build_report(tilde, result, millis)
    return report, tilde


def run_single(cfg: RunConfig) -> int:
    try:
        ref = parse_imp(_load(cfg.ref))
        model = parse_eml(_load(cfg.model))
        student_source = _load(cfg.student)
        oracle = _oracle(cfg, ref)
        if cfg.dump_tilde:
            student = parse_imp(student_source)
            sys.stdout.write(dump(rewrite(student, model)))
            return EXIT_CORRECT
        report, _ = repair_one(student_source, ref, model, oracle, cfg)
    except _INPUT_ERRORS as err:
        print(f"autofix: {err}", file=sys.stderr)
        return EXIT_ERROR
    sys.stdout.write(render_feedback(report, cfg.level, cfg.format))
    return _EXIT_BY_VERDICT[report.verdict]


# -- corpus mode -------------------------------------------------------------

_WORKER_CTX = {}


def _init_worker(ref_source, model_source, cfg):
    ref = parse_imp(ref_source)
    _set_context(cfg, ref, parse_eml(model_source), ReferenceOracle(ref, _bounds(cfg)))


def _set_context(cfg, ref, model, oracle):
    _WORKER_CTX.update(cfg=cfg, ref=ref, model=model, oracle=oracle)


def _corpus_entry(path: str) -> tuple:
    """One file's corpus entry, and the seconds it took."""
    cfg = _WORKER_CTX["cfg"]
    name = os.path.basename(path)
    started = time.monotonic()
    try:
        report, _ = repair_one(
            _load(path), _WORKER_CTX["ref"], _WORKER_CTX["model"], _WORKER_CTX["oracle"], cfg
        )
        entry = {"name": name, **report_doc(report, cfg.level)}
    except (OSError, SourceError, UnknownTypeSuffix) as err:
        entry = {"name": name, "verdict": "parse-error", "error": str(err)}
    except Exception as err:  # a defect must not abort the rest of the batch
        error = f"{type(err).__name__}: {err}".splitlines()[0]
        entry = {"name": name, "verdict": "internal-error", "error": error}
    return entry, time.monotonic() - started


def _workers(cfg: RunConfig, paths: list) -> int:
    """How many worker processes the corpus runs in: at most one per file
    and one per CPU, since a pool starts all of its workers at once."""
    return min(cfg.jobs, len(paths), os.cpu_count() or 1)


def run_corpus(cfg: RunConfig) -> int:
    try:
        ref_source = _load(cfg.ref)
        model_source = _load(cfg.model)
        ref = parse_imp(ref_source)
        model = parse_eml(model_source)
        oracle = _oracle(cfg, ref)
        paths = sorted(
            os.path.join(cfg.corpus, n)
            for n in os.listdir(cfg.corpus)
            if n.endswith(".imp")
        )
    except _INPUT_ERRORS as err:
        print(f"autofix: {err}", file=sys.stderr)
        return EXIT_ERROR

    workers = _workers(cfg, paths)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only here: costly to import
        from concurrent.futures.process import BrokenProcessPool

        try:
            with ProcessPoolExecutor(
                max_workers=workers,
                initializer=_init_worker,
                initargs=(ref_source, model_source, cfg),
            ) as pool:
                results = list(pool.map(_corpus_entry, paths))
        except BrokenProcessPool:
            print("autofix: a corpus worker process died", file=sys.stderr)
            return EXIT_ERROR
    else:
        _set_context(cfg, ref, model, oracle)  # the table validated above
        results = [_corpus_entry(p) for p in paths]

    entries = [entry for entry, _ in results]
    seconds = [took for _, took in results] if cfg.timing else None
    sys.stdout.write(render_corpus(entries, cfg.format, seconds))
    failed = [e for e in entries if e["verdict"] == "internal-error"]
    for e in failed:  # a defect of the program: say where, and fail the batch
        print(f"autofix: {e['name']}: {e['error']}", file=sys.stderr)
    return EXIT_ERROR if failed else EXIT_CORRECT


def main(argv=None) -> int:
    try:
        cfg = config_from_args(argv)
    except SystemExit as e:
        return EXIT_ERROR if e.code not in (0, None) else 0
    try:
        largest = _bounds(cfg).int_hi
    except ValueError as err:
        print(
            f"autofix: {err}: --int-bits {cfg.int_bits} --max-list {cfg.max_list}"
            f" --fuel {cfg.fuel} (need 1 <= --int-bits <= {MAX_INT_BITS}, --max-list >= 0,"
            " --fuel >= 1)",
            file=sys.stderr,
        )
        return EXIT_ERROR
    if cfg.max_list > largest:  # len() of a longer list would wrap negative
        print(
            f"autofix: --max-list {cfg.max_list} exceeds {largest}, the largest"
            f" integer at --int-bits {cfg.int_bits}",
            file=sys.stderr,
        )
        return EXIT_ERROR
    if cfg.budget_seconds != cfg.budget_seconds:  # NaN: no elapsed time is past it
        print(f"autofix: --budget-seconds {cfg.budget_seconds} is not a number", file=sys.stderr)
        return EXIT_ERROR
    for flag, value, least in (("--max-cost", cfg.max_cost, 0), ("--alternates", cfg.alternates, 0),
                               ("--budget-candidates", cfg.budget_candidates, 0),
                               ("--jobs", cfg.jobs, 1)):
        if value < least:  # else a typo reads as a verdict about the submission
            print(f"autofix: {flag} {value} is below {least}, its least value", file=sys.stderr)
            return EXIT_ERROR
    if cfg.corpus:
        return run_corpus(cfg)
    return run_single(cfg)


if __name__ == "__main__":
    sys.exit(main())
