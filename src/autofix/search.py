"""Minimal-cost repair search.

Candidates stream in (cost, lexicographic) order as pick tuples of one
compiled choice-site program.  A growing counterexample set screens them
cheaply; survivors face full bounded verification against the reference,
and every verification failure contributes a fresh counterexample.  The
first candidate that survives full verification is the minimal repair, and
the total order makes the result deterministic.  A `RepairResult` holds its
pick tuple, the cost the enumerator gave it and its program (`instantiate`).
Alternate fixes are the next survivors of the same search.

Verification runs in two stages.  A survivor first runs as its pick tuple
on the choice-site program over the first `ALONE_AFTER` inputs, where
failing survivors fail.  When at least four times as many inputs remain,
one that still passes is built as a program, compiled on its own and run
on the rest, which costs about a third of a millisecond and runs each
input faster.  Both runners give the same values and faults, so the first
mismatch, and with it every counterexample, is the same.  With fewer
inputs the choice-site program verifies them all.

Screening runs in `cegis_min` itself, a candidate over the counterexamples
in a plain loop; verification runs in `ReferenceOracle.first_mismatch`, in
chunks of `CHUNK` inputs.  The budget (`SearchBudget.charge`) is charged
the runs made once per candidate screened and once per chunk, not once per
run.  Runs are deterministic, so a charge that passes `max_evals` stops the
search with the verdict, counts and evaluations of a check before every
run; only the runs of that chunk or screening past the ceiling were made
too, and are not counted.  With `max_seconds`, the clock is read at each
charge.

The search learns from failures, as Sketch's CEGIS does from each
counterexample.  A failed candidate with at most one non-default pick (the
unchanged program, or one pick (k, a)) runs once more on the input it
failed on, with picks that note each site the run reads
(`compiler.sites_read`).  Every candidate with the same picks on those
sites runs the same way there, so it fails on an input already among the
counterexamples, and `enumerate_candidates` never yields it.  These reruns
happen as the next cost level starts, the first that can use them, and the
budget does not count them.  Every other candidate keeps its place, so the
fixes and the counterexamples are those of screening them all.

Values are compared with the language's type-exact ``same`` unless the
static return types of the candidate program and the reference prove that
Python's ``!=`` tells the same: then screening and verification compare with
``!=``.  The compiler makes the choice once per runner (``run.exact``), given
the reference's return type by `ReferenceOracle.compile`.
"""

from __future__ import annotations

import time

from . import lang
from .compiler import Compiler, sites_read
from .inputs import Signature, enumerate_inputs, parse_signature
from .interp import Bounds, Fault, same
from .printer import pretty_program
from .tilde import TildeProgram, enumerate_candidates, instantiate


# Inputs a survivor is verified on as its pick tuple before it is compiled
# alone for the rest, when at least four times as many remain: compiling
# the computeDeriv fix costs about 0.33 ms, and each input then runs about
# 0.3 us (40%) faster.
ALONE_AFTER = 512
# Inputs run per charge of the budget in full verification.
CHUNK = 256


class ReferenceFault(Exception):
    """The reference program faulted or diverged on a bounded input."""


class SearchBudget:
    def __init__(self, max_evals: int = 10_000_000, max_seconds: float | None = None):
        self.max_evals = max_evals  # candidate evaluations across the whole run
        self.max_seconds = max_seconds
        self.evals = 0
        self.started = time.monotonic()

    def charge(self, runs: int) -> None:
        """Count `runs` candidate runs made.  Past `max_evals`, the count is
        what a check before every run would have stopped at (the first
        refused run counted) and `_BudgetStop` says "evals"; past
        `max_seconds`, it says "timeout"."""
        if self.evals + runs > self.max_evals:
            self.evals = max(self.evals, self.max_evals) + 1
            raise _BudgetStop("evals")
        self.evals += runs
        if self.max_seconds is not None and (
            time.monotonic() - self.started
        ) > self.max_seconds:
            raise _BudgetStop("timeout")


class RepairResult:
    def __init__(self, status: str, picks: tuple | None = None, cost: int = 0,
                 program: lang.Program | None = None, cexs_used: int = 0,
                 candidates_tested: int = 0, budget_kind: str | None = None):
        self.status = status  # correct | fixed | no_fix | budget
        self.picks = picks  # the winner's pick tuple
        self.cost = cost  # its cost, as `enumerate_candidates` gave it
        self.program = program  # its program (`instantiate`)
        self.cexs_used = cexs_used
        self.candidates_tested = candidates_tested
        self.budget_kind = budget_kind
        self.alternates: list = []  # further fixes, cheapest first (`cegis_min`)


class ReferenceOracle:
    """The reference program evaluated over the whole bounded input space.
    Construction verifies the reference is fault-free on every input.

    Programs run compiled (``compiler``): `compile` turns a program or a
    choice-site program into a runner once, and `first_mismatch` runs a
    candidate, as that runner and its pick tuple, over a range of inputs
    (full verification, or a part of it); `cegis_min` screens in its own
    loop.  Values are compared with ``same``, or with Python's ``!=``
    where the runner's ``exact`` says so."""

    def __init__(self, reference: lang.Program, bounds: Bounds, signature: Signature | None = None):
        self.reference = reference
        self.bounds = bounds
        self.signature = signature or parse_signature(reference.entry_func())
        self.inputs = list(enumerate_inputs(self.signature, bounds))
        self._compiler = Compiler(bounds)
        run = self._compiler.compile(reference, None, self.signature)
        self.returns = run.returns  # the reference's static return type
        self.values = []
        for inp in self.inputs:
            try:
                self.values.append(run(inp))
            except Fault as f:
                raise ReferenceFault(f"reference faults ({f.kind}) on input {inp!r}") from None

    def compile(self, program, callees=None):
        """``Compiler.compile`` under this oracle's bounds and signature: the
        runner is only ever given this oracle's inputs, and its values are
        compared with the reference's (``run.exact``)."""
        return self._compiler.compile(program, callees, self.signature, self.returns)

    def first_mismatch(self, run, picks, budget, start=0, stop=None):
        """Index of the first input of ``inputs[start:stop]`` where the
        candidate `picks` of the compiled `run` disagrees with the reference
        (any fault counts as disagreement), or None.  The inputs run in
        chunks of `CHUNK`, and `budget` is charged the runs of each."""
        inputs = self.inputs
        values = self.values
        exact = run.exact
        stop = len(inputs) if stop is None else stop
        for lo in range(start, stop, CHUNK):
            hi = min(lo + CHUNK, stop)
            for i in range(lo, hi):
                try:
                    value = run(inputs[i], picks)
                except Fault:
                    break
                if (value != values[i]) if exact else not same(value, values[i]):
                    break
            else:
                budget.charge(hi - lo)
                continue
            budget.charge(i + 1 - lo)
            return i
        return None


class _BudgetStop(Exception):
    def __init__(self, kind: str):
        self.kind = kind


def cegis_min(
    tilde: TildeProgram,
    oracle: ReferenceOracle,
    max_cost: int = 5,
    budget: SearchBudget | None = None,
    callees=None,
    alternates: int = 0,
) -> RepairResult:
    """Counterexample-guided minimal repair within the cost cap.  The
    choice-site program is compiled once and a candidate runs as its pick
    tuple; only a fix, and a survivor verified past `ALONE_AFTER` inputs on
    its own compiled code, is built as a tree.

    After a fix the search goes on, in the same order and with the same
    counterexamples, until `alternates` more fixes are found: the result
    is the first fix, with its own statistics, and `.alternates` holds the
    others, cheapest first.  Candidates that print alike are not told
    apart: a text duplicate of a candidate that failed verification is
    screened out by that candidate's counterexample, but a text duplicate
    of a fix is not, so once a fix is found, screening survivors are
    printed and skipped when their text is a fix's.  A budget that ends
    after the first fix ends the alternates, and its kind is noted on the
    result."""
    budget = budget or SearchBudget()
    run = oracle.compile(tilde, callees)
    first_mismatch = oracle.first_mismatch
    inputs = oracle.inputs
    values = oracle.values
    exact = run.exact
    # inputs verified on the choice-site program; a survivor passing them
    # all is compiled alone for the rest, when enough remain to pay for it
    head = len(inputs)
    if head - ALONE_AFTER >= 4 * ALONE_AFTER:
        head = ALONE_AFTER
    cex_indices: list = []
    tested = 0
    fixes: list = []  # cheapest first
    texts = set()  # the fixes' printed programs
    kind = None  # why the budget stopped the search, if it did
    # (picks, input index) of each failed candidate with at most one pick,
    # that is with at least `zeros` default picks, not yet learned from
    failed = []
    zeros = len(tilde.sites) - 1

    def learn():
        facts = [(picks, sites_read(run, inputs[i], picks)) for picks, i in failed]
        failed.clear()
        return facts

    try:
        for picks, cost in enumerate_candidates(tilde, max_cost, learn):
            tested += 1
            for i in cex_indices:
                try:
                    value = run(inputs[i], picks)
                except Fault:
                    break
                if (value != values[i]) if exact else not same(value, values[i]):
                    break
            else:
                i = None
            # the counterexamples are distinct, so `i`'s place counts the runs
            budget.charge(len(cex_indices) if i is None else cex_indices.index(i) + 1)
            if i is None:
                program = None
                if texts:
                    program = instantiate(tilde, picks)
                    if pretty_program(program) in texts:
                        continue  # a text twin of a fix
                i = first_mismatch(run, picks, budget, stop=head)
                if i is None and head < len(inputs):
                    program = program or instantiate(tilde, picks)
                    i = first_mismatch(oracle.compile(program, callees), (), budget, start=head)
                if i is None:
                    program = program or instantiate(tilde, picks)
                    fixes.append(RepairResult(
                        status="correct" if cost == 0 else "fixed",
                        picks=picks,
                        cost=cost,
                        program=program,
                        cexs_used=len(cex_indices),
                        candidates_tested=tested,
                    ))
                    if cost == 0 or len(fixes) > alternates:
                        break
                    texts.add(pretty_program(program))
                    continue
                cex_indices.append(i)
            if picks.count(0) >= zeros:
                failed.append((picks, i))
    except _BudgetStop as stop:
        kind = stop.kind
    if not fixes:
        return RepairResult("budget" if kind else "no_fix", cexs_used=len(cex_indices),
                            candidates_tested=tested, budget_kind=kind)
    first = fixes[0]
    first.budget_kind = kind
    first.alternates = fixes[1:]
    return first
