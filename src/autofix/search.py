"""Minimal-cost repair search.

Candidates stream in (cost, lexicographic) order as pick tuples of one
compiled choice-site program.  A growing counterexample set screens them
cheaply; survivors face full bounded verification against the reference,
and every verification failure contributes a fresh counterexample.  The
first candidate that survives full verification is the minimal repair, and
the total order makes the result deterministic.

Verification runs in two stages.  A survivor first runs as its pick tuple
on the choice-site program over the first `ALONE_AFTER` inputs, where
failing survivors fail.  When at least four times as many inputs remain,
one that still passes is built as a program, compiled on its own and run
on the rest, which costs about a millisecond and runs each input faster.
Both runners give the same values and faults, so the first mismatch, and
with it every counterexample, is the same.  With fewer inputs the
choice-site program verifies them all.

The budget (`SearchBudget`) is charged once per chunk of `CHUNK` inputs,
and once per candidate screened, not once per run.  It still stops the
search at the same run as a check before every run would: a chunk is cut
to the runs the budget has left, so the run past `max_evals` is the one
refused.  The clock is read once per chunk and once per candidate.

Values are compared with the language's type-exact ``same`` unless the
static return types of the candidate program and the reference prove that
Python's ``!=`` tells the same: then screening and verification compare with
``!=``.  The compiler makes the choice once per runner (``run.exact``), given
the reference's return type by `ReferenceOracle.compile`.
"""

from __future__ import annotations

import time

from . import lang
from .compiler import Compiler
from .inputs import Signature, enumerate_inputs, parse_signature
from .interp import Bounds, Fault, same
from .printer import pretty_program
from .tilde import TildeProgram, enumerate_candidates, instantiate


# Inputs a survivor is verified on as its pick tuple before it is compiled
# alone for the rest, when at least four times as many remain: a compile
# costs about 1 ms, and each input then runs about 0.6 us faster.
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

    def allow(self, n: int) -> int:
        """How many of the next `n` candidate runs may start (at least one),
        checked once: the runs left before `max_evals`, if the clock is
        within `max_seconds`.  The caller adds the runs it made to `evals`.
        If none may start, the refused run is counted and `_BudgetStop`
        says why."""
        left = self.max_evals - self.evals
        if left < 1:
            kind = "evals"
        elif self.max_seconds is not None and (
            time.monotonic() - self.started
        ) > self.max_seconds:
            kind = "timeout"
        else:
            return n if n < left else left
        self.evals += 1
        raise _BudgetStop(kind)


class RepairResult:
    def __init__(self, status: str, picks: tuple | None = None, cost: int = 0,
                 active: frozenset = frozenset(), program: lang.Program | None = None,
                 cexs_used: int = 0, candidates_tested: int = 0, max_cost: int = 0,
                 budget_kind: str | None = None):
        self.status = status  # correct | fixed | no_fix | budget
        self.picks = picks  # the winner's pick tuple
        self.cost = cost
        self.active = active
        self.program = program
        self.cexs_used = cexs_used
        self.candidates_tested = candidates_tested
        self.max_cost = max_cost
        self.budget_kind = budget_kind


class ReferenceOracle:
    """The reference program evaluated over the whole bounded input space.
    Construction verifies the reference is fault-free on every input.

    Programs run compiled (``compiler``): `compile` turns a program or a
    choice-site program into a runner once, and `scan` (on the
    counterexamples, or a chunk of inputs) and `first_mismatch` (full
    verification, or a range of it, by chunks) run a candidate as that
    runner and its pick tuple.  They compare values with ``same``, or with
    Python's ``!=`` where the runner's ``exact`` says so."""

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

    def first_mismatch(self, run, picks=(), budget=None, start=0, stop=None):
        """Index of the first input of ``inputs[start:stop]`` where the
        candidate `picks` of the compiled `run` disagrees, or None when they
        agree on all of them.  With a `budget`, inputs run in chunks of
        `CHUNK`, each allowed and charged once."""
        stop = len(self.inputs) if stop is None else stop
        step = CHUNK if budget is not None else max(stop - start, 1)
        for lo in range(start, stop, step):
            i = self.scan(run, picks, range(lo, min(lo + step, stop)), budget)
            if i is not None:
                return i
        return None

    def scan(self, run, picks, indices, budget=None):
        """The first input index of `indices`, tried in their order, where
        the candidate `picks` of `run` disagrees with the reference (any
        fault counts as disagreement), or None.  A `budget` is checked and
        charged once, and where it ends within `indices` the run past it is
        refused."""
        n = len(indices)
        if budget is not None and n:
            allowed = budget.allow(n)
            if allowed < n:  # the budget ends within these inputs
                i = self.scan(run, picks, indices[:allowed], budget)
                return i if i is not None else self.scan(run, picks, indices[allowed:], budget)
        inputs = self.inputs
        values = self.values
        exact = run.exact
        for i in indices:
            try:
                value = run(inputs[i], picks)
            except Fault:
                break
            if (value != values[i]) if exact else not same(value, values[i]):
                break
        else:
            if budget is not None:
                budget.evals += n
            return None
        if budget is not None:
            # runs are deterministic, so a repeated index fails at its first
            budget.evals += indices.index(i) + 1
        return i


class _BudgetStop(Exception):
    def __init__(self, kind: str):
        self.kind = kind


def cegis_min(
    tilde: TildeProgram,
    oracle: ReferenceOracle,
    max_cost: int = 5,
    budget: SearchBudget | None = None,
    blocked=(),
    blocked_trees=(),
    callees=None,
) -> RepairResult:
    """Counterexample-guided minimal repair within the cost cap.  The
    choice-site program is compiled once and a candidate runs as its pick
    tuple; only the repair, and a survivor verified past `ALONE_AFTER`
    inputs on its own compiled code, is built as a tree.  Candidates that
    print alike are not told apart: a text duplicate of a candidate that
    failed verification is screened out by that candidate's
    counterexample.  A text duplicate of a prior fix is not, so screening
    survivors are printed and skipped when their text is in
    `blocked_trees`.  `blocked` holds the pick tuples of candidates not to
    be tested."""
    budget = budget or SearchBudget()
    blocked = set(blocked)
    run = oracle.compile(tilde, callees)
    scan = oracle.scan
    first_mismatch = oracle.first_mismatch
    # inputs verified on the choice-site program; a survivor passing them
    # all is compiled alone for the rest, when enough remain to pay for it
    head = len(oracle.inputs)
    if head - ALONE_AFTER >= 4 * ALONE_AFTER:
        head = ALONE_AFTER
    cex_indices: list = []
    tested = 0

    try:
        for picks, cost in enumerate_candidates(tilde, max_cost):
            if picks in blocked:
                continue
            tested += 1
            if scan(run, picks, cex_indices, budget) is not None:
                continue
            winner = None
            if blocked_trees:
                winner = instantiate(tilde, picks)
                if pretty_program(winner.program) in blocked_trees:
                    continue  # a text twin of a prior fix
            mismatch = first_mismatch(run, picks, budget, stop=head)
            if mismatch is None and head < len(oracle.inputs):
                winner = winner or instantiate(tilde, picks)
                alone = oracle.compile(winner.program, callees)
                mismatch = first_mismatch(alone, (), budget, start=head)
            if mismatch is not None:
                cex_indices.append(mismatch)
                continue
            winner = winner or instantiate(tilde, picks)
            return RepairResult(
                status="correct" if cost == 0 else "fixed",
                picks=picks,
                cost=cost,
                active=winner.active,
                program=winner.program,
                cexs_used=len(cex_indices),
                candidates_tested=tested,
                max_cost=max_cost,
            )
    except _BudgetStop as stop:
        return RepairResult(
            status="budget",
            cexs_used=len(cex_indices),
            candidates_tested=tested,
            max_cost=max_cost,
            budget_kind=stop.kind,
        )
    return RepairResult(
        status="no_fix",
        cexs_used=len(cex_indices),
        candidates_tested=tested,
        max_cost=max_cost,
    )


def next_alternate(
    priors: list,
    tilde: TildeProgram,
    oracle: ReferenceOracle,
    max_cost: int = 5,
    budget: SearchBudget | None = None,
    callees=None,
) -> RepairResult:
    """The next minimal repair once every prior fix is excluded (both the
    exact selection patterns and their program texts)."""
    if not priors:
        raise ValueError("next_alternate needs at least one prior fix")
    blocked = {p.picks for p in priors}
    blocked_trees = {pretty_program(p.program) for p in priors if p.program is not None}
    return cegis_min(
        tilde,
        oracle,
        max_cost=max_cost,
        budget=budget,
        blocked=blocked,
        blocked_trees=blocked_trees,
        callees=callees,
    )
