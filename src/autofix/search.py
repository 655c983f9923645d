"""Minimal-cost repair search.

Candidates stream in (cost, lexicographic) order as pick tuples of one
compiled choice-site program.  A growing counterexample set screens them
cheaply; survivors face full bounded verification against the reference,
and every verification failure contributes a fresh counterexample.  The
first candidate that survives full verification is the minimal repair, and
the total order makes the result deterministic.

Values are compared with the language's type-exact ``same`` unless the
static return types of the candidate program and the reference prove that
Python's ``!=`` tells the same: then screening and verification compare with
``!=``.  `ReferenceOracle.compile` makes the choice once per runner
(``run.exact``).
"""

from __future__ import annotations

import time

from . import lang
from .compiler import Compiler, _exact, _join
from .inputs import Signature, enumerate_inputs, parse_signature
from .interp import Bounds
from .printer import pretty_program
from .runtime import Fault, same
from .tilde import TildeProgram, enumerate_candidates, instantiate


class ReferenceFault(Exception):
    """The reference program faulted or diverged on a bounded input."""


class SearchBudget:
    def __init__(self, max_evals: int = 10_000_000, max_seconds: float | None = None):
        self.max_evals = max_evals  # candidate evaluations across the whole run
        self.max_seconds = max_seconds
        self.evals = 0
        self.started = time.monotonic()

    def spend(self, n: int = 1) -> str | None:
        self.evals += n
        if self.evals > self.max_evals:
            return "evals"
        if self.max_seconds is not None and (
            time.monotonic() - self.started
        ) > self.max_seconds:
            return "timeout"
        return None


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
    choice-site program into a runner once, and `agrees_at` (screening on
    one input) and `first_mismatch` (full verification) run a candidate as
    that runner and its pick tuple.  They compare values with ``same``, or
    with Python's ``!=`` where the runner's ``exact`` says so."""

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
        runner is only ever given this oracle's inputs.  ``run.exact`` says
        whether Python's ``==`` is ``same`` between its values and the
        reference's, as their static return types prove."""
        run = self._compiler.compile(program, callees, self.signature)
        run.exact = _exact(_join(run.returns, self.returns))
        return run

    def first_mismatch(self, run, picks=(), budget=None):
        """Index of the first input where the candidate `picks` of the
        compiled `run` disagrees (any fault counts as disagreement), or
        None when boundedly equivalent."""
        values = self.values
        exact = run.exact
        for i, inp in enumerate(self.inputs):
            if budget is not None:
                over = budget.spend()
                if over:
                    raise _BudgetStop(over)
            try:
                value = run(inp, picks)
            except Fault:
                return i
            if (value != values[i]) if exact else not same(value, values[i]):
                return i
        return None

    def agrees_at(self, run, picks, i: int, budget=None) -> bool:
        if budget is not None:
            over = budget.spend()
            if over:
                raise _BudgetStop(over)
        try:
            value = run(self.inputs[i], picks)
        except Fault:
            return False
        return (value == self.values[i]) if run.exact else same(value, self.values[i])


class _BudgetStop(Exception):
    def __init__(self, kind: str):
        self.kind = kind


def find_counterexample(candidate: lang.Program, oracle: ReferenceOracle, callees=None):
    """First bounded input (stream order) where candidate and reference
    disagree; None means bounded equivalence."""
    run = oracle.compile(candidate, callees)
    i = oracle.first_mismatch(run)
    return None if i is None else oracle.inputs[i]


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
    tuple; only the repair is built as a tree.  Candidates that print alike
    are not told apart: a text duplicate of a candidate that failed
    verification is screened out by that candidate's counterexample.  A
    text duplicate of a prior fix is not, so screening survivors are
    printed and skipped when their text is in `blocked_trees`.  `blocked`
    holds the pick tuples of candidates not to be tested."""
    budget = budget or SearchBudget()
    blocked = set(blocked)
    run = oracle.compile(tilde, callees)
    agrees_at = oracle.agrees_at
    cex_indices: list = []
    tested = 0

    try:
        for picks, cost in enumerate_candidates(tilde, max_cost):
            if picks in blocked:
                continue
            tested += 1
            for i in cex_indices:
                if not agrees_at(run, picks, i, budget):
                    break
            else:  # no counterexample rejects it: verify
                winner = None
                if blocked_trees:
                    winner = instantiate(tilde, picks)
                    if pretty_program(winner.program) in blocked_trees:
                        continue  # a text twin of a prior fix
                mismatch = oracle.first_mismatch(run, picks, budget)
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
