"""Minimal-cost repair search.

Candidates stream in (cost, lexicographic) order as pick tuples of one
compiled choice-site program.  A growing counterexample set screens them
cheaply; survivors face full bounded verification against the reference,
and every verification failure contributes a fresh counterexample.  The
first candidate that survives full verification is the minimal repair, and
the total order makes the result deterministic.
"""

from __future__ import annotations

import time

from . import lang
from .compiler import Compiler
from .inputs import Signature, enumerate_inputs, parse_signature
from .interp import Bounds
from .printer import pretty_program
from .runtime import Fault, same
from .tilde import TildeProgram, enumerate_candidates, instantiate, pick_tuple


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
    def __init__(self, status: str, assignment: dict | None = None, cost: int = 0,
                 active: frozenset = frozenset(), program: lang.Program | None = None,
                 cexs_used: int = 0, candidates_tested: int = 0, max_cost: int = 0,
                 budget_kind: str | None = None):
        self.status = status  # correct | fixed | no_fix | budget
        self.assignment = assignment
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
    that runner and its pick tuple."""

    def __init__(self, reference: lang.Program, bounds: Bounds, signature: Signature | None = None):
        self.reference = reference
        self.bounds = bounds
        self.signature = signature or parse_signature(reference.entry_func())
        self.inputs = list(enumerate_inputs(self.signature, bounds))
        self._compiler = Compiler(bounds)
        run = self.compile(reference)
        self.values = []
        for inp in self.inputs:
            try:
                self.values.append(run(inp))
            except Fault as f:
                raise ReferenceFault(f"reference faults ({f.kind}) on input {inp!r}") from None

    def compile(self, program, callees=None):
        """``Compiler.compile`` under this oracle's bounds and signature: the
        runner is only ever given this oracle's inputs."""
        return self._compiler.compile(program, callees, self.signature)

    def first_mismatch(self, run, picks=(), budget=None):
        """Index of the first input where the candidate `picks` of the
        compiled `run` disagrees (any fault counts as disagreement), or
        None when boundedly equivalent."""
        values = self.values
        for i, inp in enumerate(self.inputs):
            if budget is not None:
                over = budget.spend()
                if over:
                    raise _BudgetStop(over)
            try:
                value = run(inp, picks)
            except Fault:
                return i
            if not same(value, values[i]):
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
        return same(value, self.values[i])


class _BudgetStop(Exception):
    def __init__(self, kind: str):
        self.kind = kind


def find_counterexample(candidate: lang.Program, oracle: ReferenceOracle, callees=None):
    """First bounded input (stream order) where candidate and reference
    disagree; None means bounded equivalence."""
    i = oracle.first_mismatch(oracle.compile(candidate, callees))
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
    printed and skipped when their text is in `blocked_trees`."""
    budget = budget or SearchBudget()
    blocked = set(blocked)
    run = oracle.compile(tilde, callees)
    cex_indices: list = []
    tested = 0

    try:
        for assignment, cost in enumerate_candidates(tilde, max_cost):
            active = frozenset(assignment.items())
            if active in blocked:
                continue
            tested += 1
            picks = pick_tuple(tilde, assignment)
            if not all(oracle.agrees_at(run, picks, i, budget) for i in cex_indices):
                continue
            program = None
            if blocked_trees:
                program = instantiate(tilde, assignment).program
                if pretty_program(program) in blocked_trees:
                    continue  # a text twin of a prior fix
            mismatch = oracle.first_mismatch(run, picks, budget)
            if mismatch is None:
                status = "correct" if cost == 0 else "fixed"
                return RepairResult(
                    status=status,
                    assignment=assignment,
                    cost=cost,
                    active=active,
                    program=program or instantiate(tilde, assignment).program,
                    cexs_used=len(cex_indices),
                    candidates_tested=tested,
                    max_cost=max_cost,
                )
            cex_indices.append(mismatch)
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
    blocked = {p.active for p in priors}
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
