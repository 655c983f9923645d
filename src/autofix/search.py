"""Minimal-cost repair search.

Candidates stream in (cost, lexicographic) order.  A growing counterexample
set screens them cheaply; survivors face full bounded verification against
the reference, and every verification failure contributes a fresh
counterexample.  The first candidate that survives full verification is the
minimal repair, and the total order makes the result deterministic.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from . import lang
from .compiler import Compiler, Fault, same
from .inputs import Signature, enumerate_inputs, parse_signature
from .interp import Bounds, evaluate, values_equal
from .printer import pretty_program
from .tilde import TildeProgram, enumerate_candidates, instantiate


class ReferenceFault(Exception):
    """The reference program faulted or diverged on a bounded input."""


@dataclass
class SearchBudget:
    max_evals: int = 10_000_000  # candidate evaluations across the whole run
    max_seconds: float | None = None

    def __post_init__(self):
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


@dataclass
class RepairResult:
    status: str  # correct | fixed | no_fix | budget
    assignment: dict | None = None
    cost: int = 0
    active: frozenset = frozenset()
    program: lang.Program | None = None
    cexs_used: int = 0
    candidates_tested: int = 0
    max_cost: int = 0
    budget_kind: str | None = None


class ReferenceOracle:
    """The reference program evaluated over the whole bounded input space.
    Construction verifies the reference is fault-free on every input.

    The table and full verification run programs compiled (``compiler``);
    screening a candidate on a few counterexamples costs less than
    compiling it, so `agrees_at` runs the tree-walker."""

    def __init__(self, reference: lang.Program, bounds: Bounds, signature: Signature | None = None):
        self.reference = reference
        self.bounds = bounds
        self.signature = signature or parse_signature(reference.entry_func())
        self.inputs = list(enumerate_inputs(self.signature, bounds))
        self._compiler = Compiler(bounds)
        run = self._compiler.compile(reference)
        self.values = []
        for inp in self.inputs:
            try:
                self.values.append(run(inp))
            except Fault as f:
                raise ReferenceFault(f"reference faults ({f.kind}) on input {inp!r}") from None

    def first_mismatch(self, program: lang.Program, budget=None, callees=None):
        """Index of the first input where `program` disagrees (any fault
        counts as disagreement), or None when boundedly equivalent."""
        run = self._compiler.compile(program, callees)
        values = self.values
        for i, inp in enumerate(self.inputs):
            if budget is not None:
                over = budget.spend()
                if over:
                    raise _BudgetStop(over)
            try:
                value = run(inp)
            except Fault:
                return i
            if not same(value, values[i]):
                return i
        return None

    def agrees_at(self, program: lang.Program, i: int, budget=None, callees=None) -> bool:
        if budget is not None:
            over = budget.spend()
            if over:
                raise _BudgetStop(over)
        result = evaluate(program, self.inputs[i], self.bounds, callees)
        return result.is_ok and values_equal(result.value, self.values[i])


class _BudgetStop(Exception):
    def __init__(self, kind: str):
        self.kind = kind


def find_counterexample(candidate: lang.Program, oracle: ReferenceOracle, callees=None):
    """First bounded input (stream order) where candidate and reference
    disagree; None means bounded equivalence."""
    i = oracle.first_mismatch(candidate, callees=callees)
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
    """Counterexample-guided minimal repair within the cost cap."""
    budget = budget or SearchBudget()
    blocked = set(blocked)
    seen_trees = set(blocked_trees)
    cex_indices: list = []
    tested = 0

    try:
        for assignment, cost in enumerate_candidates(tilde, max_cost):
            cand = instantiate(tilde, assignment)
            if cand.active in blocked:
                continue
            tree = pretty_program(cand.program)  # the printer is normative: one text per tree
            if tree in seen_trees:
                continue
            seen_trees.add(tree)
            tested += 1
            if not all(
                oracle.agrees_at(cand.program, i, budget, callees)
                for i in cex_indices
            ):
                continue
            mismatch = oracle.first_mismatch(cand.program, budget, callees)
            if mismatch is None:
                status = "correct" if cost == 0 else "fixed"
                return RepairResult(
                    status=status,
                    assignment=assignment,
                    cost=cost,
                    active=cand.active,
                    program=cand.program,
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
