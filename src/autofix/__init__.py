"""Minimal-correction feedback for student programs in a mini language.

Given a reference implementation, a student submission and an instructor
error model of rewrite rules, find the cheapest set of corrections that makes
the submission agree with the reference on every input within configured
bounds, and render the result as line-anchored feedback.
"""

from .eml import ErrorModel, match_pattern, parse_eml
from .feedback import FeedbackReport, build_report, diff_corrections, render_feedback
from .inputs import Signature, count_inputs, enumerate_inputs, parse_signature
from .interp import Bounds
from .parser import parse_imp
from .printer import pretty_program
from .rewrite import rewrite
from .search import ReferenceOracle, RepairResult, SearchBudget, cegis_min
from .tilde import (
    TildeProgram,
    dump,
    enumerate_candidates,
    instantiate,
)

__version__ = "0.1.0"

__all__ = [
    "Bounds",
    "ErrorModel",
    "FeedbackReport",
    "ReferenceOracle",
    "RepairResult",
    "SearchBudget",
    "Signature",
    "TildeProgram",
    "build_report",
    "cegis_min",
    "count_inputs",
    "diff_corrections",
    "dump",
    "enumerate_candidates",
    "enumerate_inputs",
    "instantiate",
    "match_pattern",
    "parse_eml",
    "parse_imp",
    "parse_signature",
    "pretty_program",
    "render_feedback",
    "rewrite",
]
