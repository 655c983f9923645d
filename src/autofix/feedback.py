"""Turns a winning pick tuple into line-anchored corrections.

Each active non-default selection becomes one correction carrying the four
feedback facets: the line, the enclosing statement text (sliced from the
original source via spans recorded at rewrite time), the default fragment
and its replacement.  A cumulative level parameter controls how many facets
are rendered.
"""

from __future__ import annotations

from . import lang
from .printer import Printer
from .search import RepairResult
from .tilde import TildeProgram, instantiate

GENERIC_MESSAGE = "In line {line}, change {sub} to {new}."

fragment = Printer().fragment  # a fragment on one line, as the normative printer prints it

VERDICTS = {"correct": "correct", "fixed": "fixed", "no_fix": "no-fix", "budget": "budget"}


class Correction:
    def __init__(self, line: int, col: int, orig_stmt: str, sub_expr: str, new_expr: str,
                 rule_id: str, message: str, span: lang.Span = lang.NO_SPAN):
        self.line = line
        self.col = col
        self.orig_stmt = orig_stmt
        self.sub_expr = sub_expr
        self.new_expr = new_expr
        self.rule_id = rule_id
        self.message = message
        self.span = span  # source span of the replaced fragment


class FeedbackReport:
    def __init__(self, verdict: str, cost: int, corrections: list,
                 alternates: list | None = None, stats: dict | None = None):
        self.verdict = verdict  # correct | fixed | no-fix | budget
        self.cost = cost
        self.corrections = corrections
        self.alternates = [] if alternates is None else alternates
        self.stats = {} if stats is None else stats


def diff_corrections(tilde: TildeProgram, picks: tuple) -> list:
    """One correction per active non-default pick, ordered by source
    position."""
    source = tilde.origin.source if tilde.origin else ""
    rules = {r.rule_id: r for r in tilde.model} if tilde.model else {}
    active = instantiate(tilde, picks).active
    corrections = []
    for site_id, alt_idx in sorted(active):
        site = tilde.site(site_id)
        alt = site.alternatives[alt_idx]
        sub = fragment(tilde.resolve(site.alternatives[0].payload, tilde.defaults()))
        new = fragment(tilde.resolve(alt.payload, picks))
        if site.kind == "op":
            # augmented-assignment operators display in their += form
            token = site.span.text(source)
            if token.endswith("=") and token not in ("==", "!=", "<=", ">="):
                sub, new = sub + "=", new + "="
        orig = site.stmt_span.text(source).strip() or sub
        rule = rules.get(alt.rule_id)
        template = rule.message if rule and rule.message else GENERIC_MESSAGE
        message = template.format(
            line=site.span.line, orig=orig, sub=sub, new=new
        )
        corrections.append(
            Correction(
                line=site.span.line,
                col=site.span.col,
                orig_stmt=orig,
                sub_expr=sub,
                new_expr=new,
                rule_id=alt.rule_id,
                message=message,
                span=site.span,
            )
        )
    corrections.sort(key=lambda c: (c.line, c.col))
    return corrections


def build_report(
    tilde: TildeProgram | None,
    result: RepairResult,
    alternates: list = (),
    millis: int | None = None,
) -> FeedbackReport:
    verdict = VERDICTS[result.status]
    corrections = []
    if result.status == "fixed" and tilde is not None:
        corrections = diff_corrections(tilde, result.picks)
    alt_corrections = [
        diff_corrections(tilde, alt.picks)
        for alt in alternates
        if alt.status == "fixed"
    ]
    stats = {
        "candidates_tested": result.candidates_tested,
        "cexs": result.cexs_used,
    }
    if millis is not None:
        stats["millis"] = millis
    return FeedbackReport(
        verdict=verdict,
        cost=result.cost if result.status == "fixed" else 0,
        corrections=corrections,
        alternates=alt_corrections,
        stats=stats,
    )


def correction_fields(c: Correction, level: int) -> dict:
    out = {"line": c.line}
    if level >= 2:
        out["orig"] = c.orig_stmt
    if level >= 3:
        out["sub"] = c.sub_expr
    if level >= 4:
        out["new"] = c.new_expr
        out["rule"] = c.rule_id
        out["message"] = c.message
    return out


def render_feedback(report: FeedbackReport, level: int = 4, format: str = "text") -> str:
    """Render a report.  Levels are cumulative: 1 line, 2 +statement,
    3 +sub-expression, 4 +replacement and message."""
    if not 1 <= level <= 4:
        raise ValueError("level must be in 1..4")
    if format == "json":
        import json  # only here: text is the default output

        doc = {
            "verdict": report.verdict,
            "cost": report.cost,
            "corrections": [correction_fields(c, level) for c in report.corrections],
            "alternates": [
                [correction_fields(c, level) for c in alt] for alt in report.alternates
            ],
            "stats": report.stats,
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    if report.verdict == "correct":
        return "No corrections needed. cost = 0.\n"
    if report.verdict in ("no-fix", "budget"):
        reason = "search budget exhausted" if report.verdict == "budget" else "no fix within the cost cap"
        return f"No fix found: {reason}.\n"

    lines = [f"The program requires {len(report.corrections)} change(s). cost = {report.cost}."]
    for c in report.corrections:
        lines.append("- " + _bullet(c, level))
    for i, alt in enumerate(report.alternates, start=1):
        lines.append(f"Alternate fix {i} ({len(alt)} change(s)):")
        for c in alt:
            lines.append("- " + _bullet(c, level))
    return "\n".join(lines) + "\n"


def _bullet(c: Correction, level: int) -> str:
    if level == 1:
        return f"line {c.line}"
    if level == 2:
        return f"line {c.line}: {c.orig_stmt}"
    if level == 3:
        return f"line {c.line}: {c.orig_stmt} | change: {c.sub_expr}"
    return c.message
