"""Turns a search result into a report, and reports into the output documents.

Each active non-default selection becomes one correction carrying the four
feedback facets: the line, the statement quoted around it (this module
decides what: `_header` slices it from the source of the statement, or
function, that the site records), the default fragment and its
replacement.  A cumulative level parameter controls how many facets are
rendered.  `report_doc` is a report's JSON document; a corpus entry is
that document plus the file's `name`, and `render_corpus` renders the
entries with the batch's summary.
"""

from __future__ import annotations

from . import lang
from .printer import Printer
from .search import RepairResult
from .tilde import TildeProgram, active_picks

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
    corrections = []
    for site, alt_idx in active_picks(tilde, picks):
        alt = site.alternatives[alt_idx]
        sub = fragment(tilde.resolve(site.alternatives[0].payload, tilde.defaults()))
        new = fragment(tilde.resolve(alt.payload, picks))
        if site.kind == "op":
            # augmented-assignment operators display in their += form
            token = site.span.text(source)
            if token.endswith("=") and token not in ("==", "!=", "<=", ">="):
                sub, new = sub + "=", new + "="
        orig = _header(site.stmt, source).strip() or sub
        rule = rules.get(alt.rule_id)
        template = rule.message if rule and rule.message else GENERIC_MESSAGE
        message = template.format(line=site.span.line, orig=orig, sub=sub, new=new)
        corrections.append(Correction(site.span.line, site.span.col, orig, sub, new,
                                      alt.rule_id, message, site.span))
    corrections.sort(key=lambda c: (c.line, c.col))
    return corrections


def _header(node, source: str) -> str:
    """What a correction quotes as the statement around its site in `node`:
    the header of a compound statement up to its condition or iterable, a
    function's ``def`` line up to its colon, any other statement whole."""
    start, end = node.span.start, node.span.end
    if isinstance(node, (lang.If, lang.While)):
        end = node.cond.span.end
    elif isinstance(node, lang.ForIn):
        end = node.iterable.span.end
    elif isinstance(node, lang.FuncDef):
        end = source.find(":", start) + 1  # no name or parameter holds one
    return source[start:end]


def build_report(tilde: TildeProgram, result: RepairResult,
                 millis: int | None = None) -> FeedbackReport:
    """The report of `result`, a search of `tilde`, and its alternates."""
    verdict = VERDICTS[result.status]
    corrections = []
    if result.status == "fixed":
        corrections = diff_corrections(tilde, result.picks)
    alt_corrections = [diff_corrections(tilde, alt.picks) for alt in result.alternates]
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


def report_doc(report: FeedbackReport, level: int) -> dict:
    """The JSON document of a report, its corrections at `level`."""
    return {
        "verdict": report.verdict,
        "cost": report.cost,
        "corrections": [correction_fields(c, level) for c in report.corrections],
        "alternates": [[correction_fields(c, level) for c in alt] for alt in report.alternates],
        "stats": report.stats,
    }


def render_feedback(report: FeedbackReport, level: int = 4, format: str = "text") -> str:
    """Render a report.  Levels are cumulative: 1 line, 2 +statement,
    3 +sub-expression, 4 +replacement and message."""
    if not 1 <= level <= 4:
        raise ValueError("level must be in 1..4")
    if format == "json":
        import json  # only here: text is the default output

        return json.dumps(report_doc(report, level), indent=2, sort_keys=True) + "\n"

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


def render_corpus(entries: list, format: str, seconds: list | None) -> str:
    """Render a corpus run: its entries, in name order, and a summary of
    their verdicts.  Each file's `seconds` (with ``--timing``) adds the
    mean and median time; text lists each file's verdict and cost only."""
    verdicts = [e["verdict"] for e in entries]
    correct, fixed = verdicts.count("correct"), verdicts.count("fixed")
    parse_error, internal_error = verdicts.count("parse-error"), verdicts.count("internal-error")
    incorrect = len(verdicts) - correct - parse_error - internal_error
    summary = {"total": len(verdicts), "correct": correct, "fixed": fixed,
               "no_fix": incorrect - fixed, "parse_error": parse_error}
    if internal_error:  # only then, so that the summary of a sound run keeps its form
        summary["internal_error"] = internal_error
    summary["fixed_pct"] = round(100.0 * fixed / incorrect, 1) if incorrect else 0.0
    timing = {}
    if seconds:
        import statistics  # only here: timing is off by default

        timing = {"avg_s": round(statistics.mean(seconds), 3),
                  "median_s": round(statistics.median(seconds), 3)}
    if format == "json":
        import json  # only here: text is the default output

        doc = {"files": entries, "summary": {**summary, **timing}}
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    lines = []
    for e in entries:
        cost = f" (cost {e['cost']})" if e["verdict"] == "fixed" else ""
        lines.append(f"{e['name']}: {e['verdict']}{cost}")
    lines.append("summary: " + " ".join(f"{k}={v}" for k, v in summary.items()))
    if timing:
        lines.append("timing: " + " ".join(f"{k}={v}" for k, v in timing.items()))
    return "".join(line + "\n" for line in lines)
