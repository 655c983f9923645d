"""Span tracer attached from outside to autofix's public calls.

Every wrapped call pushes a frame; when it returns, its duration is charged
to the caller's frame as child time, so a call's self time is its duration
minus the time its wrapped callees took.  Coarse calls (parse, rewrite, one
search, one full verification, one table build) become spans with name,
start, end, parent and the submission they belong to.  Per-candidate and
per-evaluation calls (enumeration steps, instantiation, tree keys,
screening, evaluations) are too many to keep one by one: they are
aggregated into counts and totals under their nearest span.

The first component of every name is the layer, so self time per layer is a
sum over names.  The tracer is installed only for the traced run; the
untraced measurements never see these wrappers.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from time import perf_counter

from autofix import cli, eml, feedback, lang, parser, search

# Which evaluation phase an `evaluate` call belongs to, by its caller.
_EVAL_PHASE = {
    "search.table": "interp.evals.table",
    "search.screen": "interp.evals.screen",
    "search.verify": "interp.evals.verify",
}

# Counts that do not depend on timing; two passes over the same submissions
# must give the same values.
WORK_COUNTERS = (
    "rewrite.sites",
    "search.candidates_tested",
    "search.cexs",
    "tilde.instantiate_calls",
    "interp.evals.table",
    "interp.evals.screen",
    "interp.evals.verify",
)

LAYERS = ("parser", "eml", "inputs", "rewrite", "tilde", "lang", "interp",
          "search", "feedback", "cli")


class Tracer:
    def __init__(self):
        self.spans = []
        self.request = None  # submission the current spans belong to
        self._stack = []  # frames: [name, child_s, span, owner span, start]
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._patches = []
        self.missing = []  # wrapped names the package no longer has

    # -- frames ---------------------------------------------------------------

    def _push(self, name, coarse):
        stack = self._stack
        owner = stack[-1][3] if stack else None
        span = None
        if coarse:
            span = {"id": len(self.spans), "name": name, "request": self.request,
                    "parent": owner["id"] if owner else None, "agg": {}}
            self.spans.append(span)
            owner = span
        frame = [name, 0.0, span, owner, 0.0]
        stack.append(frame)
        frame[4] = perf_counter()
        return frame

    def _pop(self, frame):
        end = perf_counter()
        name, child_s, span, owner, start = frame
        duration = end - start
        stack = self._stack
        stack.pop()
        if stack:
            stack[-1][1] += duration
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - child_s
        if span is not None:
            span["start"], span["end"], span["self_s"] = start, end, duration - child_s
        elif owner is not None:
            agg = owner["agg"].get(name)
            if agg is None:
                owner["agg"][name] = [1, duration]
            else:
                agg[0] += 1
                agg[1] += duration

    def caller(self):
        return self._stack[-1][0] if self._stack else None

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, fn, name, coarse=False, count=None):
        """`fn` recorded under `name`; `count(tracer, result)` runs after it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._push(name, coarse)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._pop(frame)
            if count is not None:
                count(self, result)
            return result

        return traced

    def _wrap_iter(self, fn, name):
        """A generator function whose every step is recorded under `name`;
        the items it yields are counted as `<name>.items`."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                frame = self._push(name, False)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._pop(frame)
                self.counts[name + ".items"] += 1
                yield item

        return traced

    def patch(self, owner, attr, name, coarse=False, count=None, steps=False):
        """Replace `owner.attr` with a recorded wrapper (`steps`: record each
        step of a generator).  A missing attribute is noted in `missing`, so
        a renamed function leaves its metrics at 0 instead of failing."""
        original = owner.__dict__.get(attr)
        if original is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        wrapper = self._wrap_iter(original, name) if steps else self._wrap(original, name, coarse, count)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        instrument(self)
        return self

    def __exit__(self, *exc):
        self.restore()

    # -- results --------------------------------------------------------------

    def work_counters(self) -> dict:
        metrics = self.metrics()
        return {name: metrics[name] for name in WORK_COUNTERS}

    def metrics(self) -> dict:
        calls, total, counts = self.calls, self.total_s, self.counts
        evals = calls["interp.evaluate"]
        tested = counts["search.candidates_tested"]
        m = {
            "interp.evals.table": counts["interp.evals.table"],
            "interp.evals.screen": counts["interp.evals.screen"],
            "interp.evals.verify": counts["interp.evals.verify"],
            "interp.eval_s": total["interp.evaluate"],
            "interp.evals_per_s": _ratio(evals, total["interp.evaluate"]),
            "search.table_s": total["search.table"],
            "inputs.count": counts["inputs.enumerate.items"],
            "inputs.enumerate_s": total["inputs.enumerate"],
            "search.verify_calls": calls["search.verify"],
            "search.verify_pass_ratio": _ratio(counts["search.verify_passes"],
                                               calls["search.verify"]),
            "search.verify_s": total["search.verify"],
            "search.screen_calls": calls["search.screen"],
            "search.screen_s": total["search.screen"],
            "search.screen_reject_ratio": _ratio(counts["search.screen_rejects"],
                                                 calls["search.screen"]),
            "search.candidates_tested": tested,
            "search.cexs": counts["search.cexs"],
            "search.skipped": calls["tilde.instantiate"] - tested,
            "tilde.enumerated": counts["tilde.enumerate.items"],
            "tilde.enumerate_s": total["tilde.enumerate"],
            "tilde.instantiate_calls": calls["tilde.instantiate"],
            "tilde.instantiate_s": total["tilde.instantiate"],
            "lang.key_calls": calls["lang.key"],
            "lang.key_s": total["lang.key"],
            "parser.parse_s": total["parser.parse_imp"],
            "eml.parse_s": total["eml.parse_eml"],
            "rewrite.s": total["rewrite.rewrite"],
            "rewrite.sites": counts["rewrite.sites"],
            "rewrite.alternatives": counts["rewrite.alternatives"],
            "feedback.s": total["feedback.build_report"] + total["feedback.render_feedback"],
        }
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for name, seconds in self.self_s.items():
            layer_self[name.split(".", 1)[0]] += seconds
        for layer, seconds in layer_self.items():
            m[f"self.{layer}_s"] = seconds
        return m

    def dump(self, path):
        """Write the spans, each with its aggregated per-call totals."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans}, fh, indent=1)
            fh.write("\n")


def _ratio(part, whole):
    return part / whole if whole else 0.0


def instrument(tracer: Tracer) -> None:
    """Wrap the public calls of each layer where the pipeline calls them.

    Modules that import a function by name hold their own reference, so the
    wrapper is installed in the calling module as well as the defining one.
    """
    patch = tracer.patch

    def count_if(name, pred):
        def add(tr, result):
            if pred(result):
                tr.counts[name] += 1
        return add

    def rewritten(tr, tilde):
        tr.counts["rewrite.sites"] += len(tilde.sites)
        tr.counts["rewrite.alternatives"] += sum(len(s.alternatives) - 1 for s in tilde.sites)

    def searched(tr, result):
        tr.counts["search.candidates_tested"] += result.candidates_tested
        tr.counts["search.cexs"] += result.cexs_used

    def evaluated(tr, result):
        phase = _EVAL_PHASE.get(tr.caller())
        if phase is not None:
            tr.counts[phase] += 1

    for module in (parser, cli):
        patch(module, "parse_imp", "parser.parse_imp", coarse=True)
    patch(eml, "parse_eml", "eml.parse_eml", coarse=True)
    patch(cli, "rewrite", "rewrite.rewrite", coarse=True, count=rewritten)
    patch(cli, "repair_one", "cli.repair_one", coarse=True)
    patch(cli, "build_report", "feedback.build_report", coarse=True)
    patch(feedback, "render_feedback", "feedback.render_feedback", coarse=True)
    # next_alternate calls cegis_min through the search module's name
    for module in (search, cli):
        patch(module, "cegis_min", "search.cegis_min", coarse=True, count=searched)
    patch(cli, "next_alternate", "search.next_alternate", coarse=True)

    oracle = search.ReferenceOracle
    patch(oracle, "__init__", "search.table", coarse=True)
    patch(oracle, "first_mismatch", "search.verify", coarse=True,
          count=count_if("search.verify_passes", lambda i: i is None))
    patch(oracle, "agrees_at", "search.screen",
          count=count_if("search.screen_rejects", lambda ok: not ok))
    patch(search, "evaluate", "interp.evaluate", count=evaluated)
    patch(search, "enumerate_inputs", "inputs.enumerate", steps=True)
    patch(search, "enumerate_candidates", "tilde.enumerate", steps=True)
    patch(search, "instantiate", "tilde.instantiate")
    patch(lang.Program, "key", "lang.key")
