"""Applies an error model to a program, producing its weighted program set.

This module applies rules and builds sites; what a rule offers is fixed
when `eml.parse_eml` builds it (`CorrectionRule.slots` and what ``~op``
ranges over), a site's kind is that of its default (`ChoiceSite.kind`),
and what a correction quotes is decided by `feedback`.

One pass, `_Engine.rewrite_node`, visits every statement and expression of
the entry function, children first.  A node's default (alternative 0, cost
zero) is the node with rewritten children.  Each rule of the node's kind
whose pattern matches then contributes weighted alternatives:

* an aligned rule (one with `slots`) grafts a choice site onto the default
  at each of its slots, defaulting to the original child;
* any other template adds whole-node alternatives to one site for the node:
  one per element of a set at its top, while a set nested inside a
  replacement becomes one nested site whose default is its first element
  (a set of one element is that element, and an element whose nested set
  is left empty is left out) or, for ``?a`` and ``~op``, what the
  metavariable bound.

`_variants` alone expands a set: ``{...}`` into its elements, a scope set
``?a`` into the variables assigned before the enclosing statement (for a
function rule, the parameters) and an operator set ``~op`` into
`eml.other_ops`.  Every site is built by `_choice`, which leaves out an
option that is the same literal, variable or operator as the default or as
an earlier option of no greater weight, and records the statement (or the
function) it sits in.  A function rule offers its bodies at one block
site, built in the function's context.  Primed subterms are rewritten
recursively (their sites cost extra); unprimed metavariables are frozen
copies of what they matched, and a node built from a template (a site made
in it too) lies where it is offered: at the matched node or grafted child.
"""

from __future__ import annotations

from . import lang
from .eml import (
    ChoiceSet,
    CorrectionRule,
    IllFormedModel,
    MetaVar,
    OpSet,
    Primed,
    ScopeSet,
    match_pattern,
    meta_kind,
    other_ops,
)
from .lexer import SourceError
from .parser import BUILTIN_FUNCS
from .tilde import Alternative, ChoiceSite, TildeProgram

# the most choice sites one rewrite may make (the bundled submissions make at
# most 16); recursive rules can make exponentially many in the nesting depth
MAX_SITES = 10_000


def rewrite(program: lang.Program, model: list[CorrectionRule]) -> TildeProgram:
    """Rewrite the entry function of `program` under `model`, the rules
    `parse_eml` has checked: every primed subterm is a smaller plain
    fragment than its pattern.  A model built by hand is not checked; the
    recursion is cut at the program's size (`IllFormedModel`)."""
    engine = _Engine(program, model)
    root = engine.run()
    tilde = TildeProgram(root, origin=program, model=model)
    tilde.max_rewrite_depth = engine.max_rule_depth
    return tilde


class _Engine:
    def __init__(self, program: lang.Program, model: list[CorrectionRule]):
        self.program = program
        self.expr_rules = [r for r in model if r.lhs_kind == "expr"]
        self.stmt_rules = [r for r in model if r.lhs_kind == "stmt"]
        self.func_rules = [r for r in model if r.lhs_kind == "func"]
        self.stmt = None  # the statement, or the function, being rewritten
        self.rule_depth = 0
        self.max_rule_depth = 0
        self.depth_limit = 0  # the program's size, found once a rule nests
        self.sites = 0
        entry = program.entry_func()
        self.params = list(entry.params)
        self.first_def = _first_definitions(entry)

    def _site(self, span, alternatives) -> ChoiceSite:
        """A new choice site in the current statement, counted against
        ``MAX_SITES``."""
        self.sites += 1
        if self.sites > MAX_SITES:
            raise SourceError(f"too many choice sites (more than {MAX_SITES:,})",
                              span.line, span.col)
        return ChoiceSite(span, self.stmt, alternatives)

    # -- top level -----------------------------------------------------------

    def run(self):
        functions = [self.rewrite_func(f) if f.name == self.program.entry else f
                     for f in self.program.functions]
        return lang.Program(functions, self.program.entry, self.program.source)

    def rewrite_func(self, func: lang.FuncDef):
        body = lang.map_children(func.body, self.rewrite_node)
        self.stmt = func  # the function's own context, not its last statement's
        options = []
        for rule in self.func_rules:
            binding = match_pattern(rule.lhs, func)
            if binding is not None:
                options += _offered(self._variants(rule.rhs.body, binding, rule, func.span), rule)
        body = self._choice(func.span, body, options)
        return lang.FuncDef(func.name, func.params, body, func.span)

    # -- statements and expressions -------------------------------------------

    def rewrite_node(self, node):
        """Rewrite a statement or an expression: its default (alternative 0)
        is the node with rewritten children, each aligned rule grafts sites
        onto that default, and every other matching rule adds whole-node
        alternatives."""
        is_stmt = isinstance(node, lang.Stmt)
        if is_stmt:
            self.stmt = node
        default = lang.map_children(node, self.rewrite_node)
        options = []
        for rule in self.stmt_rules if is_stmt else self.expr_rules:
            binding = match_pattern(rule.lhs, node)
            if binding is None:
                continue
            if rule.slots is not None:
                default = self._graft(default, rule.slots, rule, binding)
                continue
            options += _offered(self._variants(rule.rhs, binding, rule, node.span), rule)
        return self._choice(node.span, default, options)

    # -- grafting and sites --------------------------------------------------------

    def _graft(self, default, slots, rule, binding):
        """`default` with a choice site at each of the `slots` of `rule`'s
        aligned template; a position that already holds a site (grafted by
        an earlier rule, or made by the child's own rewrite) gains the
        options."""
        for slot, rhs_child in slots:
            current = _get_slot(default, slot)
            if slot != "op":
                span = current.span
            else:
                span = getattr(default, "op_span", lang.NO_SPAN)
                if span.end == 0:
                    span = default.span
            options = self._variants(rhs_child, binding, rule, span)
            site = current if isinstance(current, ChoiceSite) else None
            chosen = self._choice(span, current, _offered(options, rule), site)
            if chosen is not current:
                default = _with_slot(default, slot, chosen)
        return default

    def _choice(self, span, default, options, site=None):
        """A site offering the alternatives `options` beside `default`, or
        `site`, one already in its place, gaining them.  An option is left
        out if it is a literal twin, the same literal, variable or operator
        as the default or as an earlier option of no greater weight: a
        change that changes nothing, or repeats a candidate at no lower
        cost.  With no option left and no `site`, `default`."""
        if not options:
            return site or default
        alternatives = site.alternatives if site else [Alternative(default)]
        lightest = {}
        for alt in alternatives:
            key = _literal(alt.payload)
            lightest[key] = min(alt.weight, lightest.get(key, alt.weight))
        for alt in options:
            key = _literal(alt.payload)
            if key is None or alt.weight < lightest.get(key, alt.weight + 1):
                lightest[key] = alt.weight
                alternatives.append(alt)
        if site or len(alternatives) == 1:
            return site or default
        return self._site(span, alternatives)

    def _variants(self, tpl, binding, rule, anchor) -> list:
        """The payloads a template offers: one per element of a set
        ``{...}`` (or the template itself), where a scope set ``?a`` gives
        one variable per name in scope (the parameters and the variables
        first assigned before the current statement) but the one it is
        anchored to, an operator set ``~op`` every other operator of the
        bound operator's family, and an element holding a nested set left
        with no elements gives none."""
        payloads = []
        for elem in tpl.options if isinstance(tpl, ChoiceSet) else [tpl]:
            if isinstance(elem, ScopeSet):
                bound = binding[elem.of]
                exclude = bound.name if isinstance(bound, lang.Var) else None
                before = self.stmt.span.start
                names = self.params + [n for n, offset in self.first_def if offset < before]
                payloads += [lang.Var(n) for n in names if n != exclude]
            elif isinstance(elem, OpSet):
                payloads += other_ops(binding[elem.of])
            else:
                try:
                    payloads.append(self._instantiate(elem, binding, rule, anchor))
                except _NoElements:
                    pass
        return payloads

    # -- template instantiation ---------------------------------------------------

    def _instantiate(self, tpl, binding, rule, anchor):
        if isinstance(tpl, MetaVar):
            return binding[tpl.name]  # frozen: shared original fragment
        if isinstance(tpl, Primed):  # a plain expression (`parse_eml` checked), rewritten
            self.rule_depth += 1
            self.max_rule_depth = max(self.max_rule_depth, self.rule_depth)
            if self.rule_depth > 1:  # the limit is at least 1
                self.depth_limit = self.depth_limit or max(lang.size(self.program), 1)
                if self.rule_depth > self.depth_limit:
                    raise IllFormedModel("rewrite recursion exceeded the termination bound")
            try:
                return self.rewrite_node(self._instantiate(tpl.inner, binding, rule, anchor))
            finally:
                self.rule_depth -= 1
        if isinstance(tpl, (ChoiceSet, ScopeSet, OpSet)):  # a nested set: one site
            variants = self._variants(tpl, binding, rule, anchor)
            if isinstance(tpl, ChoiceSet):  # its first element is the default
                if not variants:
                    raise _NoElements
                default, variants = variants[0], variants[1:]
            else:  # the bound original is the default
                default = binding[tpl.of]
            return self._choice(anchor, default, _offered(variants, rule))
        if isinstance(tpl, lang.Call) and tpl.func not in BUILTIN_FUNCS:
            if self.program.func(tpl.func) is None:  # as `parse_imp` checks a program's calls
                raise SourceError(f"rule {rule.rule_id} calls {tpl.func}(), which the program"
                                  " does not define", anchor.line, anchor.col)
        if isinstance(tpl, lang.MethodCall) and meta_kind(tpl.obj):
            tpl = lang.with_field(tpl, "obj", binding[tpl.obj].name)
        # a bare s-metavariable binds a statement list, spliced into its block;
        # a node built from the template lies at the anchor
        return lang.map_children(
            tpl, lambda child: self._instantiate(child, binding, rule, anchor), anchor
        )


class _NoElements(Exception):
    """A set nested in a template was left with no elements."""


# --------------------------------------------------------------------------
# helpers


def _first_definitions(func: lang.FuncDef) -> list:
    defs = []
    for node in lang.walk(func.body):
        if isinstance(node, (lang.Assign, lang.AugAssign)) and isinstance(node.target, lang.Var):
            defs.append((node.span.start, node.target.name))
        elif isinstance(node, lang.ForIn):
            defs.append((node.span.start, node.var))
    first = []
    seen = set(func.params)
    for offset, name in sorted(defs):
        if name not in seen:
            seen.add(name)
            first.append((name, offset))
    return first


def _literal(payload):
    """What makes `payload` the same alternative as another: its class and
    value for a literal, its class and name for a variable, the operator
    itself; None for any other payload."""
    cls = type(payload)
    if cls is lang.IntLit or cls is lang.BoolLit:
        return cls, payload.value
    if cls is lang.Var:
        return cls, payload.name
    return payload if cls is str else None


def _offered(payloads, rule) -> list:
    """`rule`'s alternatives offering `payloads`."""
    return [Alternative(p, rule.rule_id, rule.weight) for p in payloads]


def _get_slot(node, slot):
    if isinstance(slot, tuple):
        name, i = slot
        return getattr(node, name)[i]
    return getattr(node, slot)


def _with_slot(node, slot, value):
    """A copy of `node` with `value` at `slot`."""
    if isinstance(slot, tuple):
        name, i = slot
        items = list(getattr(node, name))
        items[i] = value
        slot, value = name, items
    return lang.with_field(node, slot, value)
