"""Applies an error model to a program, producing its weighted program set.

One pass, `_Engine.rewrite_node`, visits every statement and expression of
the entry function, children first.  A node's default (alternative 0, cost
zero) is the node with rewritten children.  Each rule of the node's kind
whose pattern matches then contributes weighted alternatives:

* a rule whose template keeps the matched node's shape ("aligned", e.g.
  ``v[a] -> v[{a + 1, a - 1}]``) grafts a choice site onto the default at
  each changed child position, defaulting to the original child (the
  positions, found once per rule, are kept on it: `_graft_slots`);
* any other template adds whole-node alternatives to one site for the node:
  one per element of a set at its top (`_variants`), while sets nested
  inside a replacement become nested sites whose first element is the local
  default (a set of one element is that element, and an element whose
  nested set is left empty is left out).

Every site is built by `_choice`, which leaves out an option that is the
same literal, variable or operator as the default or as an earlier option
of no greater weight.  A function rule offers its bodies at one block
site, built in the function's context.  Primed subterms are rewritten
recursively (their sites cost extra); unprimed metavariables are frozen
copies of what they matched.  Scope sets expand to the variables assigned
before the enclosing statement (for a function rule, the parameters).
"""

from __future__ import annotations

from . import lang
from .eml import (
    ChoiceSet,
    ErrorModel,
    IllFormedModel,
    MetaVar,
    OpSet,
    Primed,
    ScopeSet,
    StmtChoice,
    match_pattern,
    meta_kind,
)
from .lexer import SourceError
from .parser import BUILTIN_FUNCS
from .tilde import Alternative, ChoiceSite, TildeProgram

_COMPARE_FAMILY = ("<", ">", "<=", ">=", "==", "!=")
_ARITH_FAMILY = ("+", "-", "*", "/")

# the most choice sites one rewrite may make (the bundled submissions make at
# most 16); recursive rules can make exponentially many in the nesting depth
MAX_SITES = 10_000


def rewrite(program: lang.Program, model: ErrorModel) -> TildeProgram:
    """Rewrite the entry function of `program` under `model`, which
    `parse_eml` has checked: every primed subterm is a smaller plain
    fragment than its pattern.  A model built by hand is not checked; the
    recursion is cut at the program's size (`IllFormedModel`)."""
    engine = _Engine(program, model)
    root = engine.run()
    tilde = TildeProgram(root, origin=program, model=model)
    tilde.max_rewrite_depth = engine.max_rule_depth
    return tilde


class _Engine:
    def __init__(self, program: lang.Program, model: ErrorModel):
        self.program = program
        self.expr_rules = [r for r in model if r.lhs_kind == "expr"]
        self.stmt_rules = [r for r in model if r.lhs_kind == "stmt"]
        self.func_rules = [r for r in model if r.lhs_kind == "func"]
        self.stmt_header = lang.NO_SPAN
        self.anchor = 0
        self.rule_depth = 0
        self.max_rule_depth = 0
        self.depth_limit = 0  # the program's size, found once a rule nests
        self.sites = 0
        entry = program.entry_func()
        self.params = list(entry.params)
        self.first_def = _first_definitions(entry)

    def _site(self, kind, span, header, alternatives) -> ChoiceSite:
        """A new choice site, counted against ``MAX_SITES``."""
        self.sites += 1
        if self.sites > MAX_SITES:
            raise SourceError(f"too many choice sites (more than {MAX_SITES:,})",
                              span.line, span.col)
        return ChoiceSite(kind, span, header, alternatives)

    # -- top level -----------------------------------------------------------

    def run(self):
        functions = []
        for f in self.program.functions:
            if f.name == self.program.entry:
                functions.append(self.rewrite_func(f))
            else:
                functions.append(f)
        return lang.Program(functions, self.program.entry, self.program.source)

    def rewrite_func(self, func: lang.FuncDef):
        body = lang.map_children(func.body, self.rewrite_node)
        self._enter(func)  # the function's own context, not its last statement's
        options = []
        for rule in self.func_rules:
            binding = match_pattern(rule.lhs, func)
            if binding is not None:
                options += _offered(self._variants(rule.rhs.body, binding, rule, func.span), rule)
        body = self._choice("block", func.span, body, options)
        return lang.FuncDef(func.name, func.params, body, func.span)

    # -- statements and expressions -------------------------------------------

    def rewrite_node(self, node):
        """Rewrite a statement or an expression: its default (alternative 0)
        is the node with rewritten children, each aligned rule grafts sites
        onto that default, and every other matching rule adds whole-node
        alternatives."""
        stmt = isinstance(node, lang.Stmt)
        if stmt:
            self._enter(node)
        default = lang.map_children(node, self.rewrite_node)
        options = []
        for rule in self.stmt_rules if stmt else self.expr_rules:
            binding = match_pattern(rule.lhs, node)
            if binding is None:
                continue
            slots = _graft_slots(rule)
            if slots is not None:
                default = self._graft(default, slots, rule, binding)
                continue
            options += _offered(self._variants(rule.rhs, binding, rule, node.span), rule)
        return self._choice("stmt" if stmt else "expr", node.span, default, options)

    def _enter(self, node) -> None:
        """Make `node` (a statement or the function) the one whose header
        new sites name and before which scope sets look for variables."""
        self.stmt_header = _header_span(node, self.program.source)
        self.anchor = node.span.start

    # -- grafting and sites --------------------------------------------------------

    def _graft(self, default, slots, rule, binding):
        """`default` with a choice site at each of the `slots` of `rule`'s
        aligned template; a position that already holds a site (grafted by
        an earlier rule, or made by the child's own rewrite) gains the
        options."""
        for slot, rhs_child in slots:
            current = _get_slot(default, slot)
            if slot != "op":
                kind, span = "expr", current.span
                options = self._variants(rhs_child, binding, rule, span)
            else:
                kind, span = "op", getattr(default, "op_span", lang.NO_SPAN)
                if span.end == 0:
                    span = default.span
                if isinstance(rhs_child, OpSet):
                    options = _other_ops(binding[rhs_child.of])
                elif isinstance(rhs_child, MetaVar):
                    options = [binding[rhs_child.name]]
                else:
                    options = [rhs_child]  # a literal operator
            site = current if isinstance(current, ChoiceSite) else None
            chosen = self._choice(kind, span, current, _offered(options, rule), site)
            if chosen is not current:
                default = _with_slot(default, slot, chosen)
        return default

    def _choice(self, kind, span, default, options, site=None):
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
        return self._site(kind, span, self.stmt_header, alternatives)

    def _variants(self, tpl, binding, rule, anchor) -> list:
        """The payloads a template offers: one per element of a set
        ``{...}`` (or the template itself), where a scope set ``?a`` gives
        one variable per name in scope and an element holding a nested set
        left with no elements gives none."""
        payloads = []
        for elem in tpl.options if isinstance(tpl, (ChoiceSet, StmtChoice)) else [tpl]:
            if isinstance(elem, ScopeSet):
                payloads += [lang.Var(name) for name in self._scope_options(elem, binding)]
                continue
            try:
                payloads.append(self._instantiate(elem, binding, rule, anchor))
            except _NoElements:
                pass
        return payloads

    def _scope_options(self, tpl: ScopeSet, binding) -> list:
        """The names `tpl` offers: the parameters and the variables first
        assigned before the current statement, except the one it is
        anchored to."""
        bound = binding.get(tpl.of)
        exclude = bound.name if isinstance(bound, lang.Var) else None
        names = self.params + [name for name, offset in self.first_def if offset < self.anchor]
        return [name for name in names if name != exclude]

    # -- template instantiation ---------------------------------------------------

    def _instantiate(self, tpl, binding, rule, anchor=lang.NO_SPAN):
        if isinstance(tpl, MetaVar):
            bound = binding[tpl.name]
            return bound  # frozen: shared original fragment
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
        if isinstance(tpl, ChoiceSet):  # nested: its first element is the default
            variants = self._variants(tpl, binding, rule, anchor)
            if not variants:
                raise _NoElements
            if len(variants) == 1:
                return variants[0]
            return self._choice("expr", anchor, variants[0], _offered(variants[1:], rule))
        if isinstance(tpl, ScopeSet):
            bound = binding.get(tpl.of)
            default = bound if bound is not None else lang.Var(tpl.of)
            options = [lang.Var(n) for n in self._scope_options(tpl, binding)]
            return self._choice("expr", anchor, default, _offered(options, rule))
        if isinstance(tpl, OpSet):
            original = binding[tpl.of]
            return self._choice("op", anchor, original, _offered(_other_ops(original), rule))
        if isinstance(tpl, lang.Call) and tpl.func not in BUILTIN_FUNCS:
            if self.program.func(tpl.func) is None:  # as `parse_imp` checks a program's calls
                raise SourceError(f"rule {rule.rule_id} calls {tpl.func}(), which the program"
                                  " does not define", anchor.line, anchor.col)
        if isinstance(tpl, lang.MethodCall) and meta_kind(tpl.obj):
            tpl = lang.with_field(tpl, "obj", binding[tpl.obj].name)
        # a bare s-metavariable binds a statement list, spliced into its block
        return lang.map_children(
            tpl, lambda child: self._instantiate(child, binding, rule, anchor)
        )


class _NoElements(Exception):
    """A set nested in a template was left with no elements."""


# --------------------------------------------------------------------------
# helpers


def _first_definitions(func: lang.FuncDef) -> list:
    defs = []
    for node in lang.walk(func.body):
        if isinstance(node, (lang.Assign, lang.AugAssign)) and isinstance(
            node.target, lang.Var
        ):
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


def _header_span(node, source: str) -> lang.Span:
    """What feedback quotes as the statement around a site in `node`: the
    header of a compound statement up to its condition or iterable, a
    function's ``def`` line up to its colon, any other statement whole."""
    span = node.span
    if isinstance(node, (lang.If, lang.While)):
        end = node.cond.span.end
    elif isinstance(node, lang.ForIn):
        end = node.iterable.span.end
    elif isinstance(node, lang.FuncDef):
        end = source.find(":", span.start) + 1  # no name or parameter holds one
    else:
        return span
    return lang.Span(span.line, span.col, span.start, end)


# the patterns whose aligned templates graft sites onto their children
_ALIGNABLE = (
    lang.Index, lang.Slice, lang.BinOp, lang.Compare, lang.BoolOp, lang.Not, lang.CondExpr,
    lang.Call, lang.ListLit, lang.Assign, lang.AugAssign, lang.MethodCall, lang.Return,
)


def _graft_slots(rule):
    """If `rule`'s template keeps the shape of its pattern ("aligned": the
    same class, among `_ALIGNABLE`, with the same names (a call's function,
    a method call's list and method), lists of the same lengths and the
    same slice ends absent), the child positions where the two differ, each
    with the template's child there: a field name, or (field name, index)
    inside a list field.  Else None.  Found once per rule, and kept on it."""
    if not hasattr(rule, "graft_slots"):
        lhs, rhs = rule.lhs, rule.rhs.inner if isinstance(rule.rhs, Primed) else rule.rhs
        slots = [] if type(rhs) is type(lhs) and isinstance(lhs, _ALIGNABLE) else None
        for name in lhs.fields if slots is not None else ():
            left, right = getattr(lhs, name), getattr(rhs, name)
            if type(left) is list and len(left) == len(right):
                slots += [((name, i), r) for i, (l, r) in enumerate(zip(left, right))
                          if _template_key(r) != _template_key(l)]
            elif (type(left) is list or type(left) is str and name != "op" and left != right
                  or (left is None) != (right is None)):
                slots = None
                break
            elif _template_key(right) != _template_key(left):
                slots.append((name, right))
        rule.graft_slots = slots
    return rule.graft_slots


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


def _other_ops(op: str) -> list:
    family = _COMPARE_FAMILY if op in _COMPARE_FAMILY else _ARITH_FAMILY
    return [o for o in family if o != op]


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


def _template_key(node):
    """Structural key with prime marks dropped at every depth."""
    node = _unprime(node)
    return node.key() if isinstance(node, lang.Node) else node


def _unprime(node):
    if isinstance(node, Primed):
        return _unprime(node.inner)
    return lang.map_children(node, _unprime)
