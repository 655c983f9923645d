"""Applies an error model to a program, producing its weighted program set.

Every AST node of the entry function is visited.  The default traversal
(alternative 0, cost zero) reproduces the node with rewritten children.  Each
rule whose pattern matches contributes weighted alternatives:

* a rule whose template keeps the matched node's shape ("aligned", e.g.
  ``v[a] -> v[{a + 1, a - 1}]``) grafts a choice site at each changed child
  position, defaulting to the original child;
* any other template becomes a whole-node alternative; choice sets flatten
  into sibling alternatives, and sets nested inside a replacement become
  nested sites whose first element is the local default.

Primed subterms are rewritten recursively (their sites cost extra); unprimed
metavariables are frozen copies of what they matched.  Scope sets expand to
the variables assigned before the enclosing statement, parameters included.
"""

from __future__ import annotations

from . import lang
from .eml import (
    TEMPLATE_FORMS,
    ChoiceSet,
    ErrorModel,
    FuncPattern,
    IllFormedModel,
    MetaVar,
    OpSet,
    Primed,
    ScopeSet,
    StmtChoice,
    check_well_formed,
    match_pattern,
)
from .lexer import SourceError
from .tilde import Alternative, ChoiceSite, TildeProgram, number_sites

_COMPARE_FAMILY = ("<", ">", "<=", ">=", "==", "!=")
_ARITH_FAMILY = ("+", "-", "*", "/")

# the most choice sites one rewrite may make (the bundled submissions make at
# most 16); recursive rules can make exponentially many in the nesting depth
MAX_SITES = 10_000


def rewrite(program: lang.Program, model: ErrorModel) -> TildeProgram:
    """Rewrite the entry function of `program` under `model`."""
    violations = check_well_formed(model)
    if violations:
        raise IllFormedModel("; ".join(violations))
    engine = _Engine(program, model)
    root = engine.run()
    tilde = TildeProgram(root, origin=program, model=model)
    tilde.max_rewrite_depth = engine.max_rule_depth
    number_sites(tilde)
    return tilde


class _Engine:
    def __init__(self, program: lang.Program, model: ErrorModel):
        self.program = program
        self.model = model
        self.expr_rules = [r for r in model if r.lhs_kind == "expr"]
        self.stmt_rules = [r for r in model if r.lhs_kind == "stmt"]
        self.func_rules = [r for r in model if r.lhs_kind == "func"]
        self.stmt_header = lang.NO_SPAN
        self.anchor = 0
        self.rule_depth = 0
        self.max_rule_depth = 0
        self.depth_limit = max(lang.size(program), 1)
        self.sites = 0
        entry = program.entry_func()
        self.params = list(entry.params)
        self.first_def = _first_definitions(entry)

    # -- scope ---------------------------------------------------------------

    def scope_names(self) -> list:
        names = list(self.params)
        for name, offset in self.first_def:
            if offset < self.anchor and name not in names:
                names.append(name)
        return names

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
        self.stmt_header = func.span
        self.anchor = func.span.start
        body = self.rewrite_node(func.body)
        alternatives = []
        tilde_func = lang.FuncDef(func.name, func.params, body, func.span)
        for rule in self.func_rules:
            binding = match_pattern(rule.lhs, func)
            if binding is None:
                continue
            rhs = rule.rhs
            if isinstance(rhs, FuncPattern) and self._func_aligned(rhs, rule.lhs):
                payload = self._instantiate(rhs.body, binding, rule, func.span)
                alternatives.append(Alternative(payload, rule.rule_id, rule.weight))
        if alternatives:
            site = self._site(
                "block",
                func.span,
                func.span,
                [Alternative(tilde_func.body)] + alternatives,
            )
            tilde_func.body = site
        return tilde_func

    def _func_aligned(self, rhs: FuncPattern, lhs: FuncPattern) -> bool:
        return rhs.name == lhs.name and [p.name for p in rhs.params] == [
            p.name for p in lhs.params
        ]

    # -- statements ------------------------------------------------------------

    def rewrite_node(self, node):
        """Rewrite a statement, an expression or a statement list."""
        if isinstance(node, list):
            return [self.rewrite_stmt(s) for s in node]
        if isinstance(node, lang.Stmt):
            return self.rewrite_stmt(node)
        return self.rewrite_expr(node)

    def _default(self, node):
        """Alternative 0 of `node`'s site: the node with rewritten children."""
        return lang.map_children(node, self.rewrite_node)

    def rewrite_stmt(self, stmt: lang.Stmt):
        self.stmt_header = _header_span(stmt)
        self.anchor = stmt.span.start
        default = self._default(stmt)
        alternatives = []
        for rule in self.stmt_rules:
            binding = match_pattern(rule.lhs, stmt)
            if binding is None:
                continue
            rhs = rule.rhs
            if not isinstance(rhs, (ChoiceSet, StmtChoice)) and self._aligned(
                rhs, rule.lhs
            ):
                default = self._graft(default, rhs, rule.lhs, binding, rule)
                continue
            elements = rhs.options if isinstance(rhs, (ChoiceSet, StmtChoice)) else [rhs]
            for elem in elements:
                for payload in self._element_variants(elem, binding, rule, stmt.span):
                    alternatives.append(Alternative(payload, rule.rule_id, rule.weight))
            # restore statement context clobbered by nested rewrites
            self.stmt_header = _header_span(stmt)
            self.anchor = stmt.span.start
        if alternatives:
            return self._site(
                "stmt",
                stmt.span,
                self.stmt_header,
                [Alternative(default)] + alternatives,
            )
        return default

    # -- expressions ------------------------------------------------------------

    def rewrite_expr(self, node: lang.Expr):
        default = self._default(node)
        alternatives = []
        for rule in self.expr_rules:
            binding = match_pattern(rule.lhs, node)
            if binding is None:
                continue
            rhs = rule.rhs
            if not isinstance(rhs, ChoiceSet) and self._aligned(rhs, rule.lhs):
                default = self._graft(default, rhs, rule.lhs, binding, rule)
                continue
            elements = rhs.options if isinstance(rhs, ChoiceSet) else [rhs]
            for elem in elements:
                for payload in self._element_variants(elem, binding, rule, node.span):
                    alternatives.append(Alternative(payload, rule.rule_id, rule.weight))
        if alternatives:
            return self._site(
                "expr",
                node.span,
                self.stmt_header,
                [Alternative(default)] + alternatives,
            )
        return default

    # -- alignment and grafting --------------------------------------------------

    def _aligned(self, rhs, lhs) -> bool:
        rhs = _strip_prime(rhs)
        if isinstance(lhs, (MetaVar, Primed)):
            return False
        if type(rhs) is not type(lhs):
            return False
        if isinstance(lhs, lang.Call):
            return rhs.func == lhs.func and len(rhs.args) == len(lhs.args)
        if isinstance(lhs, lang.MethodCall):
            return rhs.obj == lhs.obj and rhs.method == lhs.method and len(
                rhs.args
            ) == len(lhs.args)
        if isinstance(lhs, lang.ListLit):
            return len(rhs.elements) == len(lhs.elements)
        if isinstance(lhs, lang.Slice):
            return (rhs.lo is None) == (lhs.lo is None) and (rhs.hi is None) == (
                lhs.hi is None
            )
        return isinstance(
            lhs,
            (
                lang.Index,
                lang.BinOp,
                lang.Compare,
                lang.BoolOp,
                lang.Not,
                lang.CondExpr,
                lang.Assign,
                lang.AugAssign,
                lang.Return,
            ),
        )

    def _graft(self, default, rhs, lhs, binding, rule):
        """`default` with a choice site at each child position where the
        aligned template differs from the pattern."""
        rhs = _strip_prime(rhs)
        for slot, lhs_child, rhs_child in _child_slots(lhs, rhs):
            if _template_key(rhs_child) == _template_key(lhs_child):
                continue
            if slot == "op":
                options = self._op_options(rhs_child, binding, rule)
                default = self._graft_site(default, slot, options, rule, kind="op")
            else:
                current = _get_slot(default, slot)
                anchor = getattr(current, "span", None) or default.span
                options = self._position_options(rhs_child, binding, rule, anchor)
                default = self._graft_site(default, slot, options, rule, kind="expr")
        return default

    def _graft_site(self, default, slot, options, rule, kind):
        if not options:
            return default  # e.g. a scope set with nothing in scope
        current = _get_slot(default, slot)
        if isinstance(current, ChoiceSite):
            current.alternatives.extend(
                Alternative(p, rule.rule_id, rule.weight) for p in options
            )
            return default
        if kind == "op":
            span = getattr(default, "op_span", lang.NO_SPAN)
            if span is lang.NO_SPAN or span.end == 0:
                span = default.span
        else:
            span = getattr(current, "span", None) or default.span
        site = self._site(
            kind,
            span,
            self.stmt_header,
            [Alternative(current)]
            + [Alternative(p, rule.rule_id, rule.weight) for p in options],
        )
        return _with_slot(default, slot, site)

    def _op_options(self, tpl, binding, rule) -> list:
        if isinstance(tpl, OpSet):
            return _other_ops(binding[tpl.of])
        if isinstance(tpl, MetaVar):
            return [binding[tpl.name]]
        return [tpl]  # literal operator

    def _position_options(self, tpl, binding, rule, anchor) -> list:
        """Alternatives for one grafted child position."""
        if isinstance(tpl, ChoiceSet):
            options = []
            for o in tpl.options:
                options.extend(self._element_variants(o, binding, rule, anchor))
            return options
        return self._element_variants(tpl, binding, rule, anchor)

    def _element_variants(self, tpl, binding, rule, anchor) -> list:
        """A set element (or whole replacement) as concrete payloads; scope
        sets at element level expand one payload per variable in scope."""
        if isinstance(tpl, ScopeSet):
            return [lang.Var(name) for name in self._scope_options(tpl, binding)]
        return [self._instantiate(tpl, binding, rule, anchor)]

    def _scope_options(self, tpl: ScopeSet, binding) -> list:
        bound = binding.get(tpl.of)
        exclude = bound.name if isinstance(bound, lang.Var) else None
        return [name for name in self.scope_names() if name != exclude]

    # -- template instantiation ---------------------------------------------------

    def _instantiate(self, tpl, binding, rule, anchor=lang.NO_SPAN):
        if isinstance(tpl, MetaVar):
            bound = binding[tpl.name]
            return bound  # frozen: shared original fragment
        if isinstance(tpl, Primed):
            return self._rewrite_primed(tpl.inner, binding)
        if isinstance(tpl, ChoiceSet):
            variants = []
            for o in tpl.options:
                variants.extend(self._element_variants(o, binding, rule, anchor))
            default = variants[0]
            rest = variants[1:]
            return self._site(
                "expr",
                anchor,
                self.stmt_header,
                [Alternative(default)]
                + [Alternative(v, rule.rule_id, rule.weight) for v in rest],
            )
        if isinstance(tpl, ScopeSet):
            bound = binding.get(tpl.of)
            options = [lang.Var(n) for n in self._scope_options(tpl, binding)]
            default = bound if bound is not None else lang.Var(tpl.of)
            if not options:
                return default
            return self._site(
                "expr",
                anchor,
                self.stmt_header,
                [Alternative(default)]
                + [Alternative(v, rule.rule_id, rule.weight) for v in options],
            )
        if isinstance(tpl, OpSet):
            original = binding[tpl.of]
            return self._site(
                "op",
                anchor,
                self.stmt_header,
                [Alternative(original)]
                + [Alternative(o, rule.rule_id, rule.weight) for o in _other_ops(original)],
            )
        # a bare s-metavariable binds a statement list, spliced into its block
        return lang.map_children(
            tpl, lambda child: self._instantiate(child, binding, rule, anchor)
        )

    def _rewrite_primed(self, inner, binding):
        if isinstance(inner, MetaVar):
            target = binding[inner.name]
        else:
            target = _concretize(inner, binding)
        self.rule_depth += 1
        self.max_rule_depth = max(self.max_rule_depth, self.rule_depth)
        if self.rule_depth > self.depth_limit:
            raise IllFormedModel("rewrite recursion exceeded the termination bound")
        try:
            return self.rewrite_node(target)
        finally:
            self.rule_depth -= 1


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


def _header_span(stmt: lang.Stmt) -> lang.Span:
    if isinstance(stmt, (lang.If, lang.While)):
        return lang.Span(
            stmt.span.line, stmt.span.col, stmt.span.start, stmt.cond.span.end
        )
    if isinstance(stmt, lang.ForIn):
        return lang.Span(
            stmt.span.line, stmt.span.col, stmt.span.start, stmt.iterable.span.end
        )
    return stmt.span


def _strip_prime(node):
    return node.inner if isinstance(node, Primed) else node


def _other_ops(op: str) -> list:
    family = _COMPARE_FAMILY if op in _COMPARE_FAMILY else _ARITH_FAMILY
    return [o for o in family if o != op]


def _child_slots(lhs, rhs):
    """Paired child positions of an aligned pattern/template: a field name,
    or (field name, index) inside a list field."""
    for name in lhs.fields:
        left, right = getattr(lhs, name), getattr(rhs, name)
        if isinstance(left, list):
            for i, pair in enumerate(zip(left, right)):
                yield ((name, i),) + pair
        else:
            yield name, left, right


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


def _concretize(tpl, binding):
    """Instantiate a primed group as a plain fragment (no template forms)."""
    if isinstance(tpl, MetaVar):
        return binding[tpl.name]
    if isinstance(tpl, TEMPLATE_FORMS):
        raise IllFormedModel("nested template forms inside a primed group")
    return lang.map_children(tpl, lambda child: _concretize(child, binding))
