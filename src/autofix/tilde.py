"""Weighted program sets: a program plus choice sites.

A choice site holds a zero-weight default (the original code) and weighted
alternatives contributed by correction rules.  A candidate is a pick tuple,
one alternative index per site; instantiating it yields a concrete program
whose cost is the summed weight of every *active* non-default pick (a site
is active only when every enclosing alternative is itself selected).
"""

from __future__ import annotations

from . import lang
from .lang import Span
from .printer import pretty_expr, pretty_stmt


class BadIndex(Exception):
    pass


class Alternative:
    def __init__(self, payload, rule_id: str | None = None, weight: int = 0):
        self.payload = payload  # tilde expr / op string / tilde stmt / list of tilde stmts
        self.rule_id = rule_id  # None marks the default
        self.weight = weight


class ChoiceSite:
    def __init__(self, kind: str, span: Span, stmt_span: Span, alternatives: list,
                 site_id: int = -1, parent: tuple | None = None):
        self.kind = kind  # expr | op | stmt | block
        self.span = span
        self.stmt_span = stmt_span
        self.alternatives = alternatives
        self.site_id = site_id
        self.parent = parent  # (site_id, alt_index) enclosing alternative

    def arity(self) -> int:
        return len(self.alternatives)


class TildeProgram:
    def __init__(self, root, sites: list | None = None, origin: lang.Program | None = None,
                 model=None, max_rewrite_depth: int = 0):
        self.root = root  # Program-shaped tree containing ChoiceSite nodes
        self.sites = [] if sites is None else sites
        self.origin = origin
        self.model = model  # the ErrorModel the sites came from
        self.max_rewrite_depth = max_rewrite_depth

    def site(self, site_id: int) -> ChoiceSite:
        return self.sites[site_id]

    def defaults(self) -> tuple:
        """The pick tuple of the unchanged program."""
        return (0,) * len(self.sites)

    def resolve(self, node, picks: tuple, picked=None):
        """`node` (a fragment of this tree, a list of them or an operator)
        with every choice site replaced by its alternative in `picks`.  A
        site picked as a list of statements is spliced into its block, and
        subtrees without sites are shared.  Each non-default pick on the way
        is appended to `picked` as (site, index); sites inside unpicked
        alternatives are never visited."""

        def visit(node):
            if type(node) is not ChoiceSite:
                return lang.map_children(node, visit)
            idx = picks[node.site_id]
            if not 0 <= idx < len(node.alternatives):
                raise BadIndex(f"site {node.site_id}: alternative {idx}")
            if idx and picked is not None:
                picked.append((node, idx))
            return visit(node.alternatives[idx].payload)

        return visit(node)


class WeightedCandidate:
    def __init__(self, program: lang.Program, cost: int, active: frozenset):
        self.program = program
        self.cost = cost
        self.active = active  # canonical (site_id, alt_index) non-default picks


def number_sites(tilde: TildeProgram) -> None:
    """Assign dense pre-order site ids and parent links."""
    sites = []

    def walk(node, parent):
        if isinstance(node, ChoiceSite):
            node.site_id = len(sites)
            node.parent = parent
            sites.append(node)
            for idx, alt in enumerate(node.alternatives):
                walk(alt.payload, (node.site_id, idx))
            return
        for child in lang.children(node):
            walk(child, parent)

    walk(tilde.root, None)
    tilde.sites = sites


# --------------------------------------------------------------------------
# instantiation


def instantiate(tilde: TildeProgram, picks: tuple) -> WeightedCandidate:
    """Resolve every site to its alternative in `picks`; picks at inactive
    sites contribute neither code nor cost."""
    picked = []
    program = tilde.resolve(tilde.root, picks, picked)
    cost = sum(site.alternatives[idx].weight for site, idx in picked)
    active = frozenset((site.site_id, idx) for site, idx in picked)
    return WeightedCandidate(program, cost, active)


# --------------------------------------------------------------------------
# enumeration


def max_cost_bound(tilde: TildeProgram) -> int:
    return sum(
        max(alt.weight for alt in site.alternatives) for site in tilde.sites
    )


def enumerate_candidates(tilde: TildeProgram, max_cost=None):
    """Yield (picks, cost) for every canonical candidate with cost up to
    `max_cost`, in non-decreasing cost order; within one cost the sorted
    sequences of active (site_id, alternative index) picks are emitted in
    lexicographic order.  `picks` holds one alternative index per site, and
    inactive sites stay pinned at the default 0, so a candidate's picks and
    its active picks (the non-zero ones) determine each other and each
    active-selection pattern appears exactly once."""
    if max_cost is None:
        max_cost = max_cost_bound(tilde)
    sites = tilde.sites
    n = len(sites)
    picks = [0] * n

    def is_active(site) -> bool:
        parent = site.parent
        while parent is not None:
            pid, pidx = parent
            if picks[pid] != pidx:
                return False
            parent = sites[pid].parent
        return True

    def rec(start, remaining):
        # extend the current pick set with sites >= start, ascending
        if remaining == 0:
            yield tuple(picks)
            return
        for i in range(start, n):
            site = sites[i]
            if not is_active(site):
                continue
            for idx, alt in enumerate(site.alternatives):
                if idx == 0 or alt.weight > remaining:
                    continue
                picks[i] = idx
                yield from rec(i + 1, remaining - alt.weight)
                picks[i] = 0

    for target in range(max_cost + 1):
        for candidate in rec(0, target):
            yield candidate, target


# --------------------------------------------------------------------------
# debug dump


def dump(tilde: TildeProgram) -> str:
    """Stable text rendering of the choice structure."""
    lines = []
    for f in tilde.root.functions:
        lines.append(f"def {f.name}({', '.join(f.params)}):")
        _dump_block(f.body, 1, lines)
    lines.append("")
    for site in tilde.sites:
        alts = []
        for idx, alt in enumerate(site.alternatives):
            if idx == 0:
                alts.append(_dump_payload(alt.payload))
            else:
                alts.append(f"{_dump_payload(alt.payload)} @{alt.rule_id}:{alt.weight}")
        lines.append(f"site {site.site_id} (line {site.span.line}): {{" + " | ".join(alts) + "}")
    return "\n".join(lines) + "\n"


def _dump_block(stmts, indent, lines):
    if isinstance(stmts, ChoiceSite):
        lines.append("    " * indent + f"<site {stmts.site_id}>")
        return
    for s in stmts:
        _dump_stmt(s, indent, lines)


def _dump_stmt(node, indent, lines):
    pad = "    " * indent
    if isinstance(node, ChoiceSite):
        lines.append(pad + f"<site {node.site_id}>")
        return
    cls = type(node)
    if cls is lang.If:
        lines.append(pad + f"if {_dump_payload(node.cond)}:")
        _dump_block(node.then_body, indent + 1, lines)
        if node.else_body:
            lines.append(pad + "else:")
            _dump_block(node.else_body, indent + 1, lines)
    elif cls is lang.While:
        lines.append(pad + f"while {_dump_payload(node.cond)}:")
        _dump_block(node.body, indent + 1, lines)
    elif cls is lang.ForIn:
        lines.append(pad + f"for {node.var} in {_dump_payload(node.iterable)}:")
        _dump_block(node.body, indent + 1, lines)
    elif cls is lang.Assign:
        lines.append(pad + f"{_dump_payload(node.target)} = {_dump_payload(node.value)}")
    elif cls is lang.AugAssign:
        op = node.op if isinstance(node.op, str) else f"<site {node.op.site_id}>"
        lines.append(pad + f"{_dump_payload(node.target)} {op}= {_dump_payload(node.value)}")
    elif cls is lang.MethodCall:
        args = ", ".join(_dump_payload(a) for a in node.args)
        lines.append(pad + f"{node.obj}.{node.method}({args})")
    elif cls is lang.Return:
        lines.append(pad + f"return {_dump_payload(node.value)}")
    else:
        lines.append(pad + "pass")


def _dump_payload(node) -> str:
    if isinstance(node, ChoiceSite):
        inner = " | ".join(
            _dump_payload(alt.payload)
            + ("" if idx == 0 else f" @{alt.rule_id}")
            for idx, alt in enumerate(node.alternatives)
        )
        return "{" + inner + "}"
    if isinstance(node, str):
        return node
    if isinstance(node, list):
        return "; ".join(_dump_payload(s) for s in node)
    if isinstance(node, lang.Stmt):
        return "; ".join(pretty_stmt(node))  # single-line best effort
    if isinstance(node, lang.Expr):
        return _dump_expr(node)
    return repr(node)


def _dump_expr(node) -> str:
    if isinstance(node, ChoiceSite):
        return _dump_payload(node)
    cls = type(node)
    if cls is lang.Index:
        return f"{_dump_expr(node.base)}[{_dump_expr(node.index)}]"
    if cls is lang.Slice:
        lo = _dump_expr(node.lo) if node.lo is not None else ""
        hi = _dump_expr(node.hi) if node.hi is not None else ""
        return f"{_dump_expr(node.base)}[{lo}:{hi}]"
    if cls is lang.BinOp or cls is lang.Compare or cls is lang.BoolOp:
        op = node.op if isinstance(node.op, str) else _dump_payload(node.op)
        return f"({_dump_expr(node.left)} {op} {_dump_expr(node.right)})"
    if cls is lang.Not:
        return f"(not {_dump_expr(node.operand)})"
    if cls is lang.Call:
        return f"{node.func}({', '.join(_dump_expr(a) for a in node.args)})"
    if cls is lang.ListLit:
        return "[" + ", ".join(_dump_expr(e) for e in node.elements) + "]"
    if cls is lang.CondExpr:
        return f"({_dump_expr(node.body)} if {_dump_expr(node.cond)} else {_dump_expr(node.orelse)})"
    try:
        return pretty_expr(node)
    except TypeError:
        return repr(node)
