"""Independent expansion of a weighted program set.

This walks the rewritten tree directly, unioning site alternatives (default
at weight zero, the rest at their weights) and cross-multiplying child sets
while summing costs.  It shares no code with the canonical enumerator, so the
two can check each other.  `visited_picks` likewise finds a pick tuple's
active picks by walking the tree, apart from `tilde.active_picks`.
"""

import itertools

from autofix import lang
from autofix.printer import pretty_program
from autofix.tilde import ChoiceSite


def _cross(parts):
    """parts: list of [(value, cost)] -> [(values tuple, cost sum)]."""
    out = [((), 0)]
    for part in parts:
        out = [(vs + (v,), c + cv) for vs, c in out for v, cv in part]
    return out


def expand_expr(node):
    if isinstance(node, ChoiceSite):
        out = []
        for alt in node.alternatives:
            for value, cost in expand_expr(alt.payload):
                out.append((value, cost + alt.weight))
        return out
    if isinstance(node, str):  # operator payloads
        return [(node, 0)]
    cls = type(node)
    if cls in (lang.IntLit, lang.BoolLit, lang.Var):
        return [(node, 0)]
    if cls is lang.ListLit:
        return [
            (lang.ListLit(list(vs)), c) for vs, c in _cross([expand_expr(e) for e in node.elements])
        ]
    if cls is lang.Index:
        return [
            (lang.Index(b, i), c)
            for (b, i), c in _cross([expand_expr(node.base), expand_expr(node.index)])
        ]
    if cls is lang.Slice:
        parts = [expand_expr(node.base)]
        parts.append(expand_expr(node.lo) if node.lo is not None else [(None, 0)])
        parts.append(expand_expr(node.hi) if node.hi is not None else [(None, 0)])
        return [(lang.Slice(b, lo, hi), c) for (b, lo, hi), c in _cross(parts)]
    if cls in (lang.BinOp, lang.Compare):
        parts = [expand_expr(node.left), expand_expr(node.op), expand_expr(node.right)]
        return [(cls(l, op, r), c) for (l, op, r), c in _cross(parts)]
    if cls is lang.BoolOp:
        parts = [expand_expr(node.left), expand_expr(node.right)]
        return [(lang.BoolOp(l, node.op, r), c) for (l, r), c in _cross(parts)]
    if cls is lang.Not:
        return [(lang.Not(v), c) for v, c in expand_expr(node.operand)]
    if cls is lang.Call:
        return [
            (lang.Call(node.func, list(vs)), c)
            for vs, c in _cross([expand_expr(a) for a in node.args])
        ]
    if cls is lang.CondExpr:
        parts = [expand_expr(node.body), expand_expr(node.cond), expand_expr(node.orelse)]
        return [(lang.CondExpr(b, k, o), c) for (b, k, o), c in _cross(parts)]
    raise TypeError(node)


def expand_stmt(node):
    """-> [(list-of-statements, cost)]; a statement may expand to a block."""
    if isinstance(node, ChoiceSite):
        out = []
        for alt in node.alternatives:
            payload = alt.payload
            if isinstance(payload, list):
                expanded = expand_block(payload)
            else:
                expanded = expand_stmt(payload)
            for stmts, cost in expanded:
                out.append((stmts, cost + alt.weight))
        return out
    cls = type(node)
    if cls is lang.Assign:
        parts = [expand_expr(node.target), expand_expr(node.value)]
        return [([lang.Assign(t, v)], c) for (t, v), c in _cross(parts)]
    if cls is lang.AugAssign:
        parts = [expand_expr(node.target), expand_expr(node.op), expand_expr(node.value)]
        return [([lang.AugAssign(t, op, v)], c) for (t, op, v), c in _cross(parts)]
    if cls is lang.MethodCall:
        parts = [expand_expr(a) for a in node.args]
        return [
            ([lang.MethodCall(node.obj, node.method, list(vs))], c)
            for vs, c in _cross(parts)
        ]
    if cls is lang.Return:
        return [([lang.Return(v)], c) for v, c in expand_expr(node.value)]
    if cls is lang.Pass:
        return [([node], 0)]
    if cls is lang.If:
        parts = [expand_expr(node.cond), expand_block(node.then_body), expand_block(node.else_body)]
        return [([lang.If(k, t, e)], c) for (k, t, e), c in _cross(parts)]
    if cls is lang.While:
        parts = [expand_expr(node.cond), expand_block(node.body)]
        return [([lang.While(k, b)], c) for (k, b), c in _cross(parts)]
    if cls is lang.ForIn:
        parts = [expand_expr(node.iterable), expand_block(node.body)]
        return [([lang.ForIn(node.var, it, b)], c) for (it, b), c in _cross(parts)]
    raise TypeError(node)


def expand_block(body):
    if isinstance(body, ChoiceSite):
        out = []
        for alt in body.alternatives:
            for stmts, cost in expand_block(alt.payload):
                out.append((stmts, cost + alt.weight))
        return out
    out = [([], 0)]
    for stmt in body:
        expanded = expand_stmt(stmt)
        out = [(sofar + stmts, c + cv) for sofar, c in out for stmts, cv in expanded]
    return out


def expand_program(tilde):
    """Weighted multiset of (program text, cost) the rewritten tree denotes."""
    root = tilde.root
    out = [([], 0)]
    for f in root.functions:
        expanded = [
            (lang.FuncDef(f.name, f.params, stmts), c)
            for stmts, c in expand_block(f.body)
        ]
        out = [(fs + [fd], c + cv) for fs, c in out for fd, cv in expanded]
    return [
        (pretty_program(lang.Program(fs, root.entry)), c) for fs, c in out
    ]


def visited_picks(tilde, picks) -> list:
    """The (site_id, index) of each non-default pick that resolving `picks`
    visits, sorted: the tree is walked from its root into the picked
    alternative of each site reached, without the sites' parent links."""
    found = []

    def walk(node):
        if isinstance(node, ChoiceSite):
            index = picks[node.site_id]
            if index:
                found.append((node.site_id, index))
            walk(node.alternatives[index].payload)
        else:
            for child in lang.children(node):
                walk(child)

    walk(tilde.root)
    return sorted(found)
