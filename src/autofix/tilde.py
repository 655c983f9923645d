"""Weighted program sets: a program plus choice sites.

A choice site holds a zero-weight default (the original code), which gives
the site its kind, and weighted alternatives contributed by correction
rules.  A `TildeProgram` numbers its sites in pre-order when it is built,
each with a link to the alternative that encloses it.  A candidate is a
pick tuple, one alternative index per site, and nothing else:
`enumerate_candidates` yields each with its cost, the summed weight of its
active picks, walking only the costs that candidates reach; `active_picks`
finds those picks (a site is active only when every enclosing alternative
is itself selected); and `instantiate` builds its program.
"""

from __future__ import annotations

import math

from . import lang
from .lang import Span
from .printer import Printer


class BadIndex(Exception):
    pass


class Alternative:
    def __init__(self, payload, rule_id: str | None = None, weight: int = 0):
        self.payload = payload  # tilde expr / op string / tilde stmt / list of tilde stmts
        self.rule_id = rule_id  # None marks the default
        self.weight = weight


class ChoiceSite:
    def __init__(self, span: Span, stmt, alternatives: list):
        self.span = span
        self.stmt = stmt  # the statement, or the function, the site sits in
        self.alternatives = alternatives
        self.site_id = -1  # set by the TildeProgram that holds the site
        self.parent = None  # (site_id, alt_index) enclosing alternative

    @property
    def kind(self) -> str:
        """Its default's kind: ``op``, ``block`` (a list), ``stmt`` or ``expr``."""
        default = self.alternatives[0].payload
        return ("op" if isinstance(default, str) else "block" if isinstance(default, list)
                else "stmt" if isinstance(default, lang.Stmt) else "expr")


class TildeProgram:
    def __init__(self, root, origin: lang.Program | None = None, model=None):
        self.root = root  # Program-shaped tree containing ChoiceSite nodes
        self.origin = origin
        self.model = model  # the rules (`parse_eml`'s list) the sites came from
        self.max_rewrite_depth = 0
        self.sites = []  # in pre-order, so an enclosing site comes first

        def walk(node, parent):
            if type(node) is ChoiceSite:
                node.site_id, node.parent = len(self.sites), parent
                self.sites.append(node)
                for idx, alt in enumerate(node.alternatives):
                    walk(alt.payload, (node.site_id, idx))
            else:
                for child in lang.children(node):
                    walk(child, parent)

        walk(root, None)

    def defaults(self) -> tuple:
        """The pick tuple of the unchanged program."""
        return (0,) * len(self.sites)

    def resolve(self, node, picks: tuple):
        """`node` (a fragment of this tree, a list of them or an operator)
        with every choice site replaced by its alternative in `picks`.  A
        site picked as a list of statements is spliced into its block, and
        subtrees without sites are shared; sites inside unpicked
        alternatives are never visited."""

        def visit(node):
            if type(node) is not ChoiceSite:
                return lang.map_children(node, visit)
            idx = picks[node.site_id]
            if not 0 <= idx < len(node.alternatives):
                raise BadIndex(f"site {node.site_id}: alternative {idx}")
            return visit(node.alternatives[idx].payload)

        return visit(node)


def instantiate(tilde: TildeProgram, picks: tuple) -> lang.Program:
    """The program of the candidate `picks`: every site resolved to its
    alternative; picks at inactive sites contribute no code."""
    return tilde.resolve(tilde.root, picks)


def active_picks(tilde: TildeProgram, picks: tuple) -> list:
    """The (site, index) of each non-default pick of `picks` at an active
    site, in site order."""
    live, active = [], []  # whether each site is active; its active picks
    for site, index in zip(tilde.sites, picks):  # an enclosing site comes first
        parent = site.parent
        live.append(parent is None or live[parent[0]] and picks[parent[0]] == parent[1])
        if index and live[-1]:
            active.append((site, index))
    return active


# --------------------------------------------------------------------------
# enumeration


def enumerate_candidates(tilde: TildeProgram, max_cost=None, learn=None):
    """Yield (picks, cost) for every canonical candidate with cost up to
    `max_cost` (any cost if None), in non-decreasing cost order; within one
    cost the sorted sequences of active (site_id, alternative index) picks
    are emitted in lexicographic order.  `picks` holds one alternative index
    per site, and inactive sites stay pinned at the default 0, so a
    candidate's picks and its active picks (the non-zero ones) determine
    each other and each active-selection pattern appears exactly once.

    Only the costs that candidates reach are walked.  The walk of a cost
    level returns the least cost above it that a candidate one pick beyond
    the walk reaches: a prefix of the level extended by a pick too dear
    for it, or a candidate of the level extended by a later pick.  That
    cost is the next level, and with none enumeration ends.

    `learn`, if given, is called as each cost level above 0 starts, and
    returns the facts learned since its last call: pairs (picks, sites) of
    a candidate with at most one non-default pick that failed on some
    input, and the bitmask of the sites whose picks that failing run read.
    A candidate with the same picks on those sites runs the same way on
    that input, so it fails too, and it is not yielded.  For the unchanged
    program (or a pick its run never read), that is every candidate that
    picks no site of the mask.  For the pick (k, a), it is every candidate
    that picks (k, a) and no other site of the mask, so after choosing
    (k, a) with no earlier pick in the mask a later site of it must be
    picked, and with none later the subtree is skipped.  The facts are
    checked as masks at each pick, so a skipped subtree is never walked,
    and every other candidate keeps its place in the order."""
    max_cost = math.inf if max_cost is None else max_cost
    sites = tilde.sites
    n = len(sites)
    picks = [0] * n
    parents = [site.parent for site in sites]  # (site_id, alt_index) or None
    options = [[(idx, alt.weight) for idx, alt in enumerate(site.alternatives) if idx]
               for site in sites]  # each site's non-default (index, weight)
    lightest = min((weight for opts in options for _, weight in opts), default=1)
    needs = []  # masks of sites of which every candidate must pick one
    after = {}  # (site_id, index) -> [(mask, its sites after site_id)] of a pick's facts

    def is_active(i) -> bool:
        parent = parents[i]
        while parent is not None:
            pid, pidx = parent
            if picks[pid] != pidx:
                return False
            parent = parents[pid]
        return True

    def rec(start, remaining, picked, needs, over):
        # extend the current pick set, the sites in mask `picked`, with
        # sites >= start, ascending, to spend exactly `remaining` more and
        # pick a site of every mask in `needs`; return the least of `over`
        # and the amounts by which the candidates one pick beyond overspend
        stop = n
        for need in needs:  # no pick past a need's last site can meet it
            if need.bit_length() < stop:
                stop = need.bit_length()
        for i in range(start, stop):
            if parents[i] is not None and not is_active(i):
                continue
            bit = 1 << i
            rest = [need for need in needs if not need & bit] if needs else needs
            for idx, weight in options[i]:
                if weight > remaining:
                    if weight - remaining < over:
                        over = weight - remaining
                    continue
                left = rest
                facts = after.get((i, idx))
                if facts:
                    left = [later for mask, later in facts if not picked & mask]
                    if not all(left):
                        continue  # a fact of this pick with no site after it
                    left += rest
                picks[i] = idx
                if weight < remaining:
                    over = yield from rec(i + 1, remaining - weight, picked | bit, left, over)
                else:
                    if not left:
                        yield tuple(picks), level
                    if over > lightest:  # a later pick may overspend by less
                        over = yield from rec(i + 1, 0, picked | bit, left, over)
                picks[i] = 0
        return over

    if max_cost >= 0:
        yield tuple(picks), 0
    level = 0
    over = yield from rec(0, 0, 0, needs, math.inf)  # the cheapest pick
    while over < math.inf and level + over <= max_cost:
        level += over
        for failed, mask in learn() if learn else ():
            k = next((k for k, idx in enumerate(failed) if idx), None)
            if k is None or not mask >> k & 1:
                needs.append(mask)
            else:
                after.setdefault((k, failed[k]), []).append((mask, mask >> (k + 1) << (k + 1)))
        over = yield from rec(0, level, 0, needs, math.inf)


# --------------------------------------------------------------------------
# debug dump


class _Dump(Printer):
    """The dump's printer: every compound expression parenthesised, and a
    choice site printed inline as ``{default | alt @rule}``, except that in
    the tree (`placeholders`) a site standing for a statement, a block or an
    augmented operator prints as ``<site N>``."""

    full = True

    def __init__(self, placeholders: bool):
        self.placeholders = placeholders

    def site(self, node, inline: bool) -> str:
        if self.placeholders and not inline:
            return f"<site {node.site_id}>"
        return _alternatives(node, weights=False)


_INLINE = _Dump(placeholders=False)


def _alternatives(site: ChoiceSite, weights: bool) -> str:
    """``{default | alt @rule | ...}``, each rule with its weight if `weights`."""
    texts = [_INLINE.fragment(site.alternatives[0].payload)]
    for alt in site.alternatives[1:]:
        tag = f"{alt.rule_id}:{alt.weight}" if weights else alt.rule_id
        texts.append(f"{_INLINE.fragment(alt.payload)} @{tag}")
    return "{" + " | ".join(texts) + "}"


def dump(tilde: TildeProgram) -> str:
    """Stable text rendering of the choice structure: the tree, then one
    ``site N (line L): {default | alt @rule:weight}`` line per site."""
    tree = _Dump(placeholders=True)
    lines = [tree.func(f) for f in tilde.root.functions] + [""]
    for site in tilde.sites:
        lines.append(f"site {site.site_id} (line {site.span.line}): " + _alternatives(site, True))
    return "\n".join(lines) + "\n"
