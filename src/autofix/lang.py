"""AST for the mini imperative source language.

Programs are a list of function definitions over a dynamically typed value
domain (fixed-width ints, bools, lists, tuples).  Every node carries a source
span so downstream tooling can anchor diagnostics to the original text.
"""

from __future__ import annotations

import dataclasses
import functools
import operator
from dataclasses import dataclass

ARITH_OPS = ("+", "-", "*", "/", "**")
COMPARE_OPS = ("==", "!=", "<", ">", "<=", ">=")
BOOL_OPS = ("and", "or")
AUG_OPS = ("+=", "-=", "*=", "/=")


@dataclass(frozen=True)
class Span:
    line: int = 0  # 1-based
    col: int = 0  # 1-based
    start: int = 0  # offset into the source text
    end: int = 0

    def text(self, source: str) -> str:
        return source[self.start : self.end]


NO_SPAN = Span()


class Node:
    """Base class of every syntax-tree node.

    ``fields`` names a class's structural fields in declaration order.  The
    fields it leaves out (``span``, ``op_span`` and a program's ``source``)
    only locate the node in its text.  Every generic traversal below reads
    ``fields``, so a field added to a class without it is missed by all of
    them (the tests compare ``fields`` with the dataclass fields)."""

    span: Span
    fields: tuple = ()

    def key(self):
        """Span-insensitive structural identity (used for equality tests and
        nonlinear pattern matching)."""
        return (type(self).__name__,) + tuple(_key(getattr(self, f)) for f in self.fields)


def _key(value):
    if isinstance(value, Node):
        return value.key()
    if isinstance(value, list):
        return tuple(map(_key, value))
    return value


# names, operators, literal values and absent slice ends: never children
_LEAF_TYPES = frozenset((str, int, bool, type(None)))


def children(node) -> list:
    """The nodes directly below `node` in field order, list fields giving
    their elements; for a list, its elements.  A node in an operator
    position is a child (a choice site, or a metavariable in a template)."""
    if type(node) is list:
        return [item for item in node if type(item) not in _LEAF_TYPES]
    out = []
    for name in getattr(node, "fields", ()):
        value = getattr(node, name)
        if type(value) is list:
            out += [item for item in value if type(item) not in _LEAF_TYPES]
        elif type(value) not in _LEAF_TYPES:
            out.append(value)
    return out


def map_children(node, fn):
    """`node` with `fn` applied to each of its `children`.  Where a child
    sits in a list, a list that `fn` returns is spliced in its place.  When
    `fn` changes no child, `node` itself comes back; otherwise a copy made by
    the class's constructor, spans kept (a new list for a list).  Trees share
    unchanged subtrees this way, so no pass may mutate a node once built."""
    cls = type(node)
    if cls is list:
        return _map_list(node, fn)
    fields = getattr(cls, "fields", ())
    if not fields:
        return node
    values = list(_read_all(cls)(node))
    changed = False
    for i in range(len(fields)):
        value = values[i]
        if type(value) is list:
            new = _map_list(value, fn)
        elif type(value) in _LEAF_TYPES:
            continue
        else:
            new = fn(value)
        if new is not value:
            values[i] = new
            changed = True
    return cls(*values) if changed else node


@functools.cache
def _read_all(cls):
    """Reads all of a node's dataclass fields as a tuple: `fields` first,
    then the spans (every node class with `fields` has at least one span,
    or a program's source, so the getter always returns a tuple)."""
    return operator.attrgetter(*(f.name for f in dataclasses.fields(cls)))


def _map_list(items: list, fn) -> list:
    out = []
    changed = False
    for item in items:
        if type(item) not in _LEAF_TYPES:
            new = fn(item)
            if new is not item:
                changed = True
                if type(new) is list:
                    out.extend(new)
                    continue
                item = new
        out.append(item)
    return out if changed else items


def walk(node):
    """Yield every node of a fragment (a node or a list of nodes) in
    pre-order."""
    if isinstance(node, Node):
        yield node
    for child in children(node):
        yield from walk(child)


def size(node) -> int:
    """Number of syntax-tree nodes in a fragment (statements included).  A
    loop variable counts as a node; a program or a list is not one."""
    own = 0 if isinstance(node, (list, Program)) else 2 if isinstance(node, ForIn) else 1
    return own + sum(size(child) for child in children(node))


# --------------------------------------------------------------------------
# expressions


class Expr(Node):
    pass


@dataclass
class IntLit(Expr):
    value: int
    span: Span = NO_SPAN
    fields = ("value",)


@dataclass
class BoolLit(Expr):
    value: bool
    span: Span = NO_SPAN
    fields = ("value",)


@dataclass
class ListLit(Expr):
    elements: list
    span: Span = NO_SPAN
    fields = ("elements",)


@dataclass
class Var(Expr):
    name: str
    span: Span = NO_SPAN
    fields = ("name",)


@dataclass
class Index(Expr):
    base: Expr
    index: Expr
    span: Span = NO_SPAN
    fields = ("base", "index")


@dataclass
class Slice(Expr):
    base: Expr
    lo: Expr | None
    hi: Expr | None
    span: Span = NO_SPAN
    fields = ("base", "lo", "hi")


@dataclass
class BinOp(Expr):
    left: Expr
    op: str
    right: Expr
    span: Span = NO_SPAN
    op_span: Span = NO_SPAN
    fields = ("left", "op", "right")


@dataclass
class Compare(Expr):
    left: Expr
    op: str
    right: Expr
    span: Span = NO_SPAN
    op_span: Span = NO_SPAN
    fields = ("left", "op", "right")


@dataclass
class BoolOp(Expr):
    left: Expr
    op: str  # "and" | "or"
    right: Expr
    span: Span = NO_SPAN
    fields = ("left", "op", "right")


@dataclass
class Not(Expr):
    operand: Expr
    span: Span = NO_SPAN
    fields = ("operand",)


@dataclass
class Call(Expr):
    func: str
    args: list
    span: Span = NO_SPAN
    fields = ("func", "args")


@dataclass
class CondExpr(Expr):
    # "body if cond else orelse", evaluated lazily like Python's ternary
    body: Expr
    cond: Expr
    orelse: Expr
    span: Span = NO_SPAN
    fields = ("body", "cond", "orelse")


# --------------------------------------------------------------------------
# statements


class Stmt(Node):
    pass


@dataclass
class Assign(Stmt):
    target: Expr  # Var or Index
    value: Expr
    span: Span = NO_SPAN
    fields = ("target", "value")


@dataclass
class AugAssign(Stmt):
    target: Expr  # Var or Index
    op: str  # one of AUG_OPS
    value: Expr
    span: Span = NO_SPAN
    op_span: Span = NO_SPAN
    fields = ("target", "op", "value")


@dataclass
class MethodCall(Stmt):
    """Statement-level method call; only list mutators (``x.append(e)``)."""

    obj: str
    method: str
    args: list
    span: Span = NO_SPAN
    fields = ("obj", "method", "args")


@dataclass
class If(Stmt):
    cond: Expr
    then_body: list
    else_body: list  # may be empty
    span: Span = NO_SPAN
    fields = ("cond", "then_body", "else_body")


@dataclass
class While(Stmt):
    cond: Expr
    body: list
    span: Span = NO_SPAN
    fields = ("cond", "body")


@dataclass
class ForIn(Stmt):
    var: str
    iterable: Expr
    body: list
    span: Span = NO_SPAN
    fields = ("var", "iterable", "body")


@dataclass
class Return(Stmt):
    value: Expr
    span: Span = NO_SPAN
    fields = ("value",)


@dataclass
class Pass(Stmt):
    span: Span = NO_SPAN


# --------------------------------------------------------------------------
# top level


@dataclass
class FuncDef(Node):
    name: str
    params: list  # parameter names as written (type suffixes included)
    body: list
    span: Span = NO_SPAN
    fields = ("name", "params", "body")


@dataclass
class Program(Node):
    functions: list
    entry: str  # name of the entry function
    source: str = ""
    fields = ("functions", "entry")

    def entry_func(self) -> FuncDef:
        for f in self.functions:
            if f.name == self.entry:
                return f
        raise KeyError(self.entry)

    def func(self, name: str) -> FuncDef | None:
        for f in self.functions:
            if f.name == name:
                return f
        return None
