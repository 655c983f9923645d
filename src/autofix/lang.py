"""AST for the mini imperative source language.

Programs are a list of function definitions over a dynamically typed value
domain (fixed-width ints, bools, lists, tuples).  Every node carries a source
span so downstream tooling can anchor diagnostics to the original text.
"""

from __future__ import annotations

import functools
import operator
from collections import namedtuple

ARITH_OPS = ("+", "-", "*", "/", "**")
COMPARE_OPS = ("==", "!=", "<", ">", "<=", ">=")
BOOL_OPS = ("and", "or")
AUG_OPS = ("+=", "-=", "*=", "/=")


class Span(namedtuple("Span", ("line", "col", "start", "end"), defaults=(0, 0, 0, 0))):
    """Where a fragment sits in its source text: `line` and `col` are
    1-based, `start` and `end` offsets into the text.  Immutable, hashable
    and equal only to a Span.  It is the tuple of its fields, so the lexer
    and the parser, which make one per token and per node, make it with
    ``tuple.__new__(Span, fields)``: a third of the constructor's time."""

    __slots__ = ()

    def __eq__(self, other):
        return type(other) is Span and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__

    def __reduce__(self):  # copy and pickle through the constructor
        return Span, tuple(self)

    def text(self, source: str) -> str:
        return source[self.start : self.end]


NO_SPAN = Span()

# what a locator attribute holds when the constructor is not given it
_LOCATOR_DEFAULTS = {"span": NO_SPAN, "op_span": NO_SPAN, "source": ""}


class Node:
    """Base class of every syntax-tree node.

    ``fields`` names a class's structural fields in order, and ``locators``
    the attributes that only locate the node in its text (``span``, an
    operator's ``op_span``, a program's ``source``).  The two lists are the
    whole declaration: the constructor takes ``fields + locators``
    positionally, every field required and every trailing locator left out
    defaulting to `NO_SPAN` (``""`` for ``source``); equality compares the
    class and all of them, spans included; nodes are mutable and so
    unhashable.  Every generic traversal below reads ``fields``."""

    fields: tuple = ()
    locators: tuple = ("span",)

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._attrs = cls.fields + cls.locators
        cls._defaults = tuple(_LOCATOR_DEFAULTS[name] for name in cls.locators)

    def __init__(self, *args):
        attrs = self._attrs
        missing = len(attrs) - len(args)
        if not 0 <= missing <= len(self._defaults):
            raise TypeError(f"{type(self).__name__}() takes {len(self.fields)} to"
                            f" {len(attrs)} arguments, got {len(args)}")
        if missing:  # trailing locators left out
            args += self._defaults[-missing:]
        for name, value in zip(attrs, args):
            setattr(self, name, value)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        read = _read_all(type(self))
        return read(self) == read(other)

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._attrs)
        return f"{type(self).__qualname__}({args})"

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


def map_children(node, fn, span=None):
    """`node` with `fn` applied to each of its `children`.  Where a child
    sits in a list, a list that `fn` returns is spliced in its place.  When
    `fn` changes no child, `node` itself comes back; otherwise a copy made by
    the class's constructor, spans kept (a new list for a list).  Trees share
    unchanged subtrees this way, so no pass may mutate a node once built.
    Given a `span`, a node is always copied, to lie at `span`."""
    cls = type(node)
    if cls is list:
        return _map_list(node, fn)
    fields = getattr(cls, "fields", ())
    if not fields:  # a value, or a node with nothing below it
        return cls(span) if span is not None and isinstance(node, Node) else node
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
    if span is not None:  # its other locators left out
        return cls(*values[:len(fields)], span)
    return cls(*values) if changed else node


@functools.cache
def _read_all(cls):
    """Reads all of a node's attributes, `fields` then `locators`: a tuple
    for every class with fields (each has at least one locator)."""
    return operator.attrgetter(*cls._attrs)


def with_field(node, name: str, value):
    """A copy of `node` with field `name` set to `value`, spans kept."""
    cls = type(node)
    values = list(_read_all(cls)(node))
    values[cls.fields.index(name)] = value
    return cls(*values)


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


class IntLit(Expr):
    fields = ("value",)


class BoolLit(Expr):
    fields = ("value",)


class ListLit(Expr):
    fields = ("elements",)


class Var(Expr):
    fields = ("name",)


class Index(Expr):
    fields = ("base", "index")


class Slice(Expr):
    fields = ("base", "lo", "hi")  # lo and hi may be None


class BinOp(Expr):
    fields = ("left", "op", "right")
    locators = ("span", "op_span")


class Compare(Expr):
    fields = ("left", "op", "right")
    locators = ("span", "op_span")


class BoolOp(Expr):
    fields = ("left", "op", "right")  # op is "and" | "or"


class Not(Expr):
    fields = ("operand",)


class Call(Expr):
    fields = ("func", "args")


class CondExpr(Expr):
    # "body if cond else orelse", evaluated lazily like Python's ternary
    fields = ("body", "cond", "orelse")


# --------------------------------------------------------------------------
# statements


class Stmt(Node):
    pass


class Assign(Stmt):
    fields = ("target", "value")  # target is a Var or an Index


class AugAssign(Stmt):
    fields = ("target", "op", "value")  # op is one of AUG_OPS without its "="
    locators = ("span", "op_span")


class MethodCall(Stmt):
    """Statement-level method call; only list mutators (``x.append(e)``)."""

    fields = ("obj", "method", "args")


class If(Stmt):
    fields = ("cond", "then_body", "else_body")  # else_body may be empty


class While(Stmt):
    fields = ("cond", "body")


class ForIn(Stmt):
    fields = ("var", "iterable", "body")


class Return(Stmt):
    fields = ("value",)


class Pass(Stmt):
    pass


# --------------------------------------------------------------------------
# top level


class FuncDef(Node):
    fields = ("name", "params", "body")  # params as written, type suffixes included


class Program(Node):
    fields = ("functions", "entry")  # entry names the entry function
    locators = ("source",)

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
