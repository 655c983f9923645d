"""Recursive-descent parser for the mini language.

The grammar is an indentation-based Python subset: ``def``, ``if``/``else``,
``while``, ``for .. in``, ``return``, ``pass``, assignment, augmented
assignment and ``x.append(e)`` statements over int/bool/list expressions.
Binary operators are parsed by precedence climbing (`Parser.parse_binary`),
which `eml.RuleParser` extends with operator metavariables and sets.  Two
bounds, both counted while parsing, keep every tree within the stack of the
recursive passes after the parser: `MAX_EXPR_DEPTH` on nesting and
`MAX_TREE_DEPTH` on the depth of the tree.
"""

from __future__ import annotations

from . import lang
from .lang import Span
from .lexer import SourceError, Token, tokenize

BUILTIN_FUNCS = {"len": (1, 1), "range": (1, 3)}
LIST_METHODS = {"append": (1, 1)}
# statement blocks nested inside a function body; Python's compiler, which
# runs programs (``compiler``), nests at most 20 loops
MAX_BLOCK_DEPTH = 16
# expressions nested inside a statement's expression: in parentheses,
# brackets, call arguments and conditional branches, and by ``not``, unary
# minus and ``**``.  Counted, so that what parses does not depend on the
# caller's stack: a program at the limit parses with 200 frames below.
MAX_EXPR_DEPTH = 48
# levels below the root of a statement's expression that a node of its
# syntax tree may lie, so that the recursive passes after the parser
# (rewrite, compile, print) stay within the stack too.  A left-associated
# chain is as deep as it is long (``a + b + c``, ``x[i][j]``): counted as
# the tree is built, not by a walk.  One more than MAX_EXPR_DEPTH, as a
# comparison in the deepest conditional branch lies one level below it.
MAX_TREE_DEPTH = MAX_EXPR_DEPTH + 1

# binding levels of the binary operators, loosest first; ``not`` binds
# between ``and`` and the comparisons
OR, AND, NOT, COMPARE, ARITH, TERM = range(1, 7)
BINARY_LEVELS = {"or": OR, "and": AND, "+": ARITH, "-": ARITH, "*": TERM, "/": TERM}
BINARY_LEVELS.update(dict.fromkeys(lang.COMPARE_OPS, COMPARE))


class Parser:
    def __init__(self, tokens: list, source: str):
        self.tokens = tokens
        self.source = source
        self.pos = 0
        self.block_depth = -1  # a function body is depth 0
        self.expr_depth = -1  # a statement's expression is depth 0
        self.reach = 0  # see `deepen`
        self.calls = []  # every call built, for `_check_calls`

    # -- token plumbing ----------------------------------------------------
    # `tokens` ends in EOF, and `advance` never moves past it

    def peek(self, ahead: int = 0) -> Token:
        if ahead:
            return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def at(self, kind: str, value: str | None = None) -> bool:
        tok = self.tokens[self.pos]
        return tok.kind == kind and (value is None or tok.value == value)

    def expect(self, kind: str, value: str | None = None) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != kind or (value is not None and tok.value != value):
            want = value if value is not None else kind
            raise self.error(f"expected {want!r}, found {tok.value or tok.kind!r}")
        if kind != "EOF":
            self.pos += 1
        return tok

    def error(self, message: str) -> SourceError:
        tok = self.tokens[self.pos]
        return SourceError(message, tok.span.line, tok.span.col)

    def span_from(self, start: Span) -> Span:
        prev = self.tokens[self.pos - 1].span
        return tuple.__new__(Span, (start.line, start.col, start.start, prev.end))

    # -- program structure -------------------------------------------------

    def parse_program(self) -> lang.Program:
        functions = []
        while not self.at("EOF"):
            if self.at("NEWLINE"):
                self.advance()
                continue
            functions.append(self.parse_funcdef())
        if not functions:
            raise self.error("expected a function definition")
        program = lang.Program(functions, functions[0].name, self.source)
        _check_calls(program, self.calls)
        return program

    def parse_funcdef(self) -> lang.FuncDef:
        start = self.expect("KEYWORD", "def").span
        name = self.expect("NAME").value
        self.expect("OP", "(")
        params = []
        if not self.at("OP", ")"):
            params.append(self.expect("NAME").value)
            while self.at("OP", ","):
                self.advance()
                params.append(self.expect("NAME").value)
        self.expect("OP", ")")
        body = self.parse_block()
        return lang.FuncDef(name, params, body, self.span_from(start))

    def parse_block(self) -> list:
        self.block_depth += 1
        if self.block_depth > MAX_BLOCK_DEPTH:
            raise self.error("nested too deeply")  # at the block's colon
        self.expect("OP", ":")
        self.expect("NEWLINE")
        self.expect("INDENT")
        body = [self.parse_stmt()]
        while not self.at("DEDENT"):
            body.append(self.parse_stmt())
        self.expect("DEDENT")
        self.block_depth -= 1
        return body

    # -- statements ----------------------------------------------------------

    def parse_stmt(self) -> lang.Stmt:
        tok = self.peek()
        if tok.kind == "KEYWORD" and tok.value in ("if", "while", "for"):
            return self.parse_compound_stmt()
        stmt = self.parse_simple_stmt()
        self.expect("NEWLINE")
        return stmt

    def parse_compound_stmt(self) -> lang.Stmt:
        """An ``if``, ``while`` or ``for`` statement, its blocks read by
        `parse_block`."""
        keyword = self.advance()
        start = keyword.span
        if keyword.value == "for":
            var = self.expect("NAME").value
            self.expect("KEYWORD", "in")
            iterable = self.parse_expr()
            body = self.parse_block()
            return lang.ForIn(var, iterable, body, self.span_from(start))
        cond = self.parse_expr()
        body = self.parse_block()
        if keyword.value == "while":
            return lang.While(cond, body, self.span_from(start))
        else_body = []
        if self.at("KEYWORD", "else"):
            self.advance()
            else_body = self.parse_block()
        return lang.If(cond, body, else_body, self.span_from(start))

    def parse_simple_stmt(self) -> lang.Stmt:
        """A ``return``, ``pass``, ``x.append(e)`` or assignment statement,
        up to its last token."""
        tok = self.peek()
        start = tok.span
        if tok.kind == "KEYWORD":
            if tok.value == "return":
                self.advance()
                value = self.parse_expr()
                return lang.Return(value, self.span_from(start))
            if tok.value == "pass":
                self.advance()
                return lang.Pass(start)
            raise self.error(f"unexpected keyword {tok.value!r}")
        if tok.kind == "NAME" and self.peek(1).kind == "OP" and self.peek(1).value == ".":
            obj = self.advance().value
            self.expect("OP", ".")
            method = self.expect("NAME").value
            if method not in LIST_METHODS:
                raise self.error(f"unsupported method {method!r}")
            self.expect("OP", "(")
            args = self.parse_args()
            lo, hi = LIST_METHODS[method]
            if not lo <= len(args) <= hi:
                raise SourceError(
                    f"{method}() takes {lo}..{hi} arguments", start.line, start.col
                )
            self.expect("OP", ")")
            return lang.MethodCall(obj, method, args, self.span_from(start))
        return self.parse_assignment(self.parse_target())

    def parse_assignment(self, target: lang.Expr) -> lang.Stmt:
        """The assignment or augmented assignment to `target`."""
        tok = self.peek()
        if tok.kind == "OP" and tok.value == "=":
            self.advance()
            value = self.parse_expr()
            return lang.Assign(target, value, self.span_from(target.span))
        if tok.kind == "OP" and tok.value in lang.AUG_OPS:
            self.advance()
            value = self.parse_expr()
            return lang.AugAssign(
                target, tok.value[0], value, self.span_from(target.span), tok.span
            )
        raise self.error("expected '=' or augmented assignment")

    def parse_target(self) -> lang.Expr:
        start = self.peek().span
        name_tok = self.expect("NAME")
        base = lang.Var(name_tok.value, name_tok.span)
        if self.at("OP", "["):
            self.advance()
            index = self.parse_expr()
            self.expect("OP", "]")
            return lang.Index(base, index, self.span_from(start))
        return base

    def parse_args(self) -> list:
        args = []
        if self.at("OP", ")"):
            return args
        args.append(self.parse_expr())
        while self.at("OP", ","):
            self.advance()
            args.append(self.parse_expr())
        return args

    # -- expressions ---------------------------------------------------------

    def nested(self, parse, *args) -> lang.Expr:
        """`parse(*args)` one expression level deeper; deeper than
        ``MAX_EXPR_DEPTH`` is a ``SourceError``."""
        depth = self.expr_depth + 1
        if depth > MAX_EXPR_DEPTH:
            raise self.error("nested too deeply")
        outer = self.reach
        self.expr_depth = self.reach = depth
        node = parse(*args)
        self.expr_depth = depth - 1
        if outer > self.reach:
            self.reach = outer
        return node

    def deepen(self, reach: int) -> None:
        """Record that the fragment being parsed now reaches `reach` levels
        below its statement's expression; past `MAX_TREE_DEPTH` is a
        ``SourceError``.

        `reach` is the level of the fragment's deepest node.  A fragment
        that `nested` starts, and a chain's right operand or a conditional's
        condition, starts at `expr_depth`, its own level.  A node built over
        operands parsed at its own level (a binary operator, a conditional,
        ``**`` over its base, an index or slice over its base, a prime)
        puts them one level deeper: one more than their reach.  A nested
        fragment's reach counts its own level, so parentheses, which make
        no node, take one off."""
        if reach > MAX_TREE_DEPTH:
            raise self.error("nested too deeply")
        self.reach = reach

    def parse_expr(self) -> lang.Expr:
        return self.nested(self.parse_cond)

    def parse_cond(self) -> lang.Expr:
        start = self.tokens[self.pos].span
        body = self.parse_binary(OR)
        tok = self.tokens[self.pos]
        if tok.value != "if" or tok.kind != "KEYWORD":
            return body
        self.pos += 1
        below = self.reach
        self.reach = self.expr_depth
        cond = self.parse_binary(OR)
        self.expect("KEYWORD", "else")
        beside = self.reach
        orelse = self.parse_expr()
        node = lang.CondExpr(body, cond, orelse, self.span_from(start))
        self.deepen(max(below + 1, beside + 1, self.reach))
        return node

    def parse_binary(self, loosest: int) -> lang.Expr:
        """A left-associated chain of the binary operators that bind at
        `loosest` or tighter (see `BINARY_LEVELS`), over operands that may
        start with ``not`` when `loosest` admits it.  Comparisons do not
        chain, and an operand of ``not`` or a comparison is no operand of
        another comparison or arithmetic operator."""
        tok = self.tokens[self.pos]
        start = tok.span
        if tok.value == "not" and tok.kind == "KEYWORD" and loosest <= NOT:
            self.pos += 1
            left = lang.Not(self.nested(self.parse_binary, NOT), self.span_from(start))
            tightest = AND
        else:
            left = self.parse_factor()
            tightest = TERM
        while True:
            level = self.binary_level(self.tokens[self.pos])
            if level is None or level < loosest or level > tightest:
                return left
            op, op_span = self.binary_operator(level)
            below = self.reach
            self.reach = self.expr_depth
            right = self.parse_binary(level + 1)
            span = self.span_from(start)
            if level >= ARITH:
                left = lang.BinOp(left, op, right, span, op_span)
                tightest = level
            elif level == COMPARE:
                left = lang.Compare(left, op, right, span, op_span)
                tightest = AND
            else:
                left = lang.BoolOp(left, op, right, span)
                tightest = level
            self.deepen(max(below, self.reach) + 1)

    def binary_level(self, tok: Token):
        """The binding level of `tok` as a binary operator, or None."""
        if tok.kind == "STRING":
            return None
        return BINARY_LEVELS.get(tok.value)

    def binary_operator(self, level: int):
        """Consume the binary operator of `level` at the cursor: the node's
        operator and its span."""
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok.value, tok.span

    def parse_factor(self) -> lang.Expr:
        tok = self.tokens[self.pos]
        start = tok.span
        if tok.value == "-" and tok.kind == "OP":
            self.pos += 1
            lit = self.tokens[self.pos]
            if lit.kind != "INT":
                operand = self.nested(self.parse_factor)
                return lang.BinOp(
                    lang.IntLit(0, start), "-", operand, self.span_from(start)
                )
            # a leading minus on a literal is part of the literal, so it
            # binds tighter than ** (unlike Python's unary minus)
            self.pos += 1
            base = lang.IntLit(-int(lit.value), self.span_from(start))
            base = self.parse_trailers(base, start)
        else:
            base = self.parse_postfix()
        tok = self.tokens[self.pos]
        if tok.value != "**" or tok.kind != "OP":
            return base
        self.pos += 1
        below = self.reach
        exponent = self.nested(self.parse_factor)
        node = lang.BinOp(base, "**", exponent, self.span_from(start))
        self.deepen(max(below + 1, self.reach))
        return node

    def parse_postfix(self) -> lang.Expr:
        start = self.tokens[self.pos].span
        node = self.parse_atom()
        return self.parse_trailers(node, start)

    def parse_trailers(self, node: lang.Expr, start: Span) -> lang.Expr:
        while True:
            tok = self.tokens[self.pos]
            if tok.value != "[" or tok.kind != "OP":
                return node
            self.pos += 1
            below = self.reach
            if self.at("OP", ":"):
                self.advance()
                hi = None if self.at("OP", "]") else self.parse_expr()
                self.expect("OP", "]")
                node = lang.Slice(node, None, hi, self.span_from(start))
            else:
                first = self.parse_expr()
                if self.at("OP", ":"):
                    self.advance()
                    hi = None if self.at("OP", "]") else self.parse_expr()
                    self.expect("OP", "]")
                    node = lang.Slice(node, first, hi, self.span_from(start))
                else:
                    self.expect("OP", "]")
                    node = lang.Index(node, first, self.span_from(start))
            self.deepen(max(below + 1, self.reach))

    def parse_atom(self) -> lang.Expr:
        tok = self.tokens[self.pos]
        kind = tok.kind
        if kind == "NAME":
            self.pos += 1
            if self.at("OP", "("):
                self.advance()
                args = self.parse_args()
                close = self.expect("OP", ")")
                span = Span(tok.span.line, tok.span.col, tok.span.start, close.span.end)
                self.calls.append(lang.Call(tok.value, args, span))
                return self.calls[-1]
            return lang.Var(tok.value, tok.span)
        if kind == "INT":
            self.pos += 1
            return lang.IntLit(int(tok.value), tok.span)
        if kind == "KEYWORD" and tok.value in ("True", "False"):
            self.pos += 1
            return lang.BoolLit(tok.value == "True", tok.span)
        if kind == "OP" and tok.value == "(":
            self.pos += 1
            below = self.reach
            inner = self.parse_expr()
            self.expect("OP", ")")
            self.reach = max(below, self.reach - 1)  # parentheses make no node
            return inner
        if kind == "OP" and tok.value == "[":
            start = self.advance().span
            elements = []
            if not self.at("OP", "]"):
                elements.append(self.parse_expr())
                while self.at("OP", ","):
                    self.advance()
                    elements.append(self.parse_expr())
            self.expect("OP", "]")
            return lang.ListLit(elements, self.span_from(start))
        raise self.error(f"unexpected token {tok.value or tok.kind!r}")


def _check_calls(program: lang.Program, calls: list) -> None:
    """Check `calls`, the program's ``Call`` nodes, in the order of the
    text, which is the order of a walk of the tree."""
    defined = {f.name for f in program.functions}
    for node in sorted(calls, key=lambda node: node.span.start):
        if node.func not in defined:
            if node.func not in BUILTIN_FUNCS:
                raise SourceError(f"unknown function {node.func!r}", *node.span[:2])
            lo, hi = BUILTIN_FUNCS[node.func]
            if not lo <= len(node.args) <= hi:
                raise SourceError(f"{node.func}() takes {lo}..{hi} arguments", *node.span[:2])


def parse_imp(source: str) -> lang.Program:
    """Parse program text into a span-annotated Program."""
    parser = Parser(tokenize(source), source)
    try:
        return parser.parse_program()
    except RecursionError:
        raise parser.error("nested too deeply") from None
