"""Recursive-descent parser for the mini language.

The grammar is an indentation-based Python subset: ``def``, ``if``/``else``,
``while``, ``for .. in``, ``return``, ``pass``, assignment, augmented
assignment and ``x.append(e)`` statements over int/bool/list expressions.
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


class Parser:
    def __init__(self, tokens: list, source: str):
        self.tokens = tokens
        self.source = source
        self.pos = 0
        self.block_depth = -1  # a function body is depth 0
        self.expr_depth = -1  # a statement's expression is depth 0

    # -- token plumbing ----------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def at(self, kind: str, value: str | None = None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (value is None or tok.value == value)

    def expect(self, kind: str, value: str | None = None) -> Token:
        tok = self.peek()
        if not self.at(kind, value):
            want = value if value is not None else kind
            raise self.error(f"expected {want!r}, found {tok.value or tok.kind!r}")
        return self.advance()

    def error(self, message: str) -> SourceError:
        tok = self.peek()
        return SourceError(message, tok.span.line, tok.span.col)

    def span_from(self, start: Span) -> Span:
        prev = self.tokens[self.pos - 1].span
        return Span(start.line, start.col, start.start, prev.end)

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
        program = lang.Program(functions, entry=functions[0].name, source=self.source)
        _check_calls(program)
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
        start = tok.span
        if tok.kind == "KEYWORD":
            if tok.value == "return":
                self.advance()
                value = self.parse_expr()
                self.expect("NEWLINE")
                return lang.Return(value, self.span_from(start))
            if tok.value == "pass":
                self.advance()
                self.expect("NEWLINE")
                return lang.Pass(self.span_from(start))
            if tok.value == "if":
                self.advance()
                cond = self.parse_expr()
                then_body = self.parse_block()
                else_body = []
                if self.at("KEYWORD", "else"):
                    self.advance()
                    else_body = self.parse_block()
                return lang.If(cond, then_body, else_body, self.span_from(start))
            if tok.value == "while":
                self.advance()
                cond = self.parse_expr()
                body = self.parse_block()
                return lang.While(cond, body, self.span_from(start))
            if tok.value == "for":
                self.advance()
                var = self.expect("NAME").value
                self.expect("KEYWORD", "in")
                iterable = self.parse_expr()
                body = self.parse_block()
                return lang.ForIn(var, iterable, body, self.span_from(start))
            raise self.error(f"unexpected keyword {tok.value!r}")

        # method-call statement: NAME '.' NAME '(' args ')'
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
            self.expect("NEWLINE")
            return lang.MethodCall(obj, method, args, self.span_from(start))

        target = self.parse_target()
        tok = self.peek()
        if tok.kind == "OP" and tok.value == "=":
            self.advance()
            value = self.parse_expr()
            self.expect("NEWLINE")
            return lang.Assign(target, value, self.span_from(start))
        if tok.kind == "OP" and tok.value in lang.AUG_OPS:
            op_tok = self.advance()
            value = self.parse_expr()
            self.expect("NEWLINE")
            return lang.AugAssign(
                target, op_tok.value[0], value, self.span_from(start), op_tok.span
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

    def nested(self, parse) -> lang.Expr:
        """`parse()` one expression level deeper; deeper than
        ``MAX_EXPR_DEPTH`` is a ``SourceError``."""
        self.expr_depth += 1
        if self.expr_depth > MAX_EXPR_DEPTH:
            raise self.error("nested too deeply")
        node = parse()
        self.expr_depth -= 1
        return node

    def parse_expr(self) -> lang.Expr:
        return self.nested(self.parse_cond)

    def parse_cond(self) -> lang.Expr:
        start = self.peek().span
        body = self.parse_or()
        if self.at("KEYWORD", "if"):
            self.advance()
            cond = self.parse_or()
            self.expect("KEYWORD", "else")
            orelse = self.parse_expr()
            return lang.CondExpr(body, cond, orelse, self.span_from(start))
        return body

    def parse_or(self) -> lang.Expr:
        start = self.peek().span
        left = self.parse_and()
        while self.at("KEYWORD", "or"):
            self.advance()
            right = self.parse_and()
            left = lang.BoolOp(left, "or", right, self.span_from(start))
        return left

    def parse_and(self) -> lang.Expr:
        start = self.peek().span
        left = self.parse_not()
        while self.at("KEYWORD", "and"):
            self.advance()
            right = self.parse_not()
            left = lang.BoolOp(left, "and", right, self.span_from(start))
        return left

    def parse_not(self) -> lang.Expr:
        if self.at("KEYWORD", "not"):
            start = self.advance().span
            operand = self.nested(self.parse_not)
            return lang.Not(operand, self.span_from(start))
        return self.parse_comparison()

    def parse_comparison(self) -> lang.Expr:
        start = self.peek().span
        left = self.parse_arith()
        tok = self.peek()
        if tok.kind == "OP" and tok.value in lang.COMPARE_OPS:
            op_tok = self.advance()
            right = self.parse_arith()
            return lang.Compare(left, op_tok.value, right, self.span_from(start), op_tok.span)
        return left

    def parse_arith(self) -> lang.Expr:
        start = self.peek().span
        left = self.parse_term()
        while self.peek().kind == "OP" and self.peek().value in ("+", "-"):
            op_tok = self.advance()
            right = self.parse_term()
            left = lang.BinOp(left, op_tok.value, right, self.span_from(start), op_tok.span)
        return left

    def parse_term(self) -> lang.Expr:
        start = self.peek().span
        left = self.parse_factor()
        while self.peek().kind == "OP" and self.peek().value in ("*", "/"):
            op_tok = self.advance()
            right = self.parse_factor()
            left = lang.BinOp(left, op_tok.value, right, self.span_from(start), op_tok.span)
        return left

    def parse_factor(self) -> lang.Expr:
        if self.at("OP", "-"):
            start = self.advance().span
            if self.at("INT"):
                # a leading minus on a literal is part of the literal, so it
                # binds tighter than ** (unlike Python's unary minus)
                tok = self.advance()
                node = lang.IntLit(-int(tok.value), self.span_from(start))
                node = self.parse_trailers(node, start)
                if self.at("OP", "**"):
                    self.advance()
                    exponent = self.nested(self.parse_factor)
                    return lang.BinOp(node, "**", exponent, self.span_from(start))
                return node
            operand = self.nested(self.parse_factor)
            return lang.BinOp(
                lang.IntLit(0, start), "-", operand, self.span_from(start)
            )
        return self.parse_power()

    def parse_power(self) -> lang.Expr:
        start = self.peek().span
        base = self.parse_postfix()
        if self.at("OP", "**"):
            self.advance()
            exponent = self.nested(self.parse_factor)
            return lang.BinOp(base, "**", exponent, self.span_from(start))
        return base

    def parse_postfix(self) -> lang.Expr:
        start = self.peek().span
        node = self.parse_atom()
        return self.parse_trailers(node, start)

    def parse_trailers(self, node: lang.Expr, start: Span) -> lang.Expr:
        while self.at("OP", "["):
            self.advance()
            if self.at("OP", ":"):
                self.advance()
                hi = None if self.at("OP", "]") else self.parse_expr()
                self.expect("OP", "]")
                node = lang.Slice(node, None, hi, self.span_from(start))
                continue
            first = self.parse_expr()
            if self.at("OP", ":"):
                self.advance()
                hi = None if self.at("OP", "]") else self.parse_expr()
                self.expect("OP", "]")
                node = lang.Slice(node, first, hi, self.span_from(start))
            else:
                self.expect("OP", "]")
                node = lang.Index(node, first, self.span_from(start))
        return node

    def parse_atom(self) -> lang.Expr:
        tok = self.peek()
        if tok.kind == "INT":
            self.advance()
            return lang.IntLit(int(tok.value), tok.span)
        if tok.kind == "KEYWORD" and tok.value in ("True", "False"):
            self.advance()
            return lang.BoolLit(tok.value == "True", tok.span)
        if tok.kind == "NAME":
            self.advance()
            if self.at("OP", "("):
                self.advance()
                args = self.parse_args()
                close = self.expect("OP", ")")
                span = Span(tok.span.line, tok.span.col, tok.span.start, close.span.end)
                return lang.Call(tok.value, args, span)
            return lang.Var(tok.value, tok.span)
        if tok.kind == "OP" and tok.value == "(":
            self.advance()
            inner = self.parse_expr()
            self.expect("OP", ")")
            return inner
        if tok.kind == "OP" and tok.value == "[":
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


def _check_calls(program: lang.Program) -> None:
    defined = {f.name for f in program.functions}
    for node in lang.walk(program):
        if isinstance(node, lang.Call) and node.func not in defined:
            if node.func not in BUILTIN_FUNCS:
                raise SourceError(
                    f"unknown function {node.func!r}", node.span.line, node.span.col
                )
            lo, hi = BUILTIN_FUNCS[node.func]
            if not lo <= len(node.args) <= hi:
                raise SourceError(
                    f"{node.func}() takes {lo}..{hi} arguments",
                    node.span.line,
                    node.span.col,
                )


def parse_imp(source: str) -> lang.Program:
    """Parse program text into a span-annotated Program."""
    parser = Parser(tokenize(source), source)
    try:
        return parser.parse_program()
    except RecursionError:
        raise parser.error("nested too deeply") from None
