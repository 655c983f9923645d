"""Pretty-printer for the mini language.

This is the normative formatter: ``parse(pretty(p))`` is structurally equal
to ``p``, and pretty-printing is idempotent on parser output.  Parentheses
are emitted only where precedence requires them.

`Printer` holds the only per-class dispatch over the syntax tree.  Two
additions serve ``tilde.dump``: a subclass may print nodes the language does
not define (choice sites) by overriding `Printer.site`, and may set ``full``
to parenthesise every compound expression.
"""

from __future__ import annotations

from . import lang

# precedence levels, loosest binding first
_PREC_COND = 1
_PREC_OR = 2
_PREC_AND = 3
_PREC_NOT = 4
_PREC_CMP = 5
_PREC_ADD = 6
_PREC_MUL = 7
_PREC_POW = 8
_PREC_ATOM = 9

_BINOP_PREC = {"+": _PREC_ADD, "-": _PREC_ADD, "*": _PREC_MUL, "/": _PREC_MUL, "**": _PREC_POW}


class Printer:
    full = False  # parenthesise every compound expression, not only where needed

    def site(self, node, inline: bool) -> str:
        """One line for a node the language does not define: `inline` when
        it sits in an expression (or a binary operator), false when it
        stands for a statement, a block or an augmented operator."""
        raise TypeError(f"not a syntax-tree node: {node!r}")

    def fragment(self, node) -> str:
        """An operator, an expression, a statement or a statement list on
        one line: statement lines stripped and joined by ``"; "``."""
        if type(node) is str:
            return node
        if isinstance(node, lang.Expr):
            return self.expr(node)
        lines = self.block(node, 0) if type(node) is list else self.stmt(node, 0)
        return "; ".join(line.strip() for line in lines)

    def expr(self, node, parent_prec: int = 0) -> str:
        expr = self.expr
        cls = type(node)
        if cls is lang.IntLit:
            return str(node.value)
        if cls is lang.BoolLit:
            return "True" if node.value else "False"
        if cls is lang.Var:
            return node.name
        if cls is lang.ListLit:
            return "[" + ", ".join(expr(e) for e in node.elements) + "]"
        if cls is lang.Index:
            return f"{expr(node.base, _PREC_ATOM)}[{expr(node.index)}]"
        if cls is lang.Slice:
            lo = expr(node.lo) if node.lo else ""
            hi = expr(node.hi) if node.hi else ""
            return f"{expr(node.base, _PREC_ATOM)}[{lo}:{hi}]"
        if cls is lang.Call:
            return f"{node.func}(" + ", ".join(expr(a) for a in node.args) + ")"
        if cls is lang.BinOp:
            prec = _BINOP_PREC.get(node.op, 0)  # 0: an operator site, printed only in full
            if node.op == "**":  # right associative
                text = f"{expr(node.left, prec + 1)} ** {expr(node.right, prec)}"
            else:
                text = f"{expr(node.left, prec)} {self._op(node.op)} {expr(node.right, prec + 1)}"
            return self._paren(text, prec, parent_prec)
        if cls is lang.Compare:
            text = f"{expr(node.left, _PREC_CMP + 1)} {self._op(node.op)} {expr(node.right, _PREC_CMP + 1)}"
            return self._paren(text, _PREC_CMP, parent_prec)
        if cls is lang.BoolOp:
            prec = _PREC_OR if node.op == "or" else _PREC_AND
            text = f"{expr(node.left, prec)} {self._op(node.op)} {expr(node.right, prec + 1)}"
            return self._paren(text, prec, parent_prec)
        if cls is lang.Not:
            return self._paren(f"not {expr(node.operand, _PREC_NOT)}", _PREC_NOT, parent_prec)
        if cls is lang.CondExpr:
            text = (
                f"{expr(node.body, _PREC_COND + 1)} if {expr(node.cond, _PREC_COND + 1)}"
                f" else {expr(node.orelse, _PREC_COND)}"
            )
            return self._paren(text, _PREC_COND, parent_prec)
        return self.site(node, True)

    def _op(self, op) -> str:
        return op if type(op) is str else self.site(op, True)

    def _paren(self, text: str, prec: int, parent_prec: int) -> str:
        return f"({text})" if self.full or prec < parent_prec else text

    def stmt(self, node, indent: int) -> list:
        expr = self.expr
        pad = "    " * indent
        cls = type(node)
        if cls is lang.Assign:
            return [f"{pad}{expr(node.target)} = {expr(node.value)}"]
        if cls is lang.AugAssign:
            op = node.op if type(node.op) is str else self.site(node.op, False)
            return [f"{pad}{expr(node.target)} {op}= {expr(node.value)}"]
        if cls is lang.MethodCall:
            args = ", ".join(expr(a) for a in node.args)
            return [f"{pad}{node.obj}.{node.method}({args})"]
        if cls is lang.Return:
            return [f"{pad}return {expr(node.value)}"]
        if cls is lang.Pass:
            return [f"{pad}pass"]
        if cls is lang.If:
            lines = [f"{pad}if {expr(node.cond)}:"] + self.block(node.then_body, indent + 1)
            if node.else_body:
                lines += [f"{pad}else:"] + self.block(node.else_body, indent + 1)
            return lines
        if cls is lang.While:
            return [f"{pad}while {expr(node.cond)}:"] + self.block(node.body, indent + 1)
        if cls is lang.ForIn:
            header = f"{pad}for {node.var} in {expr(node.iterable)}:"
            return [header] + self.block(node.body, indent + 1)
        return [pad + self.site(node, False)]

    def block(self, stmts, indent: int) -> list:
        if type(stmts) is not list:
            return ["    " * indent + self.site(stmts, False)]
        return [line for s in stmts for line in self.stmt(s, indent)]

    def func(self, func: lang.FuncDef) -> str:
        lines = [f"def {func.name}({', '.join(func.params)}):"] + self.block(func.body, 1)
        return "\n".join(lines)


_PRINTER = Printer()


def pretty_expr(node: lang.Expr) -> str:
    return _PRINTER.expr(node)


def pretty_program(program: lang.Program) -> str:
    """Render a program in normal form: one trailing newline, LF endings."""
    return "\n\n".join(_PRINTER.func(f) for f in program.functions) + "\n"
