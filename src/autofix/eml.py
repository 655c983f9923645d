"""Correction rules: parsing, validation and pattern matching.

A rule file holds ordered rewrite rules::

    rule IndF weight 1: v[a] -> v[{a + 1, a - 1, ?a}] msg "..."

The left side is a program fragment over metavariables (stem gives the kind:
``a``/``b`` any expression, ``v`` variable, ``n`` int literal, ``s``
statement block, ``cop``/``aop`` operators).  The right side is a template
over the same metavariables extended with choice sets ``{e1, e2}``, scope
sets ``?a`` (every variable in scope), operator sets ``~cop`` and a trailing
prime mark on subterms that are rewritten recursively.

A left side matches a node of its own class field by field (`match_pattern`);
metavariables bind what they stand for, and a metavariable that occurs twice
must bind structurally equal fragments.
"""

from __future__ import annotations

from . import lang
from .lexer import SourceError, tokenize
from .parser import ARITH, BUILTIN_FUNCS, COMPARE, TERM, Parser

META_KINDS = ("a", "b", "v", "n", "s", "cop", "aop")
# what follows an expression that starts a statement on a rule side
_STMT_AFTER_EXPR = ("=", ".") + lang.AUG_OPS


class IllFormedModel(Exception):
    pass


# --------------------------------------------------------------------------
# template-only nodes (live inside lang trees in patterns/templates)


class MetaVar(lang.Expr):
    fields = ("name", "kind")


class Primed(lang.Expr):
    """Subterm rewritten recursively after rule application."""

    fields = ("inner",)


class ChoiceSet(lang.Expr):
    fields = ("options",)


class ScopeSet(lang.Expr):
    """``?a``: the set of all variables in scope at the rewrite location."""

    fields = ("of",)  # metavariable name the set is anchored to


class OpSet(lang.Expr):
    """``~cop``: every operator of the matched operator's family."""

    fields = ("of",)


class StmtChoice(lang.Stmt):
    fields = ("options",)


class FuncPattern(lang.Node):
    """Pattern/template over a whole function definition.  ``params`` are
    MetaVars; in ``body`` a bare s-metavar stands for the whole block."""

    fields = ("name", "params", "body")


# the forms only a rule's right side may use
TEMPLATE_FORMS = (ChoiceSet, ScopeSet, OpSet, Primed, StmtChoice)


def meta_kind(name: str):
    stem = name.rstrip("0123456789")
    return stem if stem in META_KINDS else None


# --------------------------------------------------------------------------
# rules


class CorrectionRule:
    def __init__(self, rule_id: str, lhs, rhs, weight: int = 1,
                 message: str | None = None, lhs_kind: str = "expr"):
        self.rule_id = rule_id
        self.lhs = lhs
        self.rhs = rhs
        self.weight = weight
        self.message = message
        self.lhs_kind = lhs_kind  # expr | stmt | func


class ErrorModel:
    def __init__(self, rules: list | None = None):
        self.rules = [] if rules is None else rules

    def __eq__(self, other):
        if type(other) is not ErrorModel:
            return NotImplemented
        return self.rules == other.rules

    def __iter__(self):
        return iter(self.rules)


def collect_metavars(node) -> dict:
    """Map metavar name -> occurrence count within a fragment."""
    counts = {}
    for sub in lang.walk(node):
        if isinstance(sub, MetaVar):
            counts[sub.name] = counts.get(sub.name, 0) + 1
        elif isinstance(sub, lang.MethodCall) and meta_kind(sub.obj):
            counts[sub.obj] = counts.get(sub.obj, 0) + 1
        elif isinstance(sub, (ScopeSet, OpSet)):
            counts.setdefault(sub.of, 0)
    return counts


# --------------------------------------------------------------------------
# matching


def match_pattern(pattern, node, binding=None):
    """One-way structural match of a rule pattern against an AST node.
    Returns the substitution (metavar name -> bound fragment) or None.

    An expression metavariable binds a node of its kind; a function pattern
    binds the parameters and the body.  Any other pattern matches a node of
    its class when every field does: list fields element-wise at equal
    lengths, an operator metavariable by binding the operator, a method
    call's metavariable object by binding it as a variable, node fields
    recursively and every other value by ``==``."""
    if binding is None:
        binding = {}
    if _match(pattern, node, binding):
        return binding
    return None


def _bind(binding, name, value) -> bool:
    if name in binding:
        return _equal_fragment(binding[name], value)
    binding[name] = value
    return True


def _equal_fragment(a, b) -> bool:
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(x.key() == y.key() for x, y in zip(a, b))
    return a.key() == b.key()


def _match(pattern, node, binding) -> bool:
    if isinstance(pattern, MetaVar):
        kind = pattern.kind
        if kind == "v":
            return isinstance(node, lang.Var) and _bind(binding, pattern.name, node)
        if kind == "n":
            return isinstance(node, lang.IntLit) and _bind(binding, pattern.name, node)
        if kind in ("a", "b"):
            return isinstance(node, lang.Expr) and _bind(binding, pattern.name, node)
        return False

    if isinstance(pattern, FuncPattern):
        if not isinstance(node, lang.FuncDef):
            return False
        base = node.name.split("_")[0]
        if pattern.name not in (node.name, base):
            return False
        if len(pattern.params) != len(node.params):
            return False
        for p, name in zip(pattern.params, node.params):
            if not _bind(binding, p.name, lang.Var(name)):
                return False
        body_pat = pattern.body
        if len(body_pat) == 1 and isinstance(body_pat[0], MetaVar):
            return _bind(binding, body_pat[0].name, list(node.body))
        return False

    cls = type(pattern)
    if cls is not type(node):
        return False
    for name in cls.fields:
        p, n = getattr(pattern, name), getattr(node, name)
        if type(p) is list:
            if len(p) != len(n) or not all(_match(x, y, binding) for x, y in zip(p, n)):
                return False
        elif type(p) is MetaVar and type(n) is str:  # an operator metavariable
            if not _bind(binding, p.name, n):
                return False
        elif isinstance(p, lang.Node):
            if not _match(p, n, binding):
                return False
        elif name == "obj" and meta_kind(p):  # the list a method call mutates
            if not _bind(binding, p, lang.Var(n)):
                return False
        elif p != n:
            return False
    return True


# --------------------------------------------------------------------------
# parsing


class RuleParser(Parser):
    """Expression/statement parser extended with template syntax."""

    def __init__(self, tokens, source):
        super().__init__(tokens, source)
        self.allow_template = False

    # names become metavariables when their stem is a known kind
    def parse_atom(self):
        tok = self.tokens[self.pos]
        if tok.kind == "OP" and tok.value == "{" and self.allow_template:
            self.advance()
            options = [self.parse_expr()]
            while self.at("OP", ","):
                self.advance()
                options.append(self.parse_expr())
            self.expect("OP", "}")
            return ChoiceSet(options, self.span_from(tok.span))
        if tok.kind == "OP" and tok.value == "?" and self.allow_template:
            self.advance()
            name = self.expect("NAME").value
            if meta_kind(name) is None:
                raise self.error(f"?{name}: not a metavariable")
            return ScopeSet(name, self.span_from(tok.span))
        if tok.kind == "NAME" and meta_kind(tok.value) and not self._is_call():
            self.advance()
            return MetaVar(tok.value, meta_kind(tok.value), tok.span)
        return super().parse_atom()

    def _is_call(self) -> bool:
        nxt = self.peek(1)
        return nxt.kind == "OP" and nxt.value == "("

    def parse_postfix(self):
        start = self.tokens[self.pos].span
        node = self.parse_atom()
        while True:
            before = self.pos
            node = self.parse_trailers(node, start)
            if self.at("OP", "'"):
                tok = self.advance()
                if not self.allow_template:
                    raise SourceError(
                        "prime marks are only allowed in templates",
                        tok.span.line,
                        tok.span.col,
                    )
                node = Primed(node, node.span)
                self.deepen(self.reach + 1)
                continue
            if self.pos == before:
                return node

    # operator metavariables: ``a cop b`` and ``a aop b``, and in templates
    # the operator sets ``a ~cop b`` and ``a ~aop b``
    def binary_level(self, tok):
        level = super().binary_level(tok)
        if level is not None:
            return level
        if tok.kind == "NAME":
            kind = meta_kind(tok.value)
            if kind == "cop":
                return COMPARE
            if kind == "aop" and not self._ends_expr():
                return ARITH
        elif tok.kind == "OP" and tok.value == "~" and self.allow_template:
            nxt = self.peek(1)
            return ARITH if nxt.kind == "NAME" and meta_kind(nxt.value) == "aop" else COMPARE
        return None

    def binary_operator(self, level):
        tok = self.advance()
        if tok.kind == "NAME":
            return MetaVar(tok.value, meta_kind(tok.value), tok.span), lang.NO_SPAN
        if tok.value == "~":
            return OpSet(self.expect("NAME").value), lang.NO_SPAN
        # a rule's comparisons and sums keep no operator span
        return tok.value, tok.span if level == TERM else lang.NO_SPAN

    def _ends_expr(self) -> bool:
        nxt = self.peek(1)
        return nxt.kind in ("NEWLINE", "EOF") or (
            nxt.kind == "OP" and nxt.value in (")", "]", "}", ",")
        )

    # -- statements --------------------------------------------------------
    # A rule's statements are the program's (`Parser.parse_simple_stmt` and
    # `Parser.parse_compound_stmt`) on one line: a block is ``: {s1; s2}``
    # and an assignment target an expression.

    def parse_fragment(self, template: bool):
        """Parse one rule side: a function pattern, a statement, a choice of
        statements or an expression (decided by lookahead: a set is a
        statement choice when its first element is a statement)."""
        self.allow_template = template
        tok = self.peek()
        if tok.kind == "KEYWORD" and tok.value == "def":
            return self.parse_func_fragment(), "func"
        if tok.kind == "OP" and tok.value == "{" and template:
            if self._starts_stmt(1):
                return self.parse_stmt_choice(), "stmt"
        elif self._starts_stmt(0):
            return self.parse_simple_stmt(), "stmt"
        return self.parse_expr(), "expr"

    def _starts_stmt(self, ahead: int) -> bool:
        """Whether a statement starts `ahead` tokens on: a statement keyword,
        or an expression followed by an assignment or a method call."""
        tok = self.peek(ahead)
        if tok.kind == "KEYWORD":
            return tok.value in ("return", "pass", "if", "while")
        start = self.pos
        self.pos += ahead
        self.parse_expr()
        nxt = self.peek()
        self.pos = start
        return nxt.kind == "OP" and nxt.value in _STMT_AFTER_EXPR

    def parse_target(self):
        target = self.parse_expr()
        if not isinstance(target, (lang.Var, lang.Index, MetaVar)):
            raise SourceError("assignment target must be a variable or index",
                              target.span.line, target.span.col)
        return target

    def parse_block(self) -> list:
        self.expect("OP", ":")
        self.expect("OP", "{")
        body = self.parse_stmt_seq()
        self.expect("OP", "}")
        return body

    def parse_stmt_choice(self):
        start = self.expect("OP", "{").span
        options = self.parse_stmt_seq(",")
        self.expect("OP", "}")
        return StmtChoice(options, self.span_from(start))

    def parse_func_fragment(self):
        start = self.expect("KEYWORD", "def").span
        name = self.expect("NAME").value
        self.expect("OP", "(")
        params = []
        if not self.at("OP", ")"):
            params.append(self._param())
            while self.at("OP", ","):
                self.advance()
                params.append(self._param())
        self.expect("OP", ")")
        nxt = self.peek(1)
        if self.allow_template and nxt.kind == "OP" and nxt.value == "{":
            body = self.parse_block()
        else:
            self.expect("OP", ":")
            body = self.parse_stmt_seq()
        return FuncPattern(name, params, body, self.span_from(start))

    def _param(self):
        tok = self.expect("NAME")
        kind = meta_kind(tok.value)
        if kind is None:
            raise self.error(f"parameter {tok.value!r} must be a metavariable")
        return MetaVar(tok.value, kind, tok.span)

    def parse_stmt_seq(self, separator: str = ";") -> list:
        stmts = [self.parse_inline_stmt()]
        while self.at("OP", separator):
            self.advance()
            stmts.append(self.parse_inline_stmt())
        return stmts

    def parse_inline_stmt(self):
        """A statement inside a block or a statement choice: an
        s-metavariable, an ``if`` or ``while`` or a simple statement."""
        tok = self.peek()
        if tok.kind == "NAME" and meta_kind(tok.value) == "s":
            self.advance()
            return MetaVar(tok.value, "s", tok.span)
        if tok.kind == "KEYWORD" and tok.value in ("if", "while"):
            return self.parse_compound_stmt()
        return self.parse_simple_stmt()


def parse_eml(source: str) -> ErrorModel:
    """Parse rule text into an ErrorModel, checking each rule once: a model
    that parses is well-formed, and rewriting under it terminates.  Raises
    SourceError on malformed input or a rule that is not a rule of the
    language (see `_validate_rule`), naming its line, and IllFormedModel on
    an ill-formed prime or a `msg` that is not a template over the
    correction's fields."""
    parser = RuleParser(tokenize(source, rule_mode=True), source)
    try:
        return _parse_rules(parser)
    except RecursionError:
        raise parser.error("nested too deeply") from None


def _parse_rules(parser: RuleParser) -> ErrorModel:
    rules = []
    seen = set()
    while not parser.at("EOF"):
        if parser.at("NEWLINE"):
            parser.advance()
            continue
        tok = parser.expect("NAME")
        if tok.value != "rule":
            raise SourceError("expected 'rule'", tok.span.line, tok.span.col)
        id_tok = parser.expect("NAME")
        rule_id = id_tok.value
        if rule_id in seen:
            raise SourceError(f"duplicate rule id {rule_id!r}", id_tok.span.line, id_tok.span.col)
        seen.add(rule_id)
        weight = 1
        if parser.at("NAME", "weight"):
            parser.advance()
            weight = int(parser.expect("INT").value)
            if weight < 1:
                raise SourceError("weight must be >= 1", tok.span.line, tok.span.col)
        parser.expect("OP", ":")
        lhs, lhs_kind = parser.parse_fragment(template=False)
        parser.expect("OP", "->")
        rhs, rhs_kind = parser.parse_fragment(template=True)
        message = None
        if parser.at("NAME", "msg"):
            parser.advance()
            message = parser.expect("STRING").value
            _check_message(rule_id, message)
        if not parser.at("EOF"):
            parser.expect("NEWLINE")
        rule = CorrectionRule(rule_id, lhs, rhs, weight, message, lhs_kind)
        _validate_rule(rule, rhs_kind, tok.span.line, tok.span.col)
        rules.append(rule)
    return ErrorModel(rules)


def _check_message(rule_id: str, message: str) -> None:
    """Format `message` once as `feedback` will, with a value of the right
    type for each field it may name: ``line`` (an int), ``orig``, ``sub`` and
    ``new`` (strings)."""
    try:
        message.format(line=1, orig="", sub="", new="")
    except (KeyError, IndexError, ValueError, AttributeError, TypeError) as err:
        raise IllFormedModel(
            f"rule {rule_id}: msg {message!r} is not a template over"
            f" {{line}}, {{orig}}, {{sub}} and {{new}} ({type(err).__name__}: {err})"
        ) from None


_KIND_NAMES = {"expr": "an expression", "stmt": "a statement", "func": "a function"}


def _validate_rule(rule: CorrectionRule, rhs_kind: str, line: int, col: int) -> None:
    """Reject a rule, at `line` and `col` where it starts, whose right side
    uses a metavariable the left side does not bind, whose left side uses
    template syntax, whose two sides are of different kinds, whose function
    template renames the function or its parameters, that calls ``len`` or
    ``range`` with a wrong number of arguments, or that appends to a list
    named by a metavariable that may bind more than a variable (only
    statements append).  Then, as IllFormedModel, a rule with a primed
    subterm that is not a strictly smaller tree than the pattern, repeats a
    metavariable more often than the pattern or holds a template form: every
    recursive rewrite is of a smaller plain fragment, so rewriting ends."""
    lhs_counts = collect_metavars(rule.lhs)
    for name in collect_metavars(rule.rhs):
        if name not in lhs_counts:
            raise SourceError(
                f"unbound metavariable {name!r} in rule {rule.rule_id}", line, col
            )
    if any(isinstance(sub, TEMPLATE_FORMS) for sub in lang.walk(rule.lhs)):
        raise SourceError(
            f"rule {rule.rule_id}: template syntax on the left side", line, col
        )
    if rhs_kind != rule.lhs_kind:
        raise SourceError(
            f"rule {rule.rule_id}: the left side is {_KIND_NAMES[rule.lhs_kind]},"
            f" the right side {_KIND_NAMES[rhs_kind]}", line, col
        )
    if rhs_kind == "func" and (rule.rhs.name, [p.name for p in rule.rhs.params]) != (
        rule.lhs.name, [p.name for p in rule.lhs.params]
    ):
        raise SourceError(
            f"rule {rule.rule_id}: the right side renames the function or its parameters",
            line, col
        )
    for sub in lang.walk([rule.lhs, rule.rhs]):
        if isinstance(sub, lang.Call) and sub.func in BUILTIN_FUNCS:
            lo, hi = BUILTIN_FUNCS[sub.func]
            if not lo <= len(sub.args) <= hi:
                raise SourceError(
                    f"rule {rule.rule_id}: {sub.func}() takes {lo}..{hi} arguments", line, col
                )
        elif isinstance(sub, lang.MethodCall) and meta_kind(sub.obj) not in (None, "v"):
            raise SourceError(
                f"rule {rule.rule_id}: the list in {sub.obj}.{sub.method}(...)"
                " must be a name or a v-metavariable", line, col
            )
    lhs_size = lang.size(rule.lhs)
    primed = [sub.inner for sub in lang.walk(rule.rhs) if type(sub) is Primed]
    for sub in primed:
        if lang.size(sub) >= lhs_size:
            raise IllFormedModel(f"{rule.rule_id}: primed subterm is not smaller than the pattern")
        for name, count in collect_metavars(sub).items():
            if count > lhs_counts[name]:
                raise IllFormedModel(
                    f"{rule.rule_id}: primed subterm repeats metavariable {name!r}"
                )
    if any(isinstance(node, TEMPLATE_FORMS) for sub in primed for node in lang.walk(sub)):
        raise IllFormedModel(f"{rule.rule_id}: a primed subterm holds a set, a ?a, a ~op or a prime")
