"""Compiler from ``lang.Program`` and ``TildeProgram`` to Python functions.

The reference table, screening and full verification run programs over many
inputs, so they run them compiled: every function reachable from the entry
becomes one Python ``def``, and the program goes through ``compile``/``exec``
once.  The compiled code is the package's only evaluator.  It makes every
check of the language that can fail, in the order the executable spec (the
tree-walker in ``tests/spec_interp.py``) makes it, and gives the spec's
values and ok/fault split; the differential tests compare the two.  A
program nested too deeply for Python's compiler is a ``SourceError``.

Static types.  A check is left out only where its operands' types are
proven, so it could not fail.  Each function's variables are typed
flow-insensitively: a variable's type is the union of the types of every
value stored to it anywhere in the function, in every alternative of every
choice site, so one type holds for every pick tuple, and a read before any
store still raises ``NameError``.  Types are ``int``, ``bool`` (never merged
with ``int``: ``True + 1`` and ``True == 1`` are Python's, not the
language's), lists of one element type, tuples, and unknown.  The entry's
parameters take the signature's types when the caller promises inputs of
that signature (``ReferenceOracle.compile``) and nothing calls the entry;
every other parameter and every call result is unknown.  On proven operands
``+ - *`` are inlined with their wrap, comparisons of ints and ``==`` on two
values of one exact type are Python's own, a proven bool is not tested, a
proven list or tuple not checked, a list is sliced by Python with its int
ends clamped at 0, ``for`` iterates a ``range`` of one or two ints directly,
and constants fold.  What can fail on proven types stays checked: index
bounds, division by zero, negative exponents, ``range``'s step, fuel.
Operands are still evaluated once, left to right.  The entry's return type,
the join over its ``return`` statements in every alternative, comes with
the runner (``run.returns``); where it and the reference's join to an
exact type (`_exact`), ``run.exact`` lets the search compare results with
Python's ``!=``.

Choice sites.  A choice-site program (``TildeProgram``) is compiled once for
the whole search; a candidate is its pick tuple, one alternative index per
site, passed with each input.  The picks are unpacked into one variable per
site, ``_s<id>``, and each site becomes a branch on it: an expression site a
chain of conditional expressions, an operator site an index into the tuple
of its operators' helpers, a statement or block site an ``if``/``elif``
chain whose branches hold the alternative's statements (a list payload is
spliced there, an empty one leaves the branch empty), and an assignment
target site a chain of stores of the value computed once.  Code for every
alternative is emitted, also inside alternatives the pick leaves unused, so
a variable assigned in any alternative is a local of its ``def``; reading it
before any assignment raises ``NameError``, a ``TypeMismatch`` as in the
spec.

Fuel.  A statement is charged its static tick count when it starts: its own
tick plus one per expression node that always runs.  The right operand of
``and``/``or`` and the chosen branch of a conditional expression are charged
when they run.  An expression site's static share is the least tick count
of its alternatives; the alternative that runs is charged the rest when it
runs, and a statement site's alternatives charge their own statements.  The
counter is checked at function entry, at every loop iteration and at the
end of the run.  A run that ends ok is charged exactly the ticks the spec
spends on it and never more at any check, so it passes every check; a run
that spends more than its fuel is stopped by a check unless it faults
first.  So a fault's kind may differ from the spec's only where one of the
two reports ``FuelExhausted``.  All of this fuel code is emitted only where
a run can exhaust the fuel: `_survey` bounds the ticks that a run of the
program spends, for any pick tuple, and where the bound is at most the fuel
no charge and no check is emitted.  A program with a ``while``, a call of a
function, or a ``for`` over anything but ``range(...)`` has no bound.
"""

from __future__ import annotations

import functools

from . import lang
from .interp import MAX_CALL_DEPTH, Bounds, helpers
from .lexer import SourceError
from .tilde import ChoiceSite, TildeProgram

# the helper that checks each operation where its operands are not proven
_ARITH = {"+": "_add", "-": "_sub", "*": "_mul", "/": "_div", "**": "_pow"}
_COMPARE = {"==": "_eq", "!=": "_ne", "<": "_lt", ">": "_gt", "<=": "_le", ">=": "_ge"}
# the messages of the ``SyntaxError``s Python's compiler raises for nesting alone
_TOO_DEEP = (
    "too many statically nested blocks",
    "too many nested parentheses",
    "too many levels of indentation",
)


class Compiler:
    """Compiles programs to run under one ``Bounds``.  The runtime helpers
    (``interp.helpers``) are built once here and shared by every program
    compiled."""

    def __init__(self, bounds: Bounds):
        self.bounds = bounds
        self.namespace = helpers(bounds)

    def compile(self, program, callees=None, signature=None, reference_type="?"):
        """A function ``run(args, picks=())`` from one input (a tuple of
        argument values) to the entry function's value; it raises ``Fault``
        where the program faults.  `program` is a ``lang.Program`` or a
        ``TildeProgram``; for the latter, `picks` is the candidate's tuple of
        alternative indices, one per site.  ``callees`` maps helper names to
        the ``FuncDef`` that calls of them run (not the entry's own calls).
        With a `signature` (``inputs.Signature``), `run` may only be given
        inputs of its types, and the entry's parameters take them.
        ``run.returns`` is the static type of every value `run` returns,
        for every pick tuple, and ``run.exact`` whether Python's ``==`` is
        ``same`` between them and the values of `reference_type`, the
        reference's static return type, unknown unless given (see
        `_exact`).  A program nested too deeply for Python's compiler
        raises ``SourceError`` at its entry's line."""
        tilde = program if isinstance(program, TildeProgram) else None
        root = program.root if tilde else program
        sites = len(tilde.sites) if tilde else 0
        emitter = _Emitter(root, callees or {}, self.bounds, sites, signature)
        source = emitter.source()
        try:
            code = compile(source, "<autofix>", "exec")
        except (SyntaxError, RecursionError, MemoryError) as err:
            if isinstance(err, SyntaxError) and err.msg not in _TOO_DEEP:
                raise  # a defect of the emitter, not of the program
            line = root.entry_func().span.line
            raise SourceError("nested too deeply to compile", line, 1) from None
        scope = {}
        exec(code, self.namespace, scope)
        run = scope["_make"]()
        run.returns = emitter.returns
        run.exact = _exact(_join(emitter.returns, reference_type))
        return run


# -- static types --------------------------------------------------------------
#
# A type is a string: "int", "bool", "tuple", "[t]" for a list whose elements
# all have type t, "?" for any value and "" for no value ("[]" holds only the
# empty list).  "int" and "bool" never merge, so where Python's operators on
# them differ from the language's (`True == 1`) no operand is proven.

_SEM_TYPES = {"int": "int", "bool": "bool", "list_int": "[int]", "tuple_int": "tuple"}


def _join(a: str, b: str) -> str:
    """The least type holding every value of `a` and every value of `b`."""
    if a == b or not b:
        return a
    if not a:
        return b
    if a[0] == b[0] == "[":
        return f"[{_join(a[1:-1], b[1:-1])}]"
    return "?"


def _join_all(types) -> str:
    return functools.reduce(_join, types, "")


def _list_of(t: str) -> str:
    # lists nest at most three deep, so that the types of a function settle
    return "[?]" if t.startswith("[[[") else f"[{t}]"


def _element(t: str) -> str:
    return t[1:-1] if t[:1] == "[" else "?"


def _is_seq(t: str) -> bool:
    return t[:1] == "[" or t == "tuple"


def _exact(t: str) -> bool:
    """Python's ``==`` on two values of type `t` is ``same``: no bool meets
    an int and no tuple a list."""
    return bool(t) and "?" not in t and "tuple" not in t


def _arith_type(op: str, left: str, right: str) -> str:
    """The type of ``left op right`` when it does not fault."""
    if op == "+" and left[:1] == right[:1] == "[":
        return _join(left, right)
    if op != "+" or "int" in (left, right):
        return "int"
    return "tuple" if "tuple" in (left, right) else "?"


def _constant(code: str):
    """The value of emitted code that is an integer literal, or None."""
    if code[:1] == "(" and code[1:-1].lstrip("-").isdigit():
        return int(code[1:-1])
    return None


def _slice_end(code: str) -> str:
    """A slice end for Python: absent, or clamped to 0 unless a constant."""
    if code == "None":
        return ""
    value = _constant(code)
    return code if value is not None and value >= 0 else f"max(0, {code})"


def _survey(program: lang.Program, callees: dict, bounds: Bounds):
    """Whether a function of `program` or `callees` calls the entry, in any
    alternative, and a bound, capped at ``bounds.fuel + 1``, on the ticks one
    run of the entry spends for any pick tuple: a node ticks at most once, a
    choice site as much as all its alternatives, an augmented assignment's
    target twice (read, then stored), and a ``for`` over ``range`` runs its
    body at most ``2 ** int_bits`` times.  A ``while``, a call of anything
    but the builtins ``len`` and ``range``, or a ``for`` over anything else
    reaches the cap."""
    cap = bounds.fuel + 1
    loops = 1 << bounds.int_bits  # more than a range of wrapped ints holds
    builtins = {name for name in ("len", "range") if program.func(name) is None}
    called = set()

    def ticks(node) -> int:
        cls = type(node)
        if cls is ChoiceSite:
            total = sum(ticks(alt.payload) for alt in node.alternatives)
        elif cls is lang.ForIn:  # a call of a `range` the program defines reaches the cap
            total = 1 + ticks(node.iterable) + loops * (1 + ticks(node.body))
            if type(node.iterable) is not lang.Call or node.iterable.func != "range":
                total = cap
        else:
            total = sum(map(ticks, lang.children(node))) + isinstance(node, (lang.Expr, lang.Stmt))
            if cls is lang.AugAssign:
                total += ticks(node.target)
            elif cls is lang.Call and node.func not in builtins:
                called.add(node.func)
                total = cap
            elif cls is lang.While:
                total = cap
        return min(total, cap)

    entry = program.entry_func()
    bound = ticks(entry.body)
    for func in program.functions + list(callees.values()):
        if func is not entry:
            ticks(func.body)
    return program.entry in called, bound


class _Emitter:
    """Python source for one program, which may hold choice sites.  An
    expression compiles to its code, the static ticks the code is charged
    and the code's static type."""

    def __init__(self, program: lang.Program, callees: dict, bounds: Bounds, sites: int,
                 signature=None):
        self.program = program
        self.callees = callees
        self.bounds = bounds
        self.sites = sites
        self.lines = []
        self.preamble = {}  # site id -> line of `_make` before the functions
        self.names = {}  # id(FuncDef) -> Python name
        self.pending = []  # reachable functions not yet emitted
        calls_entry, ticks = _survey(program, callees, bounds)
        self.fueled = ticks > bounds.fuel  # else no run can exhaust its fuel
        # the entry's parameters take the types its inputs are drawn from,
        # unless a call may give it other arguments
        arity = len(program.entry_func().params)
        if signature is None or calls_entry or signature.arity() != arity:
            self.entry_types = None
        else:
            self.entry_types = [_SEM_TYPES[sem] for _, sem in signature.params]
        self.vars = {}  # variable of the function being emitted -> type
        self.changed = False  # whether a store widened a variable's type
        self.func_returns = ""  # join of the types the function being emitted returns
        self.returns = ""  # the entry's return type

    def source(self) -> str:
        entry = self.program.entry_func()
        run = self.func_name(entry)
        while self.pending:
            self.function(self.pending.pop(0))
        picks = [f"_s{i}" for i in range(self.sites)]
        fuel = self.fueled
        cells = ["_fuel"] * fuel + picks
        lines = [  # a line that is falsy is left out
            "def _make():",
            fuel and "    _fuel = 0",
            picks and f"    {' = '.join(picks)} = 0",
            *self.preamble.values(),
            *self.lines,
            "    def _run(_args, _picks=()):",
            cells and f"        nonlocal {', '.join(cells)}",
            f"        if len(_args) != {len(entry.params)}:",
            "            raise Fault('TypeMismatch')",
            picks and f"        {', '.join(picks)}, = _picks",
            fuel and f"        _fuel = {self.bounds.fuel}",
            "        try:",
            f"            value = {run}(*_args, 1)",
            "        except NameError:",  # a variable read before any assignment
            "            raise Fault('TypeMismatch') from None",
            fuel and "        if _fuel < 0:",
            fuel and "            raise Fault('FuelExhausted')",
            "        return value",
            "    return _run",
        ]
        return "\n".join(line for line in lines if line) + "\n"

    def func_name(self, func: lang.FuncDef) -> str:
        name = self.names.get(id(func))
        if name is None:
            name = self.names[id(func)] = f"_f{len(self.names)}"
            self.pending.append(func)
        return name

    def resolve(self, name: str):
        """What ``name(...)`` calls: the builtin's name unless the program
        defines it, a callee unless `name` is the entry, else the program's
        function definition, or None."""
        program = self.program
        if name in ("len", "range") and program.func(name) is None:
            return name
        if name != program.entry and name in self.callees:
            return self.callees[name]
        return program.func(name)

    def function(self, func: lang.FuncDef):
        """One ``def``, emitted until no store widens a variable's type: the
        code kept, and the entry's return type, come from the pass with
        every variable's final type."""
        # like dict(zip(params, args)): a repeated parameter takes the last argument
        params = [
            f"v_{p}" if p not in func.params[i + 1 :] else f"_unused{i}"
            for i, p in enumerate(func.params)
        ]
        entry = func is self.program.entry_func()
        types = self.entry_types if entry else None
        self.vars = dict(zip(func.params, types or ["?"] * len(params)))
        start = len(self.lines)
        self.changed = True
        while self.changed:
            del self.lines[start:]
            self.changed = False
            self.func_returns = ""
            self.emit(1, f"def {self.func_name(func)}({', '.join(params + ['_d'])}):")
            if self.fueled:  # else nothing calls a function
                self.emit(2, "nonlocal _fuel")
                self.emit(2, f"if _d > {MAX_CALL_DEPTH} or _fuel < 0:")
                self.emit(3, "raise Fault('FuelExhausted')")
            self.block(func.body, 2)
            self.emit(2, "raise Fault('NoReturn')")
        if entry:
            self.returns = self.func_returns

    def bind(self, name: str, t: str):
        """Widen variable `name`'s type to hold a stored value of type `t`."""
        old = self.vars.get(name, "")
        new = _join(old, t)
        if new != old:
            self.vars[name] = new
            self.changed = True

    # -- checks the static types leave out -------------------------------------

    def wrap(self, code: str) -> str:
        """`code`, an int expression, wrapped to the integer width."""
        half, mask = self.bounds.half, self.bounds.mask
        return f"(({code} + {half} & {mask}) - {half})"

    def constant(self, value: int) -> str:
        half = self.bounds.half
        return f"({((value + half) & self.bounds.mask) - half})"

    @staticmethod
    def test(code: str, t: str) -> str:
        return code if t == "bool" else f"_bool({code})"

    @staticmethod
    def seq(code: str, t: str) -> str:
        return code if _is_seq(t) else f"_seq({code})"

    def lst(self, name: str) -> str:
        code = f"v_{name}"
        return code if self.vars.get(name, "")[:1] == "[" else f"_list({code})"

    # -- choice sites --------------------------------------------------------

    def branches(self, site: ChoiceSite):
        """(header, alternative) per alternative of `site`: the ``if``,
        ``elif`` and ``else`` lines that select it by its pick."""
        last = len(site.alternatives) - 1
        for i, alt in enumerate(site.alternatives):
            test = f"_s{site.site_id} == {i}:"
            yield ("else:" if i == last else f"if {test}" if i == 0 else f"elif {test}"), alt

    def choose(self, site: ChoiceSite, compiled: list):
        """An expression site as a conditional expression over its
        alternatives' (code, ticks, type); the least ticks are static, each
        alternative charges the rest when it runs."""
        low = min(ticks for _, ticks, _ in compiled)
        pick = f"_s{site.site_id}"
        chain = self.charged(*compiled[-1][:2], low)
        for i in reversed(range(len(compiled) - 1)):
            chain = f"{self.charged(*compiled[i][:2], low)} if {pick} == {i} else {chain}"
        return f"({chain})", low, _join_all(t for _, _, t in compiled)

    def charged(self, code: str, ticks: int, static: int = 0) -> str:
        """`code`, charged its ticks beyond `static` when it runs."""
        if ticks == static or not self.fueled:
            return code
        return f"(_fuel := _fuel - {ticks - static}, {code})[1]"

    def operator(self, op, table: dict) -> str:
        """The helper for operator `op`; for an operator site, the one its
        pick selects from a tuple built once."""
        if type(op) is not ChoiceSite:
            return table[op]
        helpers = ", ".join(table[alt.payload] for alt in op.alternatives)
        self.preamble[op.site_id] = f"    _o{op.site_id} = ({helpers},)"
        return f"_o{op.site_id}[_s{op.site_id}]"

    # -- statements ----------------------------------------------------------

    def block(self, body, depth: int):
        """A statement list; a block site (or one statement) stands for a
        list of one."""
        if type(body) is not list:
            body = [body]
        if not body:
            self.emit(depth, "pass")
        for stmt in body:
            self.stmt(stmt, depth)

    def emit(self, depth: int, line: str):
        self.lines.append("    " * depth + line)

    def charge(self, depth: int, ticks: int):
        if self.fueled:
            self.emit(depth, f"_fuel -= {ticks}")

    def check_fuel(self, depth: int):
        if self.fueled:
            self.emit(depth, "if _fuel < 0:")
            self.emit(depth + 1, "raise Fault('FuelExhausted')")

    def stmt(self, stmt, depth: int):
        cls = type(stmt)
        if cls is ChoiceSite:
            for header, alt in self.branches(stmt):
                self.emit(depth, header)
                self.block(alt.payload, depth + 1)
        elif cls is lang.Assign or cls is lang.AugAssign:
            if cls is lang.AugAssign:
                current, rhs = self.expr(stmt.target), self.expr(stmt.value)
                value, t = self.arith(stmt.op, current, rhs)
                ticks = current[1] + rhs[1]
            else:
                value, ticks, t = self.expr(stmt.value)
            lines, store_ticks = self.store(stmt.target, value, t)
            self.charge(depth, 1 + ticks + store_ticks)
            for line in lines:
                self.emit(depth, line)
        elif cls is lang.MethodCall:
            if stmt.method != "append" or len(stmt.args) != 1:
                raise ValueError(f"cannot compile method call {stmt!r}")
            arg, ticks, t = self.expr(stmt.args[0])
            self.charge(depth, 1 + ticks)
            self.emit(depth, f"v_{stmt.obj} = {self.lst(stmt.obj)} + ({arg},)")
            self.bind(stmt.obj, _list_of(t))
        elif cls is lang.If:
            cond, ticks, t = self.expr(stmt.cond)
            self.charge(depth, 1 + ticks)
            self.emit(depth, f"if {self.test(cond, t)}:")
            self.block(stmt.then_body, depth + 1)
            if stmt.else_body:
                self.emit(depth, "else:")
                self.block(stmt.else_body, depth + 1)
        elif cls is lang.While:
            cond, ticks, t = self.expr(stmt.cond)
            self.charge(depth, 1)
            self.emit(depth, "while True:")
            self.charge(depth + 1, 1 + ticks)
            self.check_fuel(depth + 1)
            self.emit(depth + 1, f"if not {self.test(cond, t)}:")
            self.emit(depth + 2, "break")
            self.block(stmt.body, depth + 1)
        elif cls is lang.ForIn:
            iterable, ticks, t = self.expr(stmt.iterable)
            self.charge(depth, 1 + ticks)
            if type(stmt.iterable) is lang.Call and iterable.startswith("tuple(range("):
                # iterate the range itself
                iterable = iterable[len("tuple(") : -1]
            self.emit(depth, f"for v_{stmt.var} in {self.seq(iterable, t)}:")
            self.bind(stmt.var, _element(t))
            self.charge(depth + 1, 1)
            self.check_fuel(depth + 1)
            self.block(stmt.body, depth + 1)
        elif cls is lang.Return:
            value, ticks, t = self.expr(stmt.value)
            self.func_returns = _join(self.func_returns, t)
            self.charge(depth, 1 + ticks)
            self.emit(depth, f"return {value}")
        elif cls is lang.Pass:
            self.charge(depth, 1)
            if not self.fueled:
                self.emit(depth, "pass")
        else:
            raise TypeError(f"cannot compile {stmt!r}")

    def store(self, target, value: str, t: str):
        """Lines that store `value`, of type `t`, into `target`, and the
        ticks they add.  An indexed store rebinds the variable to an updated
        copy.  Where a site picks the variable stored to, `value` is
        computed once and each alternative stores it."""
        site = None
        if type(target) is ChoiceSite:
            site, targets = target, [alt.payload for alt in target.alternatives]
        elif type(target) is lang.Index and type(target.base) is ChoiceSite:
            site = target.base
            targets = [lang.Index(alt.payload, target.index) for alt in site.alternatives]
        if site is not None:
            stores = [self.store(each, "_v", t) for each in targets]
            low = min(ticks for _, ticks in stores)
            lines = [f"_v = {value}"]
            for (header, _), (alt_lines, ticks) in zip(self.branches(site), stores):
                lines.append(header)
                if ticks > low and self.fueled:
                    lines.append(f"    _fuel -= {ticks - low}")
                lines += ["    " + line for line in alt_lines]
            return lines, low
        if type(target) is lang.Var:
            self.bind(target.name, t)
            return [f"v_{target.name} = {value}"], 0
        if type(target) is lang.Index and type(target.base) is lang.Var:
            index, ticks, _ = self.expr(target.index)
            name = target.base.name
            lines = [f"_t = {value}", f"v_{name} = _store({self.lst(name)}, {index}, _t)"]
            self.bind(name, _list_of(t))
            return lines, ticks
        return [f"_mismatch({value})"], 0

    # -- expressions ---------------------------------------------------------

    def expr(self, node):
        cls = type(node)
        if cls is ChoiceSite:
            return self.choose(node, [self.expr(alt.payload) for alt in node.alternatives])
        if cls is lang.IntLit:
            return self.constant(node.value), 1, "int"
        if cls is lang.BoolLit:
            return ("True" if node.value else "False"), 1, "bool"
        if cls is lang.Var:
            return f"v_{node.name}", 1, self.vars.get(node.name, "")
        if cls is lang.ListLit:
            code, ticks, types = self.exprs(node.elements)
            comma = "," if len(node.elements) == 1 else ""
            return f"({code}{comma})", 1 + ticks, _list_of(_join_all(types))
        if cls is lang.Index:
            base, base_ticks, t = self.expr(node.base)
            index, ticks, index_type = self.expr(node.index)
            ticks += 1 + base_ticks
            if not _is_seq(t):
                return f"_index(_seq({base}), {index})", ticks, "?"
            if index_type == "int" and all(c.isidentifier() or _constant(c) is not None
                                           for c in (base, index)):
                code = f"({base}[{index}] if 0 <= {index} < len({base}) else _out_of_range())"
            else:
                code = f"_index({base}, {index})"
            return code, ticks, _element(t)
        if cls is lang.Slice:
            base, ticks, t = self.expr(node.base)
            ends, end_types = [], []
            for end in (node.lo, node.hi):
                code, end_ticks, end_type = ("None", 0, "int") if end is None else self.expr(end)
                ends.append(code)
                end_types.append(end_type)
                ticks += end_ticks
            if t[:1] == "[" and end_types == ["int", "int"]:
                # Python's slice of a list, once negative ends are clamped to 0
                lo, hi = map(_slice_end, ends)
                return f"{base}[{lo}:{hi}]", 1 + ticks, t
            code = f"_slice({self.seq(base, t)}, {ends[0]}, {ends[1]})"
            return code, 1 + ticks, t if _is_seq(t) else "?"
        if cls is lang.BinOp or cls is lang.Compare:
            left, right = self.expr(node.left), self.expr(node.right)
            code, t = (self.arith if cls is lang.BinOp else self.compare)(node.op, left, right)
            return code, 1 + left[1] + right[1], t
        if cls is lang.BoolOp:
            left, ticks, t = self.expr(node.left)
            left = self.test(left, t)
            right = self.test(*self.lazy(node.right))
            if type(node.op) is not ChoiceSite:
                return f"({left} {node.op} {right})", 1 + ticks, "bool"
            # one conditional expression per operator; `left` runs once
            code, _, _ = self.choose(
                node.op, [(f"({left} {alt.payload} {right})", 0, "bool")
                          for alt in node.op.alternatives]
            )
            return code, 1 + ticks, "bool"
        if cls is lang.Not:
            operand, ticks, t = self.expr(node.operand)
            return f"(not {self.test(operand, t)})", 1 + ticks, "bool"
        if cls is lang.CondExpr:
            cond, ticks, t = self.expr(node.cond)
            (body, body_type), (orelse, orelse_type) = self.lazy(node.body), self.lazy(node.orelse)
            code = f"({body} if {self.test(cond, t)} else {orelse})"
            return code, 1 + ticks, _join(body_type, orelse_type)
        if cls is lang.Call:
            return self.call(node)
        raise TypeError(f"cannot compile {node!r}")

    def exprs(self, nodes: list):
        """Comma-separated code, summed ticks and the types of `nodes`."""
        compiled = [self.expr(n) for n in nodes]
        return (", ".join(c for c, _, _ in compiled), sum(t for _, t, _ in compiled),
                [t for _, _, t in compiled])

    def lazy(self, node):
        """`node`, charged its ticks only when it runs, and its type."""
        code, ticks, t = self.expr(node)
        return self.charged(code, ticks), t

    def arith(self, op, left, right):
        """Code and type of ``left op right``; inline where the operands'
        types make the helper's checks pass, constants folded."""
        (a, _, left_type), (b, _, right_type) = left, right
        if type(op) is ChoiceSite:
            t = _join_all(_arith_type(alt.payload, left_type, right_type)
                          for alt in op.alternatives)
            return f"{self.operator(op, _ARITH)}({a}, {b})", t
        if op in ("+", "-", "*"):
            x, y = _constant(a), _constant(b)
            if x is not None and y is not None:
                value = x + y if op == "+" else x - y if op == "-" else x * y
                return self.constant(value), "int"
            if left_type == right_type == "int":
                return self.wrap(f"{a} {op} {b}"), "int"
        if op == "+" and left_type[:1] == right_type[:1] == "[":
            return f"({a} + {b})", _join(left_type, right_type)
        return f"{_ARITH[op]}({a}, {b})", _arith_type(op, left_type, right_type)

    def compare(self, op, left, right):
        """Code and type of ``left op right``: plain Python on two ints, and
        ``==``/``!=`` on two values of one exact type."""
        (a, _, left_type), (b, _, right_type) = left, right
        if type(op) is not ChoiceSite and left_type == right_type and (
            left_type == "int" or op in ("==", "!=") and _exact(left_type)
        ):
            return f"({a} {op} {b})", "bool"
        return f"{self.operator(op, _COMPARE)}({a}, {b})", "bool"

    def call(self, node: lang.Call):
        args, ticks, types = self.exprs(node.args)
        ticks += 1
        callee = self.resolve(node.func)
        if callee == "len":
            if len(types) == 1 and _is_seq(types[0]):
                return self.wrap(f"len({args})"), ticks, "int"
            return f"_len({args})", ticks, "int"
        if callee == "range":  # the 3-argument form checks its step
            if len(types) in (1, 2) and all(t == "int" for t in types):
                return f"tuple(range({args}))", ticks, "[int]"
            return f"_range({args})", ticks, "[int]"
        if callee is None or len(node.args) != len(callee.params):
            return f"_mismatch({args})", ticks, "?"
        sep = ", " if args else ""
        return f"{self.func_name(callee)}({args}{sep}_d + 1)", ticks, "?"
