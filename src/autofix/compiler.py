"""Compiler from ``lang.Program`` and ``TildeProgram`` to Python functions.

The reference table, screening and full verification run programs over many
inputs, so they run them compiled: every function reachable from the entry
becomes one Python ``def``, and the program goes through ``compile``/``exec``
once.  The compiled code makes every check the tree-walker in ``interp``
makes, in the same order, and gives the same values and the same ok/fault
split.  ``interp`` stays the executable spec; the differential tests compare
the two.

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
tree-walker.

Fuel.  A statement is charged its static tick count when it starts: its own
tick plus one per expression node that always runs.  The right operand of
``and``/``or`` and the chosen branch of a conditional expression are charged
when they run.  An expression site's static share is the least tick count
of its alternatives; the alternative that runs is charged the rest when it
runs, and a statement site's alternatives charge their own statements.  The
counter is checked at function entry, at every loop iteration and at the
end of the run.  A run that ends ok is charged exactly the ticks the
tree-walker spends on it and never more at any check, so it passes every
check; a run that spends more than its fuel is stopped by a check unless it
faults first.  So a fault's kind may differ from the tree-walker's only
where one of the two reports ``FuelExhausted``.
"""

from __future__ import annotations

from . import lang
from .interp import MAX_CALL_DEPTH, Bounds, TupleVal, evaluate
from .tilde import ChoiceSite, TildeProgram, instantiate


class Fault(Exception):
    """A compiled run faulted; ``kind`` is one of ``interp.FAULT_KINDS``."""

    def __init__(self, kind: str):
        super().__init__(kind)
        self.kind = kind


def same(a, b) -> bool:
    """``interp.values_equal``: equal values of identical runtime types, so
    ``True`` differs from ``1`` and a list from a tuple."""
    if type(a) is not type(b) or a != b:
        return False
    if type(a) is int or type(a) is bool:
        return True
    return all(map(same, a, b))


_ARITH = {"+": "_add", "-": "_sub", "*": "_mul", "/": "_div", "**": "_pow"}
_COMPARE = {"==": "_eq", "!=": "_ne", "<": "_lt", ">": "_gt", "<=": "_le", ">=": "_ge"}


def _runtime(bounds: Bounds) -> dict:
    """The helpers compiled code calls, for one integer width.  Each checks
    its operands' runtime types as the tree-walker does."""
    half = 1 << (bounds.int_bits - 1)
    mask = (1 << bounds.int_bits) - 1

    def mismatch(*_evaluated):
        raise Fault("TypeMismatch")

    def seq(v):
        if type(v) is tuple or type(v) is TupleVal:
            return v
        raise Fault("TypeMismatch")

    def lst(v):
        if type(v) is tuple:
            return v
        raise Fault("TypeMismatch")

    def boolean(v):
        if v is True or v is False:
            return v
        raise Fault("TypeMismatch")

    def ints(a, b):
        if type(a) is not int or type(b) is not int:
            raise Fault("TypeMismatch")

    def index(s, i):
        if type(i) is not int:
            raise Fault("TypeMismatch")
        if 0 <= i < len(s):
            return s[i]
        raise Fault("IndexOutOfRange")

    def store(s, i, v):
        if type(i) is not int:
            raise Fault("TypeMismatch")
        if 0 <= i < len(s):
            return s[:i] + (v,) + s[i + 1 :]
        raise Fault("IndexOutOfRange")

    def slice_(s, lo, hi):
        n = len(s)
        lo = 0 if lo is None else lo
        hi = n if hi is None else hi
        ints(lo, hi)
        lo = max(0, min(n, lo))
        hi = max(0, min(n, hi))
        out = s[lo:hi] if lo < hi else ()
        return TupleVal(out) if type(s) is TupleVal else tuple(out)

    def add(a, b):
        if type(a) is int and type(b) is int:
            return ((a + b + half) & mask) - half
        if type(a) is tuple and type(b) is tuple:
            return a + b
        if type(a) is TupleVal and type(b) is TupleVal:
            return TupleVal(a + b)
        raise Fault("TypeMismatch")

    def sub(a, b):
        ints(a, b)
        return ((a - b + half) & mask) - half

    def mul(a, b):
        ints(a, b)
        return ((a * b + half) & mask) - half

    def div(a, b):
        ints(a, b)
        if b == 0:
            raise Fault("DivByZero")
        q = abs(a) // abs(b)
        if (a < 0) != (b < 0):
            q = -q
        return ((q + half) & mask) - half

    def pow_(a, b):
        ints(a, b)
        if b < 0:
            raise Fault("TypeMismatch")
        return ((pow(a, b, mask + 1) + half) & mask) - half

    def eq(a, b):
        if type(a) is not type(b):
            raise Fault("TypeMismatch")
        return same(a, b)

    def ne(a, b):
        return not eq(a, b)

    def lt(a, b):
        ints(a, b)
        return a < b

    def gt(a, b):
        ints(a, b)
        return a > b

    def le(a, b):
        ints(a, b)
        return a <= b

    def ge(a, b):
        ints(a, b)
        return a >= b

    def length(v):
        return ((len(seq(v)) + half) & mask) - half

    def range_(*args):
        for a in args:
            if type(a) is not int:
                raise Fault("TypeMismatch")
        if len(args) == 1:
            lo, hi, step = 0, args[0], 1
        elif len(args) == 2:
            lo, hi, step = args[0], args[1], 1
        else:
            lo, hi, step = args
        if step < 1:
            raise Fault("TypeMismatch")
        return tuple(range(lo, hi, step))

    return {
        "Fault": Fault, "_mismatch": mismatch, "_seq": seq, "_list": lst,
        "_bool": boolean, "_index": index, "_store": store, "_slice": slice_,
        "_add": add, "_sub": sub, "_mul": mul, "_div": div, "_pow": pow_,
        "_eq": eq, "_ne": ne, "_lt": lt, "_gt": gt, "_le": le, "_ge": ge,
        "_len": length, "_range": range_,
    }


class Compiler:
    """Compiles programs to run under one ``Bounds``.  The runtime helpers
    are built once here and shared by every program compiled."""

    def __init__(self, bounds: Bounds):
        self.bounds = bounds
        self.namespace = _runtime(bounds)

    def compile(self, program, callees=None):
        """A function ``run(args, picks=())`` from one input (a tuple of
        argument values) to the entry function's value; it raises ``Fault``
        where ``interp.evaluate`` reports a fault.  `program` is a
        ``lang.Program`` or a ``TildeProgram``; for the latter, `picks` is
        the candidate's tuple of alternative indices, one per site.
        ``callees`` redirects calls as in ``interp``.  A program nested too
        deeply for Python's compiler runs on the tree-walker behind the same
        interface."""
        tilde = program if isinstance(program, TildeProgram) else None
        root = program.root if tilde else program
        sites = len(tilde.sites) if tilde else 0
        source = _Emitter(root, callees or {}, self.bounds, sites).source()
        try:
            code = compile(source, "<autofix>", "exec")
        except (SyntaxError, RecursionError, MemoryError):
            return self._interpreted(program, tilde, callees)
        scope = {}
        exec(code, self.namespace, scope)
        return scope["_make"]()

    def _interpreted(self, program, tilde, callees):
        bounds = self.bounds
        last = {}  # the pick tuple run last -> its instantiated program

        def run(args, picks=()):
            concrete = program
            if tilde is not None:
                concrete = last.get(picks)
                if concrete is None:
                    last.clear()
                    concrete = last[picks] = instantiate(tilde, dict(enumerate(picks))).program
            result = evaluate(concrete, args, bounds, callees)
            if result.fault is not None:
                raise Fault(result.fault)
            return result.value

        return run


class _Emitter:
    """Python source for one program, which may hold choice sites.  Every
    ``expr``/``stmt`` method returns code together with the static ticks
    the code is charged."""

    def __init__(self, program: lang.Program, callees: dict, bounds: Bounds, sites: int):
        self.program = program
        self.callees = callees
        self.bounds = bounds
        self.sites = sites
        self.lines = []
        self.preamble = {}  # site id -> line of `_make` before the functions
        self.names = {}  # id(FuncDef) -> Python name
        self.pending = []  # reachable functions not yet emitted

    def source(self) -> str:
        entry = self.program.entry_func()
        run = self.func_name(entry)
        while self.pending:
            self.function(self.pending.pop(0))
        picks = [f"_s{i}" for i in range(self.sites)]
        lines = ["def _make():", "    _fuel = 0"]
        if picks:
            lines.append(f"    {' = '.join(picks)} = 0")
        lines += list(self.preamble.values()) + self.lines
        lines += [
            "    def _run(_args, _picks=()):",
            f"        nonlocal {', '.join(['_fuel'] + picks)}",
            f"        if len(_args) != {len(entry.params)}:",
            "            raise Fault('TypeMismatch')",
        ]
        if picks:
            lines.append(f"        {', '.join(picks)}, = _picks")
        lines += [
            f"        _fuel = {self.bounds.fuel}",
            "        try:",
            f"            value = {run}(*_args, 1)",
            "        except NameError:",  # a variable read before any assignment
            "            raise Fault('TypeMismatch') from None",
            "        if _fuel < 0:",
            "            raise Fault('FuelExhausted')",
            "        return value",
            "    return _run",
        ]
        return "\n".join(lines) + "\n"

    def func_name(self, func: lang.FuncDef) -> str:
        name = self.names.get(id(func))
        if name is None:
            name = self.names[id(func)] = f"_f{len(self.names)}"
            self.pending.append(func)
        return name

    def resolve(self, name: str):
        """What ``name(...)`` calls, by ``Evaluator.call``'s rules: the
        builtin's name, a function definition, or None."""
        program = self.program
        if name in ("len", "range") and program.func(name) is None:
            return name
        if name != program.entry and name in self.callees:
            return self.callees[name]
        return program.func(name)

    def function(self, func: lang.FuncDef):
        # like dict(zip(params, args)): a repeated parameter takes the last argument
        params = [
            f"v_{p}" if p not in func.params[i + 1 :] else f"_unused{i}"
            for i, p in enumerate(func.params)
        ]
        emit = self.lines.append
        emit(f"    def {self.func_name(func)}({', '.join(params + ['_d'])}):")
        emit("        nonlocal _fuel")
        emit(f"        if _d > {MAX_CALL_DEPTH} or _fuel < 0:")
        emit("            raise Fault('FuelExhausted')")
        self.block(func.body, 2)
        emit("        raise Fault('NoReturn')")

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
        alternatives' (code, ticks); the least ticks are static, each
        alternative charges the rest when it runs."""
        low = min(ticks for _, ticks in compiled)
        pick = f"_s{site.site_id}"
        chain = self.charged(*compiled[-1], low)
        for i in reversed(range(len(compiled) - 1)):
            chain = f"{self.charged(*compiled[i], low)} if {pick} == {i} else {chain}"
        return f"({chain})", low

    def charged(self, code: str, ticks: int, static: int = 0) -> str:
        """`code`, charged its ticks beyond `static` when it runs."""
        if ticks == static:
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
        self.emit(depth, f"_fuel -= {ticks}")

    def check_fuel(self, depth: int):
        self.emit(depth, "if _fuel < 0:")
        self.emit(depth + 1, "raise Fault('FuelExhausted')")

    def stmt(self, stmt, depth: int):
        cls = type(stmt)
        if cls is ChoiceSite:
            for header, alt in self.branches(stmt):
                self.emit(depth, header)
                self.block(alt.payload, depth + 1)
        elif cls is lang.Assign:
            value, ticks = self.expr(stmt.value)
            lines, store_ticks = self.store(stmt.target, value)
            self.charge(depth, 1 + ticks + store_ticks)
            for line in lines:
                self.emit(depth, line)
        elif cls is lang.AugAssign:
            current, ticks = self.expr(stmt.target)
            rhs, rhs_ticks = self.expr(stmt.value)
            helper = self.operator(stmt.op, _ARITH)
            lines, store_ticks = self.store(stmt.target, f"{helper}({current}, {rhs})")
            self.charge(depth, 1 + ticks + rhs_ticks + store_ticks)
            for line in lines:
                self.emit(depth, line)
        elif cls is lang.MethodCall:
            if stmt.method != "append" or len(stmt.args) != 1:
                raise ValueError(f"cannot compile method call {stmt!r}")
            arg, ticks = self.expr(stmt.args[0])
            self.charge(depth, 1 + ticks)
            self.emit(depth, f"v_{stmt.obj} = _list(v_{stmt.obj}) + ({arg},)")
        elif cls is lang.If:
            cond, ticks = self.expr(stmt.cond)
            self.charge(depth, 1 + ticks)
            self.emit(depth, f"if _bool({cond}):")
            self.block(stmt.then_body, depth + 1)
            if stmt.else_body:
                self.emit(depth, "else:")
                self.block(stmt.else_body, depth + 1)
        elif cls is lang.While:
            cond, ticks = self.expr(stmt.cond)
            self.charge(depth, 1)
            self.emit(depth, "while True:")
            self.charge(depth + 1, 1 + ticks)
            self.check_fuel(depth + 1)
            self.emit(depth + 1, f"if not _bool({cond}):")
            self.emit(depth + 2, "break")
            self.block(stmt.body, depth + 1)
        elif cls is lang.ForIn:
            iterable, ticks = self.expr(stmt.iterable)
            self.charge(depth, 1 + ticks)
            self.emit(depth, f"for v_{stmt.var} in _seq({iterable}):")
            self.charge(depth + 1, 1)
            self.check_fuel(depth + 1)
            self.block(stmt.body, depth + 1)
        elif cls is lang.Return:
            value, ticks = self.expr(stmt.value)
            self.charge(depth, 1 + ticks)
            self.emit(depth, f"return {value}")
        elif cls is lang.Pass:
            self.charge(depth, 1)
        else:
            raise TypeError(f"cannot compile {stmt!r}")

    def store(self, target, value: str):
        """Lines that store `value` into `target`, and the ticks they add.
        An indexed store rebinds the variable to an updated copy.  Where a
        site picks the variable stored to, `value` is computed once and
        each alternative stores it."""
        site = None
        if type(target) is ChoiceSite:
            site, targets = target, [alt.payload for alt in target.alternatives]
        elif type(target) is lang.Index and type(target.base) is ChoiceSite:
            site = target.base
            targets = [lang.Index(alt.payload, target.index) for alt in site.alternatives]
        if site is not None:
            stores = [self.store(t, "_v") for t in targets]
            low = min(ticks for _, ticks in stores)
            lines = [f"_v = {value}"]
            for (header, _), (alt_lines, ticks) in zip(self.branches(site), stores):
                lines.append(header)
                if ticks > low:
                    lines.append(f"    _fuel -= {ticks - low}")
                lines += ["    " + line for line in alt_lines]
            return lines, low
        if type(target) is lang.Var:
            return [f"v_{target.name} = {value}"], 0
        if type(target) is lang.Index and type(target.base) is lang.Var:
            index, ticks = self.expr(target.index)
            name = f"v_{target.base.name}"
            return [f"_t = {value}", f"{name} = _store(_list({name}), {index}, _t)"], ticks
        return [f"_mismatch({value})"], 0

    # -- expressions ---------------------------------------------------------

    def expr(self, node):
        cls = type(node)
        if cls is ChoiceSite:
            return self.choose(node, [self.expr(alt.payload) for alt in node.alternatives])
        if cls is lang.IntLit:
            half = 1 << (self.bounds.int_bits - 1)
            mask = (1 << self.bounds.int_bits) - 1
            return f"({((node.value + half) & mask) - half})", 1
        if cls is lang.BoolLit:
            return ("True" if node.value else "False"), 1
        if cls is lang.Var:
            return f"v_{node.name}", 1
        if cls is lang.ListLit:
            code, ticks = self.exprs(node.elements)
            return f"({code}{',' if len(node.elements) == 1 else ''})", 1 + ticks
        if cls is lang.Index:
            base, base_ticks = self.expr(node.base)
            index, ticks = self.expr(node.index)
            return f"_index(_seq({base}), {index})", 1 + base_ticks + ticks
        if cls is lang.Slice:
            base, ticks = self.expr(node.base)
            ends = []
            for end in (node.lo, node.hi):
                code, end_ticks = ("None", 0) if end is None else self.expr(end)
                ends.append(code)
                ticks += end_ticks
            return f"_slice(_seq({base}), {ends[0]}, {ends[1]})", 1 + ticks
        if cls is lang.BinOp or cls is lang.Compare:
            helper = self.operator(node.op, _ARITH if cls is lang.BinOp else _COMPARE)
            code, ticks = self.exprs([node.left, node.right])
            return f"{helper}({code})", 1 + ticks
        if cls is lang.BoolOp:
            left, ticks = self.expr(node.left)
            right = self.lazy(node.right)
            if type(node.op) is not ChoiceSite:
                return f"(_bool({left}) {node.op} _bool({right}))", 1 + ticks
            # one conditional expression per operator; `left` runs once
            code, _ = self.choose(
                node.op, [(f"(_bool({left}) {alt.payload} _bool({right}))", 0)
                          for alt in node.op.alternatives]
            )
            return code, 1 + ticks
        if cls is lang.Not:
            operand, ticks = self.expr(node.operand)
            return f"(not _bool({operand}))", 1 + ticks
        if cls is lang.CondExpr:
            cond, ticks = self.expr(node.cond)
            body, orelse = self.lazy(node.body), self.lazy(node.orelse)
            return f"({body} if _bool({cond}) else {orelse})", 1 + ticks
        if cls is lang.Call:
            return self.call(node)
        raise TypeError(f"cannot compile {node!r}")

    def exprs(self, nodes: list):
        compiled = [self.expr(n) for n in nodes]
        return ", ".join(c for c, _ in compiled), sum(t for _, t in compiled)

    def lazy(self, node) -> str:
        """`node`, charged its ticks only when it runs."""
        return self.charged(*self.expr(node))

    def call(self, node: lang.Call):
        args, ticks = self.exprs(node.args)
        callee = self.resolve(node.func)
        if isinstance(callee, str):  # a builtin
            return f"_{callee}({args})", 1 + ticks
        if callee is None or len(node.args) != len(callee.params):
            return f"_mismatch({args})", 1 + ticks
        sep = ", " if args else ""
        return f"{self.func_name(callee)}({args}{sep}_d + 1)", 1 + ticks
