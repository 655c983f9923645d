"""Compiler from ``lang.Program`` to Python functions.

The reference table and full verification run a program over the whole
bounded input space, so they run it compiled: every function reachable from
the entry becomes one Python ``def``, and the program goes through
``compile``/``exec`` once.  The compiled code makes every check the
tree-walker in ``interp`` makes, in the same order, and gives the same
values and the same ok/fault split.  ``interp`` stays the executable spec;
the differential tests compare the two.

Fuel.  A statement is charged its static tick count when it starts: its own
tick plus one per expression node that always runs.  The right operand of
``and``/``or`` and the chosen branch of a conditional expression are charged
when they run.  The counter is checked at function entry, at every loop
iteration and at the end of the run.  A run that ends ok is charged exactly
the ticks the tree-walker spends on it and never more at any check, so it
passes every check; a run that spends more than its fuel is stopped by a
check unless it faults first.  So a fault's kind may differ from the
tree-walker's only where one of the two reports ``FuelExhausted``.
"""

from __future__ import annotations

from . import lang
from .interp import MAX_CALL_DEPTH, Bounds, TupleVal, evaluate


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

    def compile(self, program: lang.Program, callees=None):
        """A function from one input (a tuple of argument values) to the
        entry function's value; it raises ``Fault`` where ``interp.evaluate``
        reports a fault.  ``callees`` redirects calls as in ``interp``.
        A program nested too deeply for Python's compiler runs on the
        tree-walker behind the same interface."""
        source = _Emitter(program, callees or {}, self.bounds).source()
        try:
            code = compile(source, "<autofix>", "exec")
        except (SyntaxError, RecursionError, MemoryError):
            return self._interpreted(program, callees)
        scope = {}
        exec(code, self.namespace, scope)
        return scope["_make"]()

    def _interpreted(self, program, callees):
        bounds = self.bounds

        def run(args):
            result = evaluate(program, args, bounds, callees)
            if result.fault is not None:
                raise Fault(result.fault)
            return result.value

        return run


class _Emitter:
    """Python source for one program.  Every ``expr``/``stmt`` method
    returns code together with the static ticks the code is charged."""

    def __init__(self, program: lang.Program, callees: dict, bounds: Bounds):
        self.program = program
        self.callees = callees
        self.bounds = bounds
        self.lines = []
        self.names = {}  # id(FuncDef) -> Python name
        self.pending = []  # reachable functions not yet emitted
        self.bound = set()  # variables the current function assigns

    def source(self) -> str:
        entry = self.program.entry_func()
        run = self.func_name(entry)
        emit = self.lines.append
        emit("def _make():")
        emit("    _fuel = 0")
        while self.pending:
            self.function(self.pending.pop(0))
        emit("    def _run(_args):")
        emit("        nonlocal _fuel")
        emit(f"        if len(_args) != {len(entry.params)}:")
        emit("            raise Fault('TypeMismatch')")
        emit(f"        _fuel = {self.bounds.fuel}")
        emit("        try:")
        emit(f"            value = {run}(*_args, 1)")
        emit("        except UnboundLocalError:")  # a variable read before assignment
        emit("            raise Fault('TypeMismatch') from None")
        emit("        if _fuel < 0:")
        emit("            raise Fault('FuelExhausted')")
        emit("        return value")
        emit("    return _run")
        return "\n".join(self.lines) + "\n"

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
        self.bound = set(func.params) | _assigned(func.body)
        emit = self.lines.append
        emit(f"    def {self.func_name(func)}({', '.join(params + ['_d'])}):")
        emit("        nonlocal _fuel")
        emit(f"        if _d > {MAX_CALL_DEPTH} or _fuel < 0:")
        emit("            raise Fault('FuelExhausted')")
        self.block(func.body, 2)
        emit("        raise Fault('NoReturn')")

    # -- statements ----------------------------------------------------------

    def block(self, body: list, depth: int):
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

    def stmt(self, stmt: lang.Stmt, depth: int):
        cls = type(stmt)
        if cls is lang.Assign:
            value, ticks = self.expr(stmt.value)
            lines, store_ticks = self.store(stmt.target, value)
            self.charge(depth, 1 + ticks + store_ticks)
            for line in lines:
                self.emit(depth, line)
        elif cls is lang.AugAssign:
            current, ticks = self.expr(stmt.target)
            rhs, rhs_ticks = self.expr(stmt.value)
            lines, store_ticks = self.store(stmt.target, f"{_ARITH[stmt.op]}({current}, {rhs})")
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

    def store(self, target: lang.Expr, value: str):
        """Lines that store `value` into `target`, and the ticks they add.
        An indexed store rebinds the variable to an updated copy."""
        if type(target) is lang.Var:
            return [f"v_{target.name} = {value}"], 0
        if type(target) is lang.Index and type(target.base) is lang.Var:
            index, ticks = self.expr(target.index)
            name = f"v_{target.base.name}"
            return [f"_t = {value}", f"{name} = _store(_list({name}), {index}, _t)"], ticks
        return [f"_mismatch({value})"], 0

    # -- expressions ---------------------------------------------------------

    def expr(self, node: lang.Expr):
        cls = type(node)
        if cls is lang.IntLit:
            half = 1 << (self.bounds.int_bits - 1)
            mask = (1 << self.bounds.int_bits) - 1
            return f"({((node.value + half) & mask) - half})", 1
        if cls is lang.BoolLit:
            return ("True" if node.value else "False"), 1
        if cls is lang.Var:
            return (f"v_{node.name}" if node.name in self.bound else "_mismatch()"), 1
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
            helper = (_ARITH if cls is lang.BinOp else _COMPARE)[node.op]
            code, ticks = self.exprs([node.left, node.right])
            return f"{helper}({code})", 1 + ticks
        if cls is lang.BoolOp:
            left, ticks = self.expr(node.left)
            return f"(_bool({left}) {node.op} _bool({self.lazy(node.right)}))", 1 + ticks
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

    def lazy(self, node: lang.Expr) -> str:
        """`node`, charged its ticks only when it runs."""
        code, ticks = self.expr(node)
        return f"(_fuel := _fuel - {ticks}, {code})[1]"

    def call(self, node: lang.Call):
        args, ticks = self.exprs(node.args)
        callee = self.resolve(node.func)
        if isinstance(callee, str):  # a builtin
            return f"_{callee}({args})", 1 + ticks
        if callee is None or len(node.args) != len(callee.params):
            return f"_mismatch({args})", 1 + ticks
        sep = ", " if args else ""
        return f"{self.func_name(callee)}({args}{sep}_d + 1)", 1 + ticks


def _assigned(body: list) -> set:
    """Variables a statement list assigns anywhere, loops and branches
    included (Python makes exactly these local to the ``def``)."""
    names = set()
    for node in lang.walk(body):
        if isinstance(node, (lang.Assign, lang.AugAssign)):
            target = node.target
            if type(target) is lang.Index:
                target = target.base
            if type(target) is lang.Var:
                names.add(target.name)
        elif isinstance(node, lang.MethodCall):
            names.add(node.obj)
        elif isinstance(node, lang.ForIn):
            names.add(node.var)
    return names
