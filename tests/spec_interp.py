"""The executable spec: a fuel-bounded tree-walking interpreter.

The package runs every program compiled (``autofix.compiler``).  This
interpreter is the independent reference the differential tests hold the
compiled code to: it walks the syntax tree and checks each operation as the
language defines it.  It uses only the value model of ``autofix.interp`` and
the syntax tree of ``autofix.lang``, never the compiler or its runtime.

Evaluation is deterministic and total: every run ends in ``Ok(value)`` or a
``Fault``.  Integers are two's-complement values of a configured bit width;
every arithmetic result wraps.  Lists and tuples are immutable snapshots
(assignment copies, ``append`` rebinds), which keeps candidate evaluation
free of shared state.
"""

from __future__ import annotations

from autofix import lang
from autofix.interp import MAX_CALL_DEPTH, Bounds, TupleVal
from autofix.lang import Span


def value_tag(v) -> str:
    if v is True or v is False:
        return "bool"
    if type(v) is int:
        return "int"
    if type(v) is TupleVal:
        return "tuple"
    if type(v) is tuple:
        return "list"
    raise TypeError(f"not a runtime value: {v!r}")


def values_equal(a, b) -> bool:
    ta, tb = value_tag(a), value_tag(b)
    if ta != tb:
        return False
    if ta in ("int", "bool"):
        return a == b
    if len(a) != len(b):
        return False
    return all(values_equal(x, y) for x, y in zip(a, b))


class EvalResult:
    """A run's value, or the kind of fault it ended in."""

    def __init__(self, value=None, fault: str | None = None):
        self.value = value
        self.fault = fault

    @property
    def is_ok(self) -> bool:
        return self.fault is None

    def __repr__(self):
        if self.is_ok:
            return f"Ok({self.value!r})"
        return f"Fault({self.fault})"


def ok(value) -> EvalResult:
    return EvalResult(value=value)


def fault(kind: str) -> EvalResult:
    return EvalResult(fault=kind)  # a result carries no location


class _FaultSignal(Exception):
    def __init__(self, kind: str, span: Span):
        self.kind = kind
        self.span = span


class _Return(Exception):
    def __init__(self, value):
        self.value = value


class Evaluator:
    """One evaluation of a program's entry function on one input."""

    def __init__(self, program: lang.Program, bounds: Bounds, callees=None):
        self.program = program
        self.bounds = bounds
        self.mask = (1 << bounds.int_bits) - 1
        self.half = 1 << (bounds.int_bits - 1)
        self.fuel = bounds.fuel
        self.depth = 0
        # non-entry calls may be redirected (e.g. to reference helpers)
        self.callees = callees or {}

    def wrap(self, v: int) -> int:
        return ((v + self.half) & self.mask) - self.half

    def run(self, args) -> EvalResult:
        entry = self.program.entry_func()
        try:
            return ok(self.call_func(entry, list(args)))
        except _FaultSignal as f:
            return fault(f.kind)

    # -- helpers -------------------------------------------------------------

    def tick(self, span: Span):
        self.fuel -= 1
        if self.fuel < 0:
            raise _FaultSignal("FuelExhausted", self.program.entry_func().span)

    def type_fault(self, span: Span):
        raise _FaultSignal("TypeMismatch", span)

    def call_func(self, func: lang.FuncDef, args: list):
        if len(args) != len(func.params):
            raise _FaultSignal("TypeMismatch", func.span)
        self.depth += 1
        if self.depth > MAX_CALL_DEPTH:
            raise _FaultSignal("FuelExhausted", func.span)
        env = dict(zip(func.params, args))
        try:
            self.exec_block(func.body, env)
        except _Return as r:
            return r.value
        finally:
            self.depth -= 1
        raise _FaultSignal("NoReturn", func.span)

    def lookup_func(self, name: str, span: Span) -> lang.FuncDef:
        if name != self.program.entry and name in self.callees:
            return self.callees[name]
        f = self.program.func(name)
        if f is None:
            self.type_fault(span)
        return f

    # -- statements ------------------------------------------------------------

    def exec_block(self, body: list, env: dict):
        for stmt in body:
            self.exec_stmt(stmt, env)

    def exec_stmt(self, stmt: lang.Stmt, env: dict):
        self.tick(stmt.span)
        cls = type(stmt)
        if cls is lang.Assign:
            value = self.eval(stmt.value, env)
            self.store(stmt.target, value, env)
        elif cls is lang.AugAssign:
            current = self.eval(stmt.target, env)
            rhs = self.eval(stmt.value, env)
            self.store(stmt.target, self.binop(stmt.op, current, rhs, stmt.span), env)
        elif cls is lang.MethodCall:
            seq = env.get(stmt.obj)
            if seq is None or value_tag(seq) != "list":
                self.type_fault(stmt.span)
            args = [self.eval(a, env) for a in stmt.args]
            env[stmt.obj] = seq + (args[0],)
        elif cls is lang.If:
            cond = self.eval(stmt.cond, env)
            if value_tag(cond) != "bool":
                self.type_fault(stmt.cond.span)
            self.exec_block(stmt.then_body if cond else stmt.else_body, env)
        elif cls is lang.While:
            while True:
                self.tick(stmt.span)
                cond = self.eval(stmt.cond, env)
                if value_tag(cond) != "bool":
                    self.type_fault(stmt.cond.span)
                if not cond:
                    break
                self.exec_block(stmt.body, env)
        elif cls is lang.ForIn:
            seq = self.eval(stmt.iterable, env)
            if value_tag(seq) not in ("list", "tuple"):
                self.type_fault(stmt.iterable.span)
            for item in seq:
                self.tick(stmt.span)
                env[stmt.var] = item
                self.exec_block(stmt.body, env)
        elif cls is lang.Return:
            raise _Return(self.eval(stmt.value, env))
        elif cls is lang.Pass:
            pass
        else:
            raise TypeError(f"cannot execute {stmt!r}")

    def store(self, target, value, env: dict):
        if type(target) is lang.Var:
            env[target.name] = value
            return
        # indexed store rebinds the variable to an updated copy
        if type(target) is not lang.Index or type(target.base) is not lang.Var:
            self.type_fault(target.span)
        base = target.base
        seq = env.get(base.name)
        if seq is None or value_tag(seq) != "list":
            self.type_fault(target.span)
        idx = self.eval(target.index, env)
        if value_tag(idx) != "int":
            self.type_fault(target.index.span)
        if not 0 <= idx < len(seq):
            raise _FaultSignal("IndexOutOfRange", target.span)
        env[base.name] = seq[:idx] + (value,) + seq[idx + 1 :]

    # -- expressions ------------------------------------------------------------

    def eval(self, node: lang.Expr, env: dict):
        self.tick(node.span)
        cls = type(node)
        if cls is lang.IntLit:
            return self.wrap(node.value)
        if cls is lang.BoolLit:
            return node.value
        if cls is lang.Var:
            try:
                return env[node.name]
            except KeyError:
                self.type_fault(node.span)
        if cls is lang.ListLit:
            return tuple(self.eval(e, env) for e in node.elements)
        if cls is lang.Index:
            seq = self.eval(node.base, env)
            if value_tag(seq) not in ("list", "tuple"):
                self.type_fault(node.base.span)
            idx = self.eval(node.index, env)
            if value_tag(idx) != "int":
                self.type_fault(node.index.span)
            if not 0 <= idx < len(seq):
                raise _FaultSignal("IndexOutOfRange", node.span)
            return seq[idx]
        if cls is lang.Slice:
            seq = self.eval(node.base, env)
            if value_tag(seq) not in ("list", "tuple"):
                self.type_fault(node.base.span)
            lo = 0 if node.lo is None else self.eval(node.lo, env)
            hi = len(seq) if node.hi is None else self.eval(node.hi, env)
            if value_tag(lo) != "int" or value_tag(hi) != "int":
                self.type_fault(node.span)
            lo = max(0, min(len(seq), lo))
            hi = max(0, min(len(seq), hi))
            out = seq[lo:hi] if lo < hi else ()
            return TupleVal(out) if type(seq) is TupleVal else tuple(out)
        if cls is lang.BinOp:
            left = self.eval(node.left, env)
            right = self.eval(node.right, env)
            return self.binop(node.op, left, right, node.span)
        if cls is lang.Compare:
            left = self.eval(node.left, env)
            right = self.eval(node.right, env)
            return self.compare(node.op, left, right, node.span)
        if cls is lang.BoolOp:
            left = self.eval(node.left, env)
            if value_tag(left) != "bool":
                self.type_fault(node.left.span)
            if node.op == "and" and not left:
                return False
            if node.op == "or" and left:
                return True
            right = self.eval(node.right, env)
            if value_tag(right) != "bool":
                self.type_fault(node.right.span)
            return right
        if cls is lang.Not:
            operand = self.eval(node.operand, env)
            if value_tag(operand) != "bool":
                self.type_fault(node.operand.span)
            return not operand
        if cls is lang.CondExpr:
            cond = self.eval(node.cond, env)
            if value_tag(cond) != "bool":
                self.type_fault(node.cond.span)
            return self.eval(node.body if cond else node.orelse, env)
        if cls is lang.Call:
            return self.call(node, env)
        raise TypeError(f"cannot evaluate {node!r}")

    def call(self, node: lang.Call, env: dict):
        args = [self.eval(a, env) for a in node.args]
        name = node.func
        if name == "len" and self.program.func(name) is None:
            if value_tag(args[0]) not in ("list", "tuple"):
                self.type_fault(node.span)
            return self.wrap(len(args[0]))
        if name == "range" and self.program.func(name) is None:
            return self.builtin_range(args, node.span)
        return self.call_func(self.lookup_func(name, node.span), args)

    def builtin_range(self, args: list, span: Span):
        if any(value_tag(a) != "int" for a in args):
            self.type_fault(span)
        if len(args) == 1:
            lo, hi, step = 0, args[0], 1
        elif len(args) == 2:
            lo, hi, step = args[0], args[1], 1
        else:
            lo, hi, step = args
        if step < 1:
            self.type_fault(span)
        return tuple(range(lo, hi, step))

    def binop(self, op: str, left, right, span: Span):
        tl, tr = value_tag(left), value_tag(right)
        if op == "+" and tl in ("list", "tuple"):
            if tr != tl:
                self.type_fault(span)
            joined = tuple(left) + tuple(right)
            return TupleVal(joined) if tl == "tuple" else joined
        if tl != "int" or tr != "int":
            self.type_fault(span)
        if op == "+":
            return self.wrap(left + right)
        if op == "-":
            return self.wrap(left - right)
        if op == "*":
            return self.wrap(left * right)
        if op == "/":
            if right == 0:
                raise _FaultSignal("DivByZero", span)
            q = abs(left) // abs(right)
            if (left < 0) != (right < 0):
                q = -q
            return self.wrap(q)
        if op == "**":
            if right < 0:
                self.type_fault(span)
            r = pow(left, right, self.mask + 1)
            return self.wrap(r)
        raise TypeError(f"unknown operator {op!r}")

    def compare(self, op: str, left, right, span: Span):
        tl, tr = value_tag(left), value_tag(right)
        if tl != tr:
            self.type_fault(span)
        if op == "==":
            return values_equal(left, right)
        if op == "!=":
            return not values_equal(left, right)
        if tl != "int":
            self.type_fault(span)
        if op == "<":
            return left < right
        if op == ">":
            return left > right
        if op == "<=":
            return left <= right
        return left >= right


def evaluate(program: lang.Program, input_state, bounds: Bounds, callees=None) -> EvalResult:
    """Run the entry function on one input.  Never raises for program-level
    errors; those surface as Fault results."""
    return Evaluator(program, bounds, callees).run(input_state)
