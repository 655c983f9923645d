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
flow-insensitively before its code is emitted, once: a variable's type is
the least that holds every value stored to it anywhere in the function, in
every alternative of every choice site (the stores `_survey` lists), so one
type holds for every pick tuple, and a read before any store still raises
``NameError``.  `_Emitter.typeof` holds every expression rule.  A read
that no store has reached yet has no value, and stays so through an index,
a slice, arithmetic and a loop, and only two tuples add to a tuple, so every
rule grows with its operands' types: the types are the least that hold
every store, in any order of the code.  Types are ``int``, ``bool`` (never
merged with ``int``: ``True + 1`` and ``True == 1`` are Python's, not the
language's), lists of one element type, tuples, and unknown.  The entry's
parameters take the signature's types when the caller promises inputs of
that signature (``ReferenceOracle.compile``) and nothing calls the entry;
every other parameter and every call result is unknown.  On proven operands
``+ - *`` are inlined with their wrap, comparisons of ints and ``==`` on two
values of one exact type are Python's own, a proven bool is not tested, a
proven list or tuple not checked, a list is sliced by Python with its int
ends clamped at 0, ``for`` iterates a ``range`` of one or two ints directly,
and constants fold.  What can fail on proven types stays checked: index
bounds, division by zero, negative exponents, ``range``'s step, fuel.  In
every program, fueled or not, two more go, on facts `_survey` finds: the
bounds check of ``v[i]`` in a loop ``for i in range([k,] len(v))`` over a
proven list (`_in_range`), and the wrap of ``len`` of an entry list
parameter that the entry never stores, while no input list is longer than
the largest int.  Operands are still
evaluated once, left to right.  The entry's return type, the join over its
``return`` statements in every alternative, comes with the runner
(``run.returns``); where it and the reference's join to an exact type
(`_exact`), ``run.exact`` lets the search compare results with Python's
``!=``.

Choice sites.  A choice-site program (``TildeProgram``) is compiled once for
the whole search; a candidate is its pick tuple, one alternative index per
site, passed with each input.  The picks are unpacked into one variable per
site, ``_s<id>``, a local of the entry wherever no run can exhaust its fuel
(else a variable of the closure), and each site becomes a branch on it: an
expression site a chain of conditional expressions, an operator site an
index into the tuple of its operators' helpers, a statement or block site
an ``if``/``elif`` chain whose branches hold the alternative's statements
(a list payload is spliced there, an empty one leaves the branch empty),
and an assignment target site a chain of stores of the value computed
once.  Code for every alternative is emitted, also inside alternatives the
pick leaves unused, so a variable assigned in any alternative is a local of
its ``def``; reading it before any assignment raises ``NameError``, a
``TypeMismatch`` as in the spec.  Compiled code reads a pick only as
``_sK == i`` or ``_oK[_sK]``, and only where the code of site K runs.  So a
run given picks that note each ``==`` and ``__index__`` learns the sites
its path depends on (`sites_read`), and any pick tuple that agrees with it
on those sites runs the same way on that input: the search's learned facts
rest on this contract, and code that reads a pick any other way breaks
them.

Fuel.  An expression compiles to its code; `_Emitter.typeof` gives its type
and `_ticks` its static ticks, one rule over the term: a tick per node that
always runs, none for an operator, an expression site's least alternative.
A statement is charged when it starts: its own tick plus its expressions'
static ticks.  The right operand of ``and``/``or`` and the chosen branch of
a conditional expression are charged when they run, and so is what the
alternative of an expression site that runs spends beyond the site's static
ticks; a statement site's alternatives charge their own statements.  The
counter is checked at function entry, at every loop iteration and at the end
of the run.  A run that ends ok is charged exactly the ticks the spec spends
on it and never more at any check, so it passes every check; a run that
spends more than its fuel is stopped by a check unless it faults first.  So
a fault's kind may differ from the spec's only where one of the two reports
``FuelExhausted``.  All of this fuel code is emitted only where a run can
exhaust the fuel: `_survey` bounds the ticks that a run of the program
spends, for any pick tuple, and where the bound is at most the fuel no tick
is counted, and no charge and no check is emitted.  A program with a
``while``, a call of a function, or a ``for`` over anything but
``range(...)`` has no bound.  Only a program with fuel code has a wrapper
around its entry, which sets and checks the counter; elsewhere nothing calls
the entry, and its ``def`` is the runner.
"""

from __future__ import annotations

import functools

from . import lang
from .interp import MAX_CALL_DEPTH, Bounds, Fault, helpers
from .lexer import SourceError
from .parser import BUILTIN_FUNCS
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
        inputs of its types within the bounds, and the entry's parameters
        take them.
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


class _ReadPick:
    """A pick that notes its site in a shared mask whenever compiled code
    reads it, as ``_sK == i`` or ``_oK[_sK]``."""

    __slots__ = ("value", "bit", "read")

    def __init__(self, value: int, bit: int, read: list):
        self.value = value
        self.bit = bit
        self.read = read

    def __eq__(self, other):
        self.read[0] |= self.bit
        return self.value == other

    def __index__(self):
        self.read[0] |= self.bit
        return self.value


def sites_read(run, args, picks: tuple) -> int:
    """The sites whose picks one run of the compiled choice-site program
    `run` on `args` with `picks` reads, as a bitmask of site ids, whether
    the run returns or faults.  A run with any other picks on the sites
    outside the mask takes the same path and ends the same way."""
    read = [0]
    try:
        run(args, tuple(_ReadPick(pick, 1 << k, read) for k, pick in enumerate(picks)))
    except Fault:
        pass
    return read[0]


# -- static types --------------------------------------------------------------
#
# A type is a string: "int", "bool", "tuple", "[t]" for a list whose elements
# all have type t, "?" for any value and "" for no value ("[]" holds only the
# empty list).  "int" and "bool" never merge, so where Python's operators on
# them differ from the language's (`True == 1`) no operand is proven.

_SEM_TYPES = {"int": "int", "bool": "bool", "list_int": "[int]", "tuple_int": "tuple"}
# the type of each node of these classes, whatever the types of its operands
_KNOWN = {lang.IntLit: "int", lang.BoolLit: "bool", lang.Compare: "bool", lang.Not: "bool",
          lang.BoolOp: "bool"}


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
    return t[1:-1] if t[:1] == "[" else t and "?"


def _is_seq(t: str) -> bool:
    return t[:1] == "[" or t == "tuple"


def _exact(t: str) -> bool:
    """Python's ``==`` on two values of type `t` is ``same``: no bool meets
    an int and no tuple a list."""
    return bool(t) and "?" not in t and "tuple" not in t


def _arith_type(op: str, left: str, right: str) -> str:
    """The type of ``left op right`` when it does not fault."""
    if not (left and right):
        return ""
    if op != "+" or "int" in (left, right):
        return "int"
    if left[:1] == right[:1] == "[":
        return _join(left, right)
    return "tuple" if left == right == "tuple" else "?"


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


def _ticks(node) -> int:
    """The static ticks of expression `node`, charged where its code
    starts: one for the node, plus those of each child that always runs with
    it.  An operator costs nothing and an expression site its cheapest
    alternative; the right operand of ``and``/``or`` and a conditional's
    branches are charged when they run (`_Emitter.lazy`)."""
    cls = type(node)
    if cls is ChoiceSite:
        return min(_ticks(alt.payload) for alt in node.alternatives)
    if cls is str:
        return 0
    always = [node.left] if cls is lang.BoolOp else [node.cond] if cls is lang.CondExpr else None
    return 1 + sum(map(_ticks, always or lang.children(node)))


def _survey(program: lang.Program, callees: dict, bounds: Bounds):
    """The compiler's one static walk of `program` and `callees`, through
    every alternative of every choice site.  It returns four facts:

    - whether a function of `program` or `callees` calls the entry;
    - a bound, capped at ``bounds.fuel + 1``, on the ticks one run of the
      entry spends for any pick tuple: a node ticks at most once, a choice
      site as much as all its alternatives, an augmented assignment's
      target twice (read, then stored), and a ``for`` over ``range`` runs
      its body at most ``2 ** int_bits`` times.  A ``while``, a call of
      anything but the builtins ``len`` and ``range``, or a ``for`` over
      anything else reaches the cap;
    - by the ``id`` of each loop that puts ``v[i]`` in range in its body,
      the name `v` (`_in_range`);
    - by the ``id`` of each function walked, the stores of its body, in
      every alternative: (name, value, wrap) where the variable's type
      holds `wrap` of the type of expression `value` (``target op value``
      for an augmented assignment), and `wrap` is ``str`` (the identity),
      `_list_of` for an indexed store or an ``append``, or `_element` for
      a loop's variable.  A store through two indices faults, and is left
      out."""
    cap = bounds.fuel + 1
    loops = 1 << bounds.int_bits  # more than a range of wrapped ints holds
    builtins = {name for name in BUILTIN_FUNCS if program.func(name) is None}
    called = set()
    ranged = {}
    typed = []  # the stores of the function being walked, with their values

    def target(node, value, wrap=str):
        while type(node) is lang.Index:
            node, wrap = node.base, wrap is str and _list_of
        if type(node) is lang.Var and wrap:
            typed.append((node.name, value, wrap))
        for alt in getattr(node, "alternatives", ()):
            target(alt.payload, value, wrap)

    def ticks(node) -> int:
        cls = type(node)
        if cls is ChoiceSite:
            total = sum(ticks(alt.payload) for alt in node.alternatives)
        elif cls is lang.ForIn:  # a call of a `range` the program defines reaches the cap
            target(lang.Var(node.var), node.iterable, _element)
            first = len(typed)  # the body's stores come from here on
            total = 1 + ticks(node.iterable) + loops * (1 + ticks(node.body))
            if type(node.iterable) is not lang.Call or node.iterable.func != "range":
                total = cap
            elif (v := _in_range(node, typed[first:], builtins, bounds)) is not None:
                ranged[id(node)] = v
        else:
            total = sum(map(ticks, lang.children(node))) + isinstance(node, (lang.Expr, lang.Stmt))
            if cls is lang.Assign:
                target(node.target, node.value)
            elif cls is lang.AugAssign:  # it stores ``target op value``
                target(node.target, lang.BinOp(node.target, node.op, node.value))
                total += ticks(node.target)
            elif cls is lang.MethodCall:  # an `append` of one value, or the emitter refuses it
                target(lang.Var(node.obj), node.args[0], _list_of)
            elif cls is lang.Call and node.func not in builtins:
                called.add(node.func)
                total = cap
            elif cls is lang.While:
                total = cap
        return min(total, cap)

    entry = program.entry_func()
    functions = {id(entry): typed}
    bound = ticks(entry.body)
    for func in program.functions + list(callees.values()):
        if func is not entry:
            typed = functions[id(func)] = []
            ticks(func.body)
    return program.entry in called, bound, ranged, functions


def _in_range(loop: lang.ForIn, stores: list, builtins: set, bounds: Bounds):
    """The name `v` if `loop` is ``for i in range([k,] len(v))``, with
    ``range`` and ``len`` the builtins, `k` a literal that wraps to at
    least 0, `v` not `i`, and neither name stored by `stores`, the body's
    stores from `_survey` (a store through two indices faults, and is left
    out): then, where `v` is a list, ``v[i]`` is in range in the body, as a
    wrapped length is never more than the true one."""
    *start, n = loop.iterable.args or [None]
    if (len(start) > 1 or not {"range", "len"} <= builtins or type(n) is not lang.Call
            or n.func != "len" or [type(a) for a in n.args] != [lang.Var]):
        return None
    if start and (type(start[0]) is not lang.IntLit
                  or (start[0].value + bounds.half) & bounds.mask < bounds.half):
        return None
    v = n.args[0].name
    return None if v == loop.var or {v, loop.var} & {name for name, _, _ in stores} else v


class _Emitter:
    """Python source for one program, which may hold choice sites.  An
    expression compiles to its code; `typeof` gives its static type and
    `_ticks` the static ticks its code is charged."""

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
        # id of a loop -> the list it keeps `v[i]` in, id of a function -> its stores
        calls_entry, ticks, self.loop_lists, self.stores = _survey(program, callees, bounds)
        self.fueled = ticks > bounds.fuel  # else no run can exhaust its fuel
        # the entry's parameters take the types its inputs are drawn from,
        # unless a call may give it other arguments
        entry = program.entry_func()
        if signature is None or calls_entry or signature.arity() != len(entry.params):
            self.entry_types = None
        else:
            self.entry_types = [_SEM_TYPES[sem] for _, sem in signature.params]
        self.short_lists = set()  # codes of the function's lists whose length needs no wrap
        self.vars = {}  # variable of the function being emitted -> type
        self.types = {}  # id of an expression node -> its type, under `vars`
        self.read = set()  # the variables `typeof` has read
        self.func_returns = ""  # join of the types the function being emitted returns
        self.returns = ""  # the entry's return type
        self.ranged = set()  # (list, index) codes of variables whose index is in range

    def source(self) -> str:
        entry = self.program.entry_func()
        run = self.func_name(entry)
        while self.pending:
            self.function(self.pending.pop(0))
        if not self.fueled:  # the entry is the runner
            return "\n".join(["def _make():", *self.preamble.values(), *self.lines,
                              f"    return {run}\n"])
        picks = [f"_s{i}" for i in range(self.sites)]
        lines = [  # a line that is falsy is left out
            "def _make():",
            "    _fuel = 0",
            picks and f"    {' = '.join(picks)} = 0",
            *self.preamble.values(),
            *self.lines,
            "    def _run(_args, _picks=()):",
            f"        nonlocal {', '.join(['_fuel'] + picks)}",
            f"        if len(_args) != {len(entry.params)}:",
            "            raise Fault('TypeMismatch')",
            picks and f"        {', '.join(picks)}, = _picks",
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
        if name in BUILTIN_FUNCS and program.func(name) is None:
            return name
        if name != program.entry and name in self.callees:
            return self.callees[name]
        return program.func(name)

    def function(self, func: lang.FuncDef):
        """One ``def``, emitted once its variables have their types
        (`settle`).  Where no run can exhaust its fuel, nothing calls a
        function, and the entry is the runner."""
        # like dict(zip(params, args)): a repeated parameter takes the last argument
        params = [
            f"v_{p}" if p not in func.params[i + 1 :] else f"_unused{i}"
            for i, p in enumerate(func.params)
        ]
        entry = func is self.program.entry_func()
        types = self.entry_types if entry else None
        runner = entry and not self.fueled
        # an input list is no longer than the largest int, so the length of
        # an entry list parameter that the entry never stores needs no wrap
        short = types and self.bounds.max_list_len <= self.bounds.int_hi
        stores = self.stores[id(func)]
        stored = {name for name, _, _ in stores}
        self.short_lists = {f"v_{p}" for p, t in zip(func.params, types or ())
                            if short and t[0] == "[" and p not in stored}
        self.vars = dict(zip(func.params, types or ["?"] * len(params)))
        self.settle(stores)
        self.func_returns = ""
        if runner:  # its arguments and the picks are its locals
            self.emit(1, f"def {self.func_name(func)}(_args, _picks=()):")
            self.emit(2, f"if len(_args) != {len(params)}:")
            self.emit(3, "raise Fault('TypeMismatch')")
            picks = [f"_s{i}" for i in range(self.sites)]
            for names, values in ((params, "_args"), (picks, "_picks")):
                if names:
                    self.emit(2, f"{', '.join(names)}, = {values}")
            self.emit(2, "try:")
        else:
            self.emit(1, f"def {self.func_name(func)}({', '.join(params + ['_d'])}):")
            self.emit(2, "nonlocal _fuel")
            self.emit(2, f"if _d > {MAX_CALL_DEPTH} or _fuel < 0:")
            self.emit(3, "raise Fault('FuelExhausted')")
        self.block(func.body, 2 + runner)
        self.emit(2 + runner, "raise Fault('NoReturn')")
        if runner:
            self.emit(2, "except NameError:")  # a variable read before any assignment
            self.emit(3, "raise Fault('TypeMismatch') from None")
        if entry:
            self.returns = self.func_returns

    def settle(self, stores: list):
        """Widen the variables' types until every store of a function, its
        (name, value, wrap) from `_survey`, holds.  A round types each store
        in turn, and runs again only if it widened a variable it had read."""
        again = True
        while again:
            again, self.types, self.read = False, {}, set()
            for name, value, wrap in stores:
                old = self.vars.get(name, "")
                new = _join(old, wrap(self.typeof(value)))
                if new != old:
                    self.vars[name] = new
                    again = again or name in self.read

    def typeof(self, node) -> str:
        """The static type of expression `node` under the variables' types."""
        cls = type(node)
        if cls in _KNOWN:
            return _KNOWN[cls]
        if cls is lang.Var:
            self.read.add(node.name)
            return self.vars.get(node.name, "")
        t = self.types.get(id(node))
        if t is not None:
            return t
        if cls is ChoiceSite:
            t = _join_all(self.typeof(alt.payload) for alt in node.alternatives)
        elif cls is lang.ListLit:
            t = _list_of(_join_all(map(self.typeof, node.elements)))
        elif cls is lang.Index:
            t = _element(self.typeof(node.base))
        elif cls is lang.Slice:
            t = self.typeof(node.base)
            t = t if _is_seq(t) else t and "?"
        elif cls is lang.BinOp:
            left, right = self.typeof(node.left), self.typeof(node.right)
            ops = [alt.payload for alt in getattr(node.op, "alternatives", ())] or [node.op]
            t = _join_all(_arith_type(op, left, right) for op in ops)
        elif cls is lang.CondExpr:
            t = _join(self.typeof(node.body), self.typeof(node.orelse))
        elif cls is lang.Call:
            callee = self.resolve(node.func)
            t = "int" if callee == "len" else "[int]" if callee == "range" else "?"
        else:
            raise TypeError(f"cannot compile {node!r}")
        self.types[id(node)] = t
        return t

    # -- checks the static types leave out -------------------------------------

    def wrap(self, code: str) -> str:
        """`code`, an int expression, wrapped to the integer width."""
        half, mask = self.bounds.half, self.bounds.mask
        return f"(({code} + {half} & {mask}) - {half})"

    def constant(self, value: int) -> str:
        half = self.bounds.half
        return f"({((value + half) & self.bounds.mask) - half})"

    def test(self, code: str, node) -> str:
        return code if self.typeof(node) == "bool" else f"_bool({code})"

    def seq(self, code: str, node) -> str:
        return code if _is_seq(self.typeof(node)) else f"_seq({code})"

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

    def choose(self, site: ChoiceSite, codes: list) -> str:
        """An expression site as a conditional expression over its
        alternatives' code; the site's ticks are static, each alternative
        charges the rest when it runs."""
        low = self.fueled and _ticks(site)
        pick = f"_s{site.site_id}"
        alts = site.alternatives
        chain = self.charged(codes[-1], alts[-1].payload, low)
        for i in reversed(range(len(codes) - 1)):
            chain = f"{self.charged(codes[i], alts[i].payload, low)} if {pick} == {i} else {chain}"
        return f"({chain})"

    def charged(self, code: str, node, static: int = 0) -> str:
        """`code`, the code of `node`, charged its ticks beyond `static`
        when it runs."""
        ticks = self.fueled and _ticks(node) - static
        return f"(_fuel := _fuel - {ticks}, {code})[1]" if ticks else code

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

    def charge(self, depth: int, *nodes, store: int = 0):
        """A statement's tick, the ticks of the expressions `nodes` that
        always run with it and the `store`'s."""
        if self.fueled:
            self.emit(depth, f"_fuel -= {1 + store + sum(map(_ticks, nodes))}")

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
            if cls is lang.AugAssign:  # it reads its target, then stores ``target op value``
                read, current, rhs = [stmt.target], self.expr(stmt.target), self.expr(stmt.value)
                value = self.arith(lang.BinOp(stmt.target, stmt.op, stmt.value), current, rhs)
            else:
                read, value = [], self.expr(stmt.value)
            lines, store_ticks = self.store(stmt.target, value)
            self.charge(depth, *read, stmt.value, store=store_ticks)
            for line in lines:
                self.emit(depth, line)
        elif cls is lang.MethodCall:
            if stmt.method != "append" or len(stmt.args) != 1:
                raise ValueError(f"cannot compile method call {stmt!r}")
            self.charge(depth, *stmt.args)
            self.emit(depth, f"v_{stmt.obj} = {self.lst(stmt.obj)} + ({self.expr(stmt.args[0])},)")
        elif cls is lang.If:
            self.charge(depth, stmt.cond)
            self.emit(depth, f"if {self.test(self.expr(stmt.cond), stmt.cond)}:")
            self.block(stmt.then_body, depth + 1)
            if stmt.else_body:
                self.emit(depth, "else:")
                self.block(stmt.else_body, depth + 1)
        elif cls is lang.While:
            self.charge(depth)
            self.emit(depth, "while True:")
            self.charge(depth + 1, stmt.cond)
            self.check_fuel(depth + 1)
            self.emit(depth + 1, f"if not {self.test(self.expr(stmt.cond), stmt.cond)}:")
            self.emit(depth + 2, "break")
            self.block(stmt.body, depth + 1)
        elif cls is lang.ForIn:
            iterable = self.expr(stmt.iterable)
            self.charge(depth, stmt.iterable)
            if type(stmt.iterable) is lang.Call and iterable.startswith("tuple(range("):
                # iterate the range itself
                iterable = iterable[len("tuple(") : -1]
            self.emit(depth, f"for v_{stmt.var} in {self.seq(iterable, stmt.iterable)}:")
            self.charge(depth + 1)
            self.check_fuel(depth + 1)
            v = self.loop_lists.get(id(stmt))
            pair = (f"v_{v}", f"v_{stmt.var}") if self.vars.get(v, "")[:1] == "[" else None
            self.ranged.add(pair)
            self.block(stmt.body, depth + 1)
            self.ranged.discard(pair)
        elif cls is lang.Return:
            self.func_returns = _join(self.func_returns, self.typeof(stmt.value))
            self.charge(depth, stmt.value)
            self.emit(depth, f"return {self.expr(stmt.value)}")
        elif cls is lang.Pass:
            self.charge(depth)
            if not self.fueled:
                self.emit(depth, "pass")
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
            stores = [self.store(each, "_v") for each in targets]
            low = min(ticks for _, ticks in stores)
            lines = [f"_v = {value}"]
            for (header, _), (alt_lines, ticks) in zip(self.branches(site), stores):
                lines.append(header)
                if ticks > low and self.fueled:
                    lines.append(f"    _fuel -= {ticks - low}")
                lines += ["    " + line for line in alt_lines]
            return lines, low
        if type(target) is lang.Var:
            return [f"v_{target.name} = {value}"], 0
        if type(target) is lang.Index and type(target.base) is lang.Var:
            name, index = target.base.name, self.expr(target.index)
            lines = [f"_t = {value}", f"v_{name} = _store({self.lst(name)}, {index}, _t)"]
            return lines, self.fueled and _ticks(target.index)
        return [f"_mismatch({value})"], 0

    # -- expressions ---------------------------------------------------------

    def expr(self, node) -> str:
        cls = type(node)
        if cls is ChoiceSite:
            return self.choose(node, [self.expr(alt.payload) for alt in node.alternatives])
        if cls is lang.IntLit:
            return self.constant(node.value)
        if cls is lang.BoolLit:
            return "True" if node.value else "False"
        if cls is lang.Var:
            return f"v_{node.name}"
        if cls is lang.ListLit:
            comma = "," if len(node.elements) == 1 else ""
            return f"({', '.join(map(self.expr, node.elements))}{comma})"
        if cls is lang.Index:
            base, index = self.expr(node.base), self.expr(node.index)
            if (base, index) in self.ranged:  # a proven list
                return f"{base}[{index}]"
            if _is_seq(self.typeof(node.base)) and self.typeof(node.index) == "int" and all(
                    c.isidentifier() or _constant(c) is not None for c in (base, index)):
                return f"({base}[{index}] if 0 <= {index} < len({base}) else _out_of_range())"
            return f"_index({self.seq(base, node.base)}, {index})"
        if cls is lang.Slice:
            base = self.expr(node.base)
            lo, hi = ("None" if end is None else self.expr(end) for end in (node.lo, node.hi))
            if self.typeof(node.base)[:1] == "[" and all(
                    end is None or self.typeof(end) == "int" for end in (node.lo, node.hi)):
                # Python's slice of a list, once negative ends are clamped to 0
                return f"{base}[{_slice_end(lo)}:{_slice_end(hi)}]"
            return f"_slice({self.seq(base, node.base)}, {lo}, {hi})"
        if cls is lang.BinOp or cls is lang.Compare:
            left, right = self.expr(node.left), self.expr(node.right)
            return (self.arith if cls is lang.BinOp else self.compare)(node, left, right)
        if cls is lang.BoolOp:
            left = self.test(self.expr(node.left), node.left)
            right = self.test(self.lazy(node.right), node.right)
            if type(node.op) is not ChoiceSite:
                return f"({left} {node.op} {right})"
            # one conditional expression per operator; `left` runs once
            return self.choose(node.op, [f"({left} {alt.payload} {right})"
                                         for alt in node.op.alternatives])
        if cls is lang.Not:
            return f"(not {self.test(self.expr(node.operand), node.operand)})"
        if cls is lang.CondExpr:
            cond = self.test(self.expr(node.cond), node.cond)
            return f"({self.lazy(node.body)} if {cond} else {self.lazy(node.orelse)})"
        if cls is lang.Call:
            return self.call(node)
        raise TypeError(f"cannot compile {node!r}")

    def lazy(self, node) -> str:
        """The code of `node`, charged its ticks only when it runs."""
        return self.charged(self.expr(node), node)

    def arith(self, node: lang.BinOp, a: str, b: str) -> str:
        """The code of `node` from its operands' code; inline where their
        types make the helper's checks pass, constants folded."""
        op = node.op
        if type(op) is ChoiceSite or op not in ("+", "-", "*"):
            return f"{self.operator(op, _ARITH)}({a}, {b})"
        x, y = _constant(a), _constant(b)
        if x is not None and y is not None:
            return self.constant(x + y if op == "+" else x - y if op == "-" else x * y)
        left, right = self.typeof(node.left), self.typeof(node.right)
        if left == right == "int":
            return self.wrap(f"{a} {op} {b}")
        if op == "+" and left[:1] == right[:1] == "[":
            return f"({a} + {b})"
        return f"{_ARITH[op]}({a}, {b})"

    def compare(self, node: lang.Compare, a: str, b: str) -> str:
        """The code of `node` from its operands' code: plain Python on two
        ints, and ``==``/``!=`` on two values of one exact type."""
        left, right = self.typeof(node.left), self.typeof(node.right)
        if type(node.op) is not ChoiceSite and left == right and (
            left == "int" or node.op in ("==", "!=") and _exact(left)
        ):
            return f"({a} {node.op} {b})"
        return f"{self.operator(node.op, _COMPARE)}({a}, {b})"

    def call(self, node: lang.Call) -> str:
        args = ", ".join(map(self.expr, node.args))
        callee = self.resolve(node.func)
        if callee == "len":
            if len(node.args) == 1 and _is_seq(self.typeof(node.args[0])):
                code = f"len({args})"
                return code if args in self.short_lists else self.wrap(code)
            return f"_len({args})"
        if callee == "range":  # the 3-argument form checks its step
            if len(node.args) in (1, 2) and all(self.typeof(arg) == "int" for arg in node.args):
                return f"tuple(range({args}))"
            return f"_range({args})"
        if callee is None or len(node.args) != len(callee.params):
            return f"_mismatch({args})"
        sep = ", " if args else ""
        return f"{self.func_name(callee)}({args}{sep}_d + 1)"
