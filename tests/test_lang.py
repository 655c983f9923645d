import inspect
import pickle

import pytest

from autofix import eml, lang
from autofix.parser import parse_imp

# attributes that only locate a node in its text, with their defaults;
# every other attribute is structural
LOCATION_FIELDS = {"span": lang.NO_SPAN, "op_span": lang.NO_SPAN, "source": ""}

NODE_CLASSES = [
    cls
    for module in (lang, eml)
    for _, cls in inspect.getmembers(module, inspect.isclass)
    if issubclass(cls, lang.Node) and cls not in (lang.Node, lang.Expr, lang.Stmt)
]


def test_every_node_class_is_checked():
    assert len(NODE_CLASSES) == 22 + 6  # lang's node classes, eml's template forms


@pytest.mark.parametrize("cls", NODE_CLASSES, ids=lambda cls: cls.__name__)
def test_declared_fields_are_the_dataclass_fields(cls):
    # `fields` then `locators` is a node class's one declaration: its
    # positional constructor, and what equality compares
    assert cls.locators and set(cls.locators) <= LOCATION_FIELDS.keys()
    assert not LOCATION_FIELDS.keys() & set(cls.fields)
    assert "key" not in vars(cls)  # the one structural key is the base class's
    spans = {name: lang.Span(3, i + 1, 10 * i, 10 * i + 5) for i, name in enumerate(cls.locators)}
    if "source" in spans:
        spans["source"] = "def f_int():\n    return 0\n"
    values = {name: [f"v{i}"] for i, name in enumerate(cls.fields)}
    values.update(spans)
    node = cls(*values.values())
    for name, value in values.items():
        assert getattr(node, name) is value
    assert node == cls(*values.values()) and not node != cls(*values.values())
    assert repr(node).startswith(f"{cls.__name__}(")
    fields = [values[name] for name in cls.fields]
    for kept in range(len(cls.locators)):  # left-out trailing locators default
        bare = cls(*fields, *list(spans.values())[:kept])
        left_out = cls.locators[kept:]
        assert [getattr(bare, n) for n in left_out] == [LOCATION_FIELDS[n] for n in left_out]
        assert bare != node  # spans are part of equality
        for name in left_out:
            setattr(bare, name, values[name])
        assert bare == node
    with pytest.raises(TypeError):
        hash(node)
    with pytest.raises(TypeError, match="arguments, got"):  # a wrong argument count
        cls(*values.values(), None)
    with pytest.raises(TypeError):
        cls(*values.values(), unknown=1)
    if cls.fields:
        with pytest.raises(TypeError, match="arguments, got"):
            cls(*fields[:-1])
        copy = lang.with_field(node, cls.fields[-1], ["new"])
        assert getattr(copy, cls.fields[-1]) == ["new"] and copy != node
        assert [getattr(copy, n) for n in cls.locators] == [values[n] for n in cls.locators]


def test_map_children_keeps_spans_and_equality_sees_them():
    program = parse_imp("def f_int(x_int):\n    return x_int + 1\n")
    again = parse_imp("def f_int(x_int):\n    return x_int + 1\n")
    moved = parse_imp("def f_int(x_int):\n    return x_int  +  1\n")
    assert program == again and program is not again
    assert program.key() == moved.key() and program != moved  # spans differ

    def bump(node):
        if isinstance(node, lang.IntLit):
            return lang.IntLit(node.value + 1)  # span dropped
        return lang.map_children(node, bump)

    plus = program.functions[0].body[0].value
    bumped = bump(plus)
    assert (bumped.span, bumped.op_span) == (plus.span, plus.op_span)
    assert bumped.right.span == lang.NO_SPAN and bumped != plus
    assert bumped == lang.BinOp(plus.left, "+", lang.IntLit(2), plus.span, plus.op_span)
    assert bumped != lang.BinOp(plus.left, "+", lang.IntLit(2), plus.span)  # op_span
    assert lang.Compare(plus.left, "+", plus.right, plus.span, plus.op_span) != plus


def test_map_children_at_a_span_copies_every_node_there():
    plus = parse_imp("def f_int(x_int):\n    return x_int + 1\n").functions[0].body[0].value
    at = lang.Span(9, 9, 90, 95)
    placed = lang.map_children(plus, lambda child: child, at)
    assert placed is not plus and placed.key() == plus.key()
    assert (placed.span, placed.op_span) == (at, lang.NO_SPAN)  # other locators left out
    assert placed.left is plus.left  # a child keeps its own span
    assert lang.map_children(lang.Pass(lang.NO_SPAN), None, at) == lang.Pass(at)
    assert lang.map_children("+", None, at) == "+"  # an operator is no node


def test_spans_are_immutable_values():
    span = lang.Span(1, 2, 3, 4)
    assert span == lang.Span(1, 2, 3, 4) and hash(span) == hash(lang.Span(1, 2, 3, 4))
    assert span != lang.Span(1, 2, 3, 5) and span != (1, 2, 3, 4)
    assert repr(span) == "Span(line=1, col=2, start=3, end=4)"
    assert lang.Span() == lang.NO_SPAN == lang.Span(line=0, col=0, start=0, end=0)
    with pytest.raises(AttributeError):
        span.line = 9
    assert pickle.loads(pickle.dumps(span)) == span  # and so a parsed tree
    program = parse_imp("def f_int(x_int):\n    return x_int\n")
    assert pickle.loads(pickle.dumps(program)) == program


def test_children_in_field_order():
    node = lang.BinOp(lang.Var("a"), "+", lang.IntLit(1))
    assert lang.children(node) == [node.left, node.right]
    op = eml.MetaVar("aop", "aop")
    node.op = op
    assert lang.children(node) == [node.left, op, node.right]
    sliced = lang.Slice(lang.Var("xs"), None, lang.IntLit(2))
    assert lang.children(sliced) == [sliced.base, sliced.hi]


def test_map_children_copies_only_what_changes():
    program = parse_imp("def f_int(x_int):\n    y = x_int + 1\n    return y\n")
    assert lang.map_children(program, lambda child: child) is program

    def bump(node):
        if isinstance(node, lang.IntLit):
            return lang.IntLit(node.value + 1, node.span)
        return lang.map_children(node, bump)

    bumped = bump(program)
    assign, ret = bumped.functions[0].body
    assert assign.value.right.value == 2 and program.functions[0].body[0].value.right.value == 1
    assert assign.span == program.functions[0].body[0].span
    assert assign.value.op_span == program.functions[0].body[0].value.op_span
    assert ret is program.functions[0].body[1]  # unchanged subtrees are shared
    assert bumped.source == program.source


def test_map_children_splices_lists_into_blocks():
    program = parse_imp("def f_int(x_int):\n    pass\n    return x_int\n")
    twice = lang.map_children(program.functions[0], lambda s: [s, s])
    assert [type(s) for s in twice.body] == [lang.Pass, lang.Pass, lang.Return, lang.Return]


def test_size_counts_statements_loop_variables_and_present_slice_ends():
    program = parse_imp(
        "def f_int(x_int):\n    for i in xs[1:]:\n        pass\n    return x_int\n"
    )
    # def, for + its variable, slice, xs, 1, pass, return, x_int
    assert lang.size(program) == 9
    assert lang.size(program.functions[0].body) == 8
