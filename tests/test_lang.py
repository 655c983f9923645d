import dataclasses
import inspect

import pytest

from autofix import eml, lang
from autofix.parser import parse_imp

# fields that only locate a node in its text; every other field is structural
LOCATION_FIELDS = {"span", "op_span", "source"}

NODE_CLASSES = [
    cls
    for module in (lang, eml)
    for _, cls in inspect.getmembers(module, inspect.isclass)
    if issubclass(cls, lang.Node) and dataclasses.is_dataclass(cls)
]


def test_every_node_class_is_checked():
    assert len(NODE_CLASSES) == 22 + 7  # lang's node classes, eml's template forms


@pytest.mark.parametrize("cls", NODE_CLASSES, ids=lambda cls: cls.__name__)
def test_declared_fields_are_the_dataclass_fields(cls):
    # a field missing from `fields` would be skipped by every traversal;
    # `map_children` also relies on the location fields coming last
    names = [f.name for f in dataclasses.fields(cls)]
    assert names[: len(cls.fields)] == list(cls.fields)
    assert set(names[len(cls.fields):]) <= LOCATION_FIELDS
    assert len(names) > len(cls.fields)  # every node has a span or a source
    assert not LOCATION_FIELDS & set(cls.fields)
    assert "key" not in vars(cls)  # the one structural key is the base class's


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
