import ast
import os
import sys

import autofix

PACKAGE = os.path.dirname(autofix.__file__)


def package_imports():
    """(file name, import node) for every import statement of the package."""
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), name)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                yield name, node


def test_the_package_imports_only_itself_and_the_standard_library():
    foreign = []
    for name, node in package_imports():
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif node.level == 0:
            modules = [node.module]
        else:
            continue  # a relative import names the package
        foreign += [
            f"{name}: {module}" for module in modules
            if module.split(".")[0] not in sys.stdlib_module_names | {"autofix"}
        ]
    assert foreign == []


def test_no_module_imports_another_modules_private_name():
    private = [
        f"{name}: {alias.name}"
        for name, node in package_imports()
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("autofix"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []
