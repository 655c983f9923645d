import ast
import os
import sys

import autofix

PACKAGE = os.path.dirname(autofix.__file__)


def test_the_package_imports_only_itself_and_the_standard_library():
    foreign = []
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue  # a relative import names the package
            foreign += [
                f"{name}: {module}" for module in modules
                if module.split(".")[0] not in sys.stdlib_module_names | {"autofix"}
            ]
    assert foreign == []
