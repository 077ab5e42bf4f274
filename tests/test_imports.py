"""The library runs on the standard library alone.

``pyproject.toml`` declares no runtime dependency, so every absolute
import under ``src/`` must name a standard-library module or ``repro``
itself.  Imports inside functions count too: a lazy import of a
third-party package fails only when its caller runs.
"""

import ast
import pathlib
import sys

import repro

_PACKAGE = pathlib.Path(repro.__file__).parent
_ALLOWED = sys.stdlib_module_names | {"repro"}


def _absolute_imports():
    for path in sorted(_PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    yield path, node.lineno, alias.name
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                yield path, node.lineno, node.module


def test_src_imports_only_the_standard_library():
    modules = list(_absolute_imports())
    assert modules
    foreign = [
        f"{path.relative_to(_PACKAGE.parent)}:{line}: {module}"
        for path, line, module in modules
        if module.split(".")[0] not in _ALLOWED
    ]
    assert foreign == []
