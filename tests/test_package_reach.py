"""Every module-level function and class of the package is used by the
package itself, a demo or the benchmark: code that only the tests call
belongs in the tests.

A definition counts as used when its name appears in code (a name, an
attribute or an imported name) somewhere in ``src/qurdlab``, ``demos/``
or ``perfbench/``, outside the definition itself.  Docstrings and other
strings do not count.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qurdlab"
CALLERS = (PACKAGE, ROOT / "demos", ROOT / "perfbench")


def definitions():
    """(module, name, node) of each module-level function and class."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                yield path, node


def references():
    """Each file's names used in code, with the line of each use."""
    for root in CALLERS:
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Name):
                    yield path, node.id, node.lineno
                elif isinstance(node, ast.Attribute):
                    yield path, node.attr, node.lineno
                elif isinstance(node, ast.alias):
                    yield path, node.name.rpartition(".")[2], node.lineno


def test_every_package_definition_has_a_caller():
    uses = list(references())
    unused = []
    for path, node in definitions():
        inside = range(node.lineno, node.end_lineno + 1)
        if not any(name == node.name and not (where == path and line in inside)
                   for where, name, line in uses):
            unused.append(f"{path.stem}.{node.name}")
    assert unused == []
