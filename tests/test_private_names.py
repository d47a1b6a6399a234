"""Every module-level private name of the package is used in the package.

A private helper (a function, class or constant whose name starts with one
underscore) that nothing in src/ reads is dead code.  Uses are loads of the
name or of an attribute of that name anywhere in src/dscat, and dotted
strings such as "dscat.checks._run_checks", by which _worker.pair names
the function the worker process runs.  The definition itself is no use.
"""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "dscat"
DOTTED = re.compile(r"dscat(\.\w+)+")


def _private_definitions(tree: ast.Module) -> list:
    """(name, line) of each module-level _name bound by def, class or =."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append((node.name, node.lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        names.append((leaf.id, node.lineno))
    return [(n, line) for n, line in names if n.startswith("_") and not n.startswith("__")]


def _uses(tree: ast.Module) -> set:
    """The names that tree reads, as names, attributes or dotted strings."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if DOTTED.fullmatch(node.value):
                used.add(node.value.rsplit(".", 1)[1])
    return used


def test_every_private_module_name_is_used():
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    used = set().union(*(_uses(tree) for tree in trees.values()))
    defined = [(name, f"{module}:{line}") for module, tree in trees.items()
               for name, line in _private_definitions(tree)]
    assert defined  # the scan sees the package
    dead = [f"{where} {name}" for name, where in defined if name not in used]
    assert dead == []


def test_the_guard_sees_an_unused_helper():
    tree = ast.parse("def _dead():\n    pass\n\n_LIMIT = 3\n\ndef run():\n    return _LIMIT\n")
    assert _private_definitions(tree) == [("_dead", 1), ("_LIMIT", 4)]
    assert "_dead" not in _uses(tree) and "_LIMIT" in _uses(tree)
    pair = ast.parse('pair("dscat.checks._run_checks", ctx)')
    assert "_run_checks" in _uses(pair)
