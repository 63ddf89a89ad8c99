"""`verify` reads the family instances from one store.

Classify's index holds every family instance, and `verify._corpus` is
the one way in: no criterion enumerates the instances itself, and no
function but `_corpus` reads the index.  A criterion that loops over
`families.instances`, `fan_instances` or `enumerate_b_minors` fails
here until it reads `_corpus` instead.  Which built index serves a
request is decided in classify alone: no other module names its
`_indexes`.
"""

import ast
import importlib
import inspect
import pkgutil

import almostplanar
from almostplanar import verify

ENUMERATORS = {"instances", "fan_instances", "enumerate_b_minors"}


def _names(node: ast.AST) -> set[str]:
    """Every name that node reads, imports or takes as an attribute."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name)
    return found


def test_verify_reads_family_instances_only_through_the_corpus():
    tree = ast.parse(inspect.getsource(verify))
    assert not _names(tree) & ENUMERATORS
    readers = {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and "_candidates" in _names(node)
    }
    assert readers == {"_corpus"}


def test_only_classify_decides_which_index_serves():
    for info in pkgutil.iter_modules(almostplanar.__path__):
        if info.name != "classify":
            module = importlib.import_module(f"almostplanar.{info.name}")
            tree = ast.parse(inspect.getsource(module))
            assert "_indexes" not in _names(tree), info.name
    imported = {
        alias.name
        for node in ast.walk(ast.parse(inspect.getsource(verify)))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert "_is_built" not in imported
