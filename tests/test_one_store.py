"""`verify` reads the family instances from one store.

Classify's index holds every family instance, and `verify._corpus` is
the one way in: no criterion enumerates the instances itself, and no
function but `_corpus` reads the index.  A criterion that loops over
`families.instances`, `fan_instances` or `enumerate_b_minors` fails
here until it reads `_corpus` instead.
"""

import ast
import inspect

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
