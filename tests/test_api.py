"""The package keeps no code that only the tests reach: every function,
class and method in src/convmacw is referenced by the rest of the
package, or is an entry point called from outside it."""

import ast
from collections import defaultdict
from pathlib import Path

import convmacw

SRC = Path(convmacw.__file__).parent
# the library example of the README and the names bench/ calls
ENTRY_POINTS = {"FieldSpec", "FMat", "PolyMatrix", "is_basic", "is_minimal",
                "dual_generator", "code_degree", "DualPair", "DualityReport",
                "check_weak_identity", "search_witness",
                "closed_form_witness_dual", "closed_form_witness_primal",
                "check_unit_memory", "build_parser", "CodeDocument"}


def _definitions(tree):
    """Top-level functions and classes, and the methods of the classes
    (dunder methods are called by the language, not by name)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (sub for sub in node.body if isinstance(sub, ast.FunctionDef)
                        and not (sub.name.startswith("__") and sub.name.endswith("__")))


def test_every_definition_is_referenced():
    # __init__.py only re-exports, so its references do not count
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    uses = defaultdict(set)   # name -> ids of the nodes that mention it
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses[node.id].add(id(node))
            elif isinstance(node, ast.Attribute):
                uses[node.attr].add(id(node))
    unreferenced = []
    for name, tree in trees.items():
        for node in _definitions(tree):
            own = {id(n) for n in ast.walk(node)}
            if node.name not in ENTRY_POINTS and not uses[node.name] - own:
                unreferenced.append(f"{name}:{node.lineno} {node.name}")
    assert not unreferenced
    defined = {node.name for tree in trees.values() for node in _definitions(tree)}
    assert ENTRY_POINTS <= defined
