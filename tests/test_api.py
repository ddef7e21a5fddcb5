"""The package keeps no code that only the tests reach: every function,
class and method in src/convmacw is referenced by the rest of the
package, or is an entry point called from outside it."""

import ast
from collections import defaultdict
from pathlib import Path

import convmacw

SRC = Path(convmacw.__file__).parent
# the library example of the README, the methods README documents and the
# names bench/ calls; methods by qualified name
ENTRY_POINTS = {"FieldSpec", "FMat", "PolyMatrix", "is_basic", "is_minimal",
                "dual_generator", "code_degree", "DualPair", "DualityReport",
                "check_weak_identity", "search_witness",
                "closed_form_witness_dual", "closed_form_witness_primal",
                "check_unit_memory", "build_parser", "CodeDocument",
                "FieldSpec.trace", "AdjMatrix.entry", "FieldSpec.element",
                "FieldSpec.zero", "FMat.zero", "FMat.identity", "Subspace.coordinates", "vec_mat",
                "PolyMatrix.transpose", "PolyMatrix.is_zero", "Subspace.orth"}


def _definitions(tree):
    """Top-level functions and classes, and the methods of the classes
    (dunder methods are called by the language, not by name), each with
    its qualified name and whether it is a method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node, False
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{sub.name}", sub, True) for sub in node.body
                        if isinstance(sub, ast.FunctionDef)
                        and not (sub.name.startswith("__") and sub.name.endswith("__")))


def test_every_definition_is_referenced():
    # __init__.py only re-exports, so its references do not count
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    # a method is reached only through an attribute access, and not one on
    # numpy (np.trace is not FieldSpec.trace); a function or class also
    # through a bare name read (a local variable written is no reference)
    attrs, names = defaultdict(set), defaultdict(set)   # name -> ids of the nodes
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names[node.id].add(id(node))
            elif isinstance(node, ast.Attribute) and not (
                    isinstance(node.value, ast.Name) and node.value.id == "np"):
                attrs[node.attr].add(id(node))
    unreferenced = []
    for name, tree in trees.items():
        for qualname, node, method in _definitions(tree):
            own = {id(n) for n in ast.walk(node)}
            uses = attrs[node.name] if method else attrs[node.name] | names[node.name]
            if qualname not in ENTRY_POINTS and not uses - own:
                unreferenced.append(f"{name}:{node.lineno} {qualname}")
    assert not unreferenced
    defined = {qualname for tree in trees.values() for qualname, _, _ in _definitions(tree)}
    assert ENTRY_POINTS <= defined
