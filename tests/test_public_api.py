"""Every public name of the package, and every public method of its public
classes, has a caller in the package or the benchmark, not only in the
tests; every exported name resolves on first access to the object its
module defines."""

import ast
import importlib
from pathlib import Path

import embedlab

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "embedlab").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))

def _exports(tree: ast.Module) -> set[str]:
    """The names of ``__all__``, else every public top-level name."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return {ast.literal_eval(elt) for elt in node.value.elts}
    return {name for node in tree.body for name in _defined(node) if not name.startswith("_")}


def _defined(node: ast.stmt) -> set[str]:
    """Names bound by a top-level function, class or assignment."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    targets = node.targets if isinstance(node, ast.Assign) else (
        [node.target] if isinstance(node, ast.AnnAssign) else [])
    return {t.id for t in targets if isinstance(t, ast.Name)}


def _references(tree: ast.Module) -> set[str]:
    """Names read in a module as bare names or attributes, except the reads
    inside the top-level definition of the same name.  Imports and
    ``__all__`` entries are not reads, so re-exports do not count."""
    used = set()
    for top in tree.body:
        own = _defined(top)
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                name = node.attr
            else:
                continue
            if name not in own:
                used.add(name)
    return used


def test_every_public_name_has_a_caller_outside_the_tests():
    public, used = set(embedlab.__all__), set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        public |= _exports(tree)
        used |= _references(tree)
    assert sorted(public - used) == []


def _public_methods(tree: ast.Module):
    """(class name, method node) for each public method of each public
    top-level class, properties included."""
    for top in tree.body:
        if isinstance(top, ast.ClassDef) and not top.name.startswith("_"):
            for node in top.body:
                if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not node.name.startswith("_")):
                    yield top.name, node


def _attribute_reads(tree: ast.AST) -> list[ast.Attribute]:
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)]


def test_every_public_method_has_a_caller_outside_the_tests():
    """A method counts as called when its name is read as an attribute
    anywhere in the package or the benchmark outside its own ``def``.  The
    check goes by name only, not by the class of the object read from, so
    it is coarse: a method shares the callers of every attribute of the
    same name, and it catches only names that nothing reads at all."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in SOURCES}
    reads = {path: _attribute_reads(tree) for path, tree in trees.items()}
    uncalled = []
    for path in sorted((ROOT / "src" / "embedlab").glob("*.py")):
        for cls, method in _public_methods(trees[path]):
            own = {id(node) for node in _attribute_reads(method)}
            if not any(node.attr == method.name and id(node) not in own
                       for nodes in reads.values() for node in nodes):
                uncalled.append(f"{path.stem}.{cls}.{method.name}")
    assert uncalled == []


def test_lazy_exports_resolve_to_their_modules():
    # __all__ and the lazy export table name the same objects.
    assert sorted(embedlab.__all__) == sorted(embedlab._OWNER)
    for name in embedlab.__all__:
        module = importlib.import_module(f"embedlab.{embedlab._OWNER[name]}")
        assert getattr(embedlab, name) is getattr(module, name)
