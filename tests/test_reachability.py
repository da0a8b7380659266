"""Every public definition in the package is reached by code other than tests.

A definition counts as reached when its name appears as a code name (an AST
``Name`` or ``Attribute``, never docstring or comment text) in package code
outside its own definition, or anywhere in ``demos/`` or ``perfbench/``.
The definitions checked are the public top-level functions and classes of
``src/nelsonlab``, the public methods of its classes and the public fields
of its dataclasses.  Names are matched bare, so a reference to any
definition of the same name counts: the check errs towards passing.

A definition only tests reach is unreachable code: it is either wired into
a command, criterion, demo or benchmark, or deleted with its tests.
``ALLOWED`` lists the deliberate exceptions with their reasons; an entry
that is no longer needed fails the check too, so the list cannot go stale.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "nelsonlab"
CALLERS = ("demos", "perfbench")

ALLOWED = {
    "spectral.grad_bound_check": "kept to be folded into the dressed-electron speed report "
                                 "next to criterion 9",
}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _code_names(tree: ast.AST):
    """(name, node) of every Name and Attribute in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any("dataclass" in ast.unparse(d) for d in cls.decorator_list)


def _public_definitions(tree: ast.Module):
    """(qualified name, bare name, defining node) of the module's public
    top-level functions and classes, class methods and dataclass fields."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield node.name, node.name, node
        if not isinstance(node, ast.ClassDef):
            continue
        for sub in node.body:
            if isinstance(sub, ast.FunctionDef):
                name = sub.name
            elif (isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name)
                  and _is_dataclass(node)):
                name = sub.target.id
            else:
                continue
            if not name.startswith("_"):
                yield f"{node.name}.{name}", name, sub


def unreached_definitions() -> list:
    modules = {path.stem: _parse(path) for path in sorted(PACKAGE.glob("*.py"))}
    outside = {name for folder in CALLERS for path in sorted((ROOT / folder).rglob("*.py"))
               for name, _ in _code_names(_parse(path))}
    # every package reference, with the node that makes it
    package_refs = {}
    for tree in modules.values():
        for name, node in _code_names(tree):
            package_refs.setdefault(name, []).append(node)
    unreached = []
    for module, tree in modules.items():
        for qualname, name, definition in _public_definitions(tree):
            own = {id(node) for node in ast.walk(definition)}
            if name in outside or any(id(node) not in own for node in package_refs.get(name, ())):
                continue
            unreached.append(f"{module}.{qualname}")
    return unreached


def test_every_public_definition_is_reached_outside_the_tests():
    unreached = unreached_definitions()
    extra = sorted(set(unreached) - set(ALLOWED))
    assert not extra, (f"reached only by tests, or by nothing: {extra}; wire each into a "
                       "command, criterion, demo or benchmark, or delete it")
    stale = sorted(set(ALLOWED) - set(unreached))
    assert not stale, f"ALLOWED names definitions that are reached or gone: {stale}"


def test_the_scan_sees_code_names_and_not_text():
    tree = ast.parse('def f():\n    """g h"""\n    return k.m\n')
    assert {name for name, _ in _code_names(tree)} == {"k", "m"}
    assert [q for q, _, _ in _public_definitions(ast.parse(
        "@dataclass\nclass A:\n    x: int\n    _y: int\n    def f(self): pass\n"
        "    def _g(self): pass\ndef _h(): pass\n"))] == ["A", "A.x", "A.f"]
