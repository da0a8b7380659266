"""Every public definition in the package is reached by code other than tests.

The callers are package code, ``perfbench/`` and the acceptance criteria of
``tests/test_acceptance.py``.  A reference is a code name (an AST ``Name``
or ``Attribute``, never docstring or comment text) outside the definition
itself.  The definitions checked are the public top-level functions and
classes of ``src/nelsonlab``, the public methods of its classes and the
public fields of its dataclasses.

A top-level function or class ``mod.name`` counts as reached only through a
qualified reference: ``m.name`` with ``m`` bound to the package module
``mod`` (``from nelsonlab import mod``, ``from . import mod``,
``import nelsonlab.mod as m``), the bare ``name`` inside ``mod`` itself, or
the bare ``name`` in a file that imports it from ``mod`` (``from .mod import
name``, ``from nelsonlab.mod import name``).  Methods and dataclass fields
are matched bare, since the AST holds no types: any ``Name`` or
``Attribute`` of their name counts, so for them the check errs towards
passing.

A definition only tests reach is unreachable code: it is either wired into
a command, criterion or benchmark, or deleted with its tests.  Demos are no
callers: they illustrate the package and keep nothing alive.  ``ALLOWED``
lists the deliberate exceptions with their reasons; an entry that is no
longer needed fails the check too, so the list cannot go stale.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "nelsonlab"
CALLERS = (ROOT / "perfbench", ROOT / "tests" / "test_acceptance.py")

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


def _bindings(tree: ast.Module, package: str, modules) -> tuple[dict, dict]:
    """Local names a file binds to the package's modules, and to definitions
    imported from them: ({local: module}, {local: (module, name)})."""
    aliases, imported = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                mod = alias.name.removeprefix(package + ".")
                if alias.asname and mod in modules:
                    aliases[alias.asname] = mod
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = node.module
            elif node.module == package or (node.module or "").startswith(package + "."):
                base = node.module.removeprefix(package).removeprefix(".") or None
            else:
                continue
            for alias in node.names:
                local = alias.asname or alias.name
                if base is None and alias.name in modules:
                    aliases[local] = alias.name
                elif base in modules:
                    imported[local] = (base, alias.name)
    return aliases, imported


def _qualified_refs(tree: ast.Module, own: str | None, package: str, modules):
    """((module, name), node) of every reference in ``tree`` to a top-level
    definition of a package module; ``own`` is the file's own module, if any."""
    aliases, imported = _bindings(tree, package, modules)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            yield (aliases[node.value.id], node.attr), node
        elif isinstance(node, ast.Name):
            if node.id in imported:
                yield imported[node.id], node
            elif own is not None:
                yield (own, node.id), node


def unreached_definitions(package: Path, callers) -> list:
    """Public definitions of the package at ``package`` that neither package
    code nor any file in ``callers`` (files or folders) refers to."""
    modules = {path.stem: _parse(path) for path in sorted(package.glob("*.py"))}
    files = [(None, _parse(path)) for caller in map(Path, callers)
             for path in ([caller] if caller.is_file() else sorted(caller.rglob("*.py")))]
    files += list(modules.items())
    bare, qualified = {}, {}
    for own, tree in files:
        for name, node in _code_names(tree):
            bare.setdefault(name, []).append(node)
        for key, node in _qualified_refs(tree, own, package.name, modules):
            qualified.setdefault(key, []).append(node)
    unreached = []
    for module, tree in modules.items():
        for qualname, name, definition in _public_definitions(tree):
            refs = qualified.get((module, name), ()) if qualname == name else bare.get(name, ())
            inside = {id(node) for node in ast.walk(definition)}
            if not any(id(node) not in inside for node in refs):
                unreached.append(f"{module}.{qualname}")
    return unreached


def test_every_public_definition_is_reached_outside_the_tests():
    unreached = unreached_definitions(PACKAGE, CALLERS)
    extra = sorted(set(unreached) - set(ALLOWED))
    assert not extra, (f"reached only by tests, demos or nothing: {extra}; wire each into a "
                       "command, criterion or benchmark, or delete it")
    stale = sorted(set(ALLOWED) - set(unreached))
    assert not stale, f"ALLOWED names definitions that are reached or gone: {stale}"


def test_the_scan_sees_code_names_and_not_text():
    tree = ast.parse('def f():\n    """g h"""\n    return k.m\n')
    assert {name for name, _ in _code_names(tree)} == {"k", "m"}
    assert [q for q, _, _ in _public_definitions(ast.parse(
        "@dataclass\nclass A:\n    x: int\n    _y: int\n    def f(self): pass\n"
        "    def _g(self): pass\ndef _h(): pass\n"))] == ["A", "A.x", "A.f"]


def test_top_level_names_are_matched_by_module(tmp_path):
    """On a synthetic package ``pkg``: a demos-like folder keeps nothing
    alive, ``obj.name`` reaches no function of another module, and
    ``mod.name``, ``from .mod import name`` and the bare name inside its own
    module do; methods stay matched bare."""
    files = {
        "pkg/a.py": ("def via_demo(): pass\ndef via_other_object(): pass\n"
                     "def via_module(): pass\ndef via_import(): pass\n"
                     "def via_relative(): pass\ndef via_own_module(): pass\n"
                     "def unused(): return unused()\n"
                     "def _helper(): return via_own_module()\n"
                     "class Thing:\n    def go(self): pass\n"),
        "pkg/b.py": "from .a import via_relative\n\n\ndef _run():\n    return via_relative()\n",
        "bench/run.py": ("from pkg import a\nfrom pkg.a import via_import\n\n"
                         "a.via_module()\nvia_import()\nobj.via_other_object()\n"
                         "a.Thing().go()\n"),
        "demos/show.py": "from pkg import a\n\na.via_demo()\na.unused()\n",
    }
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text(text, encoding="utf-8")
    assert unreached_definitions(tmp_path / "pkg", [tmp_path / "bench"]) == [
        "a.via_demo", "a.via_other_object", "a.unused"]
    assert unreached_definitions(tmp_path / "pkg", [tmp_path / "bench", tmp_path / "demos"]) == [
        "a.via_other_object"]
