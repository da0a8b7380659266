"""One block split and one set of dense eigensolvers in the package.

A Hamiltonian is split into its blocks once, by ``Hamiltonian.blocks``, and
every dense eigendecomposition of one goes through ``SpectralCalculus``.
The check reads the AST of ``src/nelsonlab``: each code reference (a
``Name`` or ``Attribute``, never docstring or comment text) to a dense
Hermitian eigensolver or to a connected-components pass is attributed to
the function or method that encloses it, and must sit in one of the places
``ALLOWED`` names.  A second dense path or a second split then fails here
instead of drifting from the first by roundoff.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nelsonlab"

ALLOWED = {
    # the block-wise eigendecomposition behind the calculus and dense ground states
    "eigh": {"spectral.SpectralCalculus.__init__",
             # criterion 7 samples combinations of the window's eigenvectors
             "mourre._window_subspace",
             # M x M mode matrices, not Hamiltonians
             "fock.WeightedSpectrum.__init__"},
    "eigvalsh": set(),
    # the one block split, and the one pass it runs
    "pattern_components": {"model.Hamiltonian.blocks"},
    "connected_components": {"model.pattern_components"},
}


def references(tree: ast.Module, module: str, names):
    """(name, enclosing scope) of every code reference to one of ``names``,
    the scope dotted as ``module.Class.function`` (``module`` at top level)."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        if isinstance(node, ast.Name) and node.id in names:
            found.append((node.id, scope))
        elif isinstance(node, ast.Attribute) and node.attr in names:
            found.append((node.attr, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, module)
    return found


def misplaced(package: Path) -> list:
    """References of the package to a name of ``ALLOWED`` outside its places;
    a definition does not count as a reference to itself."""
    out = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for name, scope in references(tree, path.stem, set(ALLOWED)):
            if scope not in ALLOWED[name]:
                out.append(f"{name} in {scope}")
    return out


def test_one_block_split_and_one_dense_path():
    assert misplaced(PACKAGE) == []


def test_every_allowed_place_still_refers_to_its_name():
    """An entry whose reference is gone fails too, so the list cannot go stale."""
    seen = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        seen.update(references(tree, path.stem, set(ALLOWED)))
    assert {(name, scope) for name, places in ALLOWED.items() for scope in places} <= seen


def test_the_scan_finds_a_second_dense_path(tmp_path):
    """On a synthetic package: a whole-matrix ``eigh`` in another function and
    a split outside ``Hamiltonian.blocks`` are found; text is not."""
    (tmp_path / "spectral.py").write_text(
        "import numpy as np\n\n\n"
        "def ground_state(H):\n"
        "    '''np.linalg.eigh of the whole matrix'''\n"
        "    return np.linalg.eigh(H.mat.toarray())\n\n\n"
        "class SpectralCalculus:\n"
        "    def __init__(self, H):\n"
        "        self.label = pattern_components(H.mat)\n"
        "        self.vals = np.linalg.eigh(H.mat.toarray())\n",
        encoding="utf-8")
    assert misplaced(tmp_path) == ["eigh in spectral.ground_state",
                                   "pattern_components in spectral.SpectralCalculus.__init__"]
