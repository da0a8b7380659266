"""One assembly, one block split and one set of dense eigensolvers in the package.

A Hamiltonian is assembled by ``model._assemble`` alone, split into its
blocks once, by ``Hamiltonian.blocks``, and every dense eigendecomposition
of one goes through ``SpectralCalculus``.  The check reads the AST of
``src/nelsonlab``: each code reference (a ``Name`` or ``Attribute``, never
docstring or comment text) to a dense Hermitian eigensolver or to a
connected-components pass, and each call that constructs a ``Hamiltonian``,
is attributed to the function or method that encloses it, and must sit in
one of the places ``ALLOWED`` or ``CONSTRUCTED`` names.  A second dense
path, a second split or a second assembly then fails here instead of
drifting from the first by roundoff.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from nelsonlab import fock, model
from nelsonlab.split import build_tensor_basis

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

# calls that construct the class; annotations and isinstance checks are free
CONSTRUCTED = {
    # the one assembly of a diagonal plus the coupling, and the propagator's
    # wrap of a bare matrix it is handed
    "Hamiltonian": {"model._assemble", "dynamics.krylov_expm_apply"},
}


def references(tree: ast.Module, module: str, names, calls: bool = False):
    """(name, enclosing scope) of every code reference to one of ``names``,
    or with ``calls`` of every call of one, the scope dotted as
    ``module.Class.function`` (``module`` at top level)."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        target = node
        if calls:
            target = node.func if isinstance(node, ast.Call) else None
        if isinstance(target, ast.Name) and target.id in names:
            found.append((target.id, scope))
        elif isinstance(target, ast.Attribute) and target.attr in names:
            found.append((target.attr, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, module)
    return found


def found(package: Path):
    """(name, scope, places) of every reference to a name of ``ALLOWED`` and
    every construction of one of ``CONSTRUCTED`` in the package."""
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for table, calls in ((ALLOWED, False), (CONSTRUCTED, True)):
            for name, scope in references(tree, path.stem, set(table), calls):
                yield name, scope, table[name]


def misplaced(package: Path) -> list:
    """References and constructions of the package outside their places;
    a definition does not count as a reference to itself."""
    return [f"{name} in {scope}" for name, scope, places in found(package)
            if scope not in places]


def test_one_block_split_and_one_dense_path():
    assert misplaced(PACKAGE) == []


def test_every_allowed_place_still_refers_to_its_name():
    """An entry whose reference is gone fails too, so the list cannot go stale."""
    seen = {(name, scope) for name, scope, _ in found(PACKAGE)}
    assert {(name, scope) for table in (ALLOWED, CONSTRUCTED)
            for name, places in table.items() for scope in places} <= seen


def test_the_scan_finds_a_second_dense_path(tmp_path):
    """On a synthetic package: a whole-matrix ``eigh`` in another function, a
    split outside ``Hamiltonian.blocks`` and a ``Hamiltonian`` built outside
    the assembly are found; text, annotations and isinstance are not."""
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
    (tmp_path / "model.py").write_text(
        "def build_fiber_H(ms, P, basis) -> Hamiltonian:\n"
        "    '''Hamiltonian(mat)'''\n"
        "    return Hamiltonian(mat, basis)\n\n\n"
        "def _assemble(ms, diag, rows, cols, c, basis=None):\n"
        "    H = model.Hamiltonian(diag)\n"
        "    return H if isinstance(H, Hamiltonian) else None\n",
        encoding="utf-8")
    assert misplaced(tmp_path) == ["Hamiltonian in model.build_fiber_H",
                                   "eigh in spectral.ground_state",
                                   "pattern_components in spectral.SpectralCalculus.__init__"]


@pytest.mark.parametrize("n_modes,n_max,g", [(M, n, g) for M in (8, 12, 16)
                                             for n in (2, 3) for g in (0.0, 0.05)])
def test_extended_fiber_outer_vacuum_block_is_the_fiber(n_modes, n_max, g):
    """The extended fiber's block on the outer vacuum is ``build_fiber_H``,
    stored entry for entry: the same indptr, indices and data."""
    grid = fock.line_grid(n_modes, 1.5, 0.2)
    ms = model.ModelSpec(model.DispersionLaw("nonrel", 1.0), model.FormFactor(1.0, 1.0, 0.2),
                         grid, g)
    basis = fock.build_basis(grid, n_max)
    tb = build_tensor_basis(basis)
    outer_vacuum = np.flatnonzero(tb.pair_numbers()[:, 1] == 0)
    assert np.array_equal(tb.pairs[outer_vacuum, 0], np.arange(basis.size))
    block = model.extended_fiber_H(ms, [0.25], tb).mat[outer_vacuum][:, outer_vacuum]
    block.sort_indices()
    H = model.build_fiber_H(ms, [0.25], basis).mat
    assert block.dtype == H.dtype
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(block, part), getattr(H, part)), part
